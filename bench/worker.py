"""One benchmark pass in a fresh process: set up, run every case in a closed
loop, check each output, report one JSON line per event on stdout.

Run by run.py; by hand:
    python3 bench/worker.py --workload boundary-fixture --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASE_LIMIT_S = 40.0  # about four times the slowest case when the benchmark was written


class CaseTimeout(BaseException):
    """Raised in the case when it exceeds the per-case limit.  A BaseException,
    so that no handler in the library can swallow it."""


def emit(event, **fields):
    sys.stdout.write(json.dumps(dict(fields, event=event)) + "\n")
    sys.stdout.flush()


def _on_alarm(signum, frame):
    raise CaseTimeout()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the gzipped span list of a traced pass")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import gl3hecke

    if Path(gl3hecke.__file__).resolve().parent != ROOT / "src" / "gl3hecke":
        raise SystemExit("gl3hecke was imported from %s, not from this checkout" % gl3hecke.__file__)
    import workloads

    cases = workloads.make_cases(args.workload, args.seed)
    emit(
        "ready",
        cases=len(cases),
        why=workloads.WHY[args.workload],
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        key_repeat_share=workloads.key_repeat_share(cases),
    )
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner = workloads.Runner()
    runner.install()
    signal.signal(signal.SIGALRM, _on_alarm)

    self_checked = set()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
            root = tracer.open("case." + case["kind"])
        error, problems, out = None, [], None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
        try:
            out = runner.run(case)
        except CaseTimeout:
            error = "over the per-case limit of %g s" % CASE_LIMIT_S
        except Exception as exc:  # a raising case is a failed case, not a crashed pass
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
        if error is None:
            problems = workloads.check(case, out)
            if not problems and case["kind"] not in self_checked:
                self_checked.add(case["kind"])
                caught = bool(workloads.check(case, workloads.corrupt(case, out)))
                emit("selfcheck", kind=case["kind"], caught=caught)
        emit("case", index=i, id=case["id"], seconds=seconds, error=error, problems=problems[:5])

    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["modrep.build_gl3.key_repeat_share"] = workloads.key_repeat_share(cases)
        if args.spans:
            tracer.write(args.spans)
    emit("done", peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, layers=layers)


if __name__ == "__main__":
    main()
