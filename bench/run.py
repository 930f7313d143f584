"""gl3hecke benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload boundary-fixture --seed 1 --seconds 30 --trace 0

Workloads (inputs, checks and the reason for each are in workloads.py):
boundary-fixture, boundary-ext, local-weights.

Every pass runs in a fresh worker process (worker.py), so the library's
caches start empty; inside it one thread runs the cases in a closed loop,
the next case starting when the previous one returns.  At least two passes
run, and more while the next one would end within --seconds.  A traced run
(--trace 1) alternates traced and untraced passes, starting with a traced
one, so the tracing overhead is measured in the same run.  Before the
passes, a few set-up-only workers time start-up, import and input
generation, so that the set-up time is a median of several samples.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
with the end-to-end metrics (medians over passes) when --trace 0, and with
the per-layer metrics (medians over traced passes) when --trace 1.  The line before it,
and .bench_out/<workload>-seed<seed>-trace<t>.json, hold the run's record:
per-pass figures, failures, versions, nproc and the source version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from worker import CASE_LIMIT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
SILENCE_GRACE_S = 20.0  # a worker silent this long past the case limit is killed
HARD_CAP_S = 165.0  # no worker outlives this, so the run ends within 180 s


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("ratio", "share", "_frac")):
        return "ratio"
    if name.endswith("_dim"):
        return "dim"
    return "count"


def run_worker(args, hard_end, traced=False, setup_only=False, spans=None):
    """Start one worker, collect its events until it exits, is silent for
    too long, or reaches the hard end of the run; always reap it."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    events, buf, killed = [], b"", False
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            last = t0
            while True:
                wait = min(last + CASE_LIMIT_S + SILENCE_GRACE_S, hard_end) - time.monotonic()
                if wait <= 0:
                    killed = True
                    break
                if not sel.select(wait):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    last = time.monotonic()
                    events.append(dict(json.loads(line), t=last - t0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    wall = time.monotonic() - t0
    ready = next((e for e in events if e["event"] == "ready"), None)
    if ready is None:
        raise SystemExit("worker failed before its cases were ready (exit code %s)" % proc.returncode)
    return events, ready, wall, killed


def summarize_pass(events, ready, wall, killed, traced):
    cases = [e for e in events if e["event"] == "case"]
    done = next((e for e in events if e["event"] == "done"), None)
    failures = [{"id": e["id"], "error": e["error"], "problems": e["problems"]} for e in cases if e["error"] or e["problems"]]
    unreached = ready["cases"] - len(cases)
    if unreached:
        failures.append({"id": "%d cases not reached" % unreached, "error": "pass cut off" if killed else "worker exited"})
    seconds = [e["seconds"] for e in cases]
    return {
        "traced": traced,
        "setup_s": ready["t"],
        "wall_s": wall,
        "run_s": sum(seconds),
        "case_ids": [e["id"] for e in cases],
        "case_seconds": seconds,
        "attempted": ready["cases"],
        "failed": sum(1 for e in cases if e["error"] or e["problems"]) + unreached,
        "failures": failures,
        "selfchecks": {e["kind"]: e["caught"] for e in events if e["event"] == "selfcheck"},
        "peak_rss_mb": done["peak_rss_mb"] if done else None,
        "layers": done["layers"] if done else None,
    }


def source_version():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return commit, digest.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gl3hecke" / "__init__.py").is_file():
        raise SystemExit("no gl3hecke sources under %s" % (ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    hard_end = start + HARD_CAP_S

    setup_samples = []
    for _ in range(SETUP_PROBES):
        _, ready, _, _ = run_worker(args, hard_end, setup_only=True)
        setup_samples.append(ready["t"])

    passes = []
    measure_start = time.monotonic()
    spans = OUT / ("%s-seed%d.spans.jsonl.gz" % (args.workload, args.seed))
    while time.monotonic() < hard_end:
        n = len(passes)
        if n and time.monotonic() + passes[-1]["wall_s"] > hard_end:
            break
        if n >= 2 and time.monotonic() - measure_start + passes[-1]["wall_s"] > args.seconds:
            break
        traced = bool(args.trace) and n % 2 == 0
        events, ready, wall, killed = run_worker(args, hard_end, traced=traced, spans=spans if traced else None)
        passes.append(summarize_pass(events, ready, wall, killed, traced))
    setup_samples += [p["setup_s"] for p in passes]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    selfchecks = {}
    for p in passes:
        for kind, caught in p["selfchecks"].items():
            selfchecks[kind] = selfchecks.get(kind, True) and caught
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"] and p["layers"] is not None]

    def median(key, group):
        values = [p[key] for p in group if p[key] is not None]
        return statistics.median(values) if values else 0.0

    def slowest_case(group):
        """The median time of the case that is slowest on median: the wait
        on the hardest instance, robust to one disturbed pass."""
        times = defaultdict(list)
        for p in group:
            for i, s in enumerate(p["case_seconds"]):
                times[i].append(s)
        return max((statistics.median(v) for v in times.values()), default=0.0)

    if args.trace:
        names = traced[0]["layers"] if traced else {}
        metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
        metrics["trace.run_s"] = median("run_s", traced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - median("run_s", untraced)
    else:
        metrics = {
            "run_s": median("run_s", untraced),
            "slowest_case_s": slowest_case(untraced),
            "pass_frac": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": median("peak_rss_mb", untraced),
        }
    correct = failed == 0 and all(selfchecks.values()) and (traced or not args.trace)

    commit, src_sha = source_version()
    record = {
        "workload": args.workload,
        "why": ready.get("why"),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": ready["python"],
        "numpy": ready["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src_sha,
        "key_repeat_share": ready["key_repeat_share"],
        "setup_samples_s": setup_samples,
        "selfchecks_caught": selfchecks,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "run_wall_s": time.monotonic() - start,
    }
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
