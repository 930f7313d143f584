"""The gl3hecke command.

    gl3hecke module P A B C

builds the irreducible module F(A,B,C) of GL_3 over F_P and its parabolic
invariants, and prints one JSON object with sorted keys: the label, the
module and carrier dimensions, the number of weight spaces of the module,
the dimension and GL(2) label of the invariants, and under "timings" the
wall time of each stage, the only part that changes from run to run.
"""

from __future__ import annotations

import argparse
import json
import time

from . import modrep


def module_summary(p, a, b, c):
    """The JSON record of `gl3hecke module p a b c`."""
    timings = {}
    start = time.perf_counter()
    mod = modrep.build_gl3_module(p, a, b, c)
    timings["build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    levi = modrep.u_invariants(mod)
    timings["u_invariants_s"] = time.perf_counter() - start
    return {
        "label": list(mod.label),
        "dim": mod.dim,
        "carrier_dim": mod.carrier_dim,
        "weight_spaces": len(set(map(tuple, mod.weights.tolist()))),
        "levi_dim": levi.dim,
        "gl2_label": list(levi.gl2_module.label),
        "timings": timings,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gl3hecke")
    commands = parser.add_subparsers(dest="command", required=True)
    module = commands.add_parser("module", help="build F(a,b,c) over F_p and its parabolic invariants")
    for name in ("p", "a", "b", "c"):
        module.add_argument(name, type=int)
    args = parser.parse_args(argv)
    try:
        record = module_summary(args.p, args.a, args.b, args.c)
    except ValueError as err:
        parser.error(str(err))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
