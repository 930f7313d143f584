"""The traced benchmark pass (bench/tracing.py) wraps library names at the
places their callers look them up, and reads the results of some of them.
This runs it on the chain's smallest datum, on one GL(3) module build
with its parabolic invariants and on a datum with d = 3 and the quadratic
chi0 mod 3, whose character evaluations are counted, in a fresh interpreter, so that a renamed,
moved or reshaped name fails here and not in a benchmark run.
Nothing under bench/ is changed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracing
from gl3hecke import ffield, modrep, transfer
from gl3hecke.characters import DirichletCharacter

tracer = tracing.Tracer()
tracing.install(tracer)
datum = transfer.BoundaryDatum.build(5, 0, 0, 0, 1, 11, window=(2,))
report = transfer.run_transfer_checks(datum, (2,))
assert [e["l"] for e in report] == [2], report
assert all(v is True for e in report for k, v in e.items() if k != "l"), report
levi = modrep.u_invariants(modrep.build_gl3_module(5, 3, 1, 0))
assert (levi.base.dim, levi.dim) == (15, 3), (levi.base.dim, levi.dim)
metrics = tracing.layer_metrics(tracer)
for name in (
    "modsym2.space.s", "modsym2.find_eigensystems.s", "modsym2.semigroup_act.calls", "transfer.gl3_hecke_on_boundary.calls",
    "modrep.build_gl3.s", "modrep.build_gl3.carrier_dim", "modrep.u_invariants.s", "modrep.build_gl2.s",
):
    assert metrics[name] > 0, name
# T(2,1) and T(2,2), 7 cosets each, and T(2,3): the count reads len() of
# each result of the name transfer calls
assert metrics["heckegl3.cosets"] == 15, metrics["heckegl3.cosets"]
assert metrics["heckegl3.hecke_orbit_action.s"] > 0
# the action matrices of a Hecke operator, or of a boundary operator, come
# from at most one batched symbol pass, not one pass per matrix
spans = tracer.summary()
batches = spans["modsym2.hecke_matrix"][0] + spans["transfer.gl3_hecke_on_boundary"][0]
assert 0 < spans["modsym2.semigroup_act"][0] <= batches, (spans["modsym2.semigroup_act"][0], batches)
chi0 = DirichletCharacter.quadratic(ffield.FiniteField(5), 3)
datum = transfer.BoundaryDatum.build(5, 0, 0, 0, 3, 11, chi0=chi0, window=(2,))
report = transfer.run_transfer_checks(datum, (2,))
assert all(v is True for e in report for k, v in e.items() if k != "l"), report
assert tracing.layer_metrics(tracer)["characters.call.calls"] > 0
print("traced chain ok")
"""


def test_traced_chain_runs_on_the_smallest_datum():
    script = SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "traced chain ok"
