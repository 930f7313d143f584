"""Outputs pinned by one sha256, computed with the list-of-Fq linear algebra
that the coordinate arrays replaced (commit 1f246bd).  Row reduction gives
one fully reduced echelon form whatever the backend, so the free columns,
the Hecke matrices, the eigensystems in order and the transfer checks must
not move by a single coordinate.

Per space (N, p, a, b) over F_{p^r}: the free columns, T_2 and T_3, and for
every eigensystem over [2, 3] its field degree, its eigenvalues and its
vector; then, on the datum built with c = 1, d = 1, the transfer report and
the measured eigenvalues of T(l, k), l in [2, 3], k in {1, 2, 3}.

A second sha256 pins the GL(3) modules: for each module key of the
local-weights benchmark, at its base label and twisted by det, the basis,
rho of the generators, and the parabolic invariants with their isomorphism
onto the rank-2 model.  MODULE_PINNED is the build from the weight-graded
W, whose rows are in pivot order.  SPUN_MODULE_PINNED is the same record as
the float64 remainder, the D x D Kronecker carrier and the per-twist
carrier action computed it (commit 0e89602), from the G(F_p) spin of W,
whose rows are those of the same reduced echelon form in the order the
spin found them; with that spin put back in place of the graded W, the
radical and the invariants still give those bytes, so the order of W's
rows is the only change between the two digests."""

import hashlib
import json

from gl3hecke import modrep
from gl3hecke.characters import DirichletCharacter
from gl3hecke.ffield import make_field
from gl3hecke.modrep import build_gl3_module, gl_generators, u_invariants
from gl3hecke.modsym2 import SymbolSpace, find_eigensystems
from gl3hecke.transfer import BoundaryDatum, eigenvalue_of, run_transfer_checks

from _oracles import gfp_highest_weight_span

WINDOW = (2, 3)

# (N, p, a, b, r): the level-11 weight-2 space mod 5, the boundary benchmark's
# eight extension spaces, and one space built over F_{7^3}
SPACES = [
    (11, 5, 0, 0, 1),
    (11, 13, 4, 0, 1),
    (11, 7, 4, 0, 1),
    (53, 7, 0, 0, 1),
    (11, 5, 4, 0, 1),
    (43, 5, 0, 0, 1),
    (29, 5, 0, 0, 1),
    (67, 5, 0, 0, 1),
    (11, 13, 0, 0, 1),
    (11, 7, 4, 0, 3),
]

PINNED = "9581550c51f34b5de64d5545b9cc682833281a5992f05f1a388e691b773b0e02"


def _record(N, p, a, b, r):
    F = make_field(p, r)
    chi1 = DirichletCharacter.trivial(F, N)
    space = SymbolSpace(N, p, a, b, chi1=chi1)
    systems = find_eigensystems(space, WINDOW)
    datum = BoundaryDatum.build(p, a, b, 1, 1, N, chi1=chi1, window=WINDOW)
    measured = [eigenvalue_of(datum, l, k) for l in WINDOW for k in (1, 2, 3)]
    return {
        "key": [N, p, a, b, r],
        "free": list(space.free),
        "hecke": [space.hecke_matrix(l).tolist() for l in WINDOW],
        "systems": [
            [s.field.r, [[l, list(s.lambdas[l].coords)] for l in sorted(s.lambdas)], s.vector.tolist()]
            for s in systems
        ],
        "report": run_transfer_checks(datum, WINDOW),
        "eigenvalues": [None if ev is None else list(ev.coords) for ev in measured],
    }


def test_outputs_match_the_pinned_digest():
    blob = json.dumps([_record(*key) for key in SPACES], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED


# The GL(3) modules of the local-weights benchmark: each key (p, a-b, b-c)
# at its base label (a-c, b-c, 0) and at the twist by det^1.
MODULE_KEYS = [
    (5, 1, 3), (5, 3, 1), (7, 0, 0), (7, 0, 6), (7, 1, 1), (7, 3, 0), (7, 3, 3),
    (11, 2, 3), (11, 3, 2), (11, 5, 6), (11, 6, 5), (13, 0, 3), (13, 6, 0),
]

MODULE_PINNED = "cf16655fc1882ba2905e049810c8033391affedd017a277876d97c20921cd875"
SPUN_MODULE_PINNED = "08043861bbaf9dca7358357e0bdb95a37d8e212ab723d2ee3a81600fdde201af"


def _module_record(p, a, b, c):
    mod = build_gl3_module(p, a, b, c)
    levi = u_invariants(mod)
    arrays = [mod.basis] + [mod.rho(g) for g in gl_generators(3, p)] + [levi.basis, levi.iso]
    return [[p, a, b, c], [x.tolist() for x in arrays]]


def _module_digest():
    labels = [(p, i + j + c, j + c, c) for p, i, j in MODULE_KEYS for c in (0, 1)]
    blob = json.dumps([_module_record(*label) for label in labels])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_modules_match_the_pinned_digest():
    assert _module_digest() == MODULE_PINNED


def test_modules_from_the_spun_w_match_the_spun_digest(monkeypatch):
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    monkeypatch.setattr(modrep, "_highest_weight_span", lambda p, i, j, act: gfp_highest_weight_span(p, i, j))
    assert _module_digest() == SPUN_MODULE_PINNED
