"""Outputs pinned by one sha256, computed with the list-of-Fq linear algebra
that the coordinate arrays replaced (commit 1f246bd).  Row reduction gives
one fully reduced echelon form whatever the backend, so the free columns,
the Hecke matrices, the eigensystems in order and the transfer checks must
not move by a single coordinate.

Per space (N, p, a, b) over F_{p^r}: the free columns, T_2 and T_3, and for
every eigensystem over [2, 3] its field degree, its eigenvalues and its
vector; then, on the datum built with c = 1, d = 1, the transfer report and
the measured eigenvalues of T(l, k), l in [2, 3], k in {1, 2, 3}."""

import hashlib
import json

from gl3hecke.characters import DirichletCharacter
from gl3hecke.ffield import make_field
from gl3hecke.modsym2 import SymbolSpace, find_eigensystems
from gl3hecke.transfer import BoundaryDatum, eigenvalue_of, gl3_hecke_on_boundary, run_transfer_checks

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

PINNED = "fe81a9a0cb7f7d7261cc69cbe9a310f3eddc0febbbf1b54310d72ae6e81102b4"


def _record(N, p, a, b, r):
    F = make_field(p, r)
    chi1 = DirichletCharacter.trivial(F, N)
    space = SymbolSpace(N, p, a, b, chi1=chi1, field=F)
    systems = find_eigensystems(space, WINDOW)
    datum = BoundaryDatum.build(p, a, b, 1, 1, N, chi1=chi1, window=WINDOW, field=F)
    measured = [eigenvalue_of(datum, gl3_hecke_on_boundary(datum, l, k)) for l in WINDOW for k in (1, 2, 3)]
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
