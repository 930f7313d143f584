"""GL(3) Hecke coset combinatorics over the integers.

Provides the explicit right-coset representatives of the double cosets
attached to a prime l (determinant l, l^2 and the scalar l^3), the Levi
blocks psi^1, psi^2 of each representative once it is moved into the
parabolic P_d stabilizing (1:d:0), and the closed-form orbit classification
of P^2(Z/N) for squarefree N (one orbit per divisor d, named by
gcd(v_1, v_2, N)).

A coset set is a read-only (n, 3, 3) int64 array, built once per (l, k).
Every representative s is lower triangular with diagonal (l1, l2, l3) and
entries s_10 = a, s_20 = b, s_21 = c.  The transfer needs, for a gamma in
the level-N group with s gamma in P_d, only psi^1 = x_00 and
psi^2 = x[1:, 1:] of x = g_d s gamma g_d^{-1}, where g_d is the elementary
matrix with (0, 1)-entry d.  These have a closed form.  Take
gamma = ((A, B, 0), (C, D, 0), (0, 0, 1)) with B = kN, and put u = B - dA,
v = D - dC.  Multiplying out,

    x_01 = (l1 + da) u + d l2 v,    x_00 = (l1 + da) A + d l2 C,
    x_11 = a u + l2 v,              x_21 = b u + c v,
    x_02 = x_12 = 0,  x_22 = l3,    det gamma = A v - u C.

So s gamma lies in P_d iff x_01 = 0, and then, substituting d l2 v =
-(l1 + da) u, v x_00 = (l1 + da) det gamma, so psi^1 = (l1 + da) / v.  The
blocks depend on gamma only through (u, v).  With t = ad + 1 and m = N/d,
each shape of representative gets one (u, v) with x_01 = 0:

    case  shape                        u      v      psi^1  psi^2
    1     l1 = l2, a = 0               -d     1      l1     ((l2, 0), (c - b d, l3))
    2     (l1, l2) = (l, 1), a = 0     -d     l      1      ((l, 0), (c l - b d, l3))
    3     (l1, l2) = (1, l), l !| t    -l d   t      1      ((l, 0), (c t - b l d, l3))
    4     (l1, l2) = (1, l), l | t     -d     t/l    l      ((1, 0), (c t/l - b d, l3))

Write u = -e d (e = l in case 3, else 1).  Then A = e + k m, D = v + dC, and
det gamma = 1 is the one equation k (m v) + C (d e) = 1 - e v in the free
pair (k, C).  It is solvable when d | N, gcd(d, m) = 1 and l !| N: then m
is prime to d e, and so is v, since t = 1 mod d, l !| d, and l !| t in
case 3, the one case with e = l.  Every solution gives the same psi^1 and
psi^2, because they depend on gamma only through (u, v).
hecke_orbit_action therefore reads the blocks off the table and never
forms gamma; solving gamma is left to the test oracles (tests/_oracles.py).

Bound: a, b, c < l and t <= T = (l - 1) d + 1.  The largest intermediate of
the table is l2 v = l t in case 3, at most l T; the products a u, b u and
c v are at most (l - 1) l d, and each sum adds two terms of opposite sign.
The determinant certificate multiplies three entries of size at most l.
hecke_orbit_action raises OverflowError unless l max(l^2, T) < 2^63, so
int64 never wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .arith import divisors, is_prime, is_squarefree

# -- double-coset representatives (determinant l and l^2) --------------------


def coset_reps(l, k, N):
    """Right-coset representatives of the double coset of diag(1,..,l,..)
    with k entries l, for the level-N pair, as a read-only (n, 3, 3) int64
    array shared by every caller.  Exactly l^2 + l + 1 matrices for k in
    {1, 2}; for k = 3 the scalar diag(l, l, l) is its own coset.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if not is_prime(l):
        raise ValueError("l must be prime")
    if N % l == 0:
        raise ValueError("l must not divide N")
    return _coset_table(l, k)


@lru_cache(maxsize=None)
def _coset_table(l, k):
    """The representatives; the level only restricts l."""
    if k == 3:
        reps = l * np.eye(3, dtype=np.int64)[None]
    else:
        n = l * l + l + 1
        reps = np.tile(np.eye(3, dtype=np.int64), (n, 1, 1))
        outer, inner = np.divmod(np.arange(l * l), l)
        grid, line, last = reps[: l * l], reps[l * l : n - 1], reps[n - 1]
        if k == 1:
            # [[1,0,0],[0,1,0],[b,c,l]], then [[1,0,0],[a,l,0],[0,0,1]], diag(l,1,1)
            grid[:, 2, 0], grid[:, 2, 1], grid[:, 2, 2] = outer, inner, l
            line[:, 1, 0], line[:, 1, 1] = np.arange(l), l
            last[0, 0] = l
        else:
            # [[1,0,0],[a,l,0],[b,0,l]], then [[l,0,0],[0,1,0],[0,c,l]], diag(l,l,1)
            grid[:, 1, 0], grid[:, 2, 0], grid[:, 1, 1], grid[:, 2, 2] = outer, inner, l, l
            line[:, 0, 0], line[:, 2, 1], line[:, 2, 2] = l, np.arange(l), l
            last[0, 0] = last[1, 1] = l
    reps.setflags(write=False)
    return reps


# -- Levi blocks in the parabolic ----------------------------------------------


@dataclass(frozen=True, eq=False)
class CosetTranslations:
    """The Levi blocks of a whole coset set, one row per coset: reps of
    shape (n, 3, 3), case, psi1 and slot of shape (n,), psi2 of shape
    (n, 2, 2).  slot is the index, among the ks of the call, of the k whose
    coset the row is."""

    reps: np.ndarray
    case: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    slot: np.ndarray

    def __len__(self):
        return len(self.reps)


def hecke_orbit_action(l, k, N, d):
    """psi^1, psi^2 and the case of every right coset of T(l, k) for the
    orbit of (1:d:0), read off the closed form of the module docstring;
    psi^1 det psi^2 = det s is verified on every coset.  k is one k or a
    sequence of ks: the cosets of all of them are concatenated in the order
    of the ks, and one pass computes and checks their blocks."""
    ks = (k,) if np.ndim(k) == 0 else tuple(k)
    tables = [coset_reps(l, j, N) for j in ks]
    if d < 1 or N % d or gcd(d, N // d) != 1:
        raise ValueError("d must divide N with gcd(d, N/d) = 1")
    if l * max(l * l, (l - 1) * d + 1) >= 2**63:
        raise OverflowError("coset blocks at l = %d, d = %d overflow int64" % (l, d))
    reps = np.concatenate(tables)
    case, psi1, psi2 = _levi_blocks(reps, l, d)
    det_s = reps[:, 0, 0] * reps[:, 1, 1] * reps[:, 2, 2]
    det_psi2 = psi2[:, 0, 0] * psi2[:, 1, 1] - psi2[:, 0, 1] * psi2[:, 1, 0]
    if (psi1 * det_psi2 != det_s).any():
        raise RuntimeError("internal error: psi1 * det psi2 differs from det s")
    slot = np.repeat(np.arange(len(ks)), [len(t) for t in tables])
    return CosetTranslations(reps=reps, case=case, psi1=psi1, psi2=psi2, slot=slot)


def _levi_blocks(reps, l, d):
    """case, psi^1 and psi^2 of every representative, by the table of the
    module docstring.

    Every psi^2 lies in the level-N semigroup of the rank-2 group, for
    every N prime to l: its (0, 1) entry is x_12 = 0, never written into
    an array that starts from zeros, and its determinant is a power of l.
    psi^2_11 = l3 is 1 or l, and psi^2_00 = a u + l2 v is l2 in case 1, l in
    case 2, l (t - a d) = l in case 3 and t - a d = 1 in case 4, so
    det psi^2 = psi^2_00 l3 is 1, l or l^2."""
    l1, l2, l3 = reps[:, 0, 0], reps[:, 1, 1], reps[:, 2, 2]
    a, b, c = reps[:, 1, 0], reps[:, 2, 0], reps[:, 2, 1]
    t = a * d + 1
    # among the representatives l1 = l2 forces a = 0, and l1 = l != l2
    # forces (l2, a) = (1, 0)
    case = np.select([l1 == l2, l1 == l, t % l > 0], [1, 2, 3], 4)
    u = np.where(case == 3, -l * d, -d)
    v = np.choose(case - 1, [1, l, t, t // l])
    psi2 = np.zeros((len(reps), 2, 2), dtype=np.int64)
    psi2[:, 0, 0] = a * u + l2 * v
    psi2[:, 1, 0] = b * u + c * v
    psi2[:, 1, 1] = l3
    return case, (l1 + a * d) // v, psi2


# -- orbits of P^2(Z/N) under the level group --------------------------------


class ProjectiveOrbits:
    """Orbits of P^2(Z/N) under reduction of the level-N group, squarefree N.

    The orbit of a primitive row vector v is named by the divisor
    d = gcd(v_1, v_2, N) of N (indices from 0), and (1:d:0) lies in it, so
    there is one orbit per divisor of N.

    Invariance: every level-group element g has first row (*,0,0) mod N, so
    (v g)_j = v_1 g_1j + v_2 g_2j for j = 1, 2, and its lower-right 2x2 block
    is invertible mod N (1 = det g = g_00 times the block determinant).  So
    gcd(v_1, v_2, N) is unchanged by g, and by scaling v with a unit.

    Transitivity: SL_3(Z) maps onto SL_3(Z/N), so the level group reduces to
    all determinant-one matrices mod N with first row (*,0,0).  For squarefree
    N, CRT splits this group and P^2(Z/N) into the same objects mod each prime
    q | N.  Mod q, either (v_1, v_2) = 0 and v is the single point (1:0:0), or
    a block in GL_2(F_q) moves (v_1, v_2) to (1, 0), g_00 is the inverse of
    its determinant, and the first column sets v_0 to any value.  So each gcd
    class is a single orbit.  The BFS over all points that this replaces is
    the test oracle tests/_oracles.py:BfsProjectiveOrbits.
    """

    def __init__(self, N):
        if not is_squarefree(N):
            raise ValueError("orbit classification requires squarefree N")
        self.N = N

    @property
    def orbit_count(self):
        return len(divisors(self.N))

    def orbit_rep(self, v):
        """The divisor d of N with v in the orbit of (1:d:0)."""
        N = self.N
        if gcd(gcd(gcd(v[0], v[1]), v[2]), N) != 1:
            raise ValueError("vector is not primitive mod %d" % N)
        return gcd(gcd(v[1], v[2]), N)


def orbit_rep(v, N):
    """Divisor d of squarefree N with v in the orbit of (1:d:0)."""
    return ProjectiveOrbits(N).orbit_rep(v)
