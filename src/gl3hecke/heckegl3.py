"""GL(3) Hecke coset combinatorics over the integers.

Provides the explicit right-coset representatives of the double cosets
attached to a prime l (determinant l, l^2 and the scalar l^3), the
congruence-subgroup translation gamma moving each representative into the
parabolic P_d stabilizing (1:d:0), the block data psi^1, psi^2 read off after
conjugating by the elementary matrix g_d, and the closed-form orbit
classification of P^2(Z/N) for squarefree N (one orbit per divisor d, named
by gcd(v_1, v_2, N)).

A single matrix is a tuple of integer row tuples, exact in Python ints:
translate_to_parabolic works on one representative this way.  A coset set is
a read-only (n, 3, 3) int64 array, built once per (l, k), and
hecke_orbit_action translates all of it at once.  Every representative is lower triangular with diagonal (l1, l2, l3)
and entries a, b, c below it, and (1, d, 0) s = (l1 + d a, d l2, 0) never
meets its last row: whether s gamma fixes (1:d:0) depends on s only through
the key (l1, l2, a), so gamma is solved once per key (at most l + 2 keys
among the l^2 + l + 1 cosets) and shared by the cosets with that key.  The
certificates that s gamma fixes (1:d:0) and that x = g_d s gamma g_d^{-1}
lies in the standard parabolic are then checked on every coset as array
tests.  With G the largest |entry| of any gamma, entries of s gamma are at
most 3 l G and every intermediate of those tests at most 3 l G (1 + d)^2;
hecke_orbit_action raises OverflowError unless that bound is below 2^63, so
int64 never wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .arith import det, divisors, is_prime, is_squarefree
from .characters import crt, xgcd

# -- integer 3x3 helpers -----------------------------------------------------


def mat3(rows):
    return tuple(tuple(int(x) for x in r) for r in rows)


def mat_mul3(A, B):
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = A
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = B
    return (
        (a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21, a00 * b02 + a01 * b12 + a02 * b22),
        (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21, a10 * b02 + a11 * b12 + a12 * b22),
        (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21, a20 * b02 + a21 * b12 + a22 * b22),
    )


def mat_vec3(v, A):
    """Row vector times matrix."""
    v0, v1, v2 = v
    return tuple(v0 * A[0][j] + v1 * A[1][j] + v2 * A[2][j] for j in range(3))


IDENTITY3 = mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def g_elem(d):
    """The elementary matrix with (1,2)-entry d conjugating P_0 to P_d."""
    return ((1, d, 0), (0, 1, 0), (0, 0, 1))


def g_elem_inv(d):
    return ((1, -d, 0), (0, 1, 0), (0, 0, 1))


def in_semigroup(s, N, n=3):
    """Membership in S_0: integer matrix, first row = (*,0,...,0) mod N."""
    return all(s[0][j] % N == 0 for j in range(1, n)) if N > 1 else True


def in_gamma0(g, N):
    """Membership in the determinant-one congruence subgroup with first row
    congruent to (*,0,0) mod N."""
    return det(g) == 1 and in_semigroup(g, N)


def in_parabolic(s, d):
    """s stabilizes (1:d:0) projectively."""
    v = mat_vec3((1, d, 0), s)
    # projective equality with (1, d, 0): cross-multiplication
    return v[2] == 0 and v[1] == d * v[0] and v[0] != 0


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
    return _coset_table(l, k)[0]


@lru_cache(maxsize=None)
def _coset_table(l, k):
    """The representatives (the level only restricts l), one representative
    per key (l1, l2, a) as a tuple of rows, and the index of each coset's
    key."""
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
    # entries of reps lie in [0, l], so this names the key (l1, l2, a)
    key = (reps[:, 0, 0] * (l + 1) + reps[:, 1, 1]) * (l + 1) + reps[:, 1, 0]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    for a in (reps, inverse):
        a.setflags(write=False)
    return reps, tuple(map(mat3, reps[first].tolist())), inverse


# -- translation into the parabolic ------------------------------------------


@dataclass(frozen=True)
class TranslationResult:
    s: tuple
    gamma: tuple
    x: tuple  # g_d s gamma g_d^{-1}, in the standard parabolic
    d: int
    N: int
    case: int

    @property
    def psi1(self):
        return self.x[0][0]

    @property
    def psi2(self):
        return ((self.x[1][1], self.x[1][2]), (self.x[2][1], self.x[2][2]))


def _case_of(s, l):
    """Case split of the lower-triangular representative s with diagonal
    (l1, l2, l3) and below-diagonal entries a, b, c."""
    l1, l2 = s[0][0], s[1][1]
    a = s[1][0]
    if l1 == l2 and a == 0:
        return 1
    if l1 == l and l2 == 1 and a == 0:
        return 2
    if l1 == 1 and l2 == l:
        return 3  # refined to 4 by divisibility later
    raise ValueError("matrix is not one of the standard representatives")


def translate_to_parabolic(s, d, N, l=None, policy="least"):
    """Find gamma in the level-N group with s*gamma in the parabolic P_d.

    s must be one of the coset_reps shapes (lower triangular, diagonal
    (l1,l2,l3) a permutation-compatible pattern of 1s and a prime l).  The
    returned x = g_d s gamma g_d^{-1} lies in the standard parabolic; its
    (1,1) entry and lower 2x2 block are the transfer data.

    policy chooses the congruence representative used for the solution
    (gamma is not unique); "alt" picks a different one, for independence
    checks downstream.
    """
    s = mat3(s)
    if N % d or gcd(d, N // d) != 1:
        raise ValueError("d must divide N with gcd(d, N/d) = 1")
    if s[0][1] or s[0][2] or s[1][2]:
        raise ValueError("representative must be lower triangular")
    if l is None:
        l = max(s[0][0], s[1][1], s[2][2])
    if gcd(det(s), N) != 1:
        raise ValueError("determinant must be prime to N")
    a, b, c = s[1][0], s[2][0], s[2][1]
    l1, l2, l3 = s[0][0], s[1][1], s[2][2]
    case = _case_of(s, l)
    m = N // d
    bump = 1 if policy == "alt" else 0

    if case == 1:
        gamma = IDENTITY3
    elif case == 2:
        # solve Cd = 1 mod l and Cd = 1-l mod N/d, then k from exactness
        dinv_l = pow(d % l, -1, l)
        c1 = dinv_l % l
        if m > 1:
            c2 = (1 - l) * pow(d % m, -1, m) % m
            C = crt([c1, c2], [l, m])
        else:
            C = c1
        C += bump * l * m
        k = (-C * d - l + 1) // (m * l)
        A, B, D = 1 + k * m, k * N, l + C * d
        gamma = ((A, B, 0), (C, D, 0), (0, 0, 1))
    else:
        t = a * d + 1
        if t % l != 0:
            case = 3
            # 1 = k*(t*N/d) + C*(l*d) + t*l
            g, k0, C0 = xgcd(t * m, l * d)
            assert g == 1
            rhs = 1 - t * l
            k, C = k0 * rhs, C0 * rhs
            # normalize the free parameter deterministically
            shift = (k // (l * d)) + bump
            k -= shift * (l * d)
            C += shift * (t * m)
            A, B, D = k * m + l, k * N, t + C * d
            gamma = ((A, B, 0), (C, D, 0), (0, 0, 1))
        else:
            case = 4
            u = t // l
            # 1 = u + k*(N/d)*u + C*d
            g, k0, C0 = xgcd(m * u, d)
            assert g == 1
            rhs = 1 - u
            k, C = k0 * rhs, C0 * rhs
            shift = (k // d) + bump
            k -= shift * d
            C += shift * (m * u)
            A, B, D = 1 + k * m, k * N, u + C * d
            gamma = ((A, B, 0), (C, D, 0), (0, 0, 1))

    if not in_gamma0(gamma, N):
        raise RuntimeError("internal error: gamma not in the level group")
    sg = mat_mul3(s, gamma)
    if not in_parabolic(sg, d):
        raise RuntimeError("internal error: s*gamma not in the parabolic")
    x = mat_mul3(mat_mul3(g_elem(d), sg), g_elem_inv(d))
    if x[0][1] or x[0][2]:
        raise RuntimeError("internal error: x not in the standard parabolic")
    return TranslationResult(s=s, gamma=gamma, x=x, d=d, N=N, case=case)


def psi_blocks(s, d):
    """(psi^1, psi^2) of an element of P_d, read off after conjugation."""
    s = mat3(s)
    if not in_parabolic(s, d):
        raise ValueError("matrix does not stabilize (1:d:0)")
    x = mat_mul3(mat_mul3(g_elem(d), s), g_elem_inv(d))
    if x[0][1] or x[0][2]:
        raise ValueError("conjugate not in the standard parabolic")
    return x[0][0], ((x[1][1], x[1][2]), (x[2][1], x[2][2]))


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


@dataclass(frozen=True, eq=False)
class CosetTranslations:
    """The translation data of a whole coset set, one row per coset: reps,
    gamma and x = g_d s gamma g_d^{-1} of shape (n, 3, 3), case of shape
    (n,), and the views psi1 (n,) and psi2 (n, 2, 2) of x."""

    reps: np.ndarray
    gamma: np.ndarray
    x: np.ndarray
    case: np.ndarray

    @property
    def psi1(self):
        return self.x[:, 0, 0]

    @property
    def psi2(self):
        return self.x[:, 1:, 1:]

    def __len__(self):
        return len(self.reps)


def hecke_orbit_action(l, k, N, d, policy="least"):
    """Translation data of every right coset of T(l, k) for the orbit of
    (1:d:0).  gamma is solved by translate_to_parabolic once per key
    (l1, l2, a) (see the module docstring); that (1:d:0) s gamma = (1:d:0)
    and that x lies in the standard parabolic are verified on every coset."""
    reps = coset_reps(l, k, N)
    _, keyed, inverse = _coset_table(l, k)
    solved = [translate_to_parabolic(s, d, N, l=l, policy=policy) for s in keyed]
    G = max(abs(v) for tr in solved for row in tr.gamma for v in row)
    if 3 * l * G * (1 + d) ** 2 >= 2**63:
        raise OverflowError("coset translation at l = %d, N = %d, d = %d overflows int64" % (l, N, d))
    gamma = np.array([tr.gamma for tr in solved], dtype=np.int64)[inverse]
    case = np.array([tr.case for tr in solved], dtype=np.int64)[inverse]
    sg = reps @ gamma
    v = sg[:, 0] + d * sg[:, 1]  # (1, d, 0) s gamma
    if ((v[:, 2] != 0) | (v[:, 1] != d * v[:, 0]) | (v[:, 0] == 0)).any():
        raise RuntimeError("internal error: s*gamma not in the parabolic")
    x = np.array(g_elem(d), dtype=np.int64) @ sg @ np.array(g_elem_inv(d), dtype=np.int64)
    if x[:, 0, 1:].any():
        raise RuntimeError("internal error: x not in the standard parabolic")
    return CosetTranslations(reps=reps, gamma=gamma, x=x, case=case)
