"""GL(3) Hecke coset combinatorics over the integers.

Provides the explicit right-coset representatives of the two double cosets
attached to a prime l (determinant l and l^2), the congruence-subgroup
translation gamma moving each representative into the parabolic stabilizing
(1:d:0), the block data psi^1, psi^2 read off after conjugating by the
elementary matrix g_d, and the closed-form orbit classification of P^2(Z/N)
for squarefree N (one orbit per divisor d, named by gcd(v_1, v_2, N)).

All matrices are integer tuples-of-tuples; arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import adj3, det, divisors, is_prime, is_squarefree
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


def smith_diagonal(A):
    """Elementary divisors (d1, d2, d3) of an integer 3x3 matrix by gcds of
    minors; valid for nonzero determinant."""
    d1 = 0
    for row in A:
        for x in row:
            d1 = gcd(d1, x)
    m2 = 0
    adj = adj3(A)
    for row in adj:
        for x in row:
            m2 = gcd(m2, x)
    D = abs(det(A))
    # gcd of 2x2 minors equals D / gcd-of-adjugate... adjugate entries ARE the
    # 2x2 minors up to sign, so m2 is the gcd of the 2x2 minors.
    d2 = m2 // d1
    d3 = D // m2
    return (d1, d2, d3)


def same_right_coset(g, h, N):
    """g Gamma = h Gamma for the level-N congruence subgroup."""
    D = det(g)
    if D == 0 or det(h) != D:
        return False
    prod = mat_mul3(adj3(g), h)  # det(g) * g^{-1} h
    if any(x % D for row in prod for x in row):
        return False
    q = mat3([[x // D for x in row] for row in prod])
    return in_gamma0(q, N)


# -- double-coset representatives (determinant l and l^2) --------------------


@dataclass(frozen=True)
class HeckeCosetSet:
    l: int
    k: int
    N: int
    reps: tuple

    def __len__(self):
        return len(self.reps)


def coset_reps(l, k, N):
    """Right-coset representatives of the double coset of diag(1,..,l,..)
    with k entries l, for the level-N pair.  Exactly l^2 + l + 1 matrices
    for k in {1, 2}; for k = 3 the scalar diag(l, l, l) is its own coset.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if not is_prime(l):
        raise ValueError("l must be prime")
    if N % l == 0:
        raise ValueError("l must not divide N")
    reps = []
    if k == 1:
        for b in range(l):
            for c in range(l):
                reps.append(mat3([[1, 0, 0], [0, 1, 0], [b, c, l]]))
        for a in range(l):
            reps.append(mat3([[1, 0, 0], [a, l, 0], [0, 0, 1]]))
        reps.append(mat3([[l, 0, 0], [0, 1, 0], [0, 0, 1]]))
    elif k == 3:
        reps.append(mat3([[l, 0, 0], [0, l, 0], [0, 0, l]]))
    else:
        for a in range(l):
            for b in range(l):
                reps.append(mat3([[1, 0, 0], [a, l, 0], [b, 0, l]]))
        for c in range(l):
            reps.append(mat3([[l, 0, 0], [0, 1, 0], [0, c, l]]))
        reps.append(mat3([[l, 0, 0], [0, l, 0], [0, 0, 1]]))
    return HeckeCosetSet(l, k, N, tuple(reps))


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


def theorem_psi_blocks(s, d, l):
    """Closed-form (psi1, psi2) for the four representative cases; the oracle
    the numeric translation is tested against."""
    s = mat3(s)
    a, b, c = s[1][0], s[2][0], s[2][1]
    l1, l2, l3 = s[0][0], s[1][1], s[2][2]
    case = _case_of(s, l)
    if case == 1:
        return l1, ((l2, 0), (c - b * d, l3)), 1
    if case == 2:
        return 1, ((l, 0), (-b * d + c * l, l3)), 2
    t = a * d + 1
    if t % l:
        return 1, ((l, 0), (-b * l * d + c * t, l3)), 3
    return l, ((1, 0), (-b * d + c * (t // l), l3)), 4


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


def hecke_orbit_action(l, k, N, d, policy="least"):
    """Per-coset translation data for the orbit of (1:d:0): the complete
    list of (representative, TranslationResult) pairs, with the stabilizer
    condition (1:d:0) s gamma = (1:d:0) verified."""
    out = []
    for s in coset_reps(l, k, N).reps:
        tr = translate_to_parabolic(s, d, N, l=l, policy=policy)
        out.append((s, tr))
    return out


# -- the rank-2 orbit example -------------------------------------------------


def _primitive(v):
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def p1_row_orbit_equivalent(N, v, w):
    """Exact decision: is there an integer matrix of determinant one with
    lower-left entry divisible by N taking the primitive row v to +-w?

    Equivalence of rational points under the rank-2 congruence group; solved
    by elementary linear-diophantine reduction, no finite-model shortcut.
    """
    v, w = _primitive(v), _primitive(w)
    for sign in (1, -1):
        if _row_orbit_witness(N, v, (sign * w[0], sign * w[1])) is not None:
            return True
    return False


def _row_orbit_witness(N, v, w):
    """gamma = [[a,b],[c,d]] with det 1, c = 0 mod N, v*gamma = w, or None.

    Write (a, c) = (a0 + t*v2, c0 - t*v1) over the solution line of
    v1*a + v2*c = w1, likewise (b, d) for w2; the determinant condition
    becomes s*w1 - t*w2 = a0*d0 - b0*c0 - 1, linear in the parameters.
    """
    v1, v2 = v
    w1, w2 = w
    g, x, y = xgcd(v1, v2)
    if g != 1:
        return None
    a0, c0 = x * w1, y * w1
    b0, d0 = x * w2, y * w2
    # constraint: c0 - t*v1 = 0 mod N; det: s*w1 - t*w2 = a0*d0 - b0*c0 - 1
    K = a0 * d0 - b0 * c0 - 1
    gt = gcd(v1, N)
    if c0 % gt:
        return None
    # t = t0 + (N//gt)*r over residues mod N solving t*v1 = c0 (mod N)
    v1g, Ng, c0g = v1 // gt, N // gt, c0 // gt
    t0 = c0g * pow(v1g % Ng, -1, Ng) % Ng if Ng > 1 else 0
    M = Ng
    # need s*w1 = K + t*w2 solvable: w1 | K + t*w2 with t = t0 + M*r
    if w1 == 0:
        # need K + t*w2 = 0 exactly: t = -K/w2 when integral and = t0 mod M
        if w2 == 0 or K % w2:
            return None
        t = -K // w2
        if (t - t0) % M:
            return None
        s = 0
    else:
        gg = gcd(M * w2, w1)
        if (K + t0 * w2) % gg:
            return None
        r = -(K + t0 * w2) // gg * pow((M * w2 // gg) % (abs(w1) // gg), -1, abs(w1) // gg) % (abs(w1) // gg) if abs(w1) // gg > 1 else 0
        t = t0 + M * r
        s = (K + t * w2) // w1
    a, c = a0 + t * v2, c0 - t * v1
    b, d = b0 + s * v2, d0 - s * v1
    gamma = ((a, b), (c, d))
    if a * d - b * c != 1 or c % N:
        return None
    if (v1 * a + v2 * c, v1 * b + v2 * d) != w:
        return None
    return gamma


def gl2_orbit_example_check():
    """Semigroup elements need not preserve rational orbits: under the
    rank-2 level-25 group, (5:1) and (5:6) are equivalent but their images
    under diag(2,1), namely (10:1) and (5:3), are not.  The reductions mod 25
    coincide pointwise, so the check is integral, not a finite-model one."""
    N = 25
    if not p1_row_orbit_equivalent(N, (5, 1), (5, 6)):
        return False
    # the shear witness: (5,1) * [[1,1],[0,1]] = (5,6)
    if (5 * 1 + 1 * 0, 5 * 1 + 1 * 1) != (5, 6):
        return False
    a = (5 * 2, 1)
    b = _primitive((5 * 2, 6 * 1))
    if b != (5, 3):
        return False
    return not p1_row_orbit_equivalent(N, a, b)
