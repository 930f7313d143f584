"""Independent arithmetic oracles used by the test suite.

Most of these never touch the symbol-space machinery: elliptic trace counts are
brute-force point counts, and the discriminant-cusp-form coefficients come
from expanding the Jacobi product directly.  SequentialSpinBasis is the
row-at-a-time basis that the batched linalg.SpinBasis replaced, and
scan_eigen_split is the eigenvalue scan that the root split in
modsym2._eigen_split replaced.  p1_canonical_scan normalises a pair mod N by
scanning every unit, the reference for the modsym2.p1_points label table;
lifted_coset_rep completes a label to a determinant-one matrix through a
coprime integer lift of it mod N, the construction that modsym2._coset_rep
made before it completed the label as it is; and prime_field_minpoly
multiplies out the Frobenius conjugates of a field element.
BfsProjectiveOrbits classifies P^2(Z/N) by a
breadth-first search over every point under generators of the level group,
with points normalised by scanning every unit mod N; it is the reference for
the closed form gcd(v_1, v_2, N) in heckegl3.ProjectiveOrbits.
dict_sub_matrix expands each substituted monomial as a dictionary
polynomial, one matrix of a stack at a time; it is the reference for the
table-driven modrep.sub_matrix.
symbol_terms, coeff_act, to_full, symbol_class and scalar_semigroup_act are
the symbol class of modsym2 as it was before it moved to arrays: each symbol
is decomposed on its own by continued fractions in Python integers, its cosets
found by p1_canonical_scan, and the coefficients applied term by term, with
the module of coeff_act built by the oracle itself; scalar_relations builds
the relations of the quotient the same way, and classes and
scalar_free_columns reduce with them, never with the space's own quotient
map.  They are the reference for SymbolSpace.semigroup_act and
_build_quotient.
rref, nullspace and RowReducer are the row reduction over lists of Fq
entries that linalg ran before it moved to F_p coordinate arrays; they are
the reference for the array versions.  The _poly_*_fq helpers,
distinct_degrees_fq and roots_fq are the polynomial arithmetic over lists of
Fq that ffield ran before its polynomials became coordinate arrays; they are
the reference for the array polynomial layer.
carrier_image is the factored carrier action of a rank-3 build, in the
image(g, rows) form of every module, on a factor table of its own.
kron_carrier is the explicit D x D Kronecker product of the two
substitution matrices; kron_carrier_act puts it in place of the factored
carrier action of modrep, and kron_twist_gl3 in place of the twist by the
base rho: its module multiplies the carrier matrix by det^c and reads
coordinates off it with the base's coordinate map, which
recording_radical_quotient keeps as the base is built.  It is its own
untwisted module, so its parabolic invariants are computed from that rho.
spin is the breadth-first G(F_p) spin that modrep ran before it built W
by weight and certified modules by proof.  spin_certificate is the
irreducibility certificate modrep ran before: the U+-fixed space of the
module is one line, of the labelled weight, and that line spins to the
whole module; it is the reference for modrep._certify_module.
random_invertible is the uniform element of GL_3(F_p) that modrep drew for
its spot check of the form before that check became exact.
gfp_highest_weight_span is the highest-weight submodule W as modrep spun it
under the generators of GL_3(F_p) before it built W one weight space at a
time; its reduced echelon form is the reference for
modrep._highest_weight_span.  carrier_row_highest_weight_span is W as
modrep built it by weight before it read the divided powers as block maps:
the weight components of x_-a(1) on whole carrier rows, for every n; it is
the byte-for-byte reference for the span from f_a^(1) and f_a^(p).
spin_radical_quotient is the quotient of W by its radical as modrep built
it before it worked in W-coordinates and one weight block at a time: the
kernel of the whole Gram matrix, a second spin
over the carrier for the complement rows and a coordinate solve in the
basis [radical; complement]; it is the reference for
modrep._radical_quotient.  gram_kernel_by_nullspace is the Gram kernel as
modrep cut it before it stacked the weight blocks: one np_nullspace per
multi-row block, on the whole carrier rows; it is the reference for
modrep._gram_kernel.  direct_u_invariants computes and
certifies the parabolic invariants of any rank-3 module from its own rho,
as the kernel of rho(u) - 1 for the two unipotent generators; it is the
reference for modrep.u_invariants, which reads them off the weights of a
base module and off the base for a twist.  coord_solver solves for the
coordinates of rows in any basis through rref([B | I]), the solve that
modrep.u_invariants made before it read them at the trailing pivots.  composition_factor_dims is a meataxe that
splits a module given by generator matrices into composition factors, an
independent check of the module dimensions; TwistedAction and twisted_act
are the off-parabolic twisted semigroup action on a module, and levi_act
the block action chi0(psi1) psi1^c chi1(psi2_11) (e | psi2) on the
parabolic invariants, whose scalar transfer.gl3_hecke_on_boundary computes.
mat3, mat_mul3, mat_vec3, g_elem and the membership tests in_semigroup,
in_gamma0 and in_parabolic are exact 3x3 integer matrices as tuples of rows.
translate_to_parabolic is the coset translation that heckegl3 ran before it
read the blocks off a closed form: it solves gamma in the level group with
s gamma in P_d for one representative s, under either of two choices of
the free parameter (policy "least" or "alt"), and returns x = g_d s gamma
g_d^{-1} with psi^1, psi^2 read off it; psi_blocks reads them off any
element of P_d.  theorem_psi_blocks is the table of the heckegl3 module
docstring, one representative at a time.  Together they are the reference
for heckegl3.hecke_orbit_action.  per_coset_reference builds the whole
matrix of a boundary operator T(l,k) from translate_to_parabolic, one coset
and one basis vector at a time; it is the reference for
transfer.gl3_hecke_on_boundary and transfer.eigenvalue_of.
p1_row_orbit_equivalent decides equivalence of rational points of P^1 under
the rank-2 level-N group by linear-diophantine reduction, and
gl2_orbit_example_check uses it for the paper's example that semigroup
elements need not preserve rational orbits.  a_l3 is the closed-form
eigenvalue of the central operator T(l,3).  smith_diagonal reads the
elementary divisors of an integer matrix off gcds of its minors, and
same_right_coset decides g Gamma = h Gamma for the level-N group.
mulmod_schoolbook is the product of two field elements given as integer
coordinate lists, multiplied term by term and reduced by the modulus one
power at a time; it is the reference for ffield.Fq.__mul__.
conductor_pairwise is the least d | N such that chi takes one value on
every pair of units congruent mod d, the definition that
DirichletCharacter.conductor checked before it read the kernel of the
reduction mod d.
"""

import weakref
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from gl3hecke.arith import adj3, crt, det, divisors, is_squarefree, primitive_root, xgcd
from gl3hecke.characters import DirichletCharacter
from gl3hecke.heckegl3 import coset_reps
from gl3hecke.linalg import RowReducer as LinalgRowReducer
from gl3hecke.linalg import SpinBasis, identity, matmul_mod, np_nullspace, np_rref
from gl3hecke.modrep import (
    CertificateError,
    IrreducibleModule,
    LeviModule,
    _carrier_act,
    _carrier_image,
    _carrier_weights,
    _check_highest_weight,
    _factor_lookup,
    _factor_table,
    _intertwiner,
    _radical_quotient,
    _weight_blocks,
    build_gl2_module,
    gl_generators,
    sub_matrix,
    sym_basis,
)
from gl3hecke.transfer import _character_values


def elliptic_ap(l):
    """l + 1 - #E(F_l) for E: y^2 + y = x^3 - x^2 - 10x - 20 (conductor 11)."""
    count = 1  # point at infinity
    for x in range(l):
        for y in range(l):
            if (y * y + y - (x**3 - x * x - 10 * x - 20)) % l == 0:
                count += 1
    return l + 1 - count


def delta_q_coefficients(nterms):
    """Coefficients tau(1), ..., tau(nterms) of q prod (1-q^n)^24."""
    # power series with integer coefficients up to q^(nterms-1) for the product
    prod = [0] * nterms
    prod[0] = 1
    for n in range(1, nterms):
        # multiply by (1 - q^n)^24
        factor = [0] * nterms
        factor[0] = 1
        base = [0] * nterms
        base[0] = 1
        if n < nterms:
            base[n] = -1
        for _ in range(24):
            factor = _series_mul(factor, base, nterms)
        prod = _series_mul(prod, factor, nterms)
    # Delta = q * prod
    return prod[: nterms]


def _series_mul(a, b, nterms):
    out = [0] * nterms
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j >= nterms:
                break
            out[i + j] += ai * bj
    return out


def tau(n):
    coeffs = delta_q_coefficients(n)
    return coeffs[n - 1]


class SequentialSpinBasis:
    """Incremental row-space basis mod p, kept fully reduced."""

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.rows = np.zeros((0, n), dtype=np.int64)
        self.pivots = []

    def reduce(self, v):
        v = np.array(v, dtype=np.int64) % self.p
        for i, c in enumerate(self.pivots):
            if v[c]:
                v = (v - v[c] * self.rows[i]) % self.p
        return v

    def add(self, v):
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = v * pow(int(v[c]), self.p - 2, self.p) % self.p
        if len(self.pivots):
            col = self.rows[:, c].copy()
            hit = np.nonzero(col)[0]
            if hit.size:
                self.rows[hit] = (self.rows[hit] - np.outer(col[hit], v)) % self.p
        self.rows = np.vstack([self.rows, v])
        self.pivots.append(c)
        return True

    def add_rows(self, M):
        """The definition that the batched add_rows must reproduce."""
        return [self.add(v) for v in M]

    @property
    def rank(self):
        return len(self.pivots)

    def basis(self):
        return self.rows.copy()


# -- row reduction over lists of Fq: the reference for linalg -----------------


def rref(rows, field):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    R = [list(r) for r in rows]
    if not R:
        return [], []
    ncols = len(R[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(R)):
            if not R[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        # the pivot row is zero left of c, so only columns from c on change
        inv = R[r][c].inverse()
        R[r][c:] = [x * inv for x in R[r][c:]]
        tail = R[r][c:]
        for i in range(len(R)):
            if i != r and not R[i][c].is_zero():
                f = R[i][c]
                R[i][c:] = [a - f * b for a, b in zip(R[i][c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R[:r], pivots


def nullspace(A, field):
    """Basis of {v : A v = 0}, vectors as lists."""
    if not A:
        return []
    R, pivots = rref(A, field)
    n = len(A[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero()] * n
        v[f] = field.one()
        for i, c in enumerate(pivots):
            v[c] = -R[i][f]
        basis.append(v)
    return basis


class RowReducer:
    """Incrementally maintained reduced row space over a generic field.

    Used to canonicalize vectors modulo a growing relation space: reduce()
    returns the residue of a vector modulo the span of everything added.
    """

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = {}  # pivot column -> reduced row
        self._support = {}  # pivot column -> nonzero columns of its row

    def reduce(self, v):
        # Every row is zero at every other pivot, so the order of the
        # subtractions does not change the result.
        v = list(v)
        for c, row in self.rows.items():
            f = v[c]
            if not f.is_zero():
                for j in self._support[c]:
                    v[j] = v[j] - f * row[j]
        return v

    def add(self, v):
        """Add v to the span. Returns True if the span grew."""
        v = self.reduce(v)
        support = [c for c in range(self.n) if not v[c].is_zero()]
        if not support:
            return False
        piv = support[0]
        inv = v[piv].inverse()
        v = [x * inv for x in v]
        for c, row in self.rows.items():
            f = row[piv]
            if not f.is_zero():
                for j in support:
                    row[j] = row[j] - f * v[j]
                self._support[c] = [j for j in range(self.n) if not row[j].is_zero()]
        self.rows[piv] = v
        self._support[piv] = support
        return True

    @property
    def rank(self):
        return len(self.rows)

    def pivot_columns(self):
        return sorted(self.rows)


def scan_eigen_split(field, A, basis):
    """Eigen-pieces of the restricted matrix A over field, found by trying
    every field element as an eigenvalue: a list of (eigenvalue, basis)
    pairs."""
    k = len(basis)
    pieces = []
    for lam in field.elements():
        M = [[A[i][j] - lam if i == j else A[i][j] for j in range(k)] for i in range(k)]
        ker = nullspace(M, field)
        if not ker:
            continue
        vecs = []
        for cvec in ker:
            v = [field.zero()] * len(basis[0])
            for i, ci in enumerate(cvec):
                if not ci.is_zero():
                    v = [x + ci * y for x, y in zip(v, basis[i])]
            vecs.append(v)
        pieces.append((lam, vecs))
    return pieces


# -- polynomials over lists of Fq: the reference for ffield's array polynomials --
# Polynomials over a field are lists of its elements, constant term
# first, with no zero leading coefficient; the zero polynomial is [].


def _poly_trim_fq(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _poly_add_fq(a, b, field):
    n = max(len(a), len(b))
    zero = field.zero()
    a = list(a) + [zero] * (n - len(a))
    b = list(b) + [zero] * (n - len(b))
    return _poly_trim_fq([x + y for x, y in zip(a, b)])


def _poly_mul_fq(a, b, field):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _poly_trim_fq(out)


def _poly_mod_fq(a, m):
    """a mod m, for monic m."""
    a = _poly_trim_fq(list(a))
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        f = a[-1]
        for i in range(len(m)):
            a[shift + i] = a[shift + i] - f * m[i]
        a = _poly_trim_fq(a)
    return a


def _poly_gcd_fq(a, b):
    """Monic gcd; gcd(0, 0) = 0.  Each divisor is made monic first."""
    a, b = _poly_trim_fq(list(a)), _poly_trim_fq(list(b))
    while b:
        inv = b[-1].inverse()
        b = [c * inv for c in b]
        a, b = b, _poly_mod_fq(a, b)
    if not a:
        return a
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _poly_powmod_fq(base, e, m, field):
    result = _poly_mod_fq([field.one()], m)
    base = _poly_mod_fq(base, m)
    while e:
        if e & 1:
            result = _poly_mod_fq(_poly_mul_fq(result, base, field), m)
        base = _poly_mod_fq(_poly_mul_fq(base, base, field), m)
        e >>= 1
    return result


def distinct_degrees_fq(m, field):
    """The distinct-degree parts of the monic polynomial m: the pairs
    (d, g_d), d increasing, where g_d is the product of the distinct monic
    irreducible factors of m of degree d.  Distinct-degree factorisation on
    m itself, not its squarefree part: after the gcd with x^(q^d) - x finds
    the factors of degree d, every power of them is divided out of m, so a
    factor whose multiplicity is divisible by p is found like any other."""
    q = field.order
    work = _poly_trim_fq(list(m))
    minus_x = [field.zero(), -field.one()]
    h = [field.zero(), field.one()]  # x^(q^d) mod work
    parts = []
    d = 0
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            # every factor left has degree >= d, and there is no room for
            # two of them (a repeated one included): work is irreducible
            parts.append((len(work) - 1, work))
            break
        h = _poly_powmod_fq(h, q, work, field)
        g = _poly_gcd_fq(_poly_add_fq(h, minus_x, field), work)
        if len(g) > 1:
            parts.append((d, g))
            while len(g) > 1:
                work = _poly_divide_out(work, g, field)
                g = _poly_gcd_fq(work, g)
            h = _poly_mod_fq(h, work)
    return parts


def _poly_divide_out(a, g, field):
    """a / g for exact polynomial division by a monic g."""
    a = _poly_trim_fq(list(a))
    out = [field.zero()] * (len(a) - len(g) + 1)
    while len(a) >= len(g):
        f = a[-1]
        shift = len(a) - len(g)
        out[shift] = f
        for i in range(len(g)):
            a[shift + i] = a[shift + i] - f * g[i]
        a = _poly_trim_fq(a)
    return _poly_trim_fq(out)


def roots_fq(m, field):
    """The distinct roots in the field of the monic polynomial m, in
    field.elements() order.  g = gcd(x^q - x, m) is the product of the
    x - root; it is split by deterministic equal-degree splitting with
    gcd(f, (x + a)^((q - 1)/2) - 1) for a in field.elements() (q is odd).
    For two roots r != s, (q - 1)/2 values of a give r + a and s + a
    different quadratic characters, so the loop always finishes."""
    q, p = field.order, field.p
    one = field.one()
    xq = _poly_powmod_fq([field.zero(), one], q, m, field)
    g = _poly_gcd_fq(_poly_add_fq(xq, [field.zero(), -one], field), m)
    linear = [g] if len(g) == 2 else []
    todo = [g] if len(g) > 2 else []
    for a in field.elements():
        if not todo:
            break
        rest = []
        for f in todo:
            h = _poly_gcd_fq(_poly_add_fq(_poly_powmod_fq([a, one], (q - 1) // 2, f, field), [-one], field), f)
            for part in [h, _poly_divide_out(f, h, field)] if 1 < len(h) < len(f) else [f]:
                (linear if len(part) == 2 else rest).append(part)
        todo = rest
    if todo:
        raise RuntimeError("equal-degree splitting left %d factors unsplit" % len(todo))
    # the monic linear factors are x - root
    return sorted((-f[0] for f in linear), key=lambda lam: sum(c * p**i for i, c in enumerate(lam.coords)))


def p1_canonical_scan(v, N):
    """The least of the pairs u * v mod N over the units u mod N; (0, 1)
    mod 1."""
    if N == 1:
        return (0, 1)
    best = None
    for u in range(1, N):
        if gcd(u, N) != 1:
            continue
        cand = (v[0] * u % N, v[1] * u % N)
        if best is None or cand < best:
            best = cand
    return best


def lifted_coset_rep(label, N):
    """The determinant-one matrix [[x, c], [y, d]] with second column a
    coprime integer lift (c, d) of the label mod N, completed by xgcd: the
    lift searches d + k N for k up to 4 N + 1 when gcd(c, d) != 1."""
    c, d = label[0] % N, label[1] % N
    if gcd(c, d) != 1:
        if c == 0:
            c, d = 0, 1
        else:
            d = next(d + k * N for k in range(1, 4 * N + 2) if gcd(c, d + k * N) == 1)
    g, x, y = xgcd(d, -c)
    assert g == 1
    return ((x, c), (y, d))



# -- the scalar symbol class: the reference for modsym2's array pass ----------


def mul2(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def _inv2_unimodular(A):
    d = det(A)
    if d == 1:
        return ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))
    if d == -1:
        return ((-A[1][1], A[0][1]), (A[1][0], -A[0][0]))
    raise ValueError("matrix is not unimodular")


def row_canonical(v):
    g = gcd(v[0], v[1])
    if g == 0:
        raise ValueError("zero row in a symbol")
    v = (v[0] // g, v[1] // g)
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = (-v[0], -v[1])
    return v


def symbol_terms(M):
    """Express the symbol with rows M as a sum of unimodular symbols.

    Returns [(sign, U)] with U integer matrices of determinant +1; rows are
    scaling-normalized lines, and non-unimodular symbols are decomposed
    along continued-fraction paths between the two boundary points.
    """
    u = row_canonical((M[0][0], M[0][1]))
    w = row_canonical((M[1][0], M[1][1]))
    if u == w:
        return []
    d = det((u, w))
    if d == -1:
        w = (-w[0], -w[1])
        d = 1
    if d == 1:
        return [(1, (u, w))]
    terms = []
    for sign, pt in ((-1, u), (1, w)):
        terms.extend((sign * s, U) for s, U in _path_from_infinity(pt))
    return terms


def _path_from_infinity(v):
    """{infinity, v} as consecutive continued-fraction convergent symbols."""
    p, q = v
    if q == 0:
        return []
    if q < 0:
        p, q = -p, -q
    a_list = []
    pp, qq = p, q
    while qq:
        a = pp // qq
        a_list.append(a)
        pp, qq = qq, pp - a * qq
    hs = [(1, 0)]
    h, k = a_list[0], 1
    hs.append((h, k))
    hprev, kprev = 1, 0
    for a in a_list[1:]:
        h, k, hprev, kprev = a * h + hprev, a * k + kprev, h, k
        hs.append((h, k))
    out = []
    for i in range(len(hs) - 1):
        x, y = row_canonical(hs[i]), row_canonical(hs[i + 1])
        if det((x, y)) == -1:
            y = (-y[0], -y[1])
        out.append((1, (x, y)))
    return out


@lru_cache(maxsize=None)
def _gl2_module(p, a, b):
    """build_gl2_module(p, a, b), built once per label."""
    return build_gl2_module(p, a, b)


def coeff_act(space, V, m):
    """V |_chi m for a block V of coefficient columns, shape (dimV, k, r),
    and an integer matrix m of determinant prime to pN: chi1(m_11) times
    the module right action."""
    p, r = space.p, space.field.r
    R = _gl2_module(p, *space.weight).rho(np.array([[m[0][0] % p, m[1][0] % p], [m[0][1] % p, m[1][1] % p]], dtype=np.int64))
    S = space.field.mul_matrices(space.chi1(m[0][0]).coords)
    A = (R[:, None, :, None] * S[:, None, :] % p).reshape(len(R) * len(S), -1)
    k = V.shape[1]
    W = matmul_mod(A, V.swapaxes(1, 2).reshape(space.dimV * r, k), p)
    return W.reshape(space.dimV, r, k).swapaxes(1, 2)


def to_full(space, M, V, out, sign=1):
    """Accumulate the class of the unimodular symbol M with the coefficient
    columns V into the full coordinate columns out, shape (full_dim, k, r);
    the coset is found by scanning the units (p1_canonical_scan)."""
    i = space.index[p1_canonical_scan((M[0][1] % space.N, M[1][1] % space.N), space.N)]
    rep = tuple(map(tuple, space.reps[i].tolist()))
    gamma = mul2(_inv2_unimodular(rep), M)
    base = i * space.dimV
    out[base : base + space.dimV] += sign * coeff_act(space, V, _inv2_unimodular(gamma))


def symbol_class(space, M, V, out, sign=1):
    for s, U in symbol_terms(M):
        to_full(space, U, V, out, sign=sign * s)


def classes(space, full):
    """Coordinates (dim, k, r) of the classes of the full coordinate
    columns full, shape (full_dim, k, r), reduced modulo the relations of
    scalar_relations."""
    rows = scalar_relations(space).reduce(full.swapaxes(0, 1) % space.p)
    return rows[:, space.free].swapaxes(0, 1)


def scalar_semigroup_act(space, V, m):
    """SymbolSpace.semigroup_act by one integer matrix m as a loop over the
    coset representatives and the terms of each symbol, in Python integers."""
    m = tuple(map(tuple, np.asarray(m).tolist()))
    V = np.asarray(V, dtype=np.int64)
    block = V if V.ndim == 3 else V[:, None]
    full = np.zeros((space.full_dim,) + block.shape[1:], dtype=np.int64)
    full[space.free] = block
    out = np.zeros_like(full)
    for i, rep in enumerate(space.reps.tolist()):
        W = full[i * space.dimV : (i + 1) * space.dimV]
        if W.any():
            symbol_class(space, mul2(tuple(map(tuple, rep)), m), coeff_act(space, W, m), out)
    return classes(space, out).reshape(V.shape)


_RELATIONS = weakref.WeakKeyDictionary()


def scalar_relations(space):
    """A RowReducer over the relations of the quotient, built symbol by
    symbol: for each representative the order-4, order-3 and plus-quotient
    relations, each for every coefficient unit vector.  Built once per
    space."""
    if space in _RELATIONS:
        return _RELATIONS[space]
    sigma, tau, eta = ((0, -1), (1, 0)), ((0, -1), (1, -1)), ((1, 0), (0, -1))
    unit = np.zeros((space.dimV, space.dimV, space.field.r), dtype=np.int64)
    unit[range(space.dimV), range(space.dimV), 0] = 1
    rows = []
    for rep in space.reps.tolist():
        rep = tuple(map(tuple, rep))
        rels = np.zeros((3, space.full_dim, space.dimV, space.field.r), dtype=np.int64)
        for rel in rels:
            to_full(space, rep, unit, rel)
        symbol_class(space, mul2(sigma, rep), unit, rels[0])
        symbol_class(space, mul2(tau, rep), unit, rels[1])
        symbol_class(space, mul2(tau, mul2(tau, rep)), unit, rels[1])
        symbol_class(space, mul2(rep, eta), coeff_act(space, unit, eta), rels[2], sign=-1)
        rows.append(rels.swapaxes(1, 2).reshape(-1, space.full_dim, space.field.r) % space.p)
    reducer = _RELATIONS[space] = LinalgRowReducer(space.field, space.full_dim)
    reducer.add_rows(np.concatenate(rows))
    return reducer


def scalar_free_columns(space):
    """The free columns of the quotient of scalar_relations."""
    pivots = set(scalar_relations(space).pivot_columns())
    return [c for c in range(space.full_dim) if c not in pivots]


def prime_field_minpoly(x):
    """Minimal polynomial over F_p of the field element x, as integers,
    monic and constant term first: the product of X - c over the distinct
    Frobenius conjugates c of x.  It does not depend on the modulus of the
    field x lies in, nor on which conjugate x is."""
    F = x.field
    conjugates = [x]
    while conjugates[-1].frobenius() != x:
        conjugates.append(conjugates[-1].frobenius())
    poly = [F.one()]
    for c in conjugates:
        poly = [a - c * b for a, b in zip([F.zero()] + poly, poly + [F.zero()])]
    return tuple(a.lift() for a in poly)


class BfsProjectiveOrbits:
    """Orbit tables for P^2(Z/N) under reduction of the level-N group.

    N must be squarefree; the orbits are then represented by (1:d:0) for
    the positive divisors d of N, which this class certifies by BFS.
    """

    def __init__(self, N):
        if not is_squarefree(N):
            raise ValueError("orbit classification requires squarefree N")
        self.N = N
        self._points = self._enumerate_points(N)
        self._orbit_of = self._bfs_orbits(N)
        self._rep_to_d = {}
        for d in divisors(N):
            self._rep_to_d[self._orbit_of[self.canonical((1, d % N, 0))]] = d

    @staticmethod
    def _enumerate_points(N):
        if N == 1:
            return [(0, 0, 0)]  # the unique point of P^2(Z/1)
        pts = set()
        for x in range(N):
            for y in range(N):
                for z in range(N):
                    if gcd(gcd(gcd(x, y), z), N) == 1:
                        pts.add(_proj_canonical((x, y, z), N))
        return sorted(pts)

    def points(self):
        return list(self._points)

    def canonical(self, v):
        if self.N == 1:
            return (0, 0, 0)
        v = tuple(x % self.N for x in v)
        if gcd(gcd(gcd(v[0], v[1]), v[2]), self.N) != 1:
            raise ValueError("vector is not primitive mod %d" % self.N)
        return _proj_canonical(v, self.N)

    def _bfs_orbits(self, N):
        orbit_of = {}
        if N == 1:
            orbit_of[(0, 0, 0)] = 0
            return orbit_of
        gens = level_group_generators(N)
        next_orbit = 0
        for start in self._points:
            if start in orbit_of:
                continue
            orbit_of[start] = next_orbit
            frontier = [start]
            while frontier:
                new = []
                for pt in frontier:
                    for g in gens:
                        img = _proj_canonical(tuple(sum(pt[k] * g[k][j] for k in range(3)) % N for j in range(3)), N)
                        if img not in orbit_of:
                            orbit_of[img] = next_orbit
                            new.append(img)
                frontier = new
            next_orbit += 1
        return orbit_of

    @property
    def orbit_count(self):
        return len(set(self._orbit_of.values()))

    def orbit_id(self, v):
        return self._orbit_of[self.canonical(v)]

    def orbit_rep(self, v):
        """The divisor d of N with v in the orbit of (1:d:0)."""
        oid = self.orbit_id(v)
        if oid not in self._rep_to_d:
            raise RuntimeError("orbit without a standard representative")
        return self._rep_to_d[oid]


def _proj_canonical(v, N):
    best = None
    for u in range(1, N):
        if gcd(u, N) != 1:
            continue
        cand = tuple(x * u % N for x in v)
        if best is None or cand < best:
            best = cand
    return best


def level_group_generators(N):
    """Generators of the image mod N of the level group: determinant one,
    first row (*,0,0)."""
    gens = [
        mat3([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
        mat3([[1, 0, 0], [0, 1, 0], [1, 0, 1]]),
        mat3([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
        mat3([[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
    ]
    for u in _unit_generators(N):
        uinv = pow(u, -1, N)
        gens.append(mat3([[u, 0, 0], [0, uinv, 0], [0, 0, 1]]))
        gens.append(mat3([[u, 0, 0], [0, 1, 0], [0, 0, uinv]]))
    return gens


def _unit_generators(N):
    from gl3hecke.characters import unit_group_structure

    return [g for g, _ in unit_group_structure(N)]


def _poly_pow(base_terms, e, p):
    """(linear form)^e as a dict exponent-tuple -> coefficient."""
    acc = {tuple([0] * len(base_terms)): 1}
    for _ in range(e):
        new = {}
        for mono, c in acc.items():
            for v, cv in enumerate(base_terms):
                if cv % p == 0:
                    continue
                m2 = list(mono)
                m2[v] += 1
                m2 = tuple(m2)
                new[m2] = (new.get(m2, 0) + c * cv) % p
        acc = new
    return acc


def dict_sub_matrix(M, deg, p):
    """Matrix of f -> f(M y) on the degree-deg monomial basis, mod p, for
    one square matrix M or, one matrix at a time, for each matrix of a
    stack (..., nvars, nvars).

    Columns are images of basis monomials; the map is an anti-homomorphism
    in M (substitutions compose contravariantly).
    """
    M = np.asarray(M, dtype=np.int64) % p
    if M.ndim > 2:
        out = [dict_sub_matrix(m, deg, p) for m in M.reshape((-1,) + M.shape[-2:])]
        d = len(sym_basis(M.shape[-1], deg))
        return np.array(out, dtype=np.int64).reshape(M.shape[:-2] + (d, d))
    nvars = M.shape[0]
    basis = sym_basis(nvars, deg)
    index = {m: i for i, m in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for j, mono in enumerate(basis):
        # product over variables of (row_i of M . y)^{mono_i}
        poly = {tuple([0] * nvars): 1}
        for v, e in enumerate(mono):
            if e == 0:
                continue
            factor = _poly_pow([int(M[v, k]) for k in range(nvars)], e, p)
            new = {}
            for m1, c1 in poly.items():
                for m2, c2 in factor.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    new[m] = (new.get(m, 0) + c1 * c2) % p
            poly = new
        for m, c in poly.items():
            if c % p:
                out[index[m], j] = c % p
    return out


# -- integer 3x3 matrices and the gamma solve ------------------------------------


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

    policy chooses the solution of the free parameter (gamma is not
    unique); "alt" moves it by one step, so that tests can check that the
    blocks do not depend on gamma.
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


def theorem_psi_blocks(s, d, l):
    """Closed-form (psi1, psi2, case) for the four shapes of a coset
    representative s with diagonal (l1, l2, l3) and entries a, b, c below
    it, in Python integers, one representative at a time."""
    s = mat3(s)
    a, b, c = s[1][0], s[2][0], s[2][1]
    l1, l2, l3 = s[0][0], s[1][1], s[2][2]
    if l1 == l2 and a == 0:
        return l1, ((l2, 0), (c - b * d, l3)), 1
    if l1 == l and l2 == 1 and a == 0:
        return 1, ((l, 0), (-b * d + c * l, l3)), 2
    if (l1, l2) != (1, l):
        raise ValueError("matrix is not one of the standard representatives")
    t = a * d + 1
    if t % l:
        return 1, ((l, 0), (-b * l * d + c * t, l3)), 3
    return l, ((1, 0), (-b * d + c * (t // l), l3)), 4


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


def a_l3(datum, l):
    """Closed-form eigenvalue of the central third operator T(l,3): the
    determinant-type scalar chi0(l) chi1(l) l^(a+b+c).  The attachment
    check uses the measured eigenvalue."""
    field = datum.eigen.field
    p = datum.space.p
    chi0l, chi1l = _character_values(datum, l)
    return chi0l * chi1l * field.from_int(pow(l, (sum(datum.space.weight) + datum.c) % (p - 1), p))


def per_coset_reference(datum, l, k):
    """The whole matrix of T(l,k) on the datum's space, summed coset by
    coset and basis vector by basis vector with semigroup_act: gamma is
    solved for each coset on its own by translate_to_parabolic, and nothing
    is grouped (the scalars multiply as Fq)."""
    space = datum.space
    F, p, dim = space.field, space.p, space.dim
    mat = np.zeros((dim, dim, F.r), dtype=np.int64)
    for s in coset_reps(l, k, datum.N):
        tr = translate_to_parabolic(s, datum.d, datum.N, l=l)
        scalar = datum.chi0(tr.psi1) * F.from_int(pow(tr.psi1 % p, datum.c % (p - 1), p))
        for j, e in enumerate(identity(dim, F)):
            img = F.from_array(space.semigroup_act(e, tr.psi2))
            mat[:, j] += F.to_array([scalar * x for x in img])
    return mat % p


# -- the explicit Kronecker carrier: the reference for modrep._carrier_act ---------


def kron_carrier(p, i, j, g):
    """The D x D carrier matrix kron(Sym^i(g^T), Sym^j(adj g)) mod p."""
    Sy = sub_matrix(np.asarray(g).T % p, i, p)
    Sz = sub_matrix(np.array(adj3(g)) % p, j, p)
    return np.kron(Sy, Sz) % p


def kron_carrier_act(factors, X, p):
    """Carrier rows X times the explicit kron(Sy, Sz)^T mod p."""
    Sy, Sz = factors
    X = np.asarray(X)
    return matmul_mod(X.reshape(-1, X.shape[-1]), (np.kron(Sy, Sz) % p).T, p).reshape(X.shape)


def recording_radical_quotient(record):
    """Drop-in for modrep._radical_quotient that also keeps, in the dict
    record, each coordinate map it returns under the id of its basis L."""

    def quotient(*args):
        L, coords = _radical_quotient(*args)
        record[id(L)] = coords
        return L, coords

    return quotient


def carrier_image(p, i, j):
    """The carrier action of a rank-3 build, image(g, rows): the images of
    carrier rows of Sym^i(std) (x) Sym^j(wedge^2 std) under g, with the
    factors of g read from a factor table of its own, as the build reads
    them from its table."""
    factors = _factor_lookup(_factor_table(p, (i, j)), (i, j), p)
    return lambda g, rows: _carrier_act(factors(g), rows, p)


def kron_twist_gl3(base, label, coords):
    """Drop-in for modrep._twist on a rank-3 base, given coords, the
    coordinate map of the base's quotient: the twist by det^c, with rho(g)
    read off the explicit carrier matrix of g times det(g)^c in the base
    coordinates.  The module is its own untwisted module, so u_invariants
    computes and certifies its invariants from this rho instead of reading
    the base's."""
    if label == base.label:
        return base
    p = base.p
    a, b, c = label

    def carrier(g, rows):
        C = kron_carrier(p, a - b, b - c, g) * pow(int(det(g)) % p, c % (p - 1), p) % p
        return matmul_mod(rows, C.T, p)

    return IrreducibleModule(
        p=p,
        n=3,
        label=(a, b, c),
        basis=base.basis,
        image=_carrier_image(carrier, base.basis, coords, p),
        weights=base.weights + c,
    )


# -- W, its radical quotient and the parabolic invariants, computed directly -------


def spin(rows, actions, p, dim=None):
    """Reduced basis of the smallest subspace containing the given rows and
    stable under the actions, callables taking a block of rows to the block
    of their images.  Breadth first: each round images the rows that grew
    the span in the previous round under every action.

    dim, when given, is an upper bound on the dimension of that subspace:
    the spin stops as soon as the rank reaches it, checked after each
    action's block.  The images it skips then lie in the span, so they would
    add no row, and the basis is the one the full spin returns."""
    rows = np.asarray(rows, dtype=np.int64)
    D = rows.shape[-1]
    basis = SpinBasis(p, D)
    queue = rows.reshape(-1, D) % p
    queue = queue[basis.add_rows(queue)]
    while len(queue) and basis.rank != dim:
        grown = []
        for act in actions:
            imgs = act(queue)
            grown.append(imgs[basis.add_rows(imgs)])
            if basis.rank == dim:
                break
        queue = np.vstack(grown)
    return basis.basis()


def spin_certificate(mod):
    """Irreducibility certificate for either rank: the U+-fixed space K of
    the module is one line, of the labelled highest weight, and that line
    spins to the whole module under the full images of gl_generators.

    U+ is a p-group, and a p-group acting on a nonzero F_p-space fixes a
    nonzero vector.  So a nonzero submodule has a nonzero U+-fixed vector;
    it lies in the line K, so the submodule holds K and the span of K under
    the group, which is the whole module.  Neither dim K nor the spin
    changes under field extension, so the module is absolutely
    irreducible."""
    p, n = mod.p, mod.n
    images = [mod.image(g, None).astype(np.float64) for g in gl_generators(n, p)]
    eye = np.eye(mod.dim)
    K = np_nullspace(np.vstack([G.T - eye for G in images[: 2 * (n - 1) : 2]]), p)
    if len(K) != 1:
        raise CertificateError("U+-fixed space has dimension %d, not 1, for label %s" % (len(K), mod.label))
    _check_highest_weight(mod.image, K, n, mod.label, p)
    actions = [lambda X, G=G: matmul_mod(X, G, p) for G in images]
    if len(spin(K, actions, p, mod.dim)) != mod.dim:
        raise CertificateError("the U+-fixed line spans a proper submodule")


def random_invertible(p, rng):
    """A uniformly random element of GL_3(F_p), drawn from the
    random.Random rng."""
    while True:
        g = np.array(rng.choices(range(p), k=9), dtype=np.int64).reshape(3, 3)
        if det(g) % p:
            return g



def coord_solver(B, p):
    """Coordinates of rows in the span of the independent rows of B: with
    rref([B | I]) = [R | S], S B = R is the identity at the pivot columns,
    so a row w of the span is w[pivots] S in the basis B."""
    k, n = B.shape
    R, pivots = np_rref(np.hstack([B, np.eye(k, dtype=np.int64)]), p)
    S = R[:, n:]

    def coords(rows):
        return matmul_mod(np.asarray(rows, dtype=np.int64)[:, pivots], S, p)

    return coords


def gfp_highest_weight_span(p, i, j):
    """W, the span of the carrier highest-weight vector y1^i z3^j under the
    generators of GL_3(F_p), spun breadth first as modrep built it before it
    built W one weight space at a time: the rows of the reduced echelon form
    of W, in the order the spin found them."""
    ybasis, zbasis = sym_basis(3, i), sym_basis(3, j)
    vplus = np.zeros(len(ybasis) * len(zbasis), dtype=np.int64)
    vplus[ybasis.index((i, 0, 0)) * len(zbasis) + zbasis.index((0, 0, j))] = 1
    image = carrier_image(p, i, j)
    return spin(vplus, [lambda X, g=g: image(g, X) for g in gl_generators(3, p)], p)


def carrier_row_highest_weight_span(p, i, j, image):
    """W as modrep built it one weight space at a time before it read the
    divided powers as block maps: W_mu spanned by the f_a^(n) W_(mu + n a)
    for every n >= 1, with f_a^(n) w read as the weight mu - n a component
    of x_-a(1) w, and each level of weights taken through E_10 and E_21 as
    whole carrier rows by image(g, rows), the carrier action of a build.
    The rows of the reduced echelon form of W, in pivot order."""
    weights = _carrier_weights(i, j)
    columns = {mu[:2]: np.array(cols) for mu, cols in _weight_blocks(weights).items()}
    gens = gl_generators(3, p)
    lowering = [(gens[1], (-1, 1)), (gens[3], (0, -1))]
    levels = {}
    for mu in columns:
        levels.setdefault(2 * (i + j) + j - 2 * mu[0] - mu[1], []).append(mu)
    candidates = {(i + j, j): [np.ones((1, 1), dtype=np.int64)]}
    rows = []
    for height in sorted(levels):
        found = []
        for mu in sorted(levels[height]):
            if mu in candidates:
                R, pivots = np_rref(np.vstack(candidates.pop(mu)), p)
                rows.extend((c, row, columns[mu]) for c, row in zip(columns[mu][pivots].tolist(), R))
                block = np.zeros((len(R), len(weights)), dtype=np.int64)
                block[:, columns[mu]] = R
                found.append((mu, block))
        if not found:
            continue
        blocks = np.vstack([block for _, block in found])
        for g, (d1, d2) in lowering:
            images = image(g, blocks)
            start = 0
            for mu, block in found:
                level_rows = images[start : start + len(block)]
                start += len(block)
                for n in range(1, i + j + 1):
                    nu = (mu[0] + n * d1, mu[1] + n * d2)
                    if nu in columns:
                        part = level_rows[:, columns[nu]]
                        if part.any():
                            candidates.setdefault(nu, []).append(part)
    W = np.zeros((len(rows), len(weights)), dtype=np.int64)
    for k, (_, row, cols) in enumerate(sorted(rows, key=lambda r: r[0])):
        W[k, cols] = row
    return W


def spin_radical_quotient(W, weights, columns, wt, p):
    """Drop-in for modrep._radical_quotient, which ignores the weights and
    their column blocks: the radical from the whole Gram matrix, as carrier
    rows, the complement rows of W by a second spin over the carrier, and
    the coordinates of a row of W's span solved in the basis [radical; L]."""
    rad = matmul_mod(np_nullspace(matmul_mod(W * wt % p, W.T, p), p), W, p)
    comp = SpinBasis(p, W.shape[1])
    comp.add_rows(rad)
    L = W[comp.add_rows(W)]
    solver = coord_solver(np.vstack([rad, L]), p)
    return L, lambda rows: solver(rows)[:, len(rad) :]


def gram_kernel_by_nullspace(rows, weights, wt, p):
    """The kernel of the Gram matrix of (x, y) = sum x y wt on rows, in
    modrep._gram_kernel's form {k: (ks, row)}, one np_nullspace per weight
    block of the whole rows."""
    blocks = {}
    for k, mu in enumerate(map(tuple, weights.tolist())):
        blocks.setdefault(mu, []).append(k)
    kernel = {}
    for ks in blocks.values():
        B = rows[ks]
        for row in np_nullspace(matmul_mod(B * wt % p, B.T, p), p):
            kernel[ks[row.nonzero()[0][-1]]] = ks, row
    return kernel


def direct_u_invariants(mod):
    """The invariants of the first-column unipotent group of any rank-3
    module, from its own rho, with every certificate of modrep.u_invariants:
    the invariant dimension, the torus scalar and the intertwiner."""
    p = mod.p
    a, b, c = mod.label
    u1 = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    u2 = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    stack = np.vstack([mod.rho(u) - np.eye(mod.dim, dtype=np.int64) for u in (u1, u2)])
    K = np_nullspace(stack, p)
    if len(K) != a - b + 1:
        raise CertificateError("invariant dimension %d != %d for label %s" % (len(K), a - b + 1, mod.label))
    g0 = primitive_root(p)
    imgs = matmul_mod(K, mod.rho(np.diag([g0, 1, 1])).T, p)
    if not np.array_equal(imgs, pow(g0, c % (p - 1), p) * K % p):
        raise CertificateError("rank-1 factor does not act by the expected power")
    gl2 = build_gl2_module(p, a, b)
    solver = coord_solver(K, p)

    def restricted(h):
        g = np.eye(3, dtype=np.int64)
        g[1:, 1:] = np.asarray(h) % p
        return solver(matmul_mod(K, mod.rho(g).T, p)).T

    iso = _intertwiner(restricted, gl2, p)
    return LeviModule(base=mod, basis=K, gl1_exponent=c % (p - 1), gl2_module=gl2, iso=iso)


# -- meataxe-style dimension oracle --------------------------------------------


def composition_factor_dims(gens, p, seed=0, max_tries=400):
    """Dimensions of the composition factors of the module given by the
    generator matrices (left homomorphisms over F_p), by random splitting
    with the dual-spin irreducibility certificate."""
    gens = [np.asarray(g, dtype=np.int64) % p for g in gens]
    rng = np.random.default_rng(seed)
    return sorted(_split(gens, p, rng, max_tries))


def _split(gens, p, rng, max_tries):
    D = gens[0].shape[0]
    if D == 0:
        return []
    if D == 1:
        return [1]
    for _ in range(max_tries):
        r = _random_algebra_element(gens, p, rng)
        for lam in range(p):
            M = (r - lam * np.eye(D, dtype=np.int64)) % p
            ker = np_nullspace(M, p)
            if len(ker) == 0 or len(ker) == D:
                continue
            U = _matrix_spin(ker[:1], gens, p)
            if U.shape[0] < D:
                sub, quo = _restrict_and_quotient(gens, U, p)
                return _split(sub, p, rng, max_tries) + _split(quo, p, rng, max_tries)
            if len(ker) == 1:
                kert = np_nullspace(M.T, p)
                Ut = _matrix_spin(kert[:1], [g.T % p for g in gens], p)
                if Ut.shape[0] < D:
                    ann = np_nullspace(Ut, p)
                    U2 = _matrix_spin(ann, gens, p)
                    if U2.shape[0] < D:
                        sub, quo = _restrict_and_quotient(gens, U2, p)
                        return _split(sub, p, rng, max_tries) + _split(quo, p, rng, max_tries)
                    continue
                return [D]
    raise RuntimeError("meataxe failed to decide after %d tries" % max_tries)


def _random_algebra_element(gens, p, rng):
    D = gens[0].shape[0]
    r = np.zeros((D, D), dtype=np.int64)
    for _ in range(3):
        w = np.eye(D, dtype=np.int64)
        for _ in range(int(rng.integers(1, 4))):
            w = matmul_mod(w, gens[int(rng.integers(0, len(gens)))], p)
        r = (r + int(rng.integers(1, p)) * w) % p
    return r


def _matrix_spin(rows, mats, p):
    """Reduced basis of the smallest subspace containing the given rows and
    stable under the left actions mats."""
    D = mats[0].shape[0]
    spin = SpinBasis(p, D)
    queue = np.asarray(rows, dtype=np.int64).reshape(-1, D) % p
    queue = queue[spin.add_rows(queue)]
    while len(queue):
        grown = []
        for G in mats:
            imgs = matmul_mod(queue, G.T, p)
            grown.append(imgs[spin.add_rows(imgs)])
        queue = np.vstack(grown)
    return spin.basis()


def _restrict_and_quotient(gens, U, p):
    """Matrices of the action on the invariant row space U and its quotient."""
    D = gens[0].shape[0]
    k = U.shape[0]
    solver = coord_solver(U, p)
    sub = [solver(matmul_mod(U, g.T, p)).T for g in gens]
    comp = SpinBasis(p, D)
    comp.add_rows(U)
    eye = np.eye(D, dtype=np.int64)
    C = eye[comp.add_rows(eye)]
    full = np.vstack([U, C])
    solver_full = coord_solver(full, p)
    quo = []
    for g in gens:
        co = solver_full(matmul_mod(C, g.T, p))  # rows: coords in [U; C]
        quo.append(co[:, k:].T % p)
    return sub, quo


# -- the off-parabolic twisted action --------------------------------------------


@dataclass
class TwistedAction:
    base: IrreducibleModule
    x: int
    chi: DirichletCharacter

    @property
    def level(self):
        return self.chi.modulus


def _g_off(n, x):
    g = np.eye(n, dtype=np.int64)
    g[0, 1] = x
    return g


def _g_off_inv(n, x):
    g = np.eye(n, dtype=np.int64)
    g[0, 1] = -x
    return g


def twisted_act(T, e, s):
    """e |^x_chi s = chi(s_11) * (e | g_x s g_x^-1) for an integer
    coordinate vector e: a coordinate array (dim, r) over the character
    field."""
    base, x, chi = T.base, T.x, T.chi
    n = base.n
    s = np.asarray(s, dtype=object)
    N = chi.modulus
    dets = det(s.tolist())
    if dets == 0 or gcd(dets, base.p * N) != 1:
        raise ValueError("determinant must be nonzero and prime to p*N")
    for j in range(1, n):
        if int(s[0, j]) % N:
            raise ValueError("first row must be congruent to (*,0,...,0) mod N")
    m = _g_off(n, x).astype(object) @ np.asarray(s, dtype=object) @ _g_off_inv(n, x).astype(object)
    m = np.asarray([[int(v) % base.p for v in row] for row in m], dtype=np.int64)
    return np.outer(base.act_right(e, m), chi(int(s[0, 0])).coords) % base.p


# -- the Levi action on parabolic invariants ----------------------------------------


def levi_act(levi, d, chi0, chi1, s, e, c=None):
    """Action on the invariants-as-rank-2-module, by blocks:
    chi0(psi1) * psi1^c * chi1(psi2_11) * (e | psi2).

    e is an integer coordinate vector in the build_gl2_module(p,a,b) model;
    returns a coordinate array (dim, r) over the character field.
    """
    p = levi.base.p
    if c is None:
        c = levi.gl1_exponent
    psi1, psi2 = psi_blocks(s, d)
    scalar = chi0(psi1) * chi1(psi2[0][0]) * chi0.field.from_int(pow(psi1 % p, c % (p - 1), p))
    m = np.asarray(psi2, dtype=np.int64) % p
    return np.outer(levi.gl2_module.act_right(e, m), scalar.coords) % p


# -- integer coset checks ------------------------------------------------------------


def smith_diagonal(A):
    """Elementary divisors (d1, d2, d3) of an integer 3x3 matrix of nonzero
    determinant: d1 is the gcd of the entries, d1 d2 the gcd of the 2x2
    minors (the adjugate's entries up to sign), and d1 d2 d3 = |det A|."""
    d1 = 0
    for row in A:
        for x in row:
            d1 = gcd(d1, x)
    m2 = 0
    for row in adj3(A):
        for x in row:
            m2 = gcd(m2, x)
    return (d1, m2 // d1, abs(det(A)) // m2)


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


# -- field scalars and Dirichlet characters --------------------------------------------


def mulmod_schoolbook(a, b, f, p):
    """The coordinates of a * b in F_p[x] / (f), for coordinate lists a and
    b of length r and the monic modulus f, constant term first."""
    r = len(f) - 1
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        if c:
            for i in range(r + 1):
                prod[k - r + i] -= c * f[i]
    return [v % p for v in prod[:r]]


def conductor_pairwise(chi):
    """The least d | N with chi(u) = chi(v) for all units u = v mod d."""
    N = chi.modulus
    values = {u: chi(u) for u in range(N) if gcd(u, N) == 1}
    return next(d for d in divisors(N) if all(values[u] == values[v] for u in values for v in values if (u - v) % d == 0))
