"""Mod-p modular symbols for the rank-2 level-N group (first row congruent
to (*,0) mod N) with coefficients in a character-twisted irreducible module.

The space is presented on unimodular symbols indexed by cosets of the level
group, subject to the order-4 and order-3 relations and the plus-quotient
(coinvariants of diag(1,-1)).  The full positive-determinant semigroup acts
through continued-fraction decomposition of non-unimodular symbols, which is
what the Hecke operators are built from.  Exact linear algebra over F_{p^r}
throughout.  Eigenvalues are the roots of the minimal polynomials of the
Hecke matrices; when one has an irreducible factor of degree > 1, the
scalars of the built space are extended to a larger field by embedding its
relations and cached matrices, never by building it again.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .characters import DirichletCharacter, xgcd
from .ffield import FiniteField
from . import linalg
from .linalg import RowReducer
from .modrep import build_gl2_module

SIGMA = ((0, -1), (1, 0))
TAU = ((0, -1), (1, -1))
ETA = ((1, 0), (0, -1))


def _mul2(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def _det2(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def _inv2_unimodular(A):
    d = _det2(A)
    if d == 1:
        return ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))
    if d == -1:
        return ((-A[1][1], A[0][1]), (A[1][0], -A[0][0]))
    raise ValueError("matrix is not unimodular")


def _row_canonical(v):
    g = gcd(v[0], v[1])
    if g == 0:
        raise ValueError("zero row in a symbol")
    v = (v[0] // g, v[1] // g)
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = (-v[0], -v[1])
    return v


def symbol_terms(M):
    """Express the symbol with rows of M as a sum of unimodular symbols.

    Returns [(sign, U)] with U integer matrices of determinant +1; rows are
    scaling-normalized lines, and non-unimodular symbols are decomposed
    along continued-fraction paths between the two boundary points.
    """
    u = _row_canonical((M[0][0], M[0][1]))
    w = _row_canonical((M[1][0], M[1][1]))
    if u == w:
        return []
    d = _det2((u, w))
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
        x, y = _row_canonical(hs[i]), _row_canonical(hs[i + 1])
        if _det2((x, y)) == -1:
            y = (-y[0], -y[1])
        out.append((1, (x, y)))
    return out


def p1_points(N):
    """Canonical representatives of P^1(Z/N)."""
    if N == 1:
        return [(0, 1)]
    pts = set()
    for x in range(N):
        for y in range(N):
            if gcd(gcd(x, y), N) == 1:
                pts.add(_p1_canonical((x, y), N))
    return sorted(pts)


def _p1_canonical(v, N):
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


def _lift_coprime(c, d, N):
    """Coprime integer lift of (c, d) taken mod N."""
    c, d = c % N, d % N
    if gcd(c, d) == 1:
        return c, d
    if c == 0:
        return 0, 1
    # adjust d by multiples of N to reach coprimality
    step = d
    for k in range(1, 4 * N + 2):
        if gcd(c, d + k * N) == 1:
            return c, d + k * N
    raise RuntimeError("no coprime lift found")


def _coset_rep(label, N):
    """An integer determinant-one matrix whose second column mod N is the
    projective label; coset labels of the level group are second columns."""
    c, d = _lift_coprime(label[0], label[1], N)
    g, x, y = xgcd(d, -c)
    assert g == 1
    # matrix [[x, c], [y, d]]: det = x d - c y = 1
    return ((x, c), (y, d))


@dataclass
class EigenSystem:
    level: int
    p: int
    weight: tuple
    vector: tuple
    lambdas: dict
    field: FiniteField
    space: "SymbolSpace"

    def fingerprint(self):
        return tuple(sorted((l, v.coords) for l, v in self.lambdas.items()))


class SymbolSpace:
    """Quotient presentation of the twisted modular symbols at level N."""

    def __init__(self, N, p, a, b, chi1=None, field=None):
        if N < 1:
            raise ValueError("level must be positive")
        if gcd(N, p) != 1:
            raise ValueError("level must be prime to p")
        if not 0 <= a - b <= p - 1:
            raise ValueError("weight (%d,%d) is not p-restricted" % (a, b))
        if field is None:
            field = FiniteField(p, 1)
        if chi1 is None:
            chi1 = DirichletCharacter.trivial(field, N)
        if chi1.field != field:
            raise ValueError("character values must lie in the scalar field")
        if chi1.modulus != N:
            if N % chi1.modulus:
                raise ValueError("character modulus must divide the level")
            chi1 = chi1.lift(N)
        self.N = N
        self.p = p
        self.weight = (a, b)
        self.field = field
        self.chi1 = chi1
        self.module = build_gl2_module(p, a, b)
        self.labels = p1_points(N)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.reps = [_coset_rep(lab, N) for lab in self.labels]
        self.dimV = self.module.dim
        self.full_dim = len(self.labels) * self.dimV
        self._act_cache = {}
        self._action_cache = {}
        self._hecke_cache = {}
        self._build_quotient()

    # -- presentation ---------------------------------------------------------

    def _zero(self):
        z = self.field.zero()
        return [z] * self.full_dim

    def _coeff_act(self, v, m):
        """v |_chi m for an Fq coefficient vector and an integer matrix m of
        determinant prime to pN: chi1(m_11) times the module right action."""
        key = (m[0][0], m[0][1], m[1][0], m[1][1])
        if key not in self._act_cache:
            R = self.module.rho(np.array([[m[0][0], m[1][0]], [m[0][1], m[1][1]]], dtype=np.int64) % self.p)
            scalar = self.chi1(m[0][0])
            self._act_cache[key] = (R, scalar)
        R, scalar = self._act_cache[key]
        support = [j for j in range(self.dimV) if not v[j].is_zero()]
        out = []
        for i in range(self.dimV):
            acc = self.field.zero()
            for j in support:
                rij = int(R[i, j])
                if rij:
                    acc = acc + v[j] * rij
            out.append(acc * scalar)
        return out

    def _label_of(self, M):
        return _p1_canonical((M[0][1] % self.N, M[1][1] % self.N), self.N)

    def _to_full(self, M, v, out, sign=1):
        """Accumulate the class of the unimodular symbol M with coefficient
        vector v into the full coordinate vector out."""
        lab = self._label_of(M)
        i = self.index[lab]
        rep = self.reps[i]
        gamma = _mul2(_inv2_unimodular(rep), M)
        w = self._coeff_act(v, _inv2_unimodular(gamma))
        base = i * self.dimV
        for j in range(self.dimV):
            if sign == 1:
                out[base + j] = out[base + j] + w[j]
            else:
                out[base + j] = out[base + j] - w[j]

    def _symbol_class(self, M, v, out, sign=1):
        for s, U in symbol_terms(M):
            self._to_full(U, v, out, sign=sign * s)

    def _build_quotient(self):
        field = self.field
        reducer = RowReducer(field, self.full_dim)
        unit_vectors = []
        for j in range(self.dimV):
            e = [field.zero()] * self.dimV
            e[j] = field.one()
            unit_vectors.append(e)
        for i, rep in enumerate(self.reps):
            for v in unit_vectors:
                # order-4 relation
                rel = self._zero()
                self._to_full(rep, v, rel)
                self._symbol_class(_mul2(SIGMA, rep), v, rel)
                reducer.add(rel)
                # order-3 relation
                rel = self._zero()
                self._to_full(rep, v, rel)
                self._symbol_class(_mul2(TAU, rep), v, rel)
                self._symbol_class(_mul2(TAU, _mul2(TAU, rep)), v, rel)
                reducer.add(rel)
                # plus-quotient: z = z | eta
                rel = self._zero()
                self._to_full(rep, v, rel)
                w = self._coeff_act(v, ETA)
                self._symbol_class(_mul2(rep, ETA), w, rel, sign=-1)
                reducer.add(rel)
        self._reducer = reducer
        pivots = set(reducer.pivot_columns())
        self.free = [c for c in range(self.full_dim) if c not in pivots]
        self.dim = len(self.free)

    def extend_scalars(self, big):
        """This space over the extension field big of its scalar field: a
        copy with the same free columns whose relation rows, cached
        matrices and chi1 are embedded, with no relation rebuilt.  Exact: every relation and every
        cached matrix has entries in the current field, and the fully
        reduced basis of a span is unique, so the embedded rows are the rows
        a rebuild over big would reach."""
        small = self.field
        zero = big.zero()

        def embed(x):
            return zero if x.is_zero() else small.embed(x, big)

        out = copy.copy(self)
        out.field = big
        out.chi1 = _embed_character(self.chi1, big)
        out._reducer = self._reducer.extend_scalars(big)
        out._act_cache = {key: (R, embed(scalar)) for key, (R, scalar) in self._act_cache.items()}
        out._action_cache = {key: tuple(tuple(map(embed, row)) for row in A) for key, A in self._action_cache.items()}
        out._hecke_cache = {l: [list(map(embed, row)) for row in T] for l, T in self._hecke_cache.items()}
        return out

    def reduce_to_coords(self, full):
        red = self._reducer.reduce(full)
        return [red[c] for c in self.free]

    def lift_coords(self, coords):
        full = self._zero()
        for c, x in zip(self.free, coords):
            full[c] = x
        return full

    # -- actions ---------------------------------------------------------------

    def act_symbols(self, pairs, m):
        """Representative-level action on formal sums of unimodular symbols
        with coefficients: pairs is [(sign, U, v)] and the image is the same
        shape.  Multiplicative on the nose; individual semigroup elements do
        not descend to the coinvariant quotient (only coset sums do)."""
        out = []
        for sign, U, v in pairs:
            w = self._coeff_act(v, m)
            for s, U2 in symbol_terms(_mul2(U, m)):
                out.append((sign * s, U2, w))
        return out

    def symbols_to_coords(self, pairs):
        out = self._zero()
        for sign, U, v in pairs:
            self._to_full(U, v, out, sign=sign)
        return self.reduce_to_coords(out)

    def semigroup_act(self, coords, m):
        """Action of one integer matrix (positive determinant prime to pN,
        first row congruent to (*,0) mod N) on the canonical representative
        of a class.  Individual matrices are Hecke summands: only full coset
        sums over a double coset are well defined on the quotient, so always
        combine the results of these calls over a complete coset list.
        Operator builders should use action_matrix, which caches the whole
        matrix of this action per integer matrix."""
        d = _det2(m)
        if d <= 0 or gcd(d, self.p * self.N) != 1:
            raise ValueError("determinant must be positive and prime to p*N")
        if m[0][1] % self.N:
            raise ValueError("first row must be congruent to (*,0) mod level")
        full = self.lift_coords(coords)
        out = self._zero()
        for i in range(len(self.labels)):
            base = i * self.dimV
            v = full[base : base + self.dimV]
            if all(x.is_zero() for x in v):
                continue
            w = self._coeff_act(v, m)
            self._symbol_class(_mul2(self.reps[i], m), w, out)
        return self.reduce_to_coords(out)

    def action_matrix(self, m):
        """Matrix of semigroup_act by m (columns = images of the unit
        vectors), cached per space.  The key is the integer matrix m itself,
        not its class mod N: single summands do not descend to the quotient,
        so two matrices congruent mod N can act differently.  The returned
        rows are tuples shared by every caller."""
        key = (tuple(m[0]), tuple(m[1]))
        if key not in self._action_cache:
            cols = []
            for j in range(self.dim):
                e = [self.field.zero()] * self.dim
                e[j] = self.field.one()
                cols.append(self.semigroup_act(e, key))
            self._action_cache[key] = tuple(zip(*cols))
        return self._action_cache[key]

    def hecke_matrix(self, l):
        """T_l as a matrix over the scalar field (columns = images): the
        sum of action_matrix over the l + 1 cosets of diag(1, l)."""
        if l in self._hecke_cache:
            return self._hecke_cache[l]
        if gcd(l, self.p * self.N) != 1:
            raise ValueError("l must be prime to p and the level")
        cosets = [((1, 0), (beta, l)) for beta in range(l)] + [((l, 0), (0, 1))]
        mats = [self.action_matrix(m) for m in cosets]
        zero = self.field.zero()
        T = [[sum((A[i][j] for A in mats), zero) for j in range(self.dim)] for i in range(self.dim)]
        self._hecke_cache[l] = T
        return T

    def apply_matrix(self, T, v):
        out = []
        for i in range(self.dim):
            acc = self.field.zero()
            for j in range(self.dim):
                if not T[i][j].is_zero():
                    acc = acc + T[i][j] * v[j]
            out.append(acc)
        return out


def build_space(N, p, a, b, chi1=None, field=None):
    return SymbolSpace(N, p, a, b, chi1=chi1, field=field)


def hecke_t(space, l):
    return space.hecke_matrix(l)


def semigroup_act(space, coords, m):
    return space.semigroup_act(coords, m)


# -- eigensystem extraction -----------------------------------------------------


def _restrict(space, T, basis):
    """Matrix of T on the span of basis (each an Fq coordinate vector)."""
    field = space.field
    reducer = RowReducer(field, space.dim)
    for b in basis:
        reducer.add(b)
    pivots = reducer.pivot_columns()
    B = [list(b) for b in basis]
    k = len(B)
    piv = pivots[:k]
    M = [[B[i][c] for c in piv] for i in range(k)]
    Minv = _invert_fq(M, field)
    A = [[field.zero()] * k for _ in range(k)]
    for j in range(k):
        img = space.apply_matrix(T, B[j])
        rhs = [img[c] for c in piv]
        # img restricted to pivots = M^T coeffs, so coeffs = (M^T)^-1 rhs
        coeffs = [sum((Minv[t][i] * rhs[t] for t in range(k)), field.zero()) for i in range(k)]
        recon = [field.zero()] * space.dim
        for i in range(k):
            if not coeffs[i].is_zero():
                recon = [x + coeffs[i] * y for x, y in zip(recon, B[i])]
        if any(x != y for x, y in zip(recon, img)):
            raise RuntimeError("subspace is not invariant")
        for i in range(k):
            A[i][j] = coeffs[i]
    return A


def _invert_fq(M, field):
    k = len(M)
    aug = [list(row) + [field.one() if i == j else field.zero() for j in range(k)] for i, row in enumerate(M)]
    R, pivots = linalg.rref(aug, field)
    if pivots[:k] != list(range(k)):
        raise RuntimeError("basis pivot matrix is singular")
    return [row[k:] for row in R[:k]]


def _eigen_split(space, A, basis):
    """Split span(basis) into eigen-pieces of the restricted matrix A.

    The eigenvalues are the roots in the scalar field of the minimal
    polynomial m of A, visited in field.elements() order, and each costs one
    nullspace.  Returns (pieces as (eigenvalue, basis) lists, the sorted
    degrees > 1 of the irreducible factors of m)."""
    field = space.field
    k = len(basis)
    m = _minimal_polynomial(A, field)
    roots = _roots(m, field)
    pieces = []
    for lam in roots:
        M = [[A[i][j] - lam if i == j else A[i][j] for j in range(k)] for i in range(k)]
        vecs = []
        for cvec in linalg.nullspace(M, field):
            v = [field.zero()] * space.dim
            for i, ci in enumerate(cvec):
                if not ci.is_zero():
                    v = [x + ci * y for x, y in zip(v, basis[i])]
            vecs.append(v)
        pieces.append((lam, vecs))
    degrees = []
    if len(roots) < len(m) - 1:
        degrees = [d for d in _distinct_degrees(m, field) if d > 1]
    return pieces, degrees


def _minimal_polynomial(A, field):
    """Minimal polynomial of the square matrix A (monic, constant term
    first): the lcm of the Krylov polynomials of the unit vectors.  A unit
    vector already in the sum of the earlier Krylov spaces, which is
    A-invariant, cannot raise the lcm and is skipped."""
    k = len(A)
    span = RowReducer(field, k)
    m = [field.one()]
    for start in range(k):
        v = [field.zero()] * k
        v[start] = field.one()
        if all(x.is_zero() for x in span.reduce(v)):
            continue
        reducer = RowReducer(field, k)
        seq = [v]
        reducer.add(v)
        cur = v
        while True:
            cur = [sum((A[i][j] * cur[j] for j in range(k) if not A[i][j].is_zero()), field.zero()) for i in range(k)]
            if not reducer.add(cur):
                break
            seq.append(cur)
        # cur = sum c_i A^i v, so the Krylov polynomial is x^d - sum c_i x^i
        coeffs = _solve_fq(seq, cur, field)
        f = [-c for c in coeffs] + [field.one()]
        m = _poly_mul_fq(m, _poly_divide_out(f, _poly_gcd_fq(m, f), field), field)  # lcm(m, f)
        for w in seq:
            span.add(w)
    return m


def _roots(m, field):
    """The distinct roots in the field of the nonzero polynomial m, in
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


def _solve_fq(A_cols, b, field):
    """Solve sum_i x_i * col_i = b exactly (cols independent)."""
    k = len(A_cols)
    n = len(b)
    rows = [[A_cols[i][r] for i in range(k)] + [b[r]] for r in range(n)]
    R, pivots = linalg.rref(rows, field)
    x = [field.zero()] * k
    for r, c in enumerate(pivots):
        if c == k:
            raise RuntimeError("inconsistent Krylov solve")
        x[c] = R[r][k]
    return x


# Polynomials over the scalar field are coefficient lists, constant term
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
    a = _poly_trim_fq(list(a))
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        f = a[-1] / m[-1]
        for i in range(len(m)):
            a[shift + i] = a[shift + i] - f * m[i]
        a = _poly_trim_fq(a)
    return a


def _poly_gcd_fq(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    a, b = _poly_trim_fq(list(a)), _poly_trim_fq(list(b))
    while b:
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


def _distinct_degrees(m, field):
    """Degrees d for which the nonzero polynomial m has an irreducible
    factor of degree d.  Distinct-degree factorisation on m itself, not its
    squarefree part: after the gcd with x^(q^d) - x finds the factors of
    degree d, every power of them is divided out of m, so a factor whose
    multiplicity is divisible by p is found like any other."""
    q = field.order
    work = _poly_trim_fq(list(m))
    minus_x = [field.zero(), -field.one()]
    h = [field.zero(), field.one()]  # x^(q^d) mod work
    degs = []
    d = 0
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            # every factor left has degree >= d, and there is no room for
            # two of them (a repeated one included): work is irreducible
            degs.append(len(work) - 1)
            break
        h = _poly_powmod_fq(h, q, work, field)
        g = _poly_gcd_fq(_poly_add_fq(h, minus_x, field), work)
        if len(g) > 1:
            degs.append(d)
            while len(g) > 1:
                work = _poly_divide_out(work, g, field)
                g = _poly_gcd_fq(work, g)
            h = _poly_mod_fq(h, work)
    return degs


def _poly_divide_out(a, g, field):
    """a / g for exact polynomial division."""
    a = _poly_trim_fq(list(a))
    out = [field.zero()] * (len(a) - len(g) + 1)
    while len(a) >= len(g):
        f = a[-1] / g[-1]
        shift = len(a) - len(g)
        out[shift] = f
        for i in range(len(g)):
            a[shift + i] = a[shift + i] - f * g[i]
        a = _poly_trim_fq(a)
    return _poly_trim_fq(out)


def find_eigensystems(space, window, allow_extension=True):
    """Simultaneous eigensystems of the Hecke operators over the window.

    Splits iteratively by exact eigenspaces: each piece is cut by the roots
    of the minimal polynomial of T_l restricted to it.  When a minimal
    polynomial has an irreducible factor of degree e > 1, the scalars of the
    space are extended (SymbolSpace.extend_scalars) to the extension of
    degree lcm of the offending degrees and the search reruns there.  With
    allow_extension=False (as in that rerun), such a factor raises
    ValueError naming l and the factor degrees instead of dropping the piece.
    """
    field = space.field
    window = sorted(set(window))
    basis0 = []
    for k in range(space.dim):
        v = [field.zero()] * space.dim
        v[k] = field.one()
        basis0.append(v)
    pieces = [({}, basis0)] if space.dim else []
    needed = {}  # l -> degrees of the factors of T_l that do not split
    for l in window:
        T = space.hecke_matrix(l)
        new_pieces = []
        for lams, basis in pieces:
            A = _restrict(space, T, basis)
            subpieces, degrees = _eigen_split(space, A, basis)
            if degrees:
                needed.setdefault(l, set()).update(degrees)
            for lam, vecs in subpieces:
                d = dict(lams)
                d[l] = lam
                new_pieces.append((d, vecs))
        pieces = new_pieces
    if needed and not allow_extension:
        missing = "; ".join("l=%d: degrees %s" % (l, sorted(needed[l])) for l in sorted(needed))
        raise ValueError(
            "eigenspaces do not split over %s, irreducible factors of the Hecke minimal "
            "polynomials remain (%s)" % (space.field, missing)
        )
    if needed:
        e = 1
        for d in sorted(set().union(*needed.values())):
            e = lcm(e, d)
        return find_eigensystems(space.extend_scalars(space.field.extension(e)), window, allow_extension=False)
    systems = {}
    for lams, vecs in pieces:
        sys = EigenSystem(
            level=space.N,
            p=space.p,
            weight=space.weight,
            vector=tuple(vecs[0]),
            lambdas=lams,
            field=space.field,
            space=space,
        )
        for l in window:
            T = space.hecke_matrix(l)
            img = space.apply_matrix(T, list(sys.vector))
            want = [lams[l] * x for x in sys.vector]
            if img != want:
                raise RuntimeError("eigensystem verification failed")
        systems[sys.fingerprint()] = sys
    return list(systems.values())


def _embed_character(chi, big):
    values = {u: chi.field.embed(v, big) for u, v in chi._values.items()}
    return DirichletCharacter(big, chi.modulus, values)
