"""Mod-p modular symbols for the rank-2 level-N group (first row congruent
to (*,0) mod N) with coefficients in a character-twisted irreducible module.

The space is presented on unimodular symbols indexed by cosets of the level
group, subject to the order-4 and order-3 relations and the plus-quotient
(coinvariants of diag(1,-1)).  The full positive-determinant semigroup acts
through continued-fraction decomposition of non-unimodular symbols, which is
what the Hecke operators are built from.  Exact linear algebra over the
scalar field F_{p^r} the space was given; the space, its caches and its
operators never leave it.  Eigenvalues are the roots of the minimal
polynomials of the Hecke matrices.  A root of an irreducible factor of
degree d > 1 lives in the extension of degree d, and only the eigen-piece
that needs it is embedded there, so each eigensystem lives over the field
its own eigenvalues generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .characters import DirichletCharacter, xgcd
from .ffield import FiniteField, _distinct_degrees, _poly_divide_out, _poly_gcd_fq, _poly_mul_fq, _roots
from . import linalg
from .linalg import RowReducer, apply_matrix, embed_matrix
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
    """P^1(Z/N) as a table: every primitive pair (x, y) mod N mapped to the
    least point of its orbit under the units mod N.  Pairs are visited in
    increasing order, so the first unvisited pair of an orbit is its least
    point, and each orbit is enumerated once.  Mod 1 the single pair (0, 0)
    maps to the label (0, 1)."""
    if N == 1:
        return {(0, 0): (0, 1)}
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    label = {}
    for x in range(N):
        for y in range(N):
            if (x, y) not in label and gcd(gcd(x, y), N) == 1:
                for u in units:
                    label[x * u % N, y * u % N] = (x, y)
    return label


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
    """One system of Hecke eigenvalues on a symbol space.  field is the
    field the eigenvalues generate over the space's scalar field; vector (an
    eigenvector in the space's coordinates) and lambdas (l -> eigenvalue of
    T_l) live in it.  space is the symbol space itself, over its own field."""

    level: int
    p: int
    weight: tuple
    vector: tuple
    lambdas: dict
    field: FiniteField
    space: "SymbolSpace"


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
        self._label = p1_points(N)
        self.labels = sorted(set(self._label.values()))
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
        return self._label[M[0][1] % self.N, M[1][1] % self.N]

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


# -- eigensystem extraction -----------------------------------------------------


def _restrict(field, T, basis):
    """Matrix over field of the square matrix T on the span of basis (vectors
    over field); raises unless the span is T-invariant."""
    reducer = RowReducer(field, len(T))
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
        img = apply_matrix(T, B[j], field)
        rhs = [img[c] for c in piv]
        # img restricted to pivots = M^T coeffs, so coeffs = (M^T)^-1 rhs
        coeffs = [sum((Minv[t][i] * rhs[t] for t in range(k)), field.zero()) for i in range(k)]
        if _combine(coeffs, B, field) != img:
            raise RuntimeError("subspace is not invariant")
        for i in range(k):
            A[i][j] = coeffs[i]
    return A


def _combine(coeffs, vectors, field):
    """sum_i coeffs[i] * vectors[i], for vectors of the same length."""
    out = [field.zero()] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            out = [x + c * y for x, y in zip(out, v)]
    return out


def _invert_fq(M, field):
    k = len(M)
    aug = [list(row) + [field.one() if i == j else field.zero() for j in range(k)] for i, row in enumerate(M)]
    R, pivots = linalg.rref(aug, field)
    if pivots[:k] != list(range(k)):
        raise RuntimeError("basis pivot matrix is singular")
    return [row[k:] for row in R[:k]]


def _eigen_split(field, A, basis):
    """Eigenspaces of A, the matrix over field of an operator on span(basis).

    The eigenvalues are the roots of the minimal polynomial m of A.  For a
    distinct-degree part (d, g_d) of m, each root of g_d generates
    E = field.extension(d), and d = 1 gives field itself; its eigenspace is
    nullspace(A - lambda) over E.  One nullspace serves a whole Galois orbit:
    x -> x^q (q = |field|) fixes A and commutes with row reduction, so it
    maps the reduced kernel basis at lambda to the one at lambda^q.  Returns
    (eigenvalue, E, eigenvectors over E) triples, d increasing and the roots
    of each part in E.elements() order."""
    q = field.order
    pieces = []
    for d, g in _distinct_degrees(_minimal_polynomial(A, field), field):
        big = field.extension(d)
        A_big, basis_big = embed_matrix(A, big), embed_matrix(basis, big)
        kernels = {}
        for lam in _roots([field.embed(c, big) for c in g], big):
            if lam not in kernels:
                M = [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(A_big)]
                ker, mu = linalg.nullspace(M, big), lam
                for _ in range(d):
                    kernels[mu] = ker
                    ker, mu = [[x**q for x in c] for c in ker], mu**q
            pieces.append((lam, big, [_combine(c, basis_big, big) for c in kernels[lam]]))
    return pieces


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
            cur = apply_matrix(A, cur, field)
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


def _frobenius_shift(base, F, E):
    """The exponent p^j for which x -> x^(p^j) on E turns the embedding of
    base into E through F (base.embed, then F.embed) into base.embed(., E).
    Applied to a piece found over F and embedded in E, it makes the piece
    meet matrices embedded from base directly.  It is 1 when base is a prime
    field or F is base; a tower of larger fields can disagree."""
    g = base.element([0, 1] + [0] * (base.r - 2)) if base.r > 1 else base.one()
    via, direct = F.embed(base.embed(g, F), E), base.embed(g, E)
    return next(base.p**j for j in range(base.r) if via ** (base.p**j) == direct)


def find_eigensystems(space, window):
    """Simultaneous eigensystems of the Hecke operators T_l, l in window.

    The search refines the whole space one prime at a time: each piece is
    cut into the eigenspaces of T_l restricted to it (_eigen_split).  A
    piece lives over the field its eigenvalues so far generate, and only the
    piece is extended when a new eigenvalue needs more; T_l is computed once
    over the space's field and embedded once per piece field.  The space is
    never rebuilt or copied.  A piece extended a second time is moved by
    _frobenius_shift, so every piece agrees with the space's field embedded
    in its own directly.  Each system's field is generated by its
    eigenvalues over the space's field, so its degree is the lcm of theirs,
    and every system is checked against T_l v = lambda_l v in that field
    before it is returned.
    """
    field = space.field
    window = sorted(set(window))
    embedded = {}

    def hecke(l, E):
        if (l, E) not in embedded:
            embedded[l, E] = embed_matrix(space.hecke_matrix(l), E)
        return embedded[l, E]

    unit = [[field.one() if i == j else field.zero() for j in range(space.dim)] for i in range(space.dim)]
    pieces = [({}, field, unit)] if space.dim else []
    for l in window:
        refined = []
        for lams, F, basis in pieces:
            for lam, E, vecs in _eigen_split(F, _restrict(F, hecke(l, F), basis), basis):
                e = _frobenius_shift(field, F, E)
                lams_E = {m: F.embed(x, E) ** e for m, x in lams.items()}
                lams_E[l] = lam**e
                refined.append((lams_E, E, [[x**e for x in v] for v in vecs]))
        pieces = refined
    systems = []
    for lams, E, vecs in pieces:
        v = vecs[0]
        for l in window:
            if apply_matrix(hecke(l, E), v, E) != [lams[l] * x for x in v]:
                raise RuntimeError("eigensystem verification failed")
        systems.append(
            EigenSystem(level=space.N, p=space.p, weight=space.weight, vector=tuple(v), lambdas=lams, field=E, space=space)
        )
    return systems
