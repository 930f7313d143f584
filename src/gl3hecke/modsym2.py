"""Mod-p modular symbols for the rank-2 level-N group (first row congruent
to (*,0) mod N) with coefficients in a character-twisted irreducible module.

The space is presented on unimodular symbols indexed by cosets of the level
group, subject to the order-4 and order-3 relations and the plus-quotient
(coinvariants of diag(1,-1)).  The full positive-determinant semigroup acts
through continued-fraction decomposition of non-unimodular symbols, which is
what the Hecke operators are built from.  Exact linear algebra over the
scalar field F_{p^r} the space was given; the space, its caches and its
operators never leave it.  Vectors and matrices are F_p coordinate arrays
with a trailing axis of length r (see linalg): the relations of a coset
representative are built for all coefficient unit vectors at once and
reduced in one block, and the semigroup acts on a block of classes, so the
symbol decomposition runs once per (label, matrix).  Eigenvalues are the
roots of the minimal polynomials of the Hecke matrices.  A root of an
irreducible factor of degree d > 1 lives in the extension of degree d, and
only the eigen-piece that needs it is embedded there, so each eigensystem
lives over the field its own eigenvalues generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import linalg
from .arith import det
from .characters import DirichletCharacter, xgcd
from .ffield import FiniteField, _distinct_degrees, _poly_divide_out, _poly_gcd_fq, _poly_mul_fq, _roots
from .linalg import RowReducer, apply_matrix, eigenvalue, embed_matrix, identity, matmul_mod
from .modrep import build_gl2_module

SIGMA = ((0, -1), (1, 0))
TAU = ((0, -1), (1, -1))
ETA = ((1, 0), (0, -1))


def _mul2(A, B):
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
        x, y = _row_canonical(hs[i]), _row_canonical(hs[i + 1])
        if det((x, y)) == -1:
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


@dataclass(eq=False)
class EigenSystem:
    """One system of Hecke eigenvalues on a symbol space.  field is the
    field the eigenvalues generate over the space's scalar field; vector (an
    eigenvector in the space's coordinates, a coordinate array (dim, r))
    and lambdas (l -> eigenvalue of T_l, an Fq) live in it.  space is the
    symbol space itself, over its own field."""

    level: int
    p: int
    weight: tuple
    vector: np.ndarray
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

    def _coeff_act(self, V, m):
        """V |_chi m for a block V of coefficient columns, shape (dimV, k, r),
        and an integer matrix m of determinant prime to pN: chi1(m_11) times
        the module right action."""
        key = (m[0][0], m[0][1], m[1][0], m[1][1])
        if key not in self._act_cache:
            R = self.module.rho(np.array([[m[0][0], m[1][0]], [m[0][1], m[1][1]]], dtype=np.int64) % self.p)
            S = self.field.mul_matrix(self.chi1(m[0][0]))
            # R times the scalar, on the coordinates (j, s) of the coefficients j
            self._act_cache[key] = (R[:, None, :, None] * S[:, None, :] % self.p).reshape(len(R) * len(S), -1)
        r = self.field.r
        k = V.shape[1]
        W = matmul_mod(self._act_cache[key], V.swapaxes(1, 2).reshape(self.dimV * r, k), self.p)
        return W.reshape(self.dimV, r, k).swapaxes(1, 2)

    def _label_of(self, M):
        return self._label[M[0][1] % self.N, M[1][1] % self.N]

    def _to_full(self, M, V, out, sign=1):
        """Accumulate the classes of the unimodular symbol M with the
        coefficient columns V into the full coordinate columns out, shape
        (full_dim, k, r); out is reduced mod p by its user."""
        i = self.index[self._label_of(M)]
        gamma = _mul2(_inv2_unimodular(self.reps[i]), M)
        base = i * self.dimV
        out[base : base + self.dimV] += sign * self._coeff_act(V, _inv2_unimodular(gamma))

    def _symbol_class(self, M, V, out, sign=1):
        for s, U in symbol_terms(M):
            self._to_full(U, V, out, sign=sign * s)

    def _build_quotient(self):
        """The relation space, reduced in one block: for each coset
        representative the order-4, order-3 and plus-quotient (z = z | eta)
        relations, each for every coefficient unit vector at once."""
        dimV, r = self.dimV, self.field.r
        unit = identity(dimV, self.field)
        rels = np.zeros((len(self.reps), 3, self.full_dim, dimV, r), dtype=np.int64)
        for rep, (order4, order3, plus) in zip(self.reps, rels):
            for rel in (order4, order3, plus):
                self._to_full(rep, unit, rel)
            self._symbol_class(_mul2(SIGMA, rep), unit, order4)
            self._symbol_class(_mul2(TAU, rep), unit, order3)
            self._symbol_class(_mul2(TAU, _mul2(TAU, rep)), unit, order3)
            self._symbol_class(_mul2(rep, ETA), self._coeff_act(unit, ETA), plus, sign=-1)
        # one relation per (representative, kind, unit vector), as rows
        rows = rels.swapaxes(2, 3).reshape(-1, self.full_dim, r) % self.p
        self._reducer = RowReducer(self.field, self.full_dim)
        self._reducer.add_rows(rows)
        pivots = set(self._reducer.pivot_columns())
        self.free = [c for c in range(self.full_dim) if c not in pivots]
        self.dim = len(self.free)

    def _classes(self, full):
        """Coordinates (dim, k, r) of the classes of the full coordinate
        columns full, shape (full_dim, k, r)."""
        rows = self._reducer.reduce(full.swapaxes(0, 1) % self.p)
        return rows[:, self.free].swapaxes(0, 1)

    # -- actions ---------------------------------------------------------------

    def semigroup_act(self, V, m):
        """Action of one integer matrix (positive determinant prime to pN,
        first row congruent to (*,0) mod N) on the canonical representatives
        of classes: V is one class, shape (dim, r), or a block of classes as
        columns, shape (dim, k, r), and the image has the shape of V.
        Individual matrices are Hecke summands: only full coset sums over a
        double coset are well defined on the quotient, so always combine the
        results of these calls over a complete coset list.  Operator builders
        should use action_matrix, which caches the whole matrix of this
        action per integer matrix."""
        d = det(m)
        if d <= 0 or gcd(d, self.p * self.N) != 1:
            raise ValueError("determinant must be positive and prime to p*N")
        if m[0][1] % self.N:
            raise ValueError("first row must be congruent to (*,0) mod level")
        V = np.asarray(V, dtype=np.int64)
        block = V if V.ndim == 3 else V[:, None]
        full = np.zeros((self.full_dim,) + block.shape[1:], dtype=np.int64)
        full[self.free] = block
        out = np.zeros_like(full)
        for i, rep in enumerate(self.reps):
            W = full[i * self.dimV : (i + 1) * self.dimV]
            if W.any():
                self._symbol_class(_mul2(rep, m), self._coeff_act(W, m), out)
        return self._classes(out).reshape(V.shape)

    def action_matrix(self, m):
        """Matrix of semigroup_act by m (columns = images of the unit
        vectors), cached per space.  The key is the integer matrix m itself,
        not its class mod N: single summands do not descend to the quotient,
        so two matrices congruent mod N can act differently.  The returned
        array is read-only and shared by every caller."""
        key = (tuple(m[0]), tuple(m[1]))
        if key not in self._action_cache:
            A = self.semigroup_act(identity(self.dim, self.field), key)
            A.flags.writeable = False
            self._action_cache[key] = A
        return self._action_cache[key]

    def hecke_matrix(self, l):
        """T_l as a matrix over the scalar field (columns = images): the
        sum of action_matrix over the l + 1 cosets of diag(1, l).  Read-only
        and cached."""
        if l in self._hecke_cache:
            return self._hecke_cache[l]
        if gcd(l, self.p * self.N) != 1:
            raise ValueError("l must be prime to p and the level")
        cosets = [((1, 0), (beta, l)) for beta in range(l)] + [((l, 0), (0, 1))]
        T = sum(self.action_matrix(m) for m in cosets) % self.p
        T.flags.writeable = False
        self._hecke_cache[l] = T
        return T


# -- eigensystem extraction -----------------------------------------------------


def _restrict(field, T, basis):
    """Matrix over field of the square matrix T on the span of basis, the
    rows of a (k, n, r) array; raises unless the span is T-invariant.

    rref([basis | I]) is [B | S] with B the reduced echelon form of basis
    and B = S basis, so a vector w of the span is w[pivots] S in the basis."""
    k, n, _ = basis.shape
    R, pivots = linalg.rref(np.concatenate([basis, identity(k, field)], axis=1), field)
    if len(pivots) != k or pivots[-1] >= n:
        raise RuntimeError("basis vectors are dependent")
    columns = basis.swapaxes(0, 1)
    img = apply_matrix(T, columns, field)
    A = apply_matrix(R[:, n:].swapaxes(0, 1), img[pivots], field)
    if not np.array_equal(apply_matrix(columns, A, field), img):
        raise RuntimeError("subspace is not invariant")
    return A


def _eigen_split(field, A, basis):
    """Eigenspaces of A, the matrix over field of an operator on the span of
    basis (rows of a (k, n, r) array).

    The eigenvalues are the roots of the minimal polynomial m of A.  For a
    distinct-degree part (d, g_d) of m, each root of g_d generates
    E = field.extension(d), and d = 1 gives field itself; its eigenspace is
    nullspace(A - lambda) over E.  One nullspace serves a whole Galois orbit:
    x -> x^q (q = |field|) fixes A and commutes with row reduction, so its
    matrix on E's coordinates maps the reduced kernel basis at lambda to the
    one at lambda^q.  Returns (eigenvalue, E, eigenvectors over E as rows of
    a coordinate array) triples, d increasing and the roots of each part in
    E.elements() order."""
    q, p = field.order, field.p
    k = len(A)
    pieces = []
    for d, g in _distinct_degrees(_minimal_polynomial(A, field), field):
        big = field.extension(d)
        A_big, basis_big = embed_matrix(A, field, big), embed_matrix(basis, field, big)
        frobenius = big.frobenius_matrix(field.r).T
        kernels = {}
        for lam in _roots([field.embed(c, big) for c in g], big):
            if lam not in kernels:
                M = A_big.copy()
                M[range(k), range(k)] -= lam.coords
                ker, mu = linalg.nullspace(M % p, big), lam
                for _ in range(d):
                    kernels[mu] = ker
                    ker, mu = [matmul_mod(c, frobenius, p) for c in ker], mu**q
            combos = np.stack(kernels[lam], axis=1)
            pieces.append((lam, big, apply_matrix(basis_big.swapaxes(0, 1), combos, big).swapaxes(0, 1)))
    return pieces


def _minimal_polynomial(A, field):
    """Minimal polynomial of the square matrix A (monic, constant term
    first): the lcm of the Krylov polynomials of the unit vectors.  A unit
    vector already in the sum of the earlier Krylov spaces, which is
    A-invariant, cannot raise the lcm and is skipped."""
    k = len(A)
    span = RowReducer(field, k)
    m = [field.one()]
    for v in identity(k, field):
        if not span.reduce(v).any():
            continue
        seq, reducer = [v], RowReducer(field, k)
        while reducer.add(seq[-1]):
            seq.append(apply_matrix(A, seq[-1], field))
        # the first dependent one is A^d v = sum c_i A^i v, so the Krylov
        # polynomial is x^d - sum c_i x^i; the c_i are the last column of
        # rref([A^0 v, ..., A^d v])
        d = len(seq) - 1
        R, pivots = linalg.rref(np.stack(seq, axis=1), field)
        if pivots != list(range(d)):
            raise RuntimeError("inconsistent Krylov solve")
        f = [-c for c in field.from_array(R[:, d])] + [field.one()]
        m = _poly_mul_fq(m, _poly_divide_out(f, _poly_gcd_fq(m, f), field), field)  # lcm(m, f)
        span.add_rows(np.stack(seq[:d]))
    return m


def _frobenius_shift(base, F, E):
    """The j for which x -> x^(p^j) on E turns the embedding of base into E
    through F (base.embed, then F.embed) into base.embed(., E).  Applied to
    a piece found over F and embedded in E, it makes the piece meet matrices
    embedded from base directly.  It is 0 when base is a prime field or F is
    base; a tower of larger fields can disagree."""
    g = base.element([0, 1] + [0] * (base.r - 2)) if base.r > 1 else base.one()
    via, direct = F.embed(base.embed(g, F), E), base.embed(g, E)
    return next(j for j in range(base.r) if via ** (base.p**j) == direct)


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
    field, p = space.field, space.p
    window = sorted(set(window))
    embedded = {}

    def hecke(l, E):
        if (l, E) not in embedded:
            embedded[l, E] = embed_matrix(space.hecke_matrix(l), field, E)
        return embedded[l, E]

    pieces = [({}, field, identity(space.dim, field))] if space.dim else []
    for l in window:
        refined = []
        for lams, F, basis in pieces:
            for lam, E, vecs in _eigen_split(F, _restrict(F, hecke(l, F), basis), basis):
                j = _frobenius_shift(field, F, E)
                lams_E = {m: F.embed(x, E) ** p**j for m, x in lams.items()}
                lams_E[l] = lam ** p**j
                refined.append((lams_E, E, matmul_mod(vecs, E.frobenius_matrix(j).T, p)))
        pieces = refined
    systems = []
    for lams, E, vecs in pieces:
        v = vecs[0]
        if any(eigenvalue(hecke(l, E), v, E) != lams[l] for l in window):
            raise RuntimeError("eigensystem verification failed")
        systems.append(EigenSystem(level=space.N, p=space.p, weight=space.weight, vector=v, lambdas=lams, field=E, space=space))
    return systems
