"""Mod-p modular symbols for the rank-2 level-N group (first row congruent
to (*,0) mod N) with coefficients in a character-twisted irreducible module.

The space is presented on unimodular symbols indexed by cosets of the level
group, subject to the order-4 and order-3 relations and the plus-quotient
(coinvariants of diag(1,-1)).  The full positive-determinant semigroup acts
through continued-fraction decomposition of non-unimodular symbols (the
Manin trick), which is what the Hecke operators are built from.  Exact
linear algebra over the field F_{p^r} of the character chi1; the space and
its operators never leave it.  Vectors and matrices are F_p coordinate
arrays with a trailing axis of length r (see linalg).

One array pass computes the class of a batch of symbols: Euclid's algorithm
and the convergents run on all of them at once (_symbol_terms), each term's
coset is read from an N x N table, and its coefficient matrix, which depends
only on gamma^-1 mod p and its corner mod N, computed once per distinct
residue of the batch; the terms are then applied with one batched
product and scattered into full coordinates (_scatter).  The relations of
the presentation are built by that pass for every representative and
coefficient unit vector at once and reduced in one block, and the semigroup
action of a whole stack of matrices on a block of classes is one pass
followed by one reduction: T_l is its l + 1 cosets on the identity, and a
boundary operator (see transfer) its live psi2 on the few columns of one
eigenclass.  Eigenvalues are the roots of the minimal polynomials of the
Hecke matrices, factored over the piece's field on coordinate arrays (see
ffield).  A root of an irreducible factor f of degree d > 1 lives in the
extension of degree d: one root is found per Galois orbit, the others are
its Frobenius conjugates, and its eigenspace is cut out of ker f(T), found
over the piece's field.  Only the eigen-piece that needs the extension
moves there, by its F_p columns (linalg.extend_scalars), so each eigensystem
lives over the field its own eigenvalues generate.  Bases stay in
trailing-pivot normal form, so matrices and eigenvalues are read, not solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import linalg
from .arith import is_prime, xgcd
from .characters import DirichletCharacter
from .ffield import FiniteField, _distinct_degrees, _equal_degree, _monomial, _one_root, _poly_divide_exact, _poly_gcd, _poly_mul, _sort_elements
from .linalg import RowReducer, apply_matrix, eigenvalue, embed_matrix, extend_scalars, identity, matmul_mod
from .modrep import build_gl2_module, gl2_rho

SIGMA = np.array([[0, -1], [1, 0]])
TAU = np.array([[0, -1], [1, -1]])
ETA = np.array([[1, 0], [0, -1]])


def _canonical(x, y):
    """The rows (x, y) divided by their gcd and turned so that the first
    nonzero entry is positive: (x, y, gcd, sign of the turn)."""
    g = np.gcd(x, y)
    x, y = x // g, y // g
    s = np.where((x < 0) | ((x == 0) & (y < 0)), -1, 1)
    return s * x, s * y, g, s


def _symbol_terms(M, dets):
    """The Manin trick on arrays: the symbol with rows M[i], for a (P, 2, 2)
    int64 stack with determinants dets (nonzero), as a sum of symbols of
    determinant one.  Returns (src, sign, U): term t is sign[t] times the
    symbol U[t] and belongs to symbol src[t].

    Rows are scaling-normalized lines (_canonical).  When the two lines u, w
    form a unimodular pair the symbol is the one term (u, +-w).  Otherwise
    {u, w} = {inf, w} - {inf, u}, and {inf, x/y} is the chain of consecutive
    continued-fraction convergents h_n/k_n of x/y, y > 0, from h_-1/k_-1 =
    1/0: Euclid's algorithm runs on every point at once, on the lanes whose
    remainder is still nonzero.  No determinant of two rows is multiplied
    out: det(u, w) is det(M) / (gcd(u) gcd(w)) up to the turns, and
    h_(n-1) k_n - h_n k_(n-1) = (-1)^n."""
    u0, u1, gu, su = _canonical(M[:, 0, 0], M[:, 0, 1])
    w0, w1, gw, sw = _canonical(M[:, 1, 0], M[:, 1, 1])
    uni = gu * gw == np.abs(dets)
    e = su * sw * np.sign(dets)  # det(u, w) on the unimodular pairs
    one = np.flatnonzero(uni)
    src, sign = [one], [np.ones(len(one), dtype=np.int64)]
    terms = [np.stack([u0, u1, e * w0, e * w1], axis=1)[one]]
    pair = np.flatnonzero(~uni)
    lane = np.concatenate([pair, pair])
    s = np.repeat(np.array([-1, 1], dtype=np.int64), len(pair))
    x, y = np.concatenate([u0[pair], w0[pair]]), np.concatenate([u1[pair], w1[pair]])
    live = y != 0  # the point at infinity has an empty path
    lane, s, x, y = lane[live], s[live], x[live], y[live]
    x, y = np.where(y < 0, -x, x), np.abs(y)
    h, k = np.ones_like(x), np.zeros_like(x)
    hp, kp = np.zeros_like(x), np.ones_like(x)
    n = 0
    while len(x):
        a = x // y
        x, y = y, x - a * y
        hn, kn = a * h + hp, a * k + kp
        # the term is f (h_(n-1), k_(n-1); (-1)^n h_n, (-1)^n k_n), with f
        # the turn that makes its first row canonical
        f = np.where((h < 0) | ((h == 0) & (k < 0)), -1, 1)
        g = f if n % 2 == 0 else -f
        src.append(lane)
        sign.append(s)
        terms.append(np.stack([f * h, f * k, g * hn, g * kn], axis=1))
        live = y != 0
        lane, s, x, y = lane[live], s[live], x[live], y[live]
        h, k, hp, kp = hn[live], kn[live], h[live], k[live]
        n += 1
    return np.concatenate(src), np.concatenate(sign), np.concatenate(terms).reshape(-1, 2, 2)


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


def _coset_rep(label):
    """An integer determinant-one matrix whose second column is the
    projective label (c, d); coset labels of the level group are second
    columns.  xgcd(d, -c) completes the label as it is, because
    gcd(c, d) = 1 for every label of p1_points:
    - a label is the least pair of its orbit under the units mod N;
    - if c != 0, the orbit contains (gcd(c, N), .), since c / gcd(c, N) is
      a unit mod N / gcd(c, N) and units lift mod N, and every first entry
      in the orbit is a nonzero multiple of gcd(c, N); so c = gcd(c, N)
      divides N, and gcd(c, d) = gcd(c, d, N) = 1;
    - if c = 0, d is a unit, so the label is (0, 1); mod 1 p1_points
      gives the one label (0, 1) as well."""
    c, d = label
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
    symbol space itself, over its own field; it holds the level, p and the
    weight."""

    vector: np.ndarray
    lambdas: dict
    field: FiniteField
    space: "SymbolSpace"


class SymbolSpace:
    """Quotient presentation of the twisted modular symbols at level N, over
    the field of chi1 (the trivial character over F_p by default).  It keeps
    only its presentation, which is all semigroup_act reads: the cosets and
    the quotient map of _build_quotient, whose reducer is dropped.  Nothing
    is added to it after construction."""

    def __init__(self, N, p, a, b, chi1=None):
        if N < 1:
            raise ValueError("level must be positive")
        if gcd(N, p) != 1:
            raise ValueError("level must be prime to p")
        self.dimV = build_gl2_module(p, a, b).dim
        if chi1 is None:
            chi1 = DirichletCharacter.trivial(FiniteField(p, 1), N)
        if chi1.field.p != p:
            raise ValueError("chi1 takes values in characteristic %d, not p = %d" % (chi1.field.p, p))
        if chi1.modulus != N:
            if N % chi1.modulus:
                raise ValueError("character modulus must divide the level")
            chi1 = chi1.lift(N)
        self.N = N
        self.p = p
        self.weight = (a, b)
        self.field = chi1.field
        self.chi1 = chi1
        label = p1_points(N)
        self.labels = sorted(set(label.values()))
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        # the coset of every pair (x, y) mod N, -1 off P^1(Z/N)
        self._coset_of = np.full((N, N), -1, dtype=np.intp)
        self._coset_of[tuple(np.array(list(label)).T)] = [self.index[lab] for lab in label.values()]
        self.reps = np.array([_coset_rep(lab) for lab in self.labels], dtype=np.int64)
        self.reps.flags.writeable = False
        self._rep_max = int(np.abs(self.reps).max())
        self.full_dim = len(self.labels) * self.dimV
        # the multiplication matrix of chi1(u) for each residue u mod N: zero
        # off the units, where the character's table is zero
        self._chi_mul = self.field.mul_matrices(chi1.values)
        self._build_quotient()

    # -- the symbol pass ---------------------------------------------------------

    def _coefficients(self, g):
        """The F_p matrices, of size D = dimV * r, of V -> V |_chi g[i] =
        chi1(g_00) rho(g^T) V on coefficient blocks (D, k) with rows (j, s),
        one for each integer matrix of the stack g (n, 2, 2), of determinant
        prime to pN: an (n, D, D) array.  The matrix depends only on g mod p
        and g_00 mod N, so it is computed once per distinct residue of the
        batch, named by one int64 code, and gathered to every matrix."""
        p, N, D = self.p, self.N, self.dimV * self.field.r
        res = g % p
        code = (((res[:, 0, 0] * p + res[:, 0, 1]) * p + res[:, 1, 0]) * p + res[:, 1, 1]) * N + g[:, 0, 0] % N
        _, first, index = np.unique(code, return_index=True, return_inverse=True)
        R = gl2_rho(res[first].swapaxes(1, 2), *self.weight, p)
        S = self._chi_mul[g[first, 0, 0] % N]
        # R times the scalar, on the coordinates (j, s) of the coefficients j
        return (R[:, :, None, :, None] * S[:, None, :, None, :] % p).reshape(len(first), D, D)[index]

    def _scatter(self, M, dets, C, slot, out):
        """Add to out, shape (slots, cosets, D, k), the full coordinates of
        the symbols with rows M (P, 2, 2) and determinants dets, symbol i
        carrying the coefficient block C[i] (D, k) into out[slot[i]]: each
        term U of _symbol_terms lands at the coset of its label, where U =
        rep gamma, with the coefficients C[i] |_chi gamma^-1."""
        src, sign, U = _symbol_terms(M, dets)
        coset = self._coset_of[U[:, 0, 1] % self.N, U[:, 1, 1] % self.N]
        U_inv = np.stack([U[:, 1, 1], -U[:, 0, 1], -U[:, 1, 0], U[:, 0, 0]], axis=1).reshape(-1, 2, 2)
        coeffs = self._coefficients(U_inv @ self.reps[coset])
        np.add.at(out, (slot[src], coset), sign[:, None, None] * matmul_mod(coeffs, C[src], self.p))

    # -- presentation ---------------------------------------------------------

    def _build_quotient(self):
        """The relation space, reduced in one block: for each coset
        representative the order-4, order-3 and plus-quotient (z = z | eta)
        relations, each for every coefficient unit vector at once.  The
        representative's own symbol is the unit block at its own coset; sigma
        rep, tau rep, tau^2 rep and rep eta go through _scatter, the kernel of
        the semigroup action."""
        n, dimV, r, p = len(self.reps), self.dimV, self.field.r, self.p
        # the coefficient unit vectors as a (D, dimV) block: column c is 1 at row (c, 0)
        unit = np.zeros((dimV, r, dimV), dtype=np.int64)
        unit[range(dimV), 0, range(dimV)] = 1
        unit = unit.reshape(dimV * r, dimV)
        rels = np.zeros((n, 3, n, dimV * r, dimV), dtype=np.int64)
        rels[range(n), :, range(n)] = unit
        [eta] = self._coefficients(ETA[None])
        reps = self.reps
        M = np.concatenate([SIGMA @ reps, TAU @ reps, TAU @ TAU @ reps, reps @ ETA])
        C = np.concatenate(
            [np.broadcast_to(unit, (3 * n,) + unit.shape), np.broadcast_to(-matmul_mod(eta, unit, p), (n,) + unit.shape)]
        )
        # the four symbols of each representative go to its order-4, order-3, order-3 and plus relation
        slot = (3 * np.arange(n) + np.array([[0], [1], [1], [2]])).ravel()
        self._scatter(M, np.repeat([1, 1, 1, -1], n), C, slot, rels.reshape(3 * n, n, dimV * r, dimV))
        # one relation per (representative, kind, unit vector), as rows
        rows = rels.reshape(n, 3, n, dimV, r, dimV).transpose(0, 1, 5, 2, 3, 4).reshape(-1, self.full_dim, r) % p
        reducer = RowReducer(self.field, self.full_dim)
        reducer.add_rows(rows)
        pivots = set(reducer.pivot_columns())
        self.free = [c for c in range(self.full_dim) if c not in pivots]
        self.dim = len(self.free)
        # the residue of a full vector w, as F_p coordinates (c, s), at the
        # free columns alone: w[free] - w[pivots] @ basis[:, free]
        self._free_fp = (np.array(self.free, dtype=np.intp)[:, None] * r + np.arange(r)).ravel()
        self._pivots_fp, basis = reducer.expanded_basis()
        self._pivot_rows = basis[:, self._free_fp]

    # -- actions ---------------------------------------------------------------

    def _semigroup_dets(self, ms):
        """The determinants of the stack ms (n, 2, 2) of integer matrices,
        once the whole stack is checked: ValueError, naming the first bad
        matrix, unless every determinant is positive and prime to pN and
        every first row is congruent to (*,0) mod N; OverflowError when a
        determinant or a product rep m could leave int64."""
        # float64 magnitudes, a factor 2 below 2**63 for rounding: the two
        # products of each determinant, and every entry of rep m
        a = np.abs(ms.astype(np.float64))
        products = (a[:, 0, 0] * a[:, 1, 1] + a[:, 0, 1] * a[:, 1, 0]).max(initial=0)
        if max(products, 2 * self._rep_max * a.max(initial=0)) >= 2.0**62:
            raise OverflowError("matrix entries too large for int64 symbol arithmetic")
        dets = ms[:, 0, 0] * ms[:, 1, 1] - ms[:, 0, 1] * ms[:, 1, 0]
        bad_det = (dets <= 0) | (np.gcd(dets, self.p * self.N) != 1)
        bad = bad_det | (ms[:, 0, 1] % self.N != 0)
        if bad.any():
            i = int(np.argmax(bad))
            why = "determinant must be positive and prime to p*N" if bad_det[i] else "first row must be congruent to (*,0) mod level"
            raise ValueError("matrix %d of the batch, %s: %s" % (i, ms[i].tolist(), why))
        return dets

    def semigroup_act(self, V, m):
        """Action of integer matrices (positive determinant prime to pN,
        first row congruent to (*,0) mod N) on the canonical representatives
        of classes.  m is one matrix (2, 2) or a stack (n, 2, 2); V is one
        class, shape (dim, r), or a block of classes as columns, shape
        (dim, k, r).  The image has the shape of V, after the stack's axis
        for a stack.

        The whole stack is checked before any work, and one array pass then
        serves all of it: rep m for every coset representative rep with a
        nonzero block and every m, the continued-fraction decomposition
        (_symbol_terms) of all of them at once, the coefficients computed
        once per residue of the batch (_coefficients) and scattered by _scatter,
        and every column of the batch reduced by one product with the
        relation basis, formed at the free columns only: the residue at the
        pivot columns is never read.  Every convergent and every gamma^-1 =
        U^-1 rep is exact in int64 while 2 max|rep m| max|rep| < 2^63; past
        that it raises OverflowError.

        Individual matrices are Hecke summands: only full coset sums over a
        double coset are well defined on the quotient, so always combine the
        results over a complete coset list; two matrices congruent mod N can
        act differently."""
        ms = np.asarray(m, dtype=np.int64)
        if ms.ndim not in (2, 3) or ms.shape[-2:] != (2, 2):
            raise ValueError("expected a 2 x 2 integer matrix or a stack of them, got shape %s" % (ms.shape,))
        stack = ms.reshape(-1, 2, 2)
        dets = self._semigroup_dets(stack)
        V = np.asarray(V, dtype=np.int64)
        block = V if V.ndim == 3 else V[:, None]
        n, cosets, dimV, r, p = len(stack), len(self.reps), self.dimV, self.field.r, self.p
        k = block.shape[1]
        full = np.zeros((self.full_dim, k, r), dtype=np.int64)
        full[self.free] = block
        # each coset's coefficient block as a (D, k) F_p matrix with rows (j, s)
        W = full.reshape(cosets, dimV, k, r).swapaxes(2, 3).reshape(cosets, dimV * r, k)
        active = np.flatnonzero(W.any(axis=(1, 2)))
        M = self.reps[active] @ stack[:, None]
        if 2 * int(np.abs(M).max(initial=0)) * self._rep_max >= 2**63:
            raise OverflowError("rep m too large for exact int64 continued fractions")
        Wm = matmul_mod(self._coefficients(stack)[:, None], W[active], p)  # W |_chi m
        out = np.zeros((n, cosets, dimV * r, k), dtype=np.int64)
        a = len(active)
        self._scatter(M.reshape(-1, 2, 2), np.repeat(dets, a), Wm.reshape(n * a, dimV * r, k), np.repeat(np.arange(n), a), out)
        w = out.reshape(n, cosets, dimV, r, k).transpose(0, 4, 1, 2, 3).reshape(n * k, self.full_dim * r) % p
        classes = (w[:, self._free_fp] - matmul_mod(w[:, self._pivots_fp], self._pivot_rows, p)) % p
        return classes.reshape(n, k, self.dim, r).swapaxes(1, 2).reshape(ms.shape[:-2] + V.shape)

    def hecke_matrix(self, l):
        """T_l as a matrix over the scalar field (columns = images): the
        images of the identity under the l + 1 cosets of diag(1, l), from
        one semigroup_act call, summed, in a new array on each call."""
        if not is_prime(l):
            raise ValueError("l = %d is not prime" % l)
        if gcd(l, self.p * self.N) != 1:
            raise ValueError("l must be prime to p and the level")
        cosets = [((1, 0), (beta, l)) for beta in range(l)] + [((l, 0), (0, 1))]
        return self.semigroup_act(identity(self.dim, self.field), cosets).sum(axis=0) % self.p


# -- eigensystem extraction -----------------------------------------------------


def _restrict(field, act, basis):
    """Matrix over field of act, which moves column blocks over field, on the
    span of basis, rows of a (k, n, r) array in trailing-pivot normal form
    (see linalg): read off the images at the trailing pivots, then checked
    against all of them, so it raises unless the span is invariant."""
    columns = basis.swapaxes(0, 1)
    img = act(columns)
    A = img[linalg.trailing_pivots(basis)]
    if not np.array_equal(apply_matrix(columns, A, field), img):
        raise RuntimeError("subspace is not invariant")
    return A


def _eigen_split(field, A, basis):
    """Eigenspaces of A, the matrix over field of an operator on the span of
    basis (rows of a (k, n, r) array).

    The eigenvalues are the roots of the minimal polynomial m of A, all on
    coordinate arrays (see ffield).  For a distinct-degree part (d, g_d) of
    m, each root of g_d generates E = field.extension(d), and d = 1 gives
    field itself.  g_d is split over field into its irreducible factors f,
    and each f is one Galois orbit of d roots: one root lambda is found in
    E (_one_root), and the others are its conjugates lambda^(q^i), q =
    |field|.  The eigenspace of lambda is found inside V_f = ker f(A),
    computed over field, whose dimension is d times the multiplicity, not
    k (_orbit_kernel).  x -> x^q fixes A and commutes with row reduction,
    so its matrix on E's coordinates maps the kernel basis at lambda to the
    one at lambda^q.  Returns (eigenvalue, E, eigenvectors over E as rows of
    a coordinate array) triples, d increasing and the roots of each part in
    E.elements() order, each kernel in the normal form that
    nullspace(A - lambda) over E gives on the whole piece: the pieces, their
    vectors and their order are those of a root-by-root search."""
    p = field.p
    columns = basis.swapaxes(0, 1)
    pieces = []
    for d, g in _distinct_degrees(_minimal_polynomial(A, field), field):
        E = field.extension(d)
        frobenius = E.frobenius_matrix(field.r).T
        kernels = {}
        for f in _equal_degree(g, d, field):
            lam, ker = _orbit_kernel(field, A, f, E)
            for _ in range(d):
                kernels[tuple(lam.tolist())] = ker
                lam, ker = matmul_mod(lam, frobenius, p), matmul_mod(ker, frobenius, p)
        for lam in _sort_elements(list(kernels), E).tolist():
            vecs = extend_scalars(lambda C: apply_matrix(columns, C, field), kernels[tuple(lam)].swapaxes(0, 1), field, E)
            pieces.append((E.element(lam), E, vecs.swapaxes(0, 1)))
    return pieces


def _orbit_kernel(field, A, f, E):
    """(lambda, kernel) for f, a monic irreducible factor over field of the
    minimal polynomial of A, of degree d: a root lambda of f in E and the
    basis of ker(A - lambda) over E, a (mult, k, r_E) array, that
    nullspace(A - lambda) returns.

    The kernel lies in V_f = ker f(A), of dimension d * mult, whose basis W
    comes from nullspace over field.  With h = f / (x - lambda) over E,
    (A - lambda) h(A) = f(A) kills V_f, so h(A) maps V_f into the kernel.
    The map is injective on the field-rational vectors: A is semisimple on
    V_f, h(A) v is f'(lambda) != 0 times the component of v in the
    lambda-eigenspace, and the components of v in the conjugate eigenspaces
    are its conjugates, so they vanish together.  Both sides have dimension
    d * mult over field, so the images h(A) w of W span the kernel; they
    are sums of the Krylov vectors A^i w, computed over field, with the
    coefficients of h.

    nullspace returns the basis that is the identity on the free columns of
    the reduced echelon form.  A free column is the last nonzero position
    of some kernel vector, so that basis is the reduced echelon form of the
    kernel taken from the right: it depends only on the subspace, and rref
    of the images with their columns reversed gives it back.  For d = 1,
    V_f is ker(A - lambda) itself and W is already that basis."""
    p, k, d = field.p, len(A), len(f) - 1
    # f(A) by Horner's rule; f is monic
    fA = A.copy()
    fA[range(k), range(k)] += f[d - 1]
    for c in f[: d - 1][::-1]:
        fA = apply_matrix(A, fA, field)
        fA[range(k), range(k)] += c
    W = np.stack(linalg.nullspace(fA % p, field))
    if d == 1:
        return -f[0] % p, W
    f_E = embed_matrix(f, field, E)
    lam = _one_root(f_E, E, field)
    # h = f / (x - lambda) by synthetic division: h_(d-1) = 1, h_(i-1) = f_i + lambda h_i
    h, L = [f_E[d]], E.mul_matrices(lam)
    for c in f_E[d - 1 : 0 : -1]:
        h.append((c + matmul_mod(L, h[-1], p)) % p)
    # coords(h_i x) = maps[i] @ coords(x) for x in field, and the images
    # sum_i h_i A^i w in one product over the Krylov blocks A^i W
    maps = matmul_mod(E.mul_matrices(np.array(h[::-1])), field.embedding_matrix(E), p)
    krylov = [W]
    for _ in range(d - 1):
        krylov.append(apply_matrix(A, krylov[-1].swapaxes(0, 1), field).swapaxes(0, 1))
    blocks = np.stack(krylov, axis=2).reshape(len(W) * k, d * field.r)
    images = matmul_mod(blocks, maps.transpose(0, 2, 1).reshape(d * field.r, E.r), p).reshape(len(W), k, E.r)
    # the first len(W) / d images independent over E are a basis
    span, rows = RowReducer(E, k), []
    for v in images:
        if len(rows) * d == len(W):
            break
        if span.add(v):
            rows.append(v)
    R, _ = linalg.rref(np.stack(rows)[:, ::-1], E)
    if len(R) * d != len(W):
        raise RuntimeError("the eigenspace of a root of a degree-%d factor has dimension %d, not %d" % (d, len(R), len(W) // d))
    return lam, R[::-1, ::-1]


def _minimal_polynomial(A, field):
    """Minimal polynomial of the square matrix A, a coordinate array (monic,
    constant term first; see ffield): the lcm of the Krylov polynomials of
    the unit vectors.  A unit vector already in the sum of the earlier
    Krylov spaces, which is A-invariant, cannot raise the lcm and is
    skipped."""
    k, p = len(A), field.p
    span = RowReducer(field, k)
    m = _monomial(0, field)
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
        f = np.concatenate([-R[:, d] % p, _monomial(0, field)])
        m = _poly_mul(m, _poly_divide_exact(f, _poly_gcd(m, f, field), field), field)  # lcm(m, f)
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

    The search refines the whole space one prime at a time: each piece of
    dimension above 1 is cut into the eigenspaces of T_l restricted to it
    (_eigen_split), and a line is left as it is.  A piece lives over the
    field its eigenvalues so far generate, and only the piece is extended
    when a new eigenvalue needs more; T_l stays over the space's field and
    moves the piece's F_p columns (linalg.extend_scalars).  The space is
    never rebuilt or copied.  A piece extended a second time is moved by
    _frobenius_shift, so every piece agrees with the space's field embedded
    in its own directly.  Each system's field is generated by its
    eigenvalues over the space's field, so its degree is the lcm of theirs.
    Bases stay in trailing-pivot normal form (see linalg): the search starts
    from the identity, and K B keeps the form of B and of the split's kernel
    basis K.  A final pass applies each T_l once to each system's vector v,
    reads lambda_l off T_l v where no split gave it, and checks it elsewhere.
    Each T_l is built once, when the refinement reaches l, and dropped on
    return."""
    field, p = space.field, space.p
    window = sorted(set(window))
    if not space.dim:
        return []
    hecke = {}

    def act(l, V, E):
        return extend_scalars(lambda C: apply_matrix(hecke[l], C, field), V, field, E)

    pieces = [({}, field, identity(space.dim, field))]
    for l in window:
        hecke[l] = space.hecke_matrix(l)
        refined = []
        for lams, F, basis in pieces:
            if len(basis) == 1:
                refined.append((lams, F, basis))
                continue
            for lam, E, vecs in _eigen_split(F, _restrict(F, lambda C: act(l, C, F), basis), basis):
                j = _frobenius_shift(field, F, E)
                lams_E = {m: F.embed(x, E) ** p**j for m, x in lams.items()}
                lams_E[l] = lam ** p**j
                refined.append((lams_E, E, matmul_mod(vecs, E.frobenius_matrix(j).T, p)))
        pieces = refined
    systems = []
    for lams, E, vecs in pieces:
        v = vecs[0]
        for l in window:
            lam = eigenvalue(act(l, v, E), v, E)
            if l in lams and lam != lams[l]:
                raise RuntimeError("eigensystem verification failed")
            if lam is None:
                raise RuntimeError("subspace is not invariant")
            lams[l] = lam
        systems.append(EigenSystem(vector=v, lambdas=lams, field=E, space=space))
    return systems
