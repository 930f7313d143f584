"""Explicit matrix models of the irreducible mod-p modules F(a,b) for the
rank-2 group and F(a,b,c) for the rank-3 group, with parabolic invariants.

Construction of F(a,b,c): the carrier is Sym^{a-b}(std) (x) Sym^{b-c}(wedge^2
std) (x) det^c, realized on monomials in two sets of three variables.  The
highest-weight vector is spun under group generators to a highest-weight
submodule W; the radical of the contravariant (apolarity) form on W is cut
out exactly, and W/rad is the irreducible module.  Certificates run at
build time: the carrier highest-weight vector, form adjointness, and the
irreducibility certificate of _certify_module, which serves both ranks.  It
takes K, the joint fixed space of the upper unipotent generators
E_{i,i+1}(1), requires dim K = 1 with the labelled torus weight, and spins
that line to the whole module.  This proves irreducibility: the upper
unitriangular group U+ is a p-group, so every nonzero submodule has a nonzero
U+-fixed vector; that vector lies on the line K, so every nonzero submodule
holds K and hence everything K spins to.  Every matrix product mod p goes
through linalg.matmul_mod, which is exact or raises.

Both spins stop at a proven dimension (_spin).  The certificate's spin
lies in the module, so it stops at mod.dim.  The spin of W stops at the
Weyl dimension (i+1)(j+1)(i+j+2)/2 of lambda = (i+j, j, 0), for the base
label (i+j, j, 0): every weight of the carrier is at most lambda, so the
submodule that v+ generates under the algebraic group is a quotient of the
Weyl module V(lambda), by its universal property (Jantzen, Representations
of Algebraic Groups, part II ch. 2), and W, the span of v+ under GL_3(F_p),
lies in that submodule.  The quotient by the radical then runs in
W-coordinates (_radical_quotient), with no second spin over the carrier.

The carrier matrix of g is the Kronecker product of Sy = Sym^{a-b}(g^T)
and Sz = Sym^{b-c}(adj g), of size D = dy * dz.  It is never formed: a
carrier row read as a dy x dz matrix Y goes to Sy Y Sz^T (_carrier_act),
two products with inner dimensions dy and dz in place of one with inner
dimension D.  The factors of each g are computed once per base.

Every module, of either rank and twisted or not, is one IrreducibleModule
whose rho is data: compute_rho takes g, reduced mod p, to the matrix
rho(g), and rho caches it per g.  A twist by det^c points to its base
module through its untwisted field, and shares the base's basis and
coordinates; any other module is its own untwisted module.  Coordinates are
linear, so the twist's compute_rho is det(g)^c times base.rho(g) mod p, and
u_invariants takes the base's parabolic invariants and their intertwiner
unchanged.

The substitution matrices Sym^k(M) behind every carrier action are built by
degree recursion (sub_matrix): a degree-k monomial is a degree-(k-1) parent
times one variable y_w, so its image is the parent's image times the linear
form (row w of M).y.  Cached per-degree index tables (parent, removed
variable, and "multiply by y_w" from degree k-1 into degree k) turn each
degree into a few numpy operations; entries stay below nvars*p^2 before
reduction, so int64 is exact.

Matrices are stored as left homomorphisms rho(g) over F_p acting on
coordinate columns; the semigroup right action used by the symbol spaces is
v|m = rho(transpose m) v, which is the classical substitution action with
positive central character.  Parabolic invariants are fixed spaces of
rho(u) for u in the first-column unipotent group.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

import numpy as np

from .arith import adj3, det, primitive_root
# np_rref is not called here; the traced benchmark pass wraps modrep.np_rref
from .linalg import SpinBasis, matmul_mod, np_nullspace, np_rref, trailing_pivots


class CertificateError(RuntimeError):
    """A build-time certificate failed; the construction is wrong."""


# -- monomial machinery -------------------------------------------------------


def sym_basis(nvars, deg):
    """Exponent tuples of the degree-deg monomials, lexicographic."""
    idx = []
    for combo in combinations_with_replacement(range(nvars), deg):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        idx.append(tuple(e))
    return sorted(set(idx), reverse=True)


@lru_cache(maxsize=None)
def _sym_tables(nvars, deg):
    """Index tables linking the degree deg-1 and degree deg monomial bases
    (deg >= 1): for each degree-deg monomial, its parent (the monomial with
    one power of its first present variable removed) and that variable; and
    for each variable w, where multiplying each degree deg-1 monomial by y_w
    lands.  Read-only; shared by every caller."""
    index = {m: i for i, m in enumerate(sym_basis(nvars, deg))}
    lower = sym_basis(nvars, deg - 1)
    lower_index = {m: i for i, m in enumerate(lower)}
    parent = np.zeros(len(index), dtype=np.intp)
    var = np.zeros(len(index), dtype=np.intp)
    for m, j in index.items():
        w = next(v for v, e in enumerate(m) if e)
        var[j] = w
        parent[j] = lower_index[m[:w] + (m[w] - 1,) + m[w + 1 :]]
    times = np.array([[index[m[:w] + (m[w] + 1,) + m[w + 1 :]] for m in lower] for w in range(nvars)], dtype=np.intp)
    for a in (parent, var, times):
        a.setflags(write=False)
    return parent, var, times


def sub_matrix(M, deg, p):
    """Matrix of f -> f(M y) on the degree-deg monomial basis, mod p, for
    one square matrix M or for each matrix of a stack (..., nvars, nvars).

    Columns are images of basis monomials; the map is an anti-homomorphism
    in M (substitutions compose contravariantly).  Built degree by degree
    from Sym^0 = (1) through the tables of _sym_tables.
    """
    M = np.asarray(M, dtype=np.int64) % p
    nvars = M.shape[-1]
    if nvars * (p - 1) ** 2 >= 2**63:
        raise OverflowError("sub_matrix needs nvars*(p-1)^2 < 2^63 (p = %d)" % p)
    S = np.ones(M.shape[:-2] + (1, 1), dtype=np.int64)
    for k in range(1, deg + 1):
        parent, var, times = _sym_tables(nvars, k)
        # column j is the image of its parent times (row var[j] of M) . y
        cols = S[..., parent]
        S = np.zeros(M.shape[:-2] + (len(parent), len(parent)), dtype=np.int64)
        for w in range(nvars):
            S[..., times[w], :] += cols * M[..., None, var, w]
        S %= p
    return S


def gl2_rho(g, a, b, p):
    """rho(g) of the model of F(a,b) that build_gl2_module makes,
    Sym^(a-b)(g^T) times det(g)^b mod p, for one 2 x 2 integer matrix g or
    for each matrix of a stack (..., 2, 2)."""
    g = np.asarray(g, dtype=np.int64) % p
    d = (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]) % p
    power = np.array([pow(x, b % (p - 1), p) for x in range(p)], dtype=np.int64)
    return sub_matrix(np.swapaxes(g, -1, -2), a - b, p) * power[d][..., None, None] % p


def gl_generators(n, p):
    """Adjacent transvections plus torus generators of the rank-n group."""
    gens = []
    for i in range(n - 1):
        for (a, b) in ((i, i + 1), (i + 1, i)):
            E = np.eye(n, dtype=np.int64)
            E[a, b] = 1
            gens.append(E)
    g0 = primitive_root(p)
    for i in range(min(n - 1, 2)):
        T = np.eye(n, dtype=np.int64)
        T[i, i] = g0
        gens.append(T)
    return gens


# -- module objects ------------------------------------------------------------


@dataclass(eq=False)
class IrreducibleModule:
    p: int
    n: int
    label: tuple
    dim: int
    basis: np.ndarray  # rows: module basis inside the carrier (identity for n=2)
    carrier_dim: int
    compute_rho: Callable  # g, reduced mod p -> the F_p matrix rho(g), columns as images
    untwisted: IrreducibleModule = None  # the base module of a det^c twist; self otherwise

    def __post_init__(self):
        if self.untwisted is None:
            self.untwisted = self
        self._rho_cache = {}
        self._levi = None  # the LeviModule of u_invariants, once computed

    def rho(self, g):
        """Left homomorphism matrix of g (n x n integers, reduced mod p)."""
        g = np.asarray(g, dtype=np.int64) % self.p
        key = g.tobytes()
        if key not in self._rho_cache:
            self._rho_cache[key] = self.compute_rho(g)
        return self._rho_cache[key]

    def act_right(self, v, m):
        """Right semigroup action v|m = rho(transpose(m mod p)) v."""
        m = np.asarray(m, dtype=np.int64) % self.p
        return matmul_mod(self.rho(m.T), np.asarray(v, dtype=np.int64) % self.p, self.p)


def build_gl2_module(p, a, b):
    """Symmetric-power model of F(a,b): monomials of degree a-b in two
    variables twisted by the b-th power of the determinant."""
    if not 0 <= a - b <= p - 1:
        raise ValueError("label (%d, %d) is not p-restricted" % (a, b))
    dim = a - b + 1
    mod = IrreducibleModule(
        p=p,
        n=2,
        label=(a, b),
        dim=dim,
        basis=np.eye(dim, dtype=np.int64),
        carrier_dim=dim,
        compute_rho=lambda g: gl2_rho(g, a, b, p),
    )
    _certify_module(mod)
    return mod


_GL3_CACHE = {}


def build_gl3_module(p, a, b, c):
    """Irreducible F(a,b,c) via spin-plus-radical on the tensor carrier."""
    if not (0 <= a - b <= p - 1 and 0 <= b - c <= p - 1):
        raise ValueError("label (%d, %d, %d) is not p-restricted" % (a, b, c))
    base_key = (p, a - b, b - c)
    if base_key not in _GL3_CACHE:
        _GL3_CACHE[base_key] = _build_gl3_base(p, a - b, b - c)
    base = _GL3_CACHE[base_key]
    return _twist_gl3(base, p, a, b, c)


def _build_gl3_base(p, i, j):
    """The label (i+j, j, 0) module: the determinant twist is added later."""
    a, b, c = i + j, j, 0
    ybasis = sym_basis(3, i)
    zbasis = sym_basis(3, j)
    dy, dz = len(ybasis), len(zbasis)
    D = dy * dz
    factor_cache = {}

    def carrier_rho(g):
        """The carrier factors (Sy, Sz) of g, computed once per g."""
        g = np.asarray(g, dtype=np.int64) % p
        key = g.tobytes()
        if key not in factor_cache:
            factor_cache[key] = sub_matrix(g.T, i, p), sub_matrix(np.array(adj3(g)) % p, j, p)
        return factor_cache[key]

    def act(g):
        factors = carrier_rho(g)
        return lambda X: _carrier_act(factors, X, p)

    # highest weight vector: y1^i * z3^j
    y_top = ybasis.index(tuple([i, 0, 0]))
    z_top = zbasis.index(tuple([0, 0, j]))
    vplus = np.zeros(D, dtype=np.int64)
    vplus[y_top * dz + z_top] = 1

    # highest-weight certificate on the carrier
    _check_highest_weight(act, vplus, 3, (a, b, c), p)

    # adjointness of the contravariant form on the carrier (spot check)
    wt = _form_weights(ybasis, zbasis, p)
    rng = random.Random(12345)
    for _ in range(3):
        g = _random_invertible(p, rng)
        u = np.array(rng.choices(range(p), k=D), dtype=np.int64)
        w = np.array(rng.choices(range(p), k=D), dtype=np.int64)
        lhs = int(matmul_mod(act(g)(u) * wt % p, w, p))
        rhs = int(matmul_mod(u * wt % p, act(g.T % p)(w), p))
        if lhs != rhs:
            raise CertificateError("contravariant pairing is not adjoint")

    # spin the highest-weight submodule W, which is at most Weyl-dimensional
    weyl = (i + 1) * (j + 1) * (i + j + 2) // 2
    W = _spin(vplus, [act(g) for g in gl_generators(3, p)], p, weyl)

    if int(matmul_mod(vplus, vplus * wt, p)) == 0:
        raise CertificateError("form degenerates on the highest-weight vector")

    # W modulo the radical of the contravariant form on it
    L, coords = _radical_quotient(W, matmul_mod(W * wt % p, W.T, p), p)

    mod = IrreducibleModule(
        p=p,
        n=3,
        label=(a, b, c),
        dim=len(L),
        basis=L,
        carrier_dim=D,
        compute_rho=lambda g: coords(_carrier_act(carrier_rho(g), L, p)).T.copy(),
    )
    _certify_module(mod)
    return mod


def _radical_quotient(W, gram, p):
    """(L, coords): the rows L of W that span W modulo the radical of the
    form with Gram matrix gram on W, and the map taking carrier rows in the
    span of W to their coordinates in L modulo the radical.

    All of it runs in W-coordinates: W is fully reduced, so a row x of its
    span is x[pivots] in the basis W, and the radical is the kernel N of
    gram, already in W-coordinates.  Row k of W is independent of the
    radical and the rows before it iff no vector of span(N) has its last
    nonzero entry at k; those last entries are the trailing pivots T of
    span(N), so L is W without the rows T.  A row of N from np_nullspace is
    1 at its free column, 0 at the other free columns and elsewhere nonzero
    only at pivots left of it, so T are the free columns.  The W-coordinates
    y of a row, less y[T] N, lie in the span of the rows L, and read at
    their places give the coordinates in L."""
    N = np_nullspace(gram, p)
    trailing = trailing_pivots(N)
    keep = np.ones(len(W), dtype=bool)
    keep[trailing] = False
    radical = N[:, keep]
    pivots = (W != 0).argmax(axis=1)

    def coords(rows):
        y = np.asarray(rows, dtype=np.int64)[:, pivots]
        return (y[:, keep] - matmul_mod(y[:, trailing], radical, p)) % p

    return W[keep], coords


def _twist_gl3(base, p, a, b, c):
    """Tensor the cached (a-c, b-c, 0) module by det^c."""
    if c % (p - 1) == 0 and (a, b, c) == base.label:
        return base
    return IrreducibleModule(
        p=p,
        n=3,
        label=(a, b, c),
        dim=base.dim,
        basis=base.basis,
        carrier_dim=base.carrier_dim,
        compute_rho=lambda g: base.rho(g) * pow(int(det(g)) % p, c % (p - 1), p) % p,
        untwisted=base,
    )


def _carrier_act(factors, X, p):
    """Carrier rows X (shape (..., dy * dz)) times kron(Sy, Sz)^T mod p:
    each row, read as a dy x dz matrix Y, goes to Sy Y Sz^T.  Two flat
    products, Y Sz^T on all rows at once and then Sy on the left."""
    Sy, Sz = factors
    dy, dz = len(Sy), len(Sz)
    X = np.asarray(X)
    Y = matmul_mod(X.reshape(-1, dz), Sz.T, p).reshape(-1, dy, dz)
    k = len(Y)
    Y = matmul_mod(Sy, Y.transpose(1, 0, 2).reshape(dy, k * dz), p)
    return Y.reshape(dy, k, dz).transpose(1, 0, 2).reshape(X.shape)


def _form_weights(ybasis, zbasis, p):
    wt = np.zeros(len(ybasis) * len(zbasis), dtype=np.int64)
    dz = len(zbasis)
    for iy, ym in enumerate(ybasis):
        for iz, zm in enumerate(zbasis):
            w = 1
            for e in list(ym) + list(zm):
                w = w * factorial(e) % p
            wt[iy * dz + iz] = w
    return wt


def _random_invertible(p, rng):
    """A uniformly random element of GL_3(F_p), drawn from the
    random.Random rng."""
    while True:
        g = np.array(rng.choices(range(p), k=9), dtype=np.int64).reshape(3, 3)
        if det(g) % p:
            return g


def _upper_unipotents(n):
    """E_{i,i+1}(1) for i < n - 1, which generate the upper unitriangular
    group U+ of the rank-n group over F_p."""
    gens = []
    for i in range(n - 1):
        E = np.eye(n, dtype=np.int64)
        E[i, i + 1] = 1
        gens.append(E)
    return gens


def _check_highest_weight(act, v, n, label, p):
    """Raise unless v is a highest-weight vector of weight label: fixed by
    U+, and scaled by g0^label[i] under diag(1, .., g0, .., 1) with the
    primitive root g0 in place i.  act(g) takes rows to their images."""
    for u in _upper_unipotents(n):
        if not np.array_equal(act(u)(v), v):
            raise CertificateError("highest-weight vector is not unipotent-invariant")
    g0 = primitive_root(p)
    for i in range(n):
        t = np.eye(n, dtype=np.int64)
        t[i, i] = g0
        if not np.array_equal(act(t)(v), pow(g0, label[i] % (p - 1), p) * v % p):
            raise CertificateError("highest-weight vector has the wrong torus weight")


def _certify_module(mod):
    """Irreducibility certificate for either rank: the U+-fixed space K of
    the module is one line, of the labelled highest weight, and that line
    spins to the whole module.

    Why this proves irreducibility: U+ is a p-group, and a p-group acting on
    a nonzero F_p-space fixes a nonzero vector (its orbits off the fixed
    points have p-power sizes).  So a nonzero submodule M' has a nonzero
    U+-fixed vector; it lies in K, a line, so M' holds K, and with it the
    span of K under the group, which is the whole module.  A p-group fixes
    a nonzero vector over any field of characteristic p, and neither dim K
    nor the spin changes under field extension, so the module is absolutely
    irreducible.
    """
    p, n = mod.p, mod.n
    eye = np.eye(mod.dim, dtype=np.int64)
    K = np_nullspace(np.vstack([mod.rho(u) - eye for u in _upper_unipotents(n)]), p)
    if len(K) != 1:
        raise CertificateError("U+-fixed space has dimension %d, not 1, for label %s" % (len(K), mod.label))

    def act(g):
        Gt = mod.rho(g).T.astype(np.float64)
        return lambda X: matmul_mod(X, Gt, p)

    _check_highest_weight(act, K[0], n, mod.label, p)
    if len(_spin(K, [act(g) for g in gl_generators(n, p)], p, mod.dim)) != mod.dim:
        raise CertificateError("the U+-fixed line spans a proper submodule")


# -- parabolic invariants ------------------------------------------------------


@dataclass
class LeviModule:
    base: IrreducibleModule
    basis: np.ndarray  # rows: invariant vectors in module coordinates
    gl1_exponent: int
    gl2_module: IrreducibleModule
    iso: np.ndarray  # invertible matrix intertwining the block action

    @property
    def dim(self):
        return len(self.basis)


def u_invariants(mod):
    """Fixed space of the first-column unipotent group, with certificates.

    Returns the invariants of F(a,b,c) as a LeviModule: the rank-1 torus
    factor acts by the c-power, the rank-2 block acts as F(a,b), and an
    explicit equivariant isomorphism onto build_gl2_module(p,a,b) is part of
    the certificate.  A base module computes and certifies its LeviModule
    once and keeps it, with read-only arrays.  The rank-2 block's matrix is
    read at the trailing pivots of K, np_nullspace's basis (see linalg).

    A twist by det^c takes its base's basis and isomorphism, because
    rho(g) = det(g)^c rho_base(g) in the base's coordinates.  The unipotents
    have determinant 1, so the fixed space K is the base's.  For g =
    diag(1, h) both sides of the intertwiner equation Phi A(h) = rho2(h) Phi
    gain the factor det(h)^c, since F(a,b) = F(a-c, b-c) (x) det^c, so its
    solution line, and the normalized solution np_nullspace returns on it,
    is the base's as well.  The twist therefore rests on that identity of
    rho, which the tests check, and on the base's certificates.
    """
    if mod.n != 3:
        raise ValueError("parabolic invariants implemented for the rank-3 modules")
    p = mod.p
    a, b, c = mod.label
    if mod.untwisted is not mod:
        levi = u_invariants(mod.untwisted)
        return LeviModule(
            base=mod, basis=levi.basis, gl1_exponent=c % (p - 1), gl2_module=build_gl2_module(p, a, b), iso=levi.iso
        )
    if mod._levi is not None:
        return mod._levi
    u1 = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    u2 = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    stack = np.vstack([mod.rho(u) - np.eye(mod.dim, dtype=np.int64) for u in (u1, u2)])
    K = np_nullspace(stack, p)
    if len(K) != a - b + 1:
        raise CertificateError(
            "invariant dimension %d != %d for label %s" % (len(K), a - b + 1, mod.label)
        )
    # scalar action of the rank-1 torus factor
    g0 = primitive_root(p)
    t = np.diag([g0, 1, 1])
    imgs = matmul_mod(K, mod.rho(t).T, p)
    lamb = pow(g0, c % (p - 1), p)
    if not np.array_equal(imgs % p, lamb * K % p):
        raise CertificateError("rank-1 factor does not act by the expected power")
    # the rank-2 block action, restricted to the invariants
    gl2 = build_gl2_module(p, a, b)
    T = trailing_pivots(K)

    def restricted(h):
        g = np.eye(3, dtype=np.int64)
        g[1:, 1:] = np.asarray(h) % p
        return matmul_mod(K, mod.rho(g).T, p)[:, T].T

    iso = _intertwiner(restricted, gl2, p)
    for x in (K, iso):
        x.setflags(write=False)
    mod._levi = LeviModule(base=mod, basis=K, gl1_exponent=c % (p - 1), gl2_module=gl2, iso=iso)
    return mod._levi


def _intertwiner(restricted, gl2, p):
    """Solve Phi . A(h) = rho2(h) . Phi over the rank-2 generators.  Both
    sides are absolutely irreducible, so by Schur's lemma the solutions form
    a line, and any nonzero solution is invertible; any other dimension
    raises."""
    k = gl2.dim
    gens = gl_generators(2, p)
    mats = [(restricted(h), gl2.rho(h)) for h in gens]
    rows = []
    for A, R2 in mats:
        # row-major vec of Phi: vec(Phi A) = (I kron A^T) v, vec(R2 Phi) = (R2 kron I) v
        op = np.kron(np.eye(k, dtype=np.int64), A.T) - np.kron(R2, np.eye(k, dtype=np.int64))
        rows.append(op % p)
    sol = np_nullspace(np.vstack(rows), p)
    if len(sol) != 1:
        raise CertificateError(
            "equivariant maps onto the rank-2 model form a space of dimension %d, not 1" % len(sol)
        )
    phi = sol[0].reshape(k, k)
    for A, R2 in mats:
        if not np.array_equal(matmul_mod(phi, A, p), matmul_mod(R2, phi, p)):
            raise CertificateError("intertwiner fails to intertwine")
    if len(np_nullspace(phi, p)):
        raise CertificateError("intertwiner is singular")
    return phi


# -- spin ------------------------------------------------------------------------


def _spin(rows, actions, p, dim=None):
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
    spin = SpinBasis(p, D)
    queue = rows.reshape(-1, D) % p
    queue = queue[spin.add_rows(queue)]
    while len(queue) and spin.rank != dim:
        grown = []
        for act in actions:
            imgs = act(queue)
            grown.append(imgs[spin.add_rows(imgs)])
            if spin.rank == dim:
                break
        queue = np.vstack(grown)
    return spin.basis()
