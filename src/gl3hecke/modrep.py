"""Explicit matrix models of the irreducible mod-p modules F(a,b) for the
rank-2 group and F(a,b,c) for the rank-3 group, with parabolic invariants.

Construction of F(a,b,c): the carrier is Sym^{a-b}(std) (x) Sym^{b-c}(wedge^2
std) (x) det^c, realized on monomials in two sets of three variables.  The
highest-weight vector v+ generates, under the group, a highest-weight
submodule W; the radical of the contravariant (apolarity) form on W is cut
out exactly, and W/rad is the irreducible module.  Every matrix product mod
p goes through linalg.matmul_mod, which is exact or raises.

The certificate, _certify_module for both ranks, forms no full image.  It
checks on the build's own data each input of a proof that the module is
L(lambda), lambda = label, and absolutely irreducible on GL_n(F_p):
- W = Dist(U-) v+: for rank 3 by construction (below).  For rank 2, W is
  all of Sym^k, k = a - b < p: the f^(n) x^k are the weight components
  C(k, n) x^(k-n) y^n of E_10(1) x^k = (x + y)^k, which the build checks
  are nonzero.
- The form is contravariant, (g u, w) = (u, g^T w).  On Sym^k the
  apolarity form, pairing y^e with itself to e! = prod e_k! and with other
  monomials to 0, is induced by the dot product (a sum over permutations of
  products of dot products), so Sym^k(M)^T diag(e!) = diag(e!) Sym^k(M^T)
  over Z.  The carrier's factors are Sym^i(g^T) and Sym^j(adj g), with
  adj(g)^T = adj(g^T), and its form is the product of theirs.  The identity
  is checked exactly per factor on each element g of gl_generators, on the
  factors of g and g^T that the action reads from the build's table and
  the weights the build's form is made of; it is multiplicative, so it
  holds on GL_n(F_p).
- (v+, v+) != 0: a proper submodule N misses W_lambda, so (N, Dist(U-) v+)
  = (Dist(U+) N, v+) = 0, and the radical is the unique maximal submodule:
  W/rad = L(lambda) (Jantzen, Representations of Algebraic Groups, II.2).
- L spans a complement of the radical: the weight blocks of the Gram
  matrix are nonsingular on L, and dim L is dim L(lambda), which Braden's
  closed form (Bull. AMS 73, 1967) gives apart from the radical.
- In module coordinates v+ is fixed by U+ and has the weight lambda.
- lambda is p-restricted, so L(lambda) stays absolutely irreducible on
  GL_n(F_p) (Steinberg, Nagoya Math. J. 22, 1963).

W, the radical and the parabolic invariants are read one weight space at
a time; the carrier monomials y^e z^f are a weight basis, of weight
e + j(1,1,1) - f for the base label (i+j, j, 0).  W is the submodule that
v+ generates under the algebraic group, Dist(G) v+, which is Dist(U-) v+
because v+ is a weight vector fixed by U+; and Dist(U-) is generated as
an algebra by the divided powers f_a^(n) of the two simple roots
(Kostant's Z-form; Jantzen, part II ch. 1).  So each weight space W_mu is
spanned by the f_a^(n) W_(mu + n a), and _highest_weight_span builds the
weight spaces in order of height below lambda = (i+j, j, 0), reading
f_a^(n) w as the weight mu - n a component of x_-a(1) w.  Every weight of
the carrier is at most lambda, so W is a quotient of the Weyl module
V(lambda), by its universal property (Jantzen, part II ch. 2), and a W
above the Weyl dimension (i+1)(j+1)(i+j+2)/2 raises.  The contravariant
form pairs distinct weight spaces to 0, so the radical is cut one weight
block of the Gram matrix at a time, in W-coordinates (_radical_quotient).

The carrier matrix of g is the Kronecker product of Sy = Sym^{a-b}(g^T)
and Sz = Sym^{b-c}(adj g), of size D = dy * dz.  It is never formed: a
carrier row read as a dy x dz matrix Y goes to Sy Y Sz^T (_carrier_act),
two products with inner dimensions dy and dz in place of one with inner
dimension D.

Each build, of either rank, computes its Sym factors once, as a table
(_factor_table): one stacked sub_matrix call per factor degree makes the
factors of gl_generators, which is closed under transpose, and of the two
other matrices a build reads, diag(1, .., 1, g0) in the highest-weight
check and E_20(1) in u_invariants.  The carrier action, the certificate and
the rank-2 image Sym^k(g^T) det(g)^b read that table; any other g has its
factors computed once and kept in it.

Every module, of either rank and twisted or not, is one IrreducibleModule:
a basis, its weights and an image map.  image(g, rows) takes rows of module
coordinates to their images under g mod p, and rows None to the images of
every basis row, which is rho(g) transposed.  Nothing is cached, and each
check images only the rows it reads (_certify_module, u_invariants).  A
twist by det^c points to its base module through its untwisted field, and
shares the base's basis and coordinates; any other module is its own
untwisted module.  Coordinates are linear, so the twist's image is det(g)^c
times the base's image mod p, and u_invariants takes the base's parabolic
invariants and their intertwiner unchanged.

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
positive central character.  Parabolic invariants are the invariants of
the first-column unipotent group, the unipotent radical of a parabolic
with Levi factor GL_1 x GL_2.  By Smith's theorem (Smith, "Irreducible
modules and parabolic subgroups", J. Algebra 75, 1982), on an irreducible
module they are the irreducible module of the Levi factor and a sum of
weight spaces, so u_invariants reads them off the weights of the basis.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import factorial, prod

import numpy as np

from .arith import adj3, det, is_prime, primitive_root
from .linalg import matmul_mod, np_nullspace, np_rref, trailing_pivots


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
    """Adjacent transvections E_{i,i+1}(1), E_{i+1,i}(1) for i < n - 1, in
    that order, plus torus generators of the rank-n group."""
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
    basis: np.ndarray  # rows: module basis inside the carrier (identity for n=2)
    image: Callable  # (g, rows (k, dim) or None) -> the images of rows under g mod p; None: every basis row
    untwisted: IrreducibleModule = None  # the base module of a det^c twist; self otherwise
    weights: np.ndarray = None  # (dim, n): the torus weight of each basis row

    def __post_init__(self):
        if self.untwisted is None:
            self.untwisted = self
        self._levi = None  # the LeviModule of u_invariants, once computed

    @property
    def dim(self):
        return len(self.basis)

    @property
    def carrier_dim(self):
        return self.basis.shape[1]

    def rho(self, g):
        """Left homomorphism matrix of g (n x n integers, reduced mod p)."""
        return self.image(g, None).T

    def act_right(self, v, m):
        """Right semigroup action v|m = rho(transpose(m mod p)) v."""
        m = np.asarray(m, dtype=np.int64) % self.p
        return matmul_mod(self.rho(m.T), np.asarray(v, dtype=np.int64) % self.p, self.p)


def build_gl2_module(p, a, b):
    """Symmetric-power model of F(a,b): monomials of degree a-b in two
    variables twisted by the b-th power of the determinant."""
    k = a - b
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    if not 0 <= k <= p - 1:
        raise ValueError("label (%d, %d) is not p-restricted" % (a, b))

    table = _factor_table(p, (k,))
    factors = _factor_lookup(table, (k,), p)

    def image(g, rows):
        # rho(g) = Sym^k(g^T) det(g)^b, as gl2_rho makes it
        g = np.asarray(g, dtype=np.int64) % p
        (S,) = factors(g)
        G = S.T * pow(int(det(g)) % p, b % (p - 1), p) % p
        return G if rows is None else matmul_mod(rows, G, p)

    basis = np.eye(k + 1, dtype=np.int64)
    mod = IrreducibleModule(p=p, n=2, label=(a, b), basis=basis, image=image, weights=np.array(sym_basis(2, k)) + b)
    # W = Dist(U-) v+ is the whole carrier: the weight components of
    # E_10(1) x^k are the f^(n) x^k = C(k, n) x^(k-n) y^n
    if not image(gl_generators(2, p)[1], basis[:1]).all():
        raise CertificateError("the highest-weight vector does not generate the carrier")
    _certify_module(mod, [_form_weights(2, k, p)], basis[0], table)
    return mod


_GL3_CACHE = {}


def build_gl3_module(p, a, b, c):
    """Irreducible F(a,b,c): the span W of v+ in the tensor carrier modulo
    the radical of the contravariant form on it, certified by _certify_module
    as L(a,b,c)."""
    if not is_prime(p):
        raise ValueError("p = %d is not prime" % p)
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
    D = len(ybasis) * len(zbasis)
    table = _factor_table(p, (i, j))
    act = _carrier_action(p, i, j, table)

    # highest weight vector: y1^i * z3^j
    vplus = np.zeros(D, dtype=np.int64)
    vplus[ybasis.index((i, 0, 0)) * len(zbasis) + zbasis.index((0, 0, j))] = 1

    # highest-weight certificate on the carrier
    _check_highest_weight(act, vplus, 3, (a, b, c), p)

    # the contravariant form on the carrier, the product of its factor forms
    forms = [_form_weights(3, i, p), _form_weights(3, j, p)]
    wt = np.kron(*forms)
    if int(matmul_mod(vplus, vplus * wt, p)) == 0:
        raise CertificateError("form degenerates on the highest-weight vector")

    # W modulo the radical of the contravariant form on it; each row of L,
    # as of W, lies in the weight space of its pivot column.  W is passed
    # straight through, so no copy of it outlives the quotient, and L is W
    # itself when the radical is 0.
    weights = _carrier_weights(i, j)
    L, coords = _radical_quotient(_highest_weight_span(p, i, j, act), weights, wt, p)

    mod = IrreducibleModule(
        p=p,
        n=3,
        label=(a, b, c),
        basis=L,
        image=_carrier_image(act, L, coords, p),
        weights=weights[(L != 0).argmax(axis=1)],
    )
    _certify_module(mod, forms, coords(vplus[None])[0], table)
    return mod


def _carrier_action(p, i, j, table):
    """act(g), for g in GL_3(F_p): the map taking carrier rows of
    Sym^i(std) (x) Sym^j(wedge^2 std) to their images under g.  The factors
    (Sy, Sz) of g are read from table, a _factor_table(p, (i, j)), through
    _factor_lookup."""
    factors = _factor_lookup(table, (i, j), p)

    def act(g):
        S = factors(g)
        return lambda X: _carrier_act(S, X, p)

    return act


def _factor_table(p, degrees):
    """The Sym factors of each matrix g that a rank-n build reads, n =
    len(degrees) + 1, as {bytes of g mod p: _sym_factors(g, degrees, p)}.
    The matrices are gl_generators(n, p), which is closed under transpose,
    the torus element diag(1, .., 1, g0) of _check_highest_weight and, for
    rank 3, E_20(1) of u_invariants.  One stacked sub_matrix call per factor
    degree makes every entry."""
    n = len(degrees) + 1
    mats = gl_generators(n, p) + [np.diag([1] * (n - 1) + [primitive_root(p)])]
    if n == 3:
        mats.append(np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]]))
    G = np.stack(mats).astype(np.int64) % p
    maps = [G.swapaxes(1, 2)]
    if n == 3:
        # adj3 reads entries A[i][j], so on (3, 3, k) it makes all k adjugates
        maps.append(np.array(adj3(G.transpose(1, 2, 0))).transpose(2, 0, 1) % p)
    stacks = [sub_matrix(M, d, p) for M, d in zip(maps, degrees)]
    return {g.tobytes(): tuple(S[k] for S in stacks) for k, g in enumerate(G)}


def _factor_lookup(table, degrees, p):
    """factors(g): the Sym factors of g mod p, read from table; a g outside
    it has them computed once by _sym_factors, and kept in table."""

    def factors(g):
        g = np.asarray(g, dtype=np.int64) % p
        key = g.tobytes()
        if key not in table:
            table[key] = _sym_factors(g, degrees, p)
        return table[key]

    return factors


def _sym_factors(g, degrees, p):
    """The factors of the carrier action of g mod p: Sym^i(g^T) for degrees
    (i,), and also Sym^j(adj g) for degrees (i, j)."""
    g = np.asarray(g, dtype=np.int64) % p
    maps = [g.T] if len(degrees) == 1 else [g.T, np.array(adj3(g)) % p]
    return tuple(sub_matrix(M, d, p) for M, d in zip(maps, degrees))


def _carrier_image(act, L, coords, p):
    """The image map of the module with carrier basis L and coordinate map
    coords: rows go to rows L, through act(g), and back to coordinates.
    rows L reads only the rows of L that rows uses, not a float64 copy."""

    def image(g, rows):
        if rows is None:
            return coords(act(g)(L))
        used = rows.any(axis=0)
        return coords(act(g)(matmul_mod(rows[:, used], L[used], p)))

    return image


def _carrier_weights(i, j):
    """The torus weights e + j (1, 1, 1) - f of the carrier monomials
    y^e z^f, one row per carrier column: diag(t) scales y^e by t^e and, as
    adj(diag(t)) = det(t) diag(t)^-1, z^f by det(t)^j t^-f."""
    e = np.array(sym_basis(3, i))
    f = np.array(sym_basis(3, j))
    return (e[:, None] + j - f[None]).reshape(-1, 3)


def _highest_weight_span(p, i, j, act):
    """W, the submodule that v+ = y1^i z3^j generates in the carrier, as
    reduced echelon rows in pivot order, built one weight space at a time:
    W_mu is spanned by the f_a^(n) W_(mu + n a), n >= 1 (see the module
    docstring), so the weights are taken in order of height below lambda.
    f_a^(n) w is the weight mu - n a component of x_-a(1) w, for x_-a(1) =
    E_10 and E_21, the lowering generators of gl_generators.  Each W_mu is
    reduced on the carrier columns of its own weight alone, where its
    candidates are kept.  The blocks have disjoint supports, so their rows,
    sorted by pivot, are the reduced echelon form of W.  A W above the Weyl
    dimension raises CertificateError."""
    weights = _carrier_weights(i, j)
    columns = {}  # (mu1, mu2) -> carrier columns of weight mu
    for col, (m1, m2, _) in enumerate(weights.tolist()):
        columns.setdefault((m1, m2), []).append(col)
    columns = {mu: np.array(cols) for mu, cols in columns.items()}
    gens = gl_generators(3, p)
    # (E_10, -a1) and (E_21, -a2) on (mu1, mu2); mu3 = i + 2j - mu1 - mu2
    lowering = [(act(gens[1]), (-1, 1)), (act(gens[3]), (0, -1))]
    levels = {}
    for mu in columns:
        levels.setdefault(2 * (i + j) + j - 2 * mu[0] - mu[1], []).append(mu)
    candidates = {(i + j, j): [np.ones((1, 1), dtype=np.int64)]}
    rows = []  # (pivot column, row on the columns of its weight, those columns)
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
        # the whole level goes through each lowering generator at once
        blocks = np.vstack([block for _, block in found])
        for lower, (d1, d2) in lowering:
            images = lower(blocks)
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
    weyl = _weyl_dim(i, j)
    if len(rows) > weyl:
        raise CertificateError("W has dimension %d, above the Weyl dimension %d" % (len(rows), weyl))
    W = np.zeros((len(rows), len(weights)), dtype=np.int64)
    for k, (_, row, cols) in enumerate(sorted(rows, key=lambda r: r[0])):
        W[k, cols] = row
    return W


def _radical_quotient(W, weights, wt, p):
    """(L, coords): the rows L of W that span W modulo the radical of the
    contravariant form (x, y) = sum x y wt on it, and the map taking carrier
    rows in the span of W to their coordinates in L modulo the radical.
    weights are the torus weights of the carrier columns.

    All of it runs in W-coordinates: W is fully reduced, so a row x of its
    span is x[pivots] in the basis W.  W is a sum of weight spaces, so each
    row of its reduced echelon form lies in the weight space of its pivot
    column, and _gram_kernel cuts the radical N one weight block at a time,
    in trailing-pivot normal form.  Row k of W is independent of the radical
    and the rows before it iff no vector of span(N) has its last nonzero
    entry at k; those last entries are the trailing pivots T of span(N), the
    free columns, so L is W without the rows T, and W itself when T is
    empty.  The W-coordinates y of a row, less y[T] N, lie in the span of
    the rows L, and read at their places give the coordinates in L."""
    pivots = (W != 0).argmax(axis=1)
    kernel = _gram_kernel(W, weights[pivots], wt, p)
    N = np.zeros((len(kernel), len(W)), dtype=np.int64)
    for n, k in enumerate(sorted(kernel)):
        ks, row = kernel[k]
        N[n, ks] = row
    trailing = trailing_pivots(N)
    keep = np.ones(len(W), dtype=bool)
    keep[trailing] = False
    radical = N[:, keep]

    def coords(rows):
        y = np.asarray(rows, dtype=np.int64)[:, pivots]
        return (y[:, keep] - matmul_mod(y[:, trailing], radical, p)) % p

    return (W if keep.all() else W[keep]), coords


def _gram_kernel(rows, weights, wt, p):
    """The kernel of the Gram matrix of the form (x, y) = sum x y wt on the
    carrier rows, of torus weights weights, as {k: (ks, row)}: each kernel
    vector is row on the rows ks of its weight block, last nonzero at k.

    The form pairs distinct weight spaces to 0, so the kernel is cut one
    weight block at a time.  The one-row blocks are tested at once, and
    np_nullspace runs on the others.  Its rows are in trailing-pivot normal
    form, which is unique, and the blocks have disjoint supports, so the
    block kernels sorted by k are the bytes np_nullspace of the whole Gram
    matrix returns."""
    blocks = {}
    for k, mu in enumerate(map(tuple, weights.tolist())):
        blocks.setdefault(mu, []).append(k)
    single = np.array([ks[0] for ks in blocks.values() if len(ks) == 1], dtype=np.intp)
    ones = rows[single]
    value = (ones * ones % p * wt).sum(axis=1) % p
    kernel = {k: ([k], [1]) for k in single[value == 0].tolist()}
    for ks in blocks.values():
        if len(ks) > 1:
            B = rows[ks]
            for row in np_nullspace(matmul_mod(B * wt % p, B.T, p), p):
                kernel[ks[row.nonzero()[0][-1]]] = ks, row
    return kernel


def _twist_gl3(base, p, a, b, c):
    """Tensor the cached (a-c, b-c, 0) module by det^c."""
    if c % (p - 1) == 0 and (a, b, c) == base.label:
        return base
    return IrreducibleModule(
        p=p,
        n=3,
        label=(a, b, c),
        basis=base.basis,
        image=lambda g, rows: base.image(g, rows) * pow(int(det(g)) % p, c % (p - 1), p) % p,
        untwisted=base,
        weights=base.weights + c,
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


def _form_weights(nvars, deg, p):
    """The apolarity form on the degree-deg monomials in nvars variables, as
    its diagonal: y^e pairs with itself to e! = prod e_k! mod p, and with
    every other monomial to 0."""
    return np.array([prod(map(factorial, e)) % p for e in sym_basis(nvars, deg)], dtype=np.int64)


def _weyl_dim(i, j):
    """dim V(i+j, j, 0), the Weyl module of GL_3; 0 when i or j is -1."""
    return (i + 1) * (j + 1) * (i + j + 2) // 2


def _simple_dim(degrees, p):
    """dim L(lambda) for the restricted lambda of gaps degrees: k + 1 for
    rank 2; for rank 3, Braden's V(i, j) less V(p-2-j, p-2-i) above the
    lowest alcove."""
    if len(degrees) == 1:
        return degrees[0] + 1
    i, j = degrees
    return _weyl_dim(i, j) - (_weyl_dim(p - 2 - j, p - 2 - i) if i + j + 2 > p else 0)


def _check_highest_weight(act, v, n, label, p):
    """Raise unless v is a highest-weight vector of weight label: fixed by
    U+, and scaled by g0^label[i] under diag(1, .., g0, .., 1) with the
    primitive root g0 in place i.  act(g) takes rows to their images."""
    for u in gl_generators(n, p)[: 2 * (n - 1) : 2]:
        if not np.array_equal(act(u)(v), v):
            raise CertificateError("highest-weight vector is not unipotent-invariant")
    g0 = primitive_root(p)
    for i in range(n):
        t = np.eye(n, dtype=np.int64)
        t[i, i] = g0
        if not np.array_equal(act(t)(v), pow(g0, label[i] % (p - 1), p) * v % p):
            raise CertificateError("highest-weight vector has the wrong torus weight")


def _certify_module(mod, forms, v, table):
    """Certify that mod is L(label), absolutely irreducible on GL_n(F_p),
    by the proof in the module docstring.  forms are the weights of the
    form on each Sym factor of the carrier, v is v+ in module coordinates,
    the one row imaged, and table is the build's _factor_table: the factors
    of each g of gl_generators and of g^T are read from it, so they are the
    matrices the action uses."""
    p, n = mod.p, mod.n
    degrees = [x - y for x, y in zip(mod.label, mod.label[1:])]
    for g in gl_generators(n, p):
        for S, St, w in zip(table[g.tobytes()], table[g.T.tobytes()], forms):
            if not np.array_equal(S.T * w % p, w[:, None] * St % p):
                raise CertificateError("the form is not contravariant under %s" % g.tolist())
    if _gram_kernel(mod.basis, mod.weights, reduce(np.kron, forms), p):
        raise CertificateError("the form is degenerate on the module basis")
    want = _simple_dim(degrees, p)
    if mod.dim != want:
        raise CertificateError("dimension %d, not the %d of L%s" % (mod.dim, want, mod.label))
    _check_highest_weight(lambda g: lambda x: mod.image(g, x[None])[0], v, n, mod.label, p)


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
    once and keeps it, with read-only arrays.

    The fixed space K is read off the weights, not solved for.  The
    first-column unipotent group is the unipotent radical of the parabolic
    with Levi factor GL_1 x GL_2 that holds the lower triangular matrices.
    By Smith's theorem (Smith, "Irreducible modules and parabolic
    subgroups", J. Algebra 75, 1982), its fixed points on L(lambda), which
    the build certifies the module to be, are the sum of the weight
    spaces whose weights differ from the lowest weight (c, b, a) by roots of
    the Levi factor: the weights mu with mu_1 = c.  So K is the unit rows at
    the basis rows of those weights, which is also the basis np_nullspace
    returns on that span.  The certificates check that there are a - b + 1
    of them, and image only those rows: u1 and u2 fix each, diag(g0, 1, 1)
    scales each by g0^c, and each Levi generator diag(1, h) keeps them in
    their span, as K = L^{U_P} is P-stable, U_P being normal in P.  The
    rank-2 block's matrix is those images read at the rows of K.

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
    low = np.flatnonzero(mod.weights[:, 0] == c)
    if len(low) != a - b + 1:
        raise CertificateError(
            "invariant dimension %d != %d for label %s" % (len(low), a - b + 1, mod.label)
        )
    K = np.zeros((len(low), mod.dim), dtype=np.int64)
    K[np.arange(len(low)), low] = 1
    u1 = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    u2 = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    for u in (u1, u2):
        if not np.array_equal(mod.image(u, K), K):
            raise CertificateError("the lowest Levi weight spaces are not fixed by the unipotent radical")
    # scalar action of the rank-1 torus factor
    g0 = primitive_root(p)
    if not np.array_equal(mod.image(np.diag([g0, 1, 1]), K), pow(g0, c % (p - 1), p) * K % p):
        raise CertificateError("rank-1 factor does not act by the expected power")
    # the rank-2 block action, restricted to the invariants
    gl2 = build_gl2_module(p, a, b)

    def restricted(h):
        g = np.eye(3, dtype=np.int64)
        g[1:, 1:] = np.asarray(h) % p
        images = mod.image(g, K)
        if np.delete(images, low, axis=1).any():
            raise CertificateError("the Levi factor moves the invariants off the lowest Levi weight rows")
        return images[:, low].T

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
