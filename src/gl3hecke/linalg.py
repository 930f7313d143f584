"""Exact linear algebra over finite fields, on int64 numpy arrays.

A vector or matrix over F_q = F_{p^r} is an int64 array of F_p coordinates
whose trailing axis has length r (r = 1 over F_p): a matrix has shape
(n, m, r), a vector (n, r).  The field handle, from ffield, carries the
F_p-linear maps of multiplication by a scalar, of embeddings and of
Frobenius.  Every routine over F_q runs on the prime-field kernels at the
end of this module (np_rref, SpinBasis, matmul_mod) by restriction of
scalars.

With g the field generator, an F_q row v expands to the r F_p rows
coords(g^t v), t < r (_expand).  Let R_j be the reduced echelon rows over
F_q, with pivots c_j.  Then coords(g^t R_j) is 1 at position (c_j, t), 0 at
every other (c_i, s) and 0 before (c_j, t).  These rows span the expansion
of the span and are fully reduced, so by uniqueness they are its F_p
reduced echelon form, in the order (j, t).  The F_q pivots are therefore
the F_p pivots at (j, 0), and F_q rows, kernels and residues are read off
there: they are the ones row reduction over F_q itself gives.

Operators stay over the field they were built over.  A vector over an
extension is moved by one rule, extend_scalars: its F_p coordinate columns
go through the operator, and their images are embedded and recombined by
one product with a fixed F_p matrix, so no operator is ever embedded.
Bases that are read are in trailing-pivot normal form (trailing_pivots):
each row's last nonzero entry is 1, the other rows are 0 in that column,
and those columns increase.  Coordinates in such a basis and eigenvalues
are read at the pivots, not solved for; the only solves left are those that
make the form: nullspace, np_nullspace and rref of reversed columns.

Exactness: every product mod p goes through matmul_mod, which is exact
only while n * (p - 1)**2 < 2**53 for inner dimension n (the float64
mantissa; small products run in int64, which is exact there too); over F_q
that n is the expanded width, columns times r.  Past the bound it raises
OverflowError rather than round.  Below it the float64 product is an exact
integer, so it is converted to int64 before the remainder: the conversion
loses nothing, and the integer remainder is several times cheaper than
numpy's float64 one.  The elementwise int64 updates of np_rref,
np_rref_stack and SpinBasis.add_rows need (p - 1)**2 < 2**63 and raise
OverflowError beyond it."""

from __future__ import annotations

import numpy as np

# -- matrices over F_q as F_p coordinate arrays ------------------------------


def _expand(X, field):
    """The F_p rows coords(g^t x), t < r, of each F_q vector x in X:
    shape (..., n, r) -> (..., r, n * r)."""
    X = np.asarray(X, dtype=np.int64)
    r = field.r
    # E[..., j, t, s] = coords(g^t x_j)[s] = sum_u G[t][s, u] x_j[u]
    E = matmul_mod(X, field.power_matrices().transpose(2, 0, 1).reshape(r, r * r), field.p)
    E = E.reshape(X.shape + (r,))
    return E.swapaxes(-2, -3).reshape(X.shape[:-2] + (r, X.shape[-2] * r))


def identity(n, field):
    """The n x n identity matrix over field."""
    out = np.zeros((n, n, field.r), dtype=np.int64)
    out[np.arange(n), np.arange(n), 0] = 1
    return out


def rref(A, field):
    """Reduced row echelon form over field of the (m, n, r) array A:
    (rows, an (k, n, r) array, and the pivot column list)."""
    A = np.asarray(A, dtype=np.int64)
    m, n, r = A.shape
    R, pivots = np_rref(_expand(A, field).reshape(m * r, n * r), field.p)
    return R[::r].reshape(-1, n, r), [c // r for c in pivots[::r]]


def nullspace(A, field):
    """Basis of {v : A v = 0} for the (m, n, r) array A: a list of (n, r)
    arrays, one per free column of rref(A)."""
    return list(_kernel(*rref(A, field), field.p))


def _kernel(R, pivots, p):
    """The kernel basis (k, n, r) read off a reduced echelon form R of shape
    (m, n, r): 1 at a free column f and -R[i, f] at the pivot of row i."""
    n, r = R.shape[1:]
    free = [c for c in range(n) if c not in pivots]
    K = np.zeros((len(free), n, r), dtype=np.int64)
    K[range(len(free)), free, 0] = 1
    K[:, pivots] = (-R[:, free] % p).swapaxes(0, 1)
    return K


def apply_matrix(A, v, field):
    """A v over field, for A of shape (n, m, r) and v a vector (m, r) or a
    block of columns (m, k, r)."""
    n, m, r = A.shape
    v = np.asarray(v, dtype=np.int64)
    block = v if v.ndim == 3 else v[:, None]
    # row (j, t) of W is coords(g^t v[j]), so (A v)[i] = sum_{j,t} A[i, j, t] W[j, t]
    W = _expand(block, field).reshape(m * r, block.shape[1] * r)
    return matmul_mod(A.reshape(n, m * r), W, field.p).reshape((n,) + v.shape[1:])


def trailing_pivots(B):
    """The trailing pivots T of B, a (k, n, r) array over F_q or (k, n) over
    F_p: the column of each row's last nonzero entry.  Raises ValueError
    unless T increases and B[:, T] is the identity, so that B[::-1, ::-1] is
    reduced echelon; a vector w of the span is then w[T] in the basis B."""
    C = B if B.ndim == 3 else B[..., None]
    k, n, r = C.shape
    T = n - 1 - C.any(axis=2)[:, ::-1].argmax(axis=1)
    eye = np.eye(k, dtype=np.int64)[..., None] * (np.arange(r) == 0)
    if np.any(np.diff(T) <= 0) or not np.array_equal(C[:, T], eye):
        raise ValueError("basis is not in trailing-pivot normal form")
    return T


def eigenvalue(img, v, field):
    """The scalar lam of field with img = lam v, or None, for img = A v under
    some operator A.  v (n, r) is in trailing-pivot normal form, 1 at its
    last nonzero entry t, so lam is img[t], and img = lam v is checked in
    full.  Raises ValueError for any other v, 0 included."""
    (t,) = trailing_pivots(v[None])
    lam = img[t]
    return field.element(lam.tolist()) if np.array_equal(img, matmul_mod(v, field.mul_matrices(lam).T, field.p)) else None


def embed_matrix(A, field, big):
    """The coordinate array A over field with every entry embedded in big."""
    if big is field:
        return A
    return matmul_mod(A, field.embedding_matrix(big).T, field.p)


def extend_scalars(op, V, field, big):
    """op(V) over big, for op linear over field on column blocks, (n, m, r)
    -> (..., n', m, r), and V a vector (n, R) or a block (n, k, R) over big.
    op(V) is the sum of g^u op(V_u) over the F_p coordinate columns V_u of
    V, u < R = big.r, g big's generator: the columns V_u go through op as
    one block over field.  Each image entry, with coordinates x_t in the
    powers h^t of field's generator, t < r, adds x_t g^u emb(h^t) to the
    result, so one product by the F_p matrix M[(u, t), s] = coords(g^u
    emb(h^t))[s] embeds and recombines the images at once, with inner
    dimension R r; over F_p, M is the identity."""
    if big is field:
        return op(V)
    n, R, p = V.shape[0], big.r, field.p
    block = np.zeros((n, V[0].size, field.r), dtype=np.int64)
    block[..., 0] = V.reshape(n, -1)
    images = op(block)
    M = matmul_mod(big.power_matrices(), field.embedding_matrix(big), p).transpose(0, 2, 1).reshape(R * field.r, R)
    return matmul_mod(images.reshape(images.shape[:-2] + V.shape[1:-1] + (R * field.r,)), M, p)


class RowReducer:
    """Incrementally maintained fully reduced row space over field, for
    vectors of shape (n, r): a view over the SpinBasis of the expanded rows.

    Used to canonicalize vectors modulo a growing relation space: reduce()
    returns the residue of a vector modulo the span of everything added.
    """

    def __init__(self, field, n):
        self.field = field
        self._spin = SpinBasis(field.p, n * field.r)

    def reduce(self, v):
        """The residue of v, or of each vector of a block (k, n, r)."""
        v = np.asarray(v, dtype=np.int64)
        return self._spin.reduce(v.reshape(v.shape[:-2] + (v.shape[-2] * v.shape[-1],))).reshape(v.shape)

    def add(self, v):
        """Add v to the span. Returns True if the span grew."""
        return bool(self.add_rows(np.asarray(v)[None])[0])

    def add_rows(self, M):
        """Add the vectors of the (k, n, r) block M in order; the same flags
        and span as [self.add(v) for v in M].  A vector outside the span
        grows it by all r rows of its expansion at once, since the span is
        closed under F_q scalars."""
        r = self.field.r
        grew = self._spin.add_rows(_expand(M, self.field))
        return grew.reshape(-1, r)[:, 0]

    def pivot_columns(self):
        r = self.field.r
        return sorted(c // r for c in self._spin.pivots if c % r == 0)

    def expanded_basis(self):
        """(pivots, rows): the F_p pivot columns c * r + t of the expanded
        span and its fully reduced basis rows, shape (rank, n * r).  The
        residue of an expanded vector w is w - w[pivots] @ rows mod p."""
        return list(self._spin.pivots), self._spin.rows


# -- fast prime-field kernels (numpy int64) ---------------------------------

# Every partial sum of a float64 product of integer matrices is an integer no
# larger in size than n * (p - 1)**2, and integers below 2**53 are exact.
_EXACT = 2**53
_SMALL = 4096


def _check_int64(p):
    """Raise OverflowError unless products of two residues mod p fit in int64."""
    if (p - 1) ** 2 >= 2**63:
        raise OverflowError("products of residues mod %d overflow int64" % p)


def matmul_mod(A, B, p):
    """A @ B mod p as int64, for entries of A and B in (-p, p).

    The product is exact while n * (p - 1)**2 < 2**53 for the inner
    dimension n; above that bound it raises OverflowError instead of
    returning a rounded answer.  It runs in float64 BLAS, and operands
    already in float64 are used without a copy; integer products of at most
    _SMALL multiplications run in int64, where the conversions would cost
    more than the product.  Every entry of the float64 product is an integer
    of size below 2**53, so converting it to int64 is exact, and the
    remainder is taken there: numpy's float64 remainder costs several times
    the int64 one, and on a wide product several times the product itself.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    n = A.shape[-1]
    if n * (p - 1) ** 2 >= _EXACT:
        raise OverflowError("float64 product mod %d is inexact at inner dimension %d" % (p, n))
    if A.dtype.kind == B.dtype.kind == "i" and A.size * B.shape[-1] <= _SMALL:
        return A.astype(np.int64, copy=False) @ B.astype(np.int64, copy=False) % p
    return (A.astype(np.float64, copy=False) @ B.astype(np.float64, copy=False)).astype(np.int64) % p


def np_rref(A, p):
    """Reduced row echelon form of an int array mod p: (R, pivots).  The
    pivot row is zero left of its pivot, so each step updates only the
    columns from the pivot on."""
    _check_int64(p)
    A = np.array(A, dtype=np.int64) % p
    m, n = A.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        col = A[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            A[[r, i]] = A[[i, r]]
        A[r, c:] = A[r, c:] * pow(int(A[r, c]), p - 2, p) % p
        rows = np.nonzero(A[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            A[rows, c:] = (A[rows, c:] - np.outer(A[rows, c], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def np_rref_stack(A, p):
    """Reduced row echelon forms mod p of a stack of int matrices, shape
    (b, m, n): (R, is_pivot), with R of shape (b, m, n) and is_pivot a
    (b, n) bool array.  For each k, with rank = is_pivot[k].sum(),
    R[k][:rank] and np.flatnonzero(is_pivot[k]) are np_rref(A[k], p) and
    the rows of R[k] past rank are zero.

    Each column is one array step over the whole stack: every matrix looks
    for its first nonzero entry at or below its next pivot row, swaps it
    there, scales it to 1 and clears the column in its other rows.  A matrix
    without a pivot in the column takes a zero update.  So every matrix
    goes through np_rref's steps, in its order, and the results agree byte
    for byte.  Matrices of different shapes may share one stack once padded
    with zero rows and columns at the end: a zero row stays zero under every
    update and is never chosen as a pivot row, and a zero column never
    gives a pivot, so the padded form is the form of the matrix, padded.
    One matrix takes two to two and a half times as long here as in
    np_rref, which updates only the rows that need it."""
    _check_int64(p)
    A = np.array(A, dtype=np.int64) % p
    b, m, n = A.shape
    is_pivot = np.zeros((b, n), dtype=bool)
    rank = np.zeros(b, dtype=np.intp)
    stack, row = np.arange(b), np.arange(m)
    for c in range(n):
        below = (A[:, :, c] != 0) & (row >= rank[:, None])
        has = below.any(axis=1)
        if not has.any():
            continue
        top = np.minimum(rank, m - 1)
        i = np.where(has, below.argmax(axis=1), top)
        pivot = A[stack, i, c:]
        A[stack, i, c:] = A[stack, top, c:]
        pivot = pivot * _inverse_mod(np.where(has, pivot[:, 0], 1), p)[:, None] % p
        # the factors clearing column c, zero in every matrix without a pivot
        # here, whose rows therefore stay as they are; the pivot row is then
        # written over whatever the update left in it
        factors = A[:, :, c] * has[:, None]
        A[:, :, c:] = (A[:, :, c:] - factors[:, :, None] * pivot[:, None, :]) % p
        A[stack, top, c:] = pivot
        is_pivot[:, c] = has
        rank += has
    return A, is_pivot


def _inverse_mod(x, p):
    """The inverses mod p of the units x, by square and multiply on the
    exponent p - 2; products of residues fit int64 (_check_int64)."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def np_nullspace(A, p):
    """Basis (rows) of the right kernel of A mod p."""
    R, pivots = np_rref(A, p)
    return _kernel(R[..., None], pivots, p)[..., 0]


_CHUNK = 64


class SpinBasis:
    """Incremental row-space basis mod p, kept fully reduced: every row has
    a 1 at its own pivot column and 0 at every other pivot column."""

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self._buf = np.zeros((min(n, 8), n), dtype=np.int64)
        self.pivots = []

    @property
    def rows(self):
        return self._buf[: len(self.pivots)]

    def reduce(self, v):
        # The rows are fully reduced, so subtracting v[c] times the row of
        # pivot c for every pivot at once clears all pivot columns.
        v = np.asarray(v, dtype=np.int64) % self.p
        if not self.pivots:
            return v
        return (v - matmul_mod(v[..., self.pivots], self.rows, self.p)) % self.p

    def add(self, v):
        """Add v to the span. Returns True if the span grew."""
        return bool(self.add_rows(v)[0])

    def add_rows(self, M):
        """Add the rows of M in order; the same flags, pivots and rows as
        [self.add(v) for v in M].  The block is reduced against the rows
        present with one product, then each row only against the rows added
        before it from the same block.  A long block is added in chunks of
        _CHUNK rows, so that this row-by-row step stays short."""
        p = self.p
        _check_int64(p)
        M = np.reshape(M, (-1, self.n))
        if len(M) > _CHUNK:
            return np.concatenate([self.add_rows(M[i : i + _CHUNK]) for i in range(0, len(M), _CHUNK)])
        M = self.reduce(M)
        grew = M.any(axis=1)
        start = len(self.pivots)
        new_pivots = []
        for i in np.flatnonzero(grew):
            v = M[i]
            k = len(new_pivots)
            if k:
                new = self._buf[start : start + k]
                v = (v - matmul_mod(v[new_pivots], new, p)) % p
            nz = np.flatnonzero(v)
            if nz.size == 0:
                grew[i] = False
                continue
            c = int(nz[0])
            v = v * pow(int(v[c]), p - 2, p) % p
            if k:
                col = new[:, c].copy()
                hit = np.flatnonzero(col)
                if hit.size:
                    new[hit] = (new[hit] - np.outer(col[hit], v)) % p
            self._reserve(start + k + 1)
            self._buf[start + k] = v
            new_pivots.append(c)
        if new_pivots and start:
            # The new rows vanish at the old pivots; clear the new pivots
            # from the old rows in one product.
            old = self._buf[:start]
            new = self._buf[start : start + len(new_pivots)]
            old[:] = (old - matmul_mod(old[:, new_pivots], new, p)) % p
        self.pivots.extend(new_pivots)
        return grew

    def _reserve(self, size):
        if size > len(self._buf):
            buf = np.zeros((min(self.n, max(size, 2 * len(self._buf))), self.n), dtype=np.int64)
            buf[: len(self._buf)] = self._buf
            self._buf = buf

    @property
    def rank(self):
        return len(self.pivots)

    def basis(self):
        return self.rows.copy()
