"""Exact linear algebra: generic routines over a FiniteField handle for the
small symbol spaces, and vectorized numpy kernels mod a prime for the dense
representation-theory work.

Matrix products mod p go through matmul_mod, which multiplies in float64 and
is exact only while n * (p - 1)**2 < 2**53 for inner dimension n; past that
bound it raises OverflowError rather than round.  The elementwise int64
updates of np_rref and SpinBasis.add_rows need (p - 1)**2 < 2**63 and raise
OverflowError beyond it."""

from __future__ import annotations

import numpy as np

# -- generic field matrices: lists of lists of Fq ---------------------------


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


def apply_matrix(A, v, field):
    """A v for a matrix A (a list of rows) and a vector v over field."""
    zero = field.zero()
    return [sum((a * x for a, x in zip(row, v) if not a.is_zero()), zero) for row in A]


def embed_matrix(A, big):
    """A with every entry embedded in big, an extension of the entry's field."""
    return [[x.field.embed(x, big) for x in row] for row in A]


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


# -- fast prime-field kernels (numpy int64) ---------------------------------

# Every partial sum of a float64 product of integer matrices is an integer no
# larger in size than n * (p - 1)**2, and integers below 2**53 are exact.
_EXACT = 2**53


def _check_int64(p):
    """Raise OverflowError unless products of two residues mod p fit in int64."""
    if (p - 1) ** 2 >= 2**63:
        raise OverflowError("products of residues mod %d overflow int64" % p)


def matmul_mod(A, B, p):
    """A @ B mod p as int64, for entries of A and B in (-p, p).

    The product runs in float64 BLAS, which is exact while
    n * (p - 1)**2 < 2**53 for the inner dimension n; above that bound it
    raises OverflowError instead of returning a rounded answer.  Operands
    already in float64 are used without a copy.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    n = A.shape[-1]
    if n * (p - 1) ** 2 >= _EXACT:
        raise OverflowError("float64 product mod %d is inexact at inner dimension %d" % (p, n))
    return (A.astype(np.float64, copy=False) @ B.astype(np.float64, copy=False) % p).astype(np.int64)


def np_rref(A, p):
    """Reduced row echelon form of an int array mod p: (R, pivots)."""
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
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        rows = np.nonzero(A[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            A[rows] = (A[rows] - np.outer(A[rows, c], A[r])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def np_nullspace(A, p):
    """Basis (rows) of the right kernel of A mod p."""
    A = np.array(A, dtype=np.int64) % p
    m, n = A.shape
    R, pivots = np_rref(A, p)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-R[i, f]) % p
    return basis


def np_inv(A, p):
    A = np.array(A, dtype=np.int64) % p
    n = A.shape[0]
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = np_rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible mod %d" % p)
    return R[:, n:]


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
        before it from the same block."""
        p = self.p
        _check_int64(p)
        M = self.reduce(np.reshape(M, (-1, self.n)))
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
