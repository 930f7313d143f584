"""Exact linear algebra: generic routines over a FiniteField handle for the
small symbol spaces, and vectorized numpy kernels mod a prime for the dense
representation-theory work."""

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
        inv = R[r][c].inverse()
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            if i != r and not R[i][c].is_zero():
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
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


# -- fast prime-field kernels (numpy int64) ---------------------------------


def np_rref(A, p):
    """Reduced row echelon form of an int array mod p: (R, pivots)."""
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

    @property
    def rank(self):
        return len(self.pivots)

    def basis(self):
        return self.rows.copy()
