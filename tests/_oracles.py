"""Independent arithmetic oracles used by the test suite.

These never touch the symbol-space machinery: elliptic trace counts are
brute-force point counts, and the discriminant-cusp-form coefficients come
from expanding the Jacobi product directly.  SequentialSpinBasis is the
row-at-a-time basis that the batched linalg.SpinBasis replaced, and
scan_eigen_split is the eigenvalue scan that the root split in
modsym2._eigen_split replaced.
"""

import numpy as np

from gl3hecke.linalg import nullspace


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


def scan_eigen_split(space, A, basis):
    """Eigen-pieces of the restricted matrix A, found by trying every field
    element as an eigenvalue: a list of (eigenvalue, basis) pairs."""
    field = space.field
    k = len(basis)
    pieces = []
    for lam in field.elements():
        M = [[A[i][j] - lam if i == j else A[i][j] for j in range(k)] for i in range(k)]
        ker = nullspace(M, field)
        if not ker:
            continue
        vecs = []
        for cvec in ker:
            v = [field.zero()] * space.dim
            for i, ci in enumerate(cvec):
                if not ci.is_zero():
                    v = [x + ci * y for x, y in zip(v, basis[i])]
            vecs.append(v)
        pieces.append((lam, vecs))
    return pieces
