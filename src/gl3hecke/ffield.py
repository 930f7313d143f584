"""Exact arithmetic in small finite fields F_{p^r}, and polynomials over them.

Elements are coordinate vectors with respect to a deterministically chosen
monic irreducible modulus polynomial, so serialized values are reproducible
across runs.  A field embeds in each of its extensions by sending the
generator to the least root of its modulus there.  That root is found the
way the eigen search reads a Galois orbit of Hecke eigenvalues: _one_root
splits off one root, and the others are its Frobenius conjugates, of which
the least is kept.  All arithmetic is exact; nothing here floats.

Fq objects are single scalars: eigenvalues, and a Dirichlet character's
value where it is evaluated.  Vectors, matrices and tables of values over
F_{p^r}, a character's among them (see characters), are int64 arrays of F_p
coordinates whose trailing axis has length r (see linalg); to_array and
from_array convert between the two.  Every field keeps, cached in one
dictionary, the F_p matrices of multiplication by a scalar, of its
embeddings and of its Frobenius powers, each acting on coordinate columns,
and the roots that define its embeddings.  A product of two scalars is one
np.convolve of their coordinates, rewritten by the modulus like a
polynomial product's coefficients.

A polynomial of degree n over F_{p^r} is an int64 array (n + 1, r) of F_p
coordinates in [0, p), constant term first, with a nonzero last row; the
zero polynomial has shape (0, r).  A product is one np.convolve of the
coefficients laid out in slots of width 2r - 1 (Kronecker substitution)
and one matmul_mod that rewrites the powers of the generator by the field
modulus; the convolution is exact in int64 while min(len(a), len(b)) * r *
(p - 1)^2 < 2^63, and raises OverflowError past it.  Reduction mod a fixed
monic m is one matmul_mod by the F_p map of x^k mod m.  On these rest
powmod, gcd, exact division, distinct-degree factorisation and
Cantor-Zassenhaus equal-degree splitting (von zur Gathen and Gerhard,
Modern Computer Algebra, ch. 8 and 14).
"""

from __future__ import annotations

import random

import numpy as np

from .arith import is_prime, multiplicative_order
from .linalg import _expand, matmul_mod, np_rref


class Fq:
    """Element of F_{p^r}, stored as a coordinate tuple of length r."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        p = field.p
        self.coords = tuple([c % p for c in coords])

    def _check(self, other):
        # fields are cached per (p, r), so the common case is one identity test
        if isinstance(other, Fq) and other.field is self.field:
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if not isinstance(other, Fq) or other.field != self.field:
            raise ValueError("elements of different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return Fq(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return Fq(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        other = self._check(other)
        return Fq(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        fld = self.field
        if isinstance(other, int):
            return Fq(fld, [a * other for a in self.coords])
        other = self._check(other)
        # the product of the coordinate vectors, its coefficient of g^s,
        # s < 2r - 1, rewritten by the field modulus as _poly_mul does
        prod = np.convolve(self.coords, other.coords) % fld.p
        return Fq(fld, (prod @ fld.generator_powers()).tolist())

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return Fq(self.field, _inverse(np.array(self.coords), self.field).tolist())

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self):
        """x -> x^p, the generating field automorphism."""
        return self ** self.field.p

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def multiplicative_order(self):
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        # pow(x, e, None) is x ** e, and an Fq compares equal to the integer 1
        return multiplicative_order(self, None, self.field.order - 1)

    def lift(self):
        """Integer in [0, p) for prime-field elements."""
        if any(self.coords[1:]):
            raise ValueError("element not in the prime field")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return isinstance(other, Fq) and self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field.p, self.field.r, self.coords))

    def __repr__(self):
        if self.field.r == 1:
            return "Fq(%d mod %d)" % (self.coords[0], self.field.p)
        return "Fq(%s; p=%d, r=%d)" % (list(self.coords), self.field.p, self.field.r)

    def to_json(self):
        return {"coords": list(self.coords)}


class FiniteField:
    """F_{p^r} with the lexicographically least monic irreducible modulus.

    The modulus of degree r is x^r + c_{r-1} x^{r-1} + ... + c_0 where the
    digit string c_0 + c_1 p + ... is minimal, so every run of a given (p, r)
    agrees on coordinates.
    """

    _cache = {}

    def __new__(cls, p, r=1):
        key = (p, r)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        cls._cache[key] = self
        return self

    def __init__(self, p, r=1):
        if getattr(self, "_ready", False):
            return
        if not is_prime(p):
            raise ValueError("p = %d is not prime" % p)
        if p <= 3:
            raise ValueError("p must exceed 3")
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.r = r
        self.order = p**r
        self.modulus = self._least_irreducible(p, r)
        self._maps = {}
        self._ready = True

    @staticmethod
    def _least_irreducible(p, r):
        # a monic f of degree r > 1 is irreducible when its first
        # distinct-degree part over the prime field has degree r; a reducible
        # one is rejected at its least factor, without factoring the rest
        if r == 1:
            return (0, 1)
        prime = FiniteField(p, 1)
        for k in range(p**r):
            f = [k // p**i % p for i in range(r)] + [1]
            if next(_distinct_degrees(np.array(f, dtype=np.int64)[:, None], prime))[0] == r:
                return tuple(f)
        raise RuntimeError("no irreducible modulus found")  # unreachable

    def zero(self):
        return Fq(self, [0] * self.r)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return Fq(self, [n] + [0] * (self.r - 1))

    def element(self, coords):
        if len(coords) != self.r:
            raise ValueError("expected %d coordinates" % self.r)
        return Fq(self, coords)

    def elements(self):
        for c in _element_coords(self):
            yield Fq(self, c.tolist())

    def units(self):
        for x in self.elements():
            if not x.is_zero():
                yield x

    def primitive_element(self):
        for x in self.units():
            if x.multiplicative_order() == self.order - 1:
                return x
        raise RuntimeError("no generator found")  # unreachable

    def extension(self, e):
        """The field F_{p^(r*e)} from the same deterministic family."""
        return FiniteField(self.p, self.r * e)

    def embed(self, x, big):
        """Embed x in this field into the extension field `big`."""
        if not isinstance(x, Fq) or x.field != self:
            raise ValueError("element not in this field")
        return x if big is self else Fq(big, (self.embedding_matrix(big) @ x.coords).tolist())

    def _embedding_root(self, big):
        """The least root of this field's modulus in big, in big.elements()
        order: the image of the generator under embed.  The modulus is
        irreducible over F_p, so its roots in big are the images of any one
        of them under x -> x^p."""
        key = ("root", big.r)
        if key not in self._maps:
            m = np.zeros((self.r + 1, big.r), dtype=np.int64)
            m[:, 0] = self.modulus
            roots = [_one_root(m, big, FiniteField(self.p))]
            for _ in range(self.r - 1):
                roots.append(matmul_mod(big.frobenius_matrix(1), roots[-1], self.p))
            self._maps[key] = big.element(_sort_elements(roots, big)[0].tolist())
        return self._maps[key]

    def to_array(self, xs):
        """The coordinate array, shape (len(xs), r), of a sequence of elements."""
        if any(x.field != self for x in xs):
            raise ValueError("element not in this field")
        return np.array([x.coords for x in xs], dtype=np.int64).reshape(-1, self.r)

    def from_array(self, arr):
        """The elements whose coordinates are the rows of arr, shape (n, r)."""
        return [Fq(self, row) for row in np.asarray(arr).reshape(-1, self.r).tolist()]

    def _map(self, key, column):
        """The read-only F_p matrix, cached under key, with the coordinate
        columns column(t), t < r."""
        if key not in self._maps:
            M = np.array([column(t) for t in range(self.r)], dtype=np.int64).T
            M.flags.writeable = False
            self._maps[key] = M
        return self._maps[key]

    def _power(self, t):
        """g^t for g the class of x, t < r: the t-th coordinate vector."""
        return Fq(self, [int(s == t) for s in range(self.r)])

    def mul_matrices(self, X):
        """The F_p matrices of multiplication by the elements whose
        coordinates are the rows of X (..., r), shape (..., r, r): the sums
        over t of X[..., t] power_matrices()[t]."""
        X = np.asarray(X, dtype=np.int64)
        r = self.r
        M = matmul_mod(X.reshape(-1, r), self.power_matrices().reshape(r, r * r), self.p)
        return M.reshape(X.shape[:-1] + (r, r))

    def generator_powers(self):
        """The (2r - 1, r) array of the coordinates of g^s, s < 2r - 1, for g
        the class of x: the rows that rewrite a product of two coordinate
        vectors by the modulus."""
        if "generator_powers" not in self._maps:
            Y = np.zeros((2 * self.r - 1, self.r), dtype=np.int64)
            Y[: self.r] = np.eye(self.r, dtype=np.int64)
            for s in range(self.r, 2 * self.r - 1):
                # g^s = g * g^(s-1): shift up, and g^r = -(c_0 + ... + c_(r-1) g^(r-1))
                Y[s, 1:] = Y[s - 1, :-1]
                Y[s] = (Y[s] - Y[s - 1, -1] * np.array(self.modulus[:-1])) % self.p
            Y.flags.writeable = False
            self._maps["generator_powers"] = Y
        return self._maps["generator_powers"]

    def power_matrices(self):
        """The (r, r, r) array of mul_matrices(g^t), t < r: column s of the
        t-th holds the coordinates of g^(t + s)."""
        if "powers" not in self._maps:
            t = np.arange(self.r)
            self._maps["powers"] = self.generator_powers()[t[:, None] + t].transpose(0, 2, 1)
        return self._maps["powers"]

    def embedding_matrix(self, big):
        """The big.r x r F_p matrix of embed(., big): its column t holds the
        coordinates of root^t, root = _embedding_root(big)."""
        if big.p != self.p or big.r % self.r != 0:
            raise ValueError("not an extension of this field")
        return self._map(("embed", big.r), lambda t: (self._embedding_root(big) ** t).coords)

    def frobenius_matrix(self, k=1):
        """The r x r F_p matrix of x -> x^(p^k)."""
        k %= self.r
        return self._map(("frobenius", k), lambda t: (self._power(t) ** self.p**k).coords)

    def __eq__(self, other):
        return self is other or isinstance(other, FiniteField) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return "FiniteField(p=%d, r=%d)" % (self.p, self.r)

    def to_json(self):
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data):
        fld = cls(data["p"], data["r"])
        if list(fld.modulus) != list(data["modulus"]):
            raise ValueError("modulus mismatch: incompatible serialization")
        return fld

    def scalar_from_json(self, data):
        return self.element(data["coords"])


# -- polynomials over a FiniteField, as coordinate arrays (module docstring) --

# how many pseudo-random splitting polynomials _equal_degree tries before it
# gives up; each separates two given factors with probability about 1/2
_SPLITTERS = 64


def _trim(a):
    """a without its zero leading coefficients."""
    nonzero = np.flatnonzero(a.any(axis=1))
    return a[: nonzero[-1] + 1 if nonzero.size else 0]


def _monomial(k, field):
    """x^k."""
    out = np.zeros((k + 1, field.r), dtype=np.int64)
    out[k, 0] = 1
    return out


def _linear(a, field):
    """x + a, for the coordinates a of a scalar."""
    out = _monomial(1, field)
    out[0] = a
    return out


def _element_coords(field):
    """The coordinates of field.elements(), in that order."""
    p = field.p
    for k in range(field.order):
        yield np.array([k // p**i % p for i in range(field.r)], dtype=np.int64)


def _sort_elements(coords, field):
    """The rows of coords sorted in field.elements() order, as an (n, r) array."""
    p = field.p
    rows = sorted(np.asarray(coords).tolist(), key=lambda c: sum(v * p**i for i, v in enumerate(c)))
    return np.array(rows, dtype=np.int64).reshape(-1, field.r)


def _inverse(c, field):
    """The coordinates of 1 / c, for the coordinates c of a nonzero scalar:
    c^(p - 2) over F_p, else the multiplication matrix of c solved against
    the coordinates of 1."""
    if field.r == 1:
        return np.array([pow(int(c[0]), field.p - 2, field.p)], dtype=np.int64)
    R, _ = np_rref(np.concatenate([field.mul_matrices(c), _monomial(0, field).T], axis=1), field.p)
    return R[:, -1]


def _monic(a, field):
    """a divided by its leading coefficient."""
    if a[-1, 0] == 1 and not a[-1, 1:].any():
        return a
    return matmul_mod(a, field.mul_matrices(_inverse(a[-1], field)).T, field.p)


def _poly_sub(a, b, field):
    out = np.zeros((max(len(a), len(b)), field.r), dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] -= b
    return _trim(out % field.p)


def _poly_mul(a, b, field):
    """a * b by Kronecker substitution.  Coefficient i of a polynomial is
    written in the slot of width w = 2r - 1 that starts at i * w of one
    integer sequence, so one np.convolve multiplies every pair of
    coefficients at once: a product of two coefficients has degree at most
    2r - 2 in the field generator g and never reaches the next slot.  One
    matmul_mod then rewrites g^s, s < w, by the field modulus.

    A convolution sum gathers at most min(len(a), len(b)) * r products, each
    at most (p - 1)^2, and every term is nonnegative, so no partial sum
    passes min(len(a), len(b)) * r * (p - 1)^2.  The product raises
    OverflowError unless that bound is below 2^63."""
    if not len(a) or not len(b):
        return a[:0]
    p, r = field.p, field.r
    if min(len(a), len(b)) * r * (p - 1) ** 2 >= 2**63:
        raise OverflowError("Kronecker product of polynomials over F_%d^%d overflows int64" % (p, r))
    w = 2 * r - 1

    def spread(c):
        slots = np.zeros((len(c), w), dtype=np.int64)
        slots[:, :r] = c
        return slots.ravel()[: len(c) * w - r + 1]

    # the two sequences have lengths (n - 1) w + r, so the product has (len(a) + len(b) - 1) w
    prod = np.convolve(spread(a), spread(b)).reshape(-1, w) % p
    return prod if r == 1 else matmul_mod(prod, field.generator_powers(), p)


def _poly_divmod(a, b, field):
    """(quotient, remainder) of a by a monic b of degree n: the coefficients
    of a are cleared from the top down, each by its multiple of b, read off
    the F_p rows coords(g^t b) of linalg._expand; what clears them is the
    quotient."""
    n, r, p = len(b) - 1, field.r, field.p
    if len(a) <= n:
        return a[:0], a
    low = _expand(b[:n], field).reshape(r, n * r)
    a = a.copy()
    for k in range(len(a) - 1, n - 1, -1):
        a[k - n : k] = (a[k - n : k] - matmul_mod(a[k], low, p).reshape(n, r)) % p
    return a[n:], _trim(a[:n])


def _poly_divide_exact(a, g, field):
    """a / g for a monic g that divides a; ValueError if it does not."""
    quotient, rem = _poly_divmod(a, g, field)
    if len(rem):
        raise ValueError("the division is not exact")
    return quotient


def _poly_gcd(a, b, field):
    """The monic gcd; gcd(0, 0) = 0.  Euclid, each divisor made monic."""
    while len(b):
        b = _monic(b, field)
        a, b = b, _poly_divmod(a, b, field)[1]
    return _monic(a, field) if len(a) else a


class _Modulus:
    """Arithmetic mod a monic m of degree n >= 1 over field.  A product of
    two reduced polynomials has degree at most 2n - 2; its coefficients of
    x^n, ..., x^(2n - 2) enter the remainder through the F_p-linear map that
    sends coordinate t of the coefficient of x^k to coords(g^t (x^k mod
    m)), computed once, so each reduction is one matmul_mod."""

    def __init__(self, m, field):
        p, r, n = field.p, field.r, len(m) - 1
        self.m, self.field, self.n = m, field, n
        rows = [-m[:n] % p]  # x^n mod m
        low = _expand(rows[0], field).reshape(r, n * r)
        for _ in range(n - 2):
            # x^(k+1) mod m: x^k mod m shifted up, its top coefficient times x^n mod m
            top = rows[-1]
            rows.append((np.concatenate([np.zeros((1, r), dtype=np.int64), top[:-1]]) + matmul_mod(top[-1], low, p).reshape(n, r)) % p)
        self.map = _expand(np.array(rows), field).reshape(-1, n * r)

    def reduce(self, a):
        """a mod m; by long division when deg a > 2n - 2."""
        n, p = self.n, self.field.p
        if len(a) <= n:
            return a
        if len(a) > 2 * n - 1:
            return _poly_divmod(a, self.m, self.field)[1]
        high = a[n:].reshape(1, -1)
        return _trim((a[:n] + matmul_mod(high, self.map[: high.shape[1]], p).reshape(n, -1)) % p)

    def powmod(self, base, e):
        """base^e mod m, squaring from the top bit down."""
        base = self.reduce(base)
        if e == 0:
            return self.reduce(_monomial(0, self.field))
        out = base
        for bit in bin(e)[3:]:
            out = self.reduce(_poly_mul(out, out, self.field))
            if bit == "1":
                out = self.reduce(_poly_mul(out, base, self.field))
        return out


def _distinct_degrees(m, field):
    """The distinct-degree parts of the monic polynomial m, yielded as they
    are found: the pairs (d, g_d), d increasing, where g_d is the product
    of the distinct monic irreducible factors of m of degree d.
    Distinct-degree factorisation on m itself, not its squarefree part:
    after the gcd with x^(q^d) - x finds the factors of degree d, every
    power of them is divided out of m, so a factor whose multiplicity is
    divisible by p is found like any other."""
    q = field.order
    work = m
    x = _monomial(1, field)
    h = x  # x^(q^d) mod work
    mod = _Modulus(work, field) if len(work) > 1 else None
    d = 0
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            # every factor left has degree >= d, and there is no room for
            # two of them (a repeated one included): work is irreducible
            yield len(work) - 1, work
            return
        h = mod.powmod(h, q)
        g = _poly_gcd(_poly_sub(h, x, field), work, field)
        if len(g) > 1:
            yield d, g
            while len(g) > 1:
                work = _poly_divide_exact(work, g, field)
                g = _poly_gcd(work, g, field)
            if len(work) > 1:
                mod = _Modulus(work, field)
                h = mod.reduce(h)


def _split(f, d, field, splitters, first=False):
    """Equal-degree splitting (Cantor-Zassenhaus): the monic irreducible
    factors of f, a product of distinct monic irreducibles of degree d over
    field (q odd).  A splitter h cuts a factor g when gcd(g, h^((q^d -
    1)/2) - 1) is proper.  With first, only the smaller part of every cut is
    kept, and the one factor it ends in is returned.  RuntimeError if the
    splitters run out first."""
    e = (field.order**d - 1) // 2
    one = _monomial(0, field)
    done, todo = [], []
    (done if len(f) - 1 == d else todo).append(f)
    for h in splitters:
        if not todo:
            break
        rest = []
        for g in todo:
            s = _poly_gcd(_poly_sub(_Modulus(g, field).powmod(h, e), one, field), g, field)
            parts = [s, _poly_divide_exact(g, s, field)] if 1 < len(s) < len(g) else [g]
            for part in [min(parts, key=len)] if first else parts:
                (done if len(part) - 1 == d else rest).append(part)
        todo = rest
    if todo:
        raise RuntimeError("equal-degree splitting left %d factors unsplit" % len(todo))
    return done


def _equal_degree(g, d, field):
    """The monic irreducible factors of g, a product of distinct monic
    irreducibles of degree d over field.  For d = 1 the splitters are x + a,
    a in field.elements(), which always finish: g is the product of the x -
    root, and for two roots r != s, (q - 1)/2 values of a give r + a and s
    + a different quadratic characters (q is odd).  For d > 1 they are
    _SPLITTERS pseudo-random polynomials of degree below deg g, from a fixed
    seed."""
    if d == 1:
        return _split(g, 1, field, (_linear(a, field) for a in _element_coords(field)))

    def splitters():
        rng = random.Random(0)
        for _ in range(_SPLITTERS):
            yield _trim(np.array([[rng.randrange(field.p) for _ in range(field.r)] for _ in range(len(g) - 1)]))

    return _split(g, d, field, splitters())


def _one_root(f, field, sub):
    """One root in field of the monic f, whose roots are distinct, lie in
    field and are conjugate over its subfield sub.  A shift a in sub gives
    every root of f the quadratic character of one of them, since x ->
    x^|sub| fixes a and permutes the roots, so f is split by x + a for the
    a of field.elements() outside sub; for two roots, (q - 1)/2 of all a
    separate them, and none of those lies in sub.  Its callers are
    modsym2._orbit_kernel, for one eigenvalue of a Galois orbit, and
    FiniteField._embedding_root, for one root of a field's modulus."""
    frobenius = field.frobenius_matrix(sub.r)
    shifts = (a for a in _element_coords(field) if not np.array_equal(matmul_mod(frobenius, a, field.p), a))
    (linear,) = _split(f, 1, field, (_linear(a, field) for a in shifts), first=True)
    return -linear[0] % field.p


def make_field(p, r=1):
    """Field handle with deterministic modulus; see FiniteField."""
    return FiniteField(p, r)
