"""Exact arithmetic in small finite fields F_{p^r}, and polynomials over them.

Elements are coordinate vectors with respect to a deterministically chosen
monic irreducible modulus polynomial, so serialized values are reproducible
across runs.  A field embeds in each of its extensions by sending the
generator to the least root of its modulus there, found by the same
root-finder that reads off Hecke eigenvalues.  All arithmetic is exact;
nothing here floats.

Fq objects are scalars: eigenvalues, character values and polynomial
coefficients.  Vectors and matrices over F_{p^r} are int64 arrays of F_p
coordinates whose trailing axis has length r (see linalg); to_array and
from_array convert between the two, and every field keeps, cached, the F_p
matrices of multiplication by a scalar, of its embeddings and of its
Frobenius powers, each acting on coordinate columns.
"""

from __future__ import annotations

import numpy as np

from .arith import is_prime, prime_factors


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
        # the schoolbook product, then each x^k with k >= r rewritten by the
        # monic modulus; Fq() reduces the coefficients mod p once, at the end
        r, mod = fld.r, fld.modulus
        prod = [0] * (2 * r - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    prod[i + j] += a * b
        for k in range(2 * r - 2, r - 1, -1):
            c = prod[k]
            if c:
                for i in range(r):
                    prod[k - r + i] -= c * mod[i]
        return Fq(fld, prod[:r])

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        q = self.field.order
        return self ** (q - 2)

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
        n = self.field.order - 1
        order = n
        for q in set(prime_factors(n)):
            while order % q == 0 and (self ** (order // q)) == self.field.one():
                order //= q
        return order

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
        # a monic f of degree r > 1 is irreducible when its one distinct-degree
        # part over the prime field has degree r
        if r == 1:
            return (0, 1)
        prime = FiniteField(p, 1)
        for k in range(p**r):
            coeffs = []
            kk = k
            for _ in range(r):
                coeffs.append(kk % p)
                kk //= p
            f = coeffs + [1]
            if _distinct_degrees([prime.from_int(c) for c in f], prime)[0][0] == r:
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
        for k in range(self.order):
            coords = []
            kk = k
            for _ in range(self.r):
                coords.append(kk % self.p)
                kk //= self.p
            yield Fq(self, coords)

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
        if big.p != self.p or big.r % self.r != 0:
            raise ValueError("not an extension of this field")
        return x if big is self else Fq(big, (self.embedding_matrix(big) @ x.coords).tolist())

    def _embedding_root(self, big):
        """The least root of this field's modulus in big, in big.elements()
        order: the image of the generator under embed."""
        cached = self.__dict__.setdefault("_embedding_roots", {})
        if big.r not in cached:
            cached[big.r] = _roots([big.from_int(c) for c in self.modulus], big)[0]
        return cached[big.r]

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

    def mul_matrix(self, x):
        """The r x r F_p matrix of y -> x * y: coords(x * y) = M @ coords(y)."""
        if not isinstance(x, Fq) or x.field != self:
            raise ValueError("element not in this field")
        return self._map(("mul", x.coords), lambda t: (x * self._power(t)).coords)

    def power_matrices(self):
        """The (r, r, r) array of mul_matrix(g^t), t < r."""
        if "powers" not in self._maps:
            self._maps["powers"] = np.array([self.mul_matrix(self._power(t)) for t in range(self.r)])
        return self._maps["powers"]

    def embedding_matrix(self, big):
        """The big.r x r F_p matrix of embed(., big): its column t holds the
        coordinates of root^t, root = _embedding_root(big)."""
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


# -- polynomials over a FiniteField --
# Polynomials over a field are lists of its elements, constant term
# first, with no zero leading coefficient; the zero polynomial is [].


def _poly_trim_fq(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _poly_add_fq(a, b, field):
    n = max(len(a), len(b))
    zero = field.zero()
    a = list(a) + [zero] * (n - len(a))
    b = list(b) + [zero] * (n - len(b))
    return _poly_trim_fq([x + y for x, y in zip(a, b)])


def _poly_mul_fq(a, b, field):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _poly_trim_fq(out)


def _poly_mod_fq(a, m):
    """a mod m, for monic m."""
    a = _poly_trim_fq(list(a))
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        shift = len(a) - 1 - dm
        f = a[-1]
        for i in range(len(m)):
            a[shift + i] = a[shift + i] - f * m[i]
        a = _poly_trim_fq(a)
    return a


def _poly_gcd_fq(a, b):
    """Monic gcd; gcd(0, 0) = 0.  Each divisor is made monic first."""
    a, b = _poly_trim_fq(list(a)), _poly_trim_fq(list(b))
    while b:
        inv = b[-1].inverse()
        b = [c * inv for c in b]
        a, b = b, _poly_mod_fq(a, b)
    if not a:
        return a
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _poly_powmod_fq(base, e, m, field):
    result = _poly_mod_fq([field.one()], m)
    base = _poly_mod_fq(base, m)
    while e:
        if e & 1:
            result = _poly_mod_fq(_poly_mul_fq(result, base, field), m)
        base = _poly_mod_fq(_poly_mul_fq(base, base, field), m)
        e >>= 1
    return result


def _distinct_degrees(m, field):
    """The distinct-degree parts of the monic polynomial m: the pairs
    (d, g_d), d increasing, where g_d is the product of the distinct monic
    irreducible factors of m of degree d.  Distinct-degree factorisation on
    m itself, not its squarefree part: after the gcd with x^(q^d) - x finds
    the factors of degree d, every power of them is divided out of m, so a
    factor whose multiplicity is divisible by p is found like any other."""
    q = field.order
    work = _poly_trim_fq(list(m))
    minus_x = [field.zero(), -field.one()]
    h = [field.zero(), field.one()]  # x^(q^d) mod work
    parts = []
    d = 0
    while len(work) > 1:
        d += 1
        if 2 * d > len(work) - 1:
            # every factor left has degree >= d, and there is no room for
            # two of them (a repeated one included): work is irreducible
            parts.append((len(work) - 1, work))
            break
        h = _poly_powmod_fq(h, q, work, field)
        g = _poly_gcd_fq(_poly_add_fq(h, minus_x, field), work)
        if len(g) > 1:
            parts.append((d, g))
            while len(g) > 1:
                work = _poly_divide_out(work, g, field)
                g = _poly_gcd_fq(work, g)
            h = _poly_mod_fq(h, work)
    return parts


def _poly_divide_out(a, g, field):
    """a / g for exact polynomial division by a monic g."""
    a = _poly_trim_fq(list(a))
    out = [field.zero()] * (len(a) - len(g) + 1)
    while len(a) >= len(g):
        f = a[-1]
        shift = len(a) - len(g)
        out[shift] = f
        for i in range(len(g)):
            a[shift + i] = a[shift + i] - f * g[i]
        a = _poly_trim_fq(a)
    return _poly_trim_fq(out)


def _roots(m, field):
    """The distinct roots in the field of the monic polynomial m, in
    field.elements() order.  g = gcd(x^q - x, m) is the product of the
    x - root; it is split by deterministic equal-degree splitting with
    gcd(f, (x + a)^((q - 1)/2) - 1) for a in field.elements() (q is odd).
    For two roots r != s, (q - 1)/2 values of a give r + a and s + a
    different quadratic characters, so the loop always finishes."""
    q, p = field.order, field.p
    one = field.one()
    xq = _poly_powmod_fq([field.zero(), one], q, m, field)
    g = _poly_gcd_fq(_poly_add_fq(xq, [field.zero(), -one], field), m)
    linear = [g] if len(g) == 2 else []
    todo = [g] if len(g) > 2 else []
    for a in field.elements():
        if not todo:
            break
        rest = []
        for f in todo:
            h = _poly_gcd_fq(_poly_add_fq(_poly_powmod_fq([a, one], (q - 1) // 2, f, field), [-one], field), f)
            for part in [h, _poly_divide_out(f, h, field)] if 1 < len(h) < len(f) else [f]:
                (linear if len(part) == 2 else rest).append(part)
        todo = rest
    if todo:
        raise RuntimeError("equal-degree splitting left %d factors unsplit" % len(todo))
    # the monic linear factors are x - root
    return sorted((-f[0] for f in linear), key=lambda lam: sum(c * p**i for i, c in enumerate(lam.coords)))


def make_field(p, r=1):
    """Field handle with deterministic modulus; see FiniteField."""
    return FiniteField(p, r)
