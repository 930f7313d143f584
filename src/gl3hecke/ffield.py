"""Exact arithmetic in small finite fields F_{p^r}.

Elements are coordinate vectors with respect to a deterministically chosen
monic irreducible modulus polynomial, so serialized values are reproducible
across runs.  All arithmetic is exact; nothing here floats.
"""

from __future__ import annotations

from .arith import is_prime


# -- polynomial helpers over F_p (little-endian coefficient lists) --


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        a = _trim(a)
        if len(a) - 1 < df:
            break
        lead = a[-1]
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - lead * fi) % p
        a = _trim(a)
    return a


def _poly_powmod(a, e, f, p):
    result = [1]
    base = _poly_mod(a, f, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a = _poly_mod(a, bm, p)
        a, b = b, a
    return a


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _is_irreducible(f, p):
    """Rabin's test for a monic polynomial f over F_p."""
    r = len(f) - 1
    if r == 1:
        return True
    x = [0, 1]
    if _poly_sub(_poly_powmod(x, p**r, f, p), x, p):
        return False
    for q in set(_prime_factors(r)):
        diff = _poly_sub(_poly_powmod(x, p ** (r // q), f, p), x, p)
        g = _poly_gcd(diff, f, p)
        if len(_trim(list(g))) - 1 >= 1:
            return False
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Fq:
    """Element of F_{p^r}, stored as a coordinate tuple of length r."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(c % field.p for c in coords)

    def _check(self, other):
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
        prod = _poly_mul(list(self.coords), list(other.coords), fld.p)
        red = _poly_mod(prod, list(fld.modulus), fld.p)
        red += [0] * (fld.r - len(red))
        return Fq(fld, red)

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
        for q in set(_prime_factors(n)):
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
        self._ready = True

    @staticmethod
    def _least_irreducible(p, r):
        for k in range(p**r):
            coeffs = []
            kk = k
            for _ in range(r):
                coeffs.append(kk % p)
                kk //= p
            f = coeffs + [1]
            if _is_irreducible(f, p):
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
        if big is self:
            return x
        root = self._embedding_root(big)
        acc = big.zero()
        for c in reversed(x.coords):
            acc = acc * root + big.from_int(c)
        return acc

    def _embedding_root(self, big):
        key = ("root", big.r)
        cached = getattr(self, "_roots", None)
        if cached is None:
            cached = self._roots = {}
        if key not in cached:
            # brute scan: fields here have at most a few thousand elements
            mod = list(self.modulus)
            for cand in big.elements():
                acc = big.zero()
                for c in reversed(mod):
                    acc = acc * cand + big.from_int(c)
                if acc.is_zero():
                    cached[key] = cand
                    break
            else:
                raise RuntimeError("no root of modulus in extension")
        return cached[key]

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.r) == (other.p, other.r)

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


def make_field(p, r=1):
    """Field handle with deterministic modulus; see FiniteField."""
    return FiniteField(p, r)
