"""Dirichlet characters with values in a fixed F_{p^r}, and exponent
bookkeeping for the mod-p cyclotomic characters of niveau one and two.

Characters are stored as full value tables on (Z/N)^*; evaluation at a
non-unit is an error, never zero.  Cyclotomic characters are never evaluated:
only their exponents (mod p-1, respectively mod p^2-1) are tracked.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

from .arith import crt, divisors, multiplicative_order, prime_factors
from .ffield import Fq, FiniteField


def _prime_power_split(N):
    """[(q, p0)] with q the prime-power factors of N and p0 the prime."""
    return [(p0**e, p0) for p0, e in Counter(prime_factors(N)).items()]


def unit_group_structure(N):
    """Independent generators [(g, order)] of (Z/N)^*, CRT-canonical.

    For each odd prime power q || N the least primitive root mod q is lifted
    to be 1 modulo N/q; the 2-part contributes the standard -1 and 5 pieces.
    """
    if N <= 0:
        raise ValueError("modulus must be positive")
    if N <= 2:
        return []
    gens = []
    parts = _prime_power_split(N)
    for q, p0 in parts:
        rest = N // q
        local = []
        if p0 == 2:
            if q == 4:
                local = [(3, 2)]
            elif q >= 8:
                local = [(q - 1, 2), (5, q // 4)]
        else:
            phi = q - q // p0
            local = [(next(g for g in range(2, q) if g % p0 and multiplicative_order(g, q, phi) == phi), phi)]
        for g, order in local:
            lifted = crt([g, 1], [q, rest]) if rest > 1 else g
            gens.append((lifted % N, order))
    return gens


class DirichletCharacter:
    """Multiplicative map (Z/N)^* -> F_{p^r}^*, stored as a value table."""

    def __init__(self, field, modulus, values):
        self.field = field
        self.modulus = modulus
        self._values = dict(values)
        units = [u for u in range(1, max(modulus, 2)) if gcd(u, modulus) == 1]
        if modulus == 1:
            units = [0]  # every integer is a unit mod 1; table keyed by 0
        for u in units:
            if u not in self._values:
                raise ValueError("value table incomplete at %d" % u)

    # -- construction --

    @classmethod
    def trivial(cls, field, modulus=1):
        if modulus == 1:
            return cls(field, 1, {0: field.one()})
        values = {u: field.one() for u in range(1, modulus) if gcd(u, modulus) == 1}
        return cls(field, modulus, values)

    @classmethod
    def from_generators(cls, field, modulus, images):
        """Character with the given images on unit_group_structure(modulus)."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        gens = unit_group_structure(modulus)
        if len(images) != len(gens):
            raise ValueError("expected %d generator images" % len(gens))
        for (g, order), img in zip(gens, images):
            if not isinstance(img, Fq) or img.field != field:
                raise ValueError("images must lie in the given field")
            if img**order != field.one():
                raise ValueError("image of %d must have order dividing %d" % (g, order))
        if modulus == 1:
            return cls.trivial(field, 1)
        values = {}
        stack = [(1, field.one())]
        for (g, order), img in zip(gens, images):
            new = []
            for u, v in stack:
                acc_u, acc_v = u, v
                for _ in range(order):
                    new.append((acc_u, acc_v))
                    acc_u = (acc_u * g) % modulus
                    acc_v = acc_v * img
            stack = new
        for u, v in stack:
            values[u] = v
        return cls(field, modulus, values)

    @classmethod
    def quadratic(cls, field, modulus):
        """The quadratic character mod an odd prime modulus (Legendre symbol)."""
        if modulus == 1:
            return cls.trivial(field, 1)
        gens = unit_group_structure(modulus)
        if len(gens) != 1 or gens[0][1] % 2 != 0:
            raise ValueError("no canonical quadratic character mod %d" % modulus)
        return cls.from_generators(field, modulus, [-field.one()])

    # -- evaluation and algebra --

    def __call__(self, n):
        if isinstance(n, Fq):
            raise TypeError("characters are evaluated at integers")
        if self.modulus == 1:
            return self.field.one()
        u = n % self.modulus
        if gcd(u, self.modulus) != 1:
            raise ValueError("%d is not a unit mod %d" % (n, self.modulus))
        return self._values[u]

    @property
    def order(self):
        n = 1
        for v in self._values.values():
            if v != self.field.one():
                n = lcm(n, v.multiplicative_order())
        return n

    def is_trivial(self):
        return all(v == self.field.one() for v in self._values.values())

    def __mul__(self, other):
        if other.field != self.field:
            raise ValueError("characters over different fields")
        M = lcm(self.modulus, other.modulus)
        a, b = self.lift(M), other.lift(M)
        values = {u: a._values[u] * b._values[u] for u in a._values}
        return DirichletCharacter(self.field, M, values)

    def inverse(self):
        values = {u: v.inverse() for u, v in self._values.items()}
        return DirichletCharacter(self.field, self.modulus, values)

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.field == other.field
            and self.modulus == other.modulus
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.field, self.modulus, tuple(sorted((u, v.coords) for u, v in self._values.items()))))

    def __repr__(self):
        return "DirichletCharacter(mod %d, order %d)" % (self.modulus, self.order)

    # -- structure --

    def lift(self, M):
        """The character mod M induced by this one (M a multiple of the modulus)."""
        if M % self.modulus:
            raise ValueError("can only lift to a multiple of the modulus")
        if M == self.modulus:
            return self
        values = {}
        for u in range(1, M) if M > 1 else [0]:
            if M > 1 and gcd(u, M) != 1:
                continue
            values[u] = self(u)
        return DirichletCharacter(self.field, M, values)

    def conductor(self):
        """Least modulus through which the character factors."""
        for d in divisors(self.modulus):
            if self._factors_through(d):
                return d
        return self.modulus

    def _factors_through(self, d):
        if self.modulus == 1:
            return d == 1
        for u in self._values:
            for v in self._values:
                if (u - v) % d == 0 and self._values[u] != self._values[v]:
                    return False
        return True

    def primitive_part(self):
        """The primitive character of modulus conductor() inducing this one."""
        c = self.conductor()
        if c == self.modulus:
            return self
        values = {}
        for u in range(1, c) if c > 1 else [0]:
            if c > 1 and gcd(u, c) != 1:
                continue
            # pick any unit mod modulus congruent to u mod c
            w = u
            while gcd(w, self.modulus) != 1:
                w += c
            values[u] = self._values[w % self.modulus]
        return DirichletCharacter(self.field, c, values)

    def factor(self, d):
        """Split into (chi0 mod d, chi1 mod N/d) for coprime d, N/d.

        chi0(u) depends only on u mod d, chi1 only on u mod N/d, and
        chi = chi0 * chi1 pointwise on units.
        """
        N = self.modulus
        if d <= 0 or N % d:
            raise ValueError("d must divide the modulus")
        m = N // d
        if gcd(d, m) != 1:
            raise ValueError("d and N/d must be coprime")
        if d == 1:
            return DirichletCharacter.trivial(self.field, 1), self
        if m == 1:
            return self, DirichletCharacter.trivial(self.field, 1)
        chi0 = {u: self(crt([u, 1], [d, m])) for u in range(1, d) if gcd(u, d) == 1}
        chi1 = {u: self(crt([1, u], [d, m])) for u in range(1, m) if gcd(u, m) == 1}
        return (
            DirichletCharacter(self.field, d, chi0),
            DirichletCharacter(self.field, m, chi1),
        )

    # -- serialization --

    def to_json(self):
        return {
            "modulus": self.modulus,
            "field": self.field.to_json(),
            "values": {str(u): list(v.coords) for u, v in sorted(self._values.items())},
        }

    @classmethod
    def from_json(cls, data):
        field = FiniteField.from_json(data["field"])
        values = {int(u): field.element(c) for u, c in data["values"].items()}
        return cls(field, data["modulus"], values)


def niveau2_normal_form(p, m):
    """Write m = a + b*p mod p^2-1 with 0 < a-b <= p.

    Returns (a, b) as the canonical integer lift; a and b are well defined
    only modulo p-1 (shifting both by p-1 shifts m by p^2-1).  Raises if m is
    a multiple of p+1, which signals niveau-1 input.
    """
    m = m % (p**2 - 1)
    if m % (p + 1) == 0:
        raise ValueError("m = %d is a multiple of p+1: not genuinely niveau 2" % m)
    a, b = m % p, m // p
    if a <= b:
        a, b = a + p, b - 1
    assert 0 < a - b <= p and (a + b * p - m) % (p**2 - 1) == 0
    return a, b
