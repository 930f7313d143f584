"""Dirichlet characters with values in a fixed F_{p^r}, and exponent
bookkeeping for the mod-p cyclotomic characters of niveau one and two.

A character mod N is one read-only int64 table `values` of shape (N, r),
like the coordinate arrays of linalg: row u holds the F_p coordinates of
chi(u) at a unit u and is zero at every other residue, so the nonzero rows
are exactly the units.  Modulus 1 is the one-row table of the residue 0.
Lifting, products, conductors and the CRT split index or multiply that
table; evaluation reads one row, and is an error at a non-unit, never zero.
Cyclotomic characters are never evaluated: only their exponents (mod p-1,
respectively mod p^2-1) are tracked.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm

import numpy as np

from .arith import crt, divisors, prime_factors, primitive_root
from .ffield import Fq, FiniteField
from .linalg import embed_matrix


def _prime_power_split(N):
    """[(q, p0)] with q the prime-power factors of N and p0 the prime."""
    return [(p0**e, p0) for p0, e in Counter(prime_factors(N)).items()]


def _units(N):
    """The boolean mask of the units among the residues 0, ..., N - 1."""
    return np.gcd(np.arange(N), N) == 1


def unit_group_structure(N):
    """Independent generators [(g, order)] of (Z/N)^*, CRT-canonical.

    For each odd prime power q || N the least primitive root mod q is lifted
    to be 1 modulo N/q; the 2-part contributes the standard -1 and 5 pieces.
    """
    if N <= 0:
        raise ValueError("modulus must be positive")
    gens = []
    for q, p0 in _prime_power_split(N):
        if p0 != 2:
            local = [(primitive_root(q), q - q // p0)]
        elif q == 2:
            local = []
        elif q == 4:
            local = [(3, 2)]
        else:
            local = [(q - 1, 2), (5, q // 4)]
        gens += [(crt([g, 1], [q, N // q]), order) for g, order in local]
    return gens


class DirichletCharacter:
    """Multiplicative map (Z/N)^* -> F_{p^r}^*, stored as the coordinate
    table `values` (N, r) of the module docstring."""

    def __init__(self, field, modulus, values):
        values = np.asarray(values, dtype=np.int64) % field.p
        if modulus < 1 or values.shape != (modulus, field.r):
            raise ValueError("expected a table of shape (%d, %d)" % (modulus, field.r))
        if not np.array_equal(values.any(axis=1), _units(modulus)):
            raise ValueError("the nonzero rows of the table must be the units mod %d" % modulus)
        values.flags.writeable = False
        self.field = field
        self.modulus = modulus
        self.values = values

    # -- construction --

    @classmethod
    def trivial(cls, field, modulus=1):
        values = np.zeros((modulus, field.r), dtype=np.int64)
        values[:, 0] = _units(modulus)
        return cls(field, modulus, values)

    @classmethod
    def from_generators(cls, field, modulus, images):
        """Character with the given images on unit_group_structure(modulus)."""
        gens = unit_group_structure(modulus)
        if len(images) != len(gens):
            raise ValueError("expected %d generator images" % len(gens))
        for (g, order), img in zip(gens, images):
            if not isinstance(img, Fq) or img.field != field:
                raise ValueError("images must lie in the given field")
            if img**order != field.one():
                raise ValueError("image of %d must have order dividing %d" % (g, order))
        # every unit is a product of generator powers, each met once
        units, vals = [1 % modulus], [field.one()]
        for (g, order), img in zip(gens, images):
            powers = [img**j for j in range(order)]
            units = [u * pow(g, j, modulus) % modulus for u in units for j in range(order)]
            vals = [v * w for v in vals for w in powers]
        values = np.zeros((modulus, field.r), dtype=np.int64)
        values[units] = field.to_array(vals)
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
        row = self.values[n % self.modulus]
        if not row.any():
            raise ValueError("%d is not a unit mod %d" % (n, self.modulus))
        return Fq(self.field, row.tolist())

    @property
    def order(self):
        rows = np.unique(self.values[self.values.any(axis=1)], axis=0)
        return lcm(*(v.multiplicative_order() for v in self.field.from_array(rows)))

    def is_trivial(self):
        return self == DirichletCharacter.trivial(self.field, self.modulus)

    def __mul__(self, other):
        if other.field != self.field:
            raise ValueError("characters over different fields")
        M = lcm(self.modulus, other.modulus)
        a, b = self.lift(M).values, other.lift(M).values
        # zero rows off the units give zero matrices, so the product stays zero there
        return DirichletCharacter(self.field, M, (self.field.mul_matrices(a) @ b[:, :, None])[:, :, 0] % self.field.p)

    def inverse(self):
        """u -> chi(u^-1), read at the inverse of each unit."""
        N = self.modulus
        at = np.arange(N)
        units = at[self.values.any(axis=1)].tolist()
        at[units] = [pow(u, -1, N) for u in units]
        return DirichletCharacter(self.field, N, self.values[at])

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.field == other.field
            and self.modulus == other.modulus
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.field, self.modulus, self.values.tobytes()))

    def __repr__(self):
        return "DirichletCharacter(mod %d, order %d)" % (self.modulus, self.order)

    # -- structure --

    def lift(self, M):
        """The character mod M induced by this one (M a multiple of the modulus)."""
        if M % self.modulus:
            raise ValueError("can only lift to a multiple of the modulus")
        return DirichletCharacter(self.field, M, self.values[np.arange(M) % self.modulus] * _units(M)[:, None])

    def over(self, big):
        """This character with its values embedded in the extension big."""
        return DirichletCharacter(big, self.modulus, embed_matrix(self.values, self.field, big))

    def conductor(self):
        """Least modulus through which the character factors: the least
        d | N with chi = 1 on the units = 1 mod d, the kernel of the
        reduction (Z/N)^* -> (Z/d)^*."""
        N = self.modulus
        # true where chi is 1, and off the units
        fixed = (self.values == DirichletCharacter.trivial(self.field, N).values).all(axis=1)
        residues = np.arange(N)
        return next(d for d in divisors(N) if fixed[residues % d == 1 % d].all())

    def primitive_part(self):
        """The primitive character of modulus conductor() inducing this one:
        its value at a unit mod c is read at the least unit mod N above it."""
        c = self.conductor()
        units = np.flatnonzero(self.values.any(axis=1))
        residues, least = np.unique(units % c, return_index=True)
        values = np.zeros((c, self.field.r), dtype=np.int64)
        values[residues] = self.values[units[least]]
        return DirichletCharacter(self.field, c, values)

    def factor(self, d):
        """Split into (chi0 mod d, chi1 mod N/d) for coprime d, N/d.

        chi0(u) depends only on u mod d, chi1 only on u mod N/d, and
        chi = chi0 * chi1 pointwise on units.  chi0(u) is the table's row at
        the residue that is u mod d and 1 mod N/d, and chi1 likewise.
        """
        N = self.modulus
        if d <= 0 or N % d:
            raise ValueError("d must divide the modulus")
        m = N // d
        if gcd(d, m) != 1:
            raise ValueError("d and N/d must be coprime")
        chi0 = self.values[[crt([u, 1], [d, m]) for u in range(d)]]
        chi1 = self.values[[crt([1, u], [d, m]) for u in range(m)]]
        return DirichletCharacter(self.field, d, chi0), DirichletCharacter(self.field, m, chi1)

    # -- serialization --

    def to_json(self):
        units = np.flatnonzero(self.values.any(axis=1)).tolist()
        return {
            "modulus": self.modulus,
            "field": self.field.to_json(),
            "values": {str(u): self.values[u].tolist() for u in units},
        }

    @classmethod
    def from_json(cls, data):
        field = FiniteField.from_json(data["field"])
        N = data["modulus"]
        values = np.zeros((N, field.r), dtype=np.int64)
        for u, coords in data["values"].items():
            if not 0 <= int(u) < N:
                raise ValueError("residue %s is not in [0, %d)" % (u, N))
            values[int(u)] = field.element(coords).coords
        return cls(field, N, values)


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
