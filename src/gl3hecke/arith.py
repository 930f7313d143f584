"""Elementary number theory on small integers: primality, squarefreeness,
divisors, multiplicative orders and primitive roots, the extended gcd and
the Chinese remainder theorem, and determinants and adjugates of small
integer matrices.  Trial division throughout; every input here is a level,
a prime p or a Hecke prime l, all desk-scale.
"""

from __future__ import annotations

from functools import lru_cache


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_squarefree(n):
    """True when no square of a prime divides n; n must be positive."""
    if n < 1:
        raise ValueError("squarefreeness is defined for positive integers, got %d" % n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def prime_factors(n):
    """The prime factors of n >= 1 with multiplicity, increasing."""
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


def divisors(n):
    """The positive divisors of n, increasing."""
    return [d for d in range(1, n + 1) if n % d == 0]


def multiplicative_order(g, n, group_order):
    """The order of g mod n, for g with g^group_order = 1 mod n: each prime
    of group_order is divided out while g to the quotient is still 1.  With
    n None the powers are g ** e, so g may be a unit of a finite field."""
    order = group_order
    for f in set(prime_factors(group_order)):
        while order % f == 0 and pow(g, order // f, n) == 1:
            order //= f
    return order


@lru_cache(maxsize=None)
def primitive_root(q):
    """The least generator of the cyclic group (Z/q)^* for q a prime or an
    odd prime power; 1 for q = 2, where the group is trivial."""
    primes = set(prime_factors(q))
    if len(primes) != 1 or q % 4 == 0:
        raise ValueError("q = %d is not a prime or an odd prime power" % q)
    (p,) = primes
    phi = q - q // p
    return next(g for g in range(1, q) if g % p and multiplicative_order(g, q, phi) == phi)


def xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _crt_pair(r1, m1, r2, m2):
    g, x, _ = xgcd(m1, m2)
    if (r2 - r1) % g:
        raise ValueError("inconsistent congruences")
    l = m1 // g * m2
    t = (r2 - r1) // g * x % (m2 // g)
    return (r1 + m1 * t) % l, l


def crt(residues, moduli):
    r, m = 0, 1
    for ri, mi in zip(residues, moduli):
        r, m = _crt_pair(r, m, ri, mi)
    return r


def det(A):
    """Determinant of a 2 x 2 or 3 x 3 matrix given by rows."""
    if len(A) == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if len(A) != 3:
        raise ValueError("only 2x2 and 3x3 determinants are supported")
    return (
        A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
        - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
        + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
    )


def adj3(A):
    """Adjugate of a 3 x 3 matrix given by rows, as a tuple of row tuples:
    adj3(A) A = det(A) I.  Entry (i, j) is the cofactor of A at (j, i),
    which with indices taken mod 3 needs no sign."""
    c = lambda i, j: A[i % 3][j % 3]
    return tuple(
        tuple(c(j + 1, i + 1) * c(j + 2, i + 2) - c(j + 1, i + 2) * c(j + 2, i + 1) for j in range(3)) for i in range(3)
    )
