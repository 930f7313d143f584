import random
from math import gcd

import pytest

from gl3hecke.arith import adj3, det, divisors, is_prime, is_squarefree, multiplicative_order, primitive_root


def test_is_prime_small_range():
    primes = [n for n in range(-3, 200) if is_prime(n)]
    assert primes == [n for n in range(2, 200) if all(n % f for f in range(2, n))]


def test_is_squarefree_and_divisors():
    assert [n for n in range(1, 30) if not is_squarefree(n)] == [4, 8, 9, 12, 16, 18, 20, 24, 25, 27, 28]
    assert divisors(1) == [1]
    assert divisors(30) == [1, 2, 3, 5, 6, 10, 15, 30]


@pytest.mark.parametrize("n", [0, -1, -4])
def test_is_squarefree_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        is_squarefree(n)


def test_primitive_root_is_least_generator():
    assert primitive_root(2) == 1
    for p in [3, 5, 7, 11, 13, 17, 19, 23]:
        g = primitive_root(p)
        assert len({pow(g, k, p) for k in range(p - 1)}) == p - 1
        assert all(len({pow(h, k, p) for k in range(p - 1)}) < p - 1 for h in range(1, g))
    with pytest.raises(ValueError):
        primitive_root(4)


def test_primitive_root_is_memoized_and_errors_are_not():
    primitive_root.cache_clear()
    assert primitive_root(13) == primitive_root(13) == 2
    assert primitive_root.cache_info()[:2] == (1, 1)  # (hits, misses)
    for _ in range(2):
        with pytest.raises(ValueError):
            primitive_root(12)
    assert primitive_root.cache_info().currsize == 1


def test_primitive_root_of_every_odd_prime_power_below_2000():
    # the least g whose powers fill the units mod q, by listing them
    for q in range(3, 2000, 2):
        primes = {f for f in range(3, q + 1) if q % f == 0 and is_prime(f)}
        if len(primes) != 1:
            continue
        units = {u for u in range(1, q) if gcd(u, q) == 1}

        def generates(g):
            x, seen = g, {1}
            while x != 1:
                seen.add(x)
                x = x * g % q
            return seen == units

        assert primitive_root(q) == next(g for g in sorted(units) if generates(g)), q
    for q in [0, 1, 4, 8, 12, 15, 16, 36]:
        with pytest.raises(ValueError):
            primitive_root(q)


def test_multiplicative_order_matches_brute_force():
    # every unit mod every n <= 200, given the order phi(n) of the whole group
    for n in range(2, 201):
        units = [g for g in range(1, n) if gcd(g, n) == 1]
        for g in units:
            order = next(e for e in range(1, n) if pow(g, e, n) == 1)
            assert multiplicative_order(g, n, len(units)) == order, (g, n)


def test_det_and_adjugate_against_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(50):
        A = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        # Laplace expansion along the first row, with 2x2 minors
        minor = lambda i, j: [[A[r][c] for c in range(3) if c != j] for r in range(3) if r != i]
        assert det(A) == sum((-1) ** j * A[0][j] * det(minor(0, j)) for j in range(3))
        adj = adj3(A)
        assert all(adj[j][i] == (-1) ** (i + j) * det(minor(i, j)) for i in range(3) for j in range(3))
        assert [[sum(adj[i][k] * A[k][j] for k in range(3)) for j in range(3)] for i in range(3)] == [
            [det(A) * (i == j) for j in range(3)] for i in range(3)
        ]
    with pytest.raises(ValueError):
        det([[1]])
