import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl3hecke.ffield import (
    FiniteField,
    _distinct_degrees,
    _equal_degree,
    _Modulus,
    _poly_gcd,
    _poly_mul,
    make_field,
)

from _oracles import _poly_gcd_fq, _poly_mul_fq, _poly_powmod_fq, _poly_trim_fq, distinct_degrees_fq, mulmod_schoolbook, roots_fq


def test_rejects_bad_p():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(3)
    with pytest.raises(ValueError):
        make_field(2)
    with pytest.raises(ValueError):
        make_field(9)


def test_prime_field_modulus_convention():
    F = make_field(5, 1)
    assert list(F.modulus) == [0, 1]  # x - 0
    assert len(list(F.elements())) == 5


def test_f25_frobenius_fixed_subfield():
    F = make_field(5, 2)
    assert F.order == 25
    fixed = [x for x in F.elements() if x.frobenius() == x]
    assert len(fixed) == 5
    assert all(not any(x.coords[1:]) for x in fixed)


@pytest.mark.parametrize("p,r", [(5, 2), (5, 3), (7, 2), (11, 1)])
def test_unit_orders_match_repeated_multiplication(p, r):
    # the order from arith.multiplicative_order on field powers is the
    # least e with x^e = 1, found by multiplying x in one step at a time
    F = make_field(p, r)
    for x in F.units():
        e, acc = 1, x
        while acc != F.one():
            e, acc = e + 1, acc * x
        assert x.multiplicative_order() == e
    with pytest.raises(ValueError, match="zero has no multiplicative order"):
        F.zero().multiplicative_order()


def test_f49_unit_group_cyclic_order_48():
    # brute-force order check over all 48 units
    F = make_field(7, 2)
    orders = [x.multiplicative_order() for x in F.units()]
    assert max(orders) == 48
    assert sum(1 for o in orders if o == 48) > 0
    g = F.primitive_element()
    powers = set()
    acc = F.one()
    for _ in range(48):
        powers.add(acc.coords)
        acc = acc * g
    assert len(powers) == 48


@pytest.mark.parametrize("p,r", [(5, 1), (5, 2), (7, 1), (11, 1), (5, 4)])
def test_field_axioms_and_frobenius_power(p, r):
    F = make_field(p, r)
    elems = list(F.elements())
    if len(elems) > 125:
        elems = elems[:50] + elems[-50:]
    one = F.one()
    for x in elems[:25]:
        assert x + F.zero() == x
        assert x * one == x
        assert x - x == F.zero()
        assert x ** (p**r) == x
        if not x.is_zero():
            assert x * x.inverse() == one


@given(st.integers(min_value=0, max_value=624), st.integers(min_value=0, max_value=624))
@settings(max_examples=60, deadline=None)
def test_f625_commutative_distributive(i, j):
    F = make_field(5, 4)

    def nth(k):
        coords = []
        for _ in range(4):
            coords.append(k % 5)
            k //= 5
        return F.element(coords)

    x, y = nth(i), nth(j)
    assert x + y == y + x
    assert x * y == y * x
    z = nth((i * 7 + j * 3 + 1) % 625)
    assert x * (y + z) == x * y + x * z


def test_modulus_deterministic():
    a = FiniteField(7, 3)
    FiniteField._cache.pop((7, 3))
    b = FiniteField(7, 3)
    assert a.modulus == b.modulus


def test_embedding_into_extension():
    F = make_field(5, 2)
    K = F.extension(2)
    assert K.order == 625
    g = F.primitive_element()
    im = F.embed(g, K)
    assert im.multiplicative_order() == g.multiplicative_order()
    assert F.embed(g * g, K) == im * im
    assert F.embed(F.one(), K) == K.one()


@pytest.mark.parametrize("p,r,e", [(5, 1, 2), (7, 1, 3), (5, 2, 2), (7, 2, 2), (5, 2, 3)])
def test_embedding_root_is_the_least_root_a_scan_finds(p, r, e):
    # the root-finder picks the same root as scanning big.elements() for the
    # first zero of the small field's modulus, so coordinates do not move
    small = make_field(p, r)
    big = small.extension(e)

    def modulus_at(x):
        return sum((c * x**i for i, c in enumerate(small.modulus)), big.zero())

    scan = next(x for x in big.elements() if modulus_at(x).is_zero())
    assert small._embedding_root(big) == scan
    g = small.primitive_element()
    assert small.embed(g, big) ** (small.order - 1) == big.one()
    assert small.embed(g * g + g, big) == small.embed(g, big) ** 2 + small.embed(g, big)
    # the root is cached with the field's other maps, in its one dictionary
    assert small._maps[("root", big.r)] == scan
    assert set(vars(small)) == {"p", "r", "order", "modulus", "_maps", "_ready"}


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from([5, 7, 11, 13]), r=st.integers(1, 4), e=st.integers(1, 3))
@example(p=7, r=3, e=2)
@example(p=13, r=4, e=3)
def test_embedding_root_is_the_first_root_the_oracle_finds(p, r, e):
    # one root from _one_root and its Frobenius conjugates give the same
    # root as the oracle's complete split of the modulus over the extension
    K = make_field(p, r)
    E = K.extension(e)
    modulus = [E.from_int(c) for c in K.modulus]
    assert K._embedding_root(E) == roots_fq(modulus, E)[0]


@given(p=st.sampled_from([5, 7, 13]), r=st.integers(1, 6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_product_matches_the_schoolbook_product(p, r, data):
    F = make_field(p, r)
    coords = st.lists(st.integers(0, p - 1), min_size=r, max_size=r)
    a, b = data.draw(coords), data.draw(coords)
    expected = mulmod_schoolbook(a, b, list(F.modulus), p)
    assert list((F.element(a) * F.element(b)).coords) == expected
    assert list((F.element(b) * F.element(a)).coords) == expected


def test_json_roundtrip():
    F = make_field(7, 2)
    x = F.primitive_element()
    data = x.to_json()
    assert F.scalar_from_json(data) == x
    assert FiniteField.from_json(F.to_json()) is F


# -- the array polynomial layer against the scalar Fq oracle -------------------


def _oracle_irreducible(field, d, rng):
    """A random monic irreducible polynomial of degree d, as a list of Fq:
    its one distinct-degree part by the oracle is itself."""
    while True:
        f = [field.element([rng.randrange(field.p) for _ in range(field.r)]) for _ in range(d)] + [field.one()]
        if distinct_degrees_fq(f, field) == [(d, f)]:
            return f


def _random_poly(field, n, rng):
    """A random polynomial of degree below n, as a list of Fq with no zero
    leading coefficient."""
    return _poly_trim_fq([field.element([rng.randrange(field.p) for _ in range(field.r)]) for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([5, 7, 13]),
    r=st.sampled_from([1, 2, 3]),
    factors=st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2])), min_size=1, max_size=3),
    p_fold=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_polynomials_match_the_fq_oracle(p, r, factors, p_fold, seed):
    # m is a product of linear and irreducible factors with multiplicities
    # 1 or 2, and with p_fold one more factor of that degree with
    # multiplicity p, which distinct-degree factorisation must not lose
    F = make_field(p, r)
    rng = random.Random(seed)
    m = [F.one()]
    for d, mult in factors + ([(p_fold, p)] if p_fold and p_fold * p <= 14 else []):
        f = _oracle_irreducible(F, d, rng)
        for _ in range(mult):
            m = _poly_mul_fq(m, f, F)
    a = _random_poly(F, rng.randrange(1, 2 * len(m)), rng)
    b = _poly_mul_fq(_random_poly(F, rng.randrange(1, 4), rng), m[: len(m) // 2] + [F.one()], F)
    arr = F.to_array
    assert np.array_equal(_poly_mul(arr(a), arr(m), F), arr(_poly_mul_fq(a, m, F)))
    e = rng.randrange(F.order**2)
    assert np.array_equal(_Modulus(arr(m), F).powmod(arr(a), e), arr(_poly_powmod_fq(a, e, m, F)))
    assert np.array_equal(_poly_gcd(arr(a), arr(m), F), arr(_poly_gcd_fq(a, m)))
    assert np.array_equal(_poly_gcd(arr(b), arr(m), F), arr(_poly_gcd_fq(b, m)))
    parts = list(_distinct_degrees(arr(m), F))
    expected = distinct_degrees_fq(m, F)
    assert [d for d, _ in parts] == [d for d, _ in expected]
    assert all(np.array_equal(g, arr(h)) for (_, g), (_, h) in zip(parts, expected))
    # the irreducible factors of each part, multiplied back, give the part
    for d, g in parts:
        factors_d = _equal_degree(g, d, F)
        assert all(len(f) == d + 1 for f in factors_d)
        prod = np.eye(1, r, dtype=np.int64)
        for f in factors_d:
            prod = _poly_mul(prod, f, F)
        assert np.array_equal(prod, g)


def test_kronecker_product_is_exact_up_to_its_int64_bound():
    # min(len(a), len(b)) * r * (p - 1)**2 < 2**63 is exact, and one more
    # coefficient raises OverflowError instead of wrapping around
    p = 2**31 - 1  # prime; 2 (p - 1)**2 < 2**63 <= 3 (p - 1)**2
    F = make_field(p)
    a, b = [p - 1, p - 2], [p - 3, p - 1]
    exact = [a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[1] * b[1]]
    assert _poly_mul(np.array(a)[:, None], np.array(b)[:, None], F)[:, 0].tolist() == [c % p for c in exact]
    c = np.array([[p - 1], [p - 1], [1]], dtype=np.int64)
    with pytest.raises(OverflowError):
        _poly_mul(c, c, F)
    # past (p - 1)**2 >= 2**63 even two constants overflow
    q = 2**32 + 15  # prime
    with pytest.raises(OverflowError):
        _poly_mul(np.array([[2]]), np.array([[3]]), make_field(q))
