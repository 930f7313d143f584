import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3hecke.ffield import FiniteField, make_field


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


def test_json_roundtrip():
    F = make_field(7, 2)
    x = F.primitive_element()
    data = x.to_json()
    assert F.scalar_from_json(data) == x
    assert FiniteField.from_json(F.to_json()) is F
