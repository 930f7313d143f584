from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3hecke.characters import (
    DirichletCharacter,
    niveau2_normal_form,
    unit_group_structure,
)
from gl3hecke.ffield import make_field

F5 = make_field(5)
F25 = make_field(5, 2)


def test_unit_group_structure_orders():
    for N in [1, 2, 3, 4, 5, 6, 11, 12, 30, 33]:
        gens = unit_group_structure(N)
        phi = sum(1 for u in range(1, max(N, 2)) if gcd(u, N) == 1) if N > 1 else 1
        total = 1
        for g, order in gens:
            assert pow(g, order, N if N > 1 else 2) % max(N, 1) in (1 % max(N, 1),)
            total *= order
        assert total == phi


def test_trivial_character():
    chi = DirichletCharacter.trivial(F5, 1)
    assert chi(7) == F5.one()
    assert chi(123456) == F5.one()
    assert chi.conductor() == 1


def test_quadratic_mod_3():
    chi = DirichletCharacter.quadratic(F5, 3)
    assert chi(2) == -F5.one()
    assert chi(4) == F5.one()  # 4 = 1 mod 3
    assert chi.order == 2
    with pytest.raises(ValueError):
        chi(3)
    with pytest.raises(ValueError):
        chi(6)


def test_character_from_generators_order_mismatch():
    with pytest.raises(ValueError):
        # generator of (Z/3)* has order 2; image of order 4 in F25 is invalid
        g = F25.primitive_element() ** 6  # order 4
        DirichletCharacter.from_generators(F25, 3, [g])


def test_crt_factorization_roundtrip_mod_33():
    # quadratic mod 3 lifted to 33, times a character mod 11
    gens = unit_group_structure(33)
    assert len(gens) == 2
    orders = [o for _, o in gens]
    images = []
    for g, o in gens:
        if o == 2:
            images.append(-F5.one())
        else:
            images.append(F5.one())
    chi = DirichletCharacter.from_generators(F5, 33, images)
    chi0, chi1 = chi.factor(3)
    assert chi0.modulus == 3 and chi1.modulus == 11
    units = [u for u in range(1, 33) if gcd(u, 33) == 1]
    assert len(units) == 20
    for u in units:
        assert chi(u) == chi0(u) * chi1(u)
    # recombination
    assert (chi0.lift(33) * chi1.lift(33)) == chi


def test_factor_trivial_mod_6():
    chi = DirichletCharacter.trivial(F5, 6)
    chi0, chi1 = chi.factor(2)
    assert chi0.modulus == 2 and chi1.modulus == 3
    assert chi0.is_trivial() and chi1.is_trivial()


def test_factor_d_equals_1():
    chi = DirichletCharacter.quadratic(F5, 3)
    chi0, chi1 = chi.factor(1)
    assert chi0.modulus == 1
    assert chi1 == chi


def test_factor_rejects_noncoprime():
    chi = DirichletCharacter.trivial(F5, 4)
    with pytest.raises(ValueError):
        chi.factor(2)


def test_conductor_of_lifted_character():
    chi = DirichletCharacter.quadratic(F5, 3).lift(33)
    assert chi.modulus == 33
    assert chi.conductor() == 3
    assert chi.primitive_part() == DirichletCharacter.quadratic(F5, 3)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_character_values_are_roots_of_unity(N):
    gens = unit_group_structure(N)
    F = make_field(7, 2)
    g0 = F.primitive_element()
    images = [g0 ** (48 // gcd(48, o)) for _, o in gens]
    chi = DirichletCharacter.from_generators(F, N, images)
    for u in range(1, max(N, 2)):
        if N > 1 and gcd(u, N) != 1:
            continue
        order = 1
        g = u % N if N > 1 else 0
        if N > 1:
            acc = g
            while acc != 1:
                acc = acc * g % N
                order += 1
        assert chi(u) ** order == F.one()


def test_niveau2_normal_forms_pinned():
    assert niveau2_normal_form(5, 1) == (1, 0)
    assert niveau2_normal_form(5, 9) == (4, 1)
    assert niveau2_normal_form(5, 5) == (5, 0)


def test_niveau2_rejects_niveau1():
    with pytest.raises(ValueError):
        niveau2_normal_form(5, 6)
    with pytest.raises(ValueError):
        niveau2_normal_form(5, 0)


@pytest.mark.parametrize("p", [5, 7])
def test_niveau2_normal_form_exhaustive(p):
    # the (a, b) returned must be the unique lift with 0 < a-b <= p,
    # verified against a brute-force search over all lifts
    for m in range(p * p - 1):
        if m % (p + 1) == 0:
            continue
        a, b = niveau2_normal_form(p, m)
        assert (a + b * p - m) % (p * p - 1) == 0
        assert 0 < a - b <= p
        found = [
            (aa, bb)
            for aa in range(0, 2 * p + 2)
            for bb in range(-1, p + 1)
            if (aa + bb * p - m) % (p * p - 1) == 0 and 0 < aa - bb <= p
        ]
        diffs = {aa - bb for aa, bb in found}
        assert diffs == {a - b}


def test_character_json_roundtrip():
    chi = DirichletCharacter.quadratic(F5, 3)
    data = chi.to_json()
    assert DirichletCharacter.from_json(data) == chi
