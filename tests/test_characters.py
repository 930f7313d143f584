from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3hecke.arith import divisors
from gl3hecke.characters import (
    DirichletCharacter,
    niveau2_normal_form,
    unit_group_structure,
)
from gl3hecke.ffield import make_field

from _oracles import conductor_pairwise

F5 = make_field(5)
F25 = make_field(5, 2)
F7 = make_field(7)
F49 = make_field(7, 2)
F13 = make_field(13)


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


# -- the coordinate table --------------------------------------------------------


def test_to_json_is_pinned():
    # the serialized format: the units in increasing order, each with its coordinates
    assert DirichletCharacter.quadratic(F5, 3).to_json() == {
        "modulus": 3,
        "field": {"p": 5, "r": 1, "modulus": [0, 1]},
        "values": {"1": [1], "2": [4]},
    }
    assert DirichletCharacter.quadratic(F5, 3).lift(33).to_json() == {
        "modulus": 33,
        "field": {"p": 5, "r": 1, "modulus": [0, 1]},
        "values": {
            "1": [1], "2": [4], "4": [1], "5": [4], "7": [1], "8": [4], "10": [1], "13": [1], "14": [4], "16": [1],
            "17": [4], "19": [1], "20": [4], "23": [4], "25": [1], "26": [4], "28": [1], "29": [4], "31": [1], "32": [4],
        },
    }
    # -1 on the generator 11 of the mod-3 part, g^12 of order 4 on the generator 7 of the mod-5 part
    chi = DirichletCharacter.from_generators(F49, 15, [-F49.one(), F49.primitive_element() ** 12])
    data = {
        "modulus": 15,
        "field": {"p": 7, "r": 2, "modulus": [1, 0, 1]},
        "values": {"1": [1, 0], "2": [0, 6], "4": [6, 0], "7": [0, 1], "8": [0, 1], "11": [6, 0], "13": [0, 6], "14": [1, 0]},
    }
    assert chi.to_json() == data
    assert DirichletCharacter.from_json(data) == chi


def test_conductor_and_primitive_part_at_a_large_level():
    # 19635 = 3 * 5 * 7 * 11 * 17; the pairwise definition takes tens of seconds here
    chi = DirichletCharacter.quadratic(F13, 3).lift(19635)
    assert chi.conductor() == 3
    assert chi.primitive_part() == DirichletCharacter.quadratic(F13, 3)
    assert (chi * DirichletCharacter.quadratic(F13, 5).lift(19635)).conductor() == 15


def _unit_list(N):
    return [u for u in range(N) if gcd(u, N) == 1]


@st.composite
def characters(draw):
    """A character mod N <= 120 over F_7 or F_49, with each generator's
    image a power of a primitive element of order dividing the generator's."""
    N = draw(st.one_of(st.sampled_from([1, 2, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 105, 120]), st.integers(1, 120)))
    F = draw(st.sampled_from([F7, F49]))
    g = F.primitive_element()
    q = F.order - 1
    images = [g ** (q // gcd(q, order) * draw(st.integers(0, order - 1))) for _, order in unit_group_structure(N)]
    return DirichletCharacter.from_generators(F, N, images)


@given(chi=characters(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_character_table_properties(chi, data):
    N, F = chi.modulus, chi.field
    units = _unit_list(N)
    # multiplicative on units, against a few drawn second factors
    for v in data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=4)):
        for u in units:
            assert chi(u * v) == chi(u) * chi(v)
    # zero exactly off the units, and evaluation there is an error
    assert np.array_equal(chi.values.any(axis=1), [gcd(u, N) == 1 for u in range(N)])
    for u in set(range(N)) - set(units):
        with pytest.raises(ValueError):
            chi(u)
    M = N * data.draw(st.sampled_from([1, 2, 3, 5]))
    lifted = chi.lift(M)
    assert lifted.modulus == M and all(lifted(u) == chi(u) for u in _unit_list(M))
    assert chi.conductor() == conductor_pairwise(chi)
    assert chi.primitive_part().modulus == chi.conductor()
    assert chi.primitive_part().lift(N) == chi
    for d in divisors(N):
        if gcd(d, N // d) == 1:
            chi0, chi1 = chi.factor(d)
            assert (chi0.modulus, chi1.modulus) == (d, N // d)
            assert chi0.lift(N) * chi1.lift(N) == chi
    assert (chi.inverse() * chi).is_trivial()
    assert DirichletCharacter.from_json(chi.to_json()) == chi
    assert hash(DirichletCharacter.from_json(chi.to_json())) == hash(chi)
    big = chi.over(F49)
    assert big.field is F49 and all(big(u) == F.embed(chi(u), F49) for u in units)
    assert chi.order == lcm(*(chi(u).multiplicative_order() for u in units))
    # the constructor takes exactly the tables that are nonzero on the units alone
    table = chi.values.copy()
    table[data.draw(st.sampled_from(units))] = 0
    with pytest.raises(ValueError):
        DirichletCharacter(F, N, table)
    if len(units) < N:
        table = chi.values.copy()
        table[data.draw(st.sampled_from(sorted(set(range(N)) - set(units))))] = F.one().coords
        with pytest.raises(ValueError):
            DirichletCharacter(F, N, table)


def test_table_is_read_only_and_rejects_a_wrong_shape():
    chi = DirichletCharacter.quadratic(F5, 3)
    with pytest.raises(ValueError):
        chi.values[1, 0] = 1
    with pytest.raises(ValueError):
        DirichletCharacter(F5, 3, [[0], [1]])
    with pytest.raises(TypeError):
        chi(F5.one())
    with pytest.raises(ValueError):
        chi.over(F49)  # not an extension of F_5
    # a residue outside [0, N) and a coordinate list of the wrong length are refused
    data = DirichletCharacter.quadratic(F25, 3).to_json()
    for values in ({"1": [1, 0], "-1": [4, 0]}, {"1": [1, 0], "2": [4]}):
        with pytest.raises(ValueError):
            DirichletCharacter.from_json(dict(data, values=values))
