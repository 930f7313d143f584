import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3hecke.characters import DirichletCharacter
from gl3hecke.ffield import make_field
from gl3hecke.weights import (
    ORDINARY,
    PEU,
    SUPERSINGULAR,
    TAME,
    TRES,
    InertialData,
    WeightTriple,
    dual_weight,
    enumerate_weight_lifts,
    is_tame_generic,
    predict_level_nebentype,
    predict_weights,
    predict_weights_by_recipe,
    twisted_contragredient_data,
)

F5 = make_field(5)


def ordinary(p, a, b, c, flag=TAME, **kw):
    return InertialData(p=p, kind=ORDINARY, a=a, b=b, c=c, flag=flag, **kw)


def test_generic_tame_gives_four_weights():
    # p=7: differences of (0, 2, 4) mod 6 avoid {0, 1, 5}
    data = ordinary(7, 0, 2, 4)
    assert is_tame_generic(data)
    ws = predict_weights(data)
    assert len(ws) == 4


def test_all_generic_tame_p7_give_four():
    for a, b, c in itertools.product(range(6), repeat=3):
        data = ordinary(7, a, b, c)
        if is_tame_generic(data):
            assert len(predict_weights(data)) == 4, (a, b, c)


def test_wild_gives_two_weights():
    data = ordinary(7, 0, 2, 4, flag=PEU)
    assert len(predict_weights(data)) == 2


def test_boundary_congruence_superset():
    # p=5, a-b = 1 mod 4: both lifts a=b+1 and a=b+p contribute, so the
    # output strictly contains a generic-count 4-set
    data = ordinary(5, 1, 0, 3)
    lifts = enumerate_weight_lifts(data)
    ws = predict_weights(data)
    assert len(ws) > 4
    # both difference values 1 and p appear among originating lifts
    diffs = {lift[0] - lift[1] for t, r, lift in lifts if r == 1}
    assert {1, 5}.issubset(diffs)


def test_tres_only_p_difference_lifts():
    # recipe lifts store (a~, b~, c~); tres forces a~ - b~ = p in both recipes
    data = ordinary(5, 1, 0, 3, flag=TRES)
    lifts = enumerate_weight_lifts(data)
    assert lifts
    for t, recipe, (at, bt, ct) in lifts:
        assert at - bt == 5


def test_tres_requires_adjacent_exponents():
    with pytest.raises(ValueError):
        ordinary(5, 2, 0, 1, flag=TRES)


def test_tres_count_two():
    data = ordinary(7, 3, 2, 5, flag=TRES)
    assert len(predict_weights(data)) == 2


def test_output_invariant_under_exponent_shifts():
    base = ordinary(7, 1, 3, 5)
    shifted = ordinary(7, 1 + 6, 3 - 6, 5 + 12)
    assert predict_weights(base) == predict_weights(shifted)


def test_supersingular_basic_count():
    # p=5, m=9: normal form (4,1), difference 3
    data = InertialData(p=5, kind=SUPERSINGULAR, m=9, c=0)
    ws = predict_weights(data)
    assert len(ws) >= 2
    for t, r, (at, bt, ct) in enumerate_weight_lifts(data):
        if r == 1:
            assert at - bt == 3


def test_supersingular_rejects_niveau1():
    with pytest.raises(ValueError):
        InertialData(p=5, kind=SUPERSINGULAR, m=6, c=0)


def test_level_nebentype():
    chi0 = DirichletCharacter.quadratic(F5, 3)
    chi1 = DirichletCharacter.trivial(F5, 11)
    data = ordinary(5, 1, 0, 2, d=3, N1=11, chi0=chi0, chi1=chi1)
    N, eps = predict_level_nebentype(data)
    assert N == 33
    assert eps.modulus == 33
    for u in range(1, 33):
        from math import gcd

        if gcd(u, 33) == 1:
            assert eps(u) == chi0(u)
    trivial = ordinary(5, 1, 0, 2, d=1, N1=11, chi0=DirichletCharacter.trivial(F5, 1), chi1=chi1)
    N, eps = predict_level_nebentype(trivial)
    assert N == 11 and eps == chi1
    unit = ordinary(
        5, 1, 0, 2, d=1, N1=1, chi0=DirichletCharacter.trivial(F5, 1), chi1=DirichletCharacter.trivial(F5, 1)
    )
    N, eps = predict_level_nebentype(unit)
    assert N == 1 and eps.is_trivial()


def test_squarefree_level_enforced():
    with pytest.raises(ValueError):
        ordinary(5, 1, 0, 2, d=3, N1=3)
    with pytest.raises(ValueError):
        ordinary(5, 1, 0, 2, N1=5)


def test_nonpositive_level_rejected():
    for N1 in (-4, 0):
        with pytest.raises(ValueError, match="positive"):
            ordinary(5, 1, 0, 2, N1=N1)


def test_dual_weight_involution_exhaustive_p5():
    p = 5
    for dx in range(p):
        for dy in range(p):
            for z in range(p - 1):
                t = WeightTriple(p, z + dy + dx, z + dy, z)
                assert dual_weight(dual_weight(t)) == t


def test_dual_weight_trivial_label():
    # contragredient of the trivial-module label is itself
    t = WeightTriple(5, 0, 0, 0)
    assert dual_weight(t) == t
    s = WeightTriple(5, 2, 1, 0)
    assert dual_weight(s) == WeightTriple.normalize(5, 0, -1, -2)


def test_duality_exchanges_recipes_exhaustive_p5():
    # second-recipe outputs equal dual_weight of the first-recipe outputs of
    # the twisted-contragredient data, exhaustively over tame data at p=5
    p = 5
    for a, b, c in itertools.product(range(p - 1), repeat=3):
        data = ordinary(p, a, b, c)
        tc = twisted_contragredient_data(data)
        r1, r2 = predict_weights_by_recipe(data)
        tc_r1, tc_r2 = predict_weights_by_recipe(tc)
        assert {dual_weight(t) for t in tc_r1} == r2, (a, b, c)
        assert {dual_weight(t) for t in r1} == tc_r2, (a, b, c)


def test_twisted_contragredient_data_involution():
    data = ordinary(5, 1, 0, 2)
    assert twisted_contragredient_data(twisted_contragredient_data(data)) == data
    ss = InertialData(p=5, kind=SUPERSINGULAR, m=9, c=3)
    assert twisted_contragredient_data(twisted_contragredient_data(ss)) == ss


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 5), st.integers(-3, 3))
@settings(max_examples=50, deadline=None)
def test_weight_normalization_shift_invariance(dx, dy, z, k):
    p = 7
    t = WeightTriple.normalize(p, z + dy + dx, z + dy, z)
    s = WeightTriple.normalize(p, z + dy + dx + k * 6, z + dy + k * 6, z + k * 6)
    assert t == s


def test_every_output_is_p_restricted():
    for a, b, c in itertools.product(range(4), repeat=3):
        for flag in (TAME, PEU):
            data = ordinary(5, a, b, c, flag=flag)
            for t in predict_weights(data):
                assert 0 <= t.x - t.y <= 4 and 0 <= t.y - t.z <= 4
                assert 0 <= t.z <= 3


@pytest.mark.parametrize("p", [9, 1, 0, 25])
def test_inertial_data_rejects_a_p_that_is_not_prime(p):
    # p = 9 predicted 8 weights, and p = 1 raised ZeroDivisionError
    with pytest.raises(ValueError, match="p = %d is not prime" % p):
        ordinary(p, 1, 2, 0)
