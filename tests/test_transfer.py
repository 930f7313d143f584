import dataclasses
import os
import subprocess
import sys
import textwrap
from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gl3hecke
from gl3hecke import transfer
from gl3hecke.characters import DirichletCharacter
from gl3hecke.ffield import make_field
from gl3hecke.heckegl3 import hecke_orbit_action
from gl3hecke.linalg import apply_matrix, embed_matrix, identity
from gl3hecke.modsym2 import SymbolSpace, find_eigensystems
from gl3hecke.transfer import (
    BoundaryDatum,
    FrobeniusData,
    eigenvalue_of,
    expected_eigenvalues,
    gl3_hecke_on_boundary,
    run_transfer_checks,
    twisted_contragredient,
    verify_attachment,
)

from _oracles import a_l3, elliptic_ap, per_coset_reference
from test_modrep import _reachable_arrays

F5 = make_field(5)
WINDOW = (2, 7, 13)
CURVE_LAMBDAS = {l: elliptic_ap(l) for l in WINDOW}


def _datum(c, d=1, chi0=None):
    N1 = 11
    return BoundaryDatum.build(
        5, 0, 0, c, d, N1, chi0=chi0, window=WINDOW, lambdas=CURVE_LAMBDAS
    )


def test_build_makes_one_full_search_and_keeps_its_first_match(monkeypatch):
    # the benchmark records transfer.find_eigensystems inside build and checks
    # every system of the one list it returns: build searches once, with its
    # own space, over the whole window, and picks the class from that list.
    # On (13, 5, 2, 0) two F_5-rational systems share lambda_3 = 3.
    search, calls = transfer.find_eigensystems, []

    def record(*args, **kwargs):
        out = search(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    full = [s.lambdas for s in search(SymbolSpace(13, 5, 2, 0), [2, 3])]
    assert len(full) == 4
    monkeypatch.setattr(transfer, "find_eigensystems", record)
    for lambdas, pick in ((None, 0), ({2: 4, 3: 3}, 1), ({3: 3}, 0)):
        calls.clear()
        datum = BoundaryDatum.build(5, 2, 0, 1, 1, 13, window=(2, 3), lambdas=lambdas)
        [(args, kwargs, systems)] = calls
        assert args[0] is datum.space and list(args[1:]) + list(kwargs.values()) == [[2, 3]]
        assert [s.lambdas for s in systems] == full
        assert datum.eigen is systems[pick]


def test_t1_eigenvalue_identity_d1():
    datum = _datum(0)
    for l in WINDOW:
        ev = eigenvalue_of(datum, l, 1)
        e1, _ = expected_eigenvalues(datum, l)
        assert ev is not None and ev == e1


def test_t1_pinned_value_l2():
    # (a,b,c) = (0,0,0), trivial characters, l=2, lambda_2 = -2:
    # T(2,1) eigenvalue = 2*(-2) + 1 = -3 = 2 mod 5
    datum = _datum(0)
    ev = eigenvalue_of(datum, 2, 1)
    assert ev == datum.space.field.from_int(2)


def test_t2_eigenvalue_identity_d1():
    datum = _datum(1)
    for l in WINDOW:
        ev = eigenvalue_of(datum, l, 2)
        _, e2 = expected_eigenvalues(datum, l)
        assert ev is not None and ev == e2


def test_full_checks_d3_quadratic():
    chi0 = DirichletCharacter.quadratic(F5, 3)
    datum = _datum(2, d=3, chi0=chi0)
    report = run_transfer_checks(datum, WINDOW)
    assert report
    for entry in report:
        assert entry["t1_matches"], entry
        assert entry["t2_matches"], entry
        assert entry["attachment"], entry


@lru_cache(maxsize=None)
def _space(p, a, b, N1):
    return SymbolSpace(N1, p, a, b)


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from([(5, 0, 0, 11), (5, 0, 0, 14), (7, 0, 0, 15), (7, 2, 0, 10), (13, 4, 0, 11), (5, 2, 0, 21), (13, 2, 0, 15)]),
    d=st.sampled_from([1, 2, 3]),
    quadratic=st.booleans(),
    c=st.integers(0, 11),
    l=st.sampled_from([2, 3, 5, 7, 11]),
)
@example(key=(5, 0, 0, 11), d=1, quadratic=False, c=0, l=2)
def test_gl3_operators_commute_with_gl2_hecke(key, d, quadratic, c, l):
    # the dense T(l,1), T(l,2), T(l,3) commute with each other and with the
    # rank-2 T_2 and T_3 of the level-N1 space
    p, a, b, N1 = key
    assume(gcd(d, p * N1) == 1 and gcd(l, p * N1 * d) == 1)
    space = _space(p, a, b, N1)
    F = space.field
    chi0 = DirichletCharacter.quadratic(F, 3) if d == 3 and quadratic else DirichletCharacter.trivial(F, d)
    datum = BoundaryDatum(c=c, d=d, chi0=chi0, space=space, eigen=None)
    # over F_p the coordinate arrays are integer matrices with one trailing coordinate
    ops = list(gl3_hecke_on_boundary(datum, l, (1, 2, 3), identity(space.dim, F))[..., 0])
    ops += [space.hecke_matrix(m)[..., 0] for m in (2, 3) if gcd(m, p * N1) == 1]
    for i, A in enumerate(ops):
        for B in ops[:i]:
            assert np.array_equal(A @ B % p, B @ A % p)


def test_case_weighted_contribution_count():
    # T(l,1) decomposes as l^2 + (l-1) + 1 + 1 case-weighted contributions
    l, N, d = 2, 33, 3
    cases = hecke_orbit_action(l, 1, N, d).case.tolist()
    assert sorted(cases) == sorted([1] * (l * l) + [3] * (l - 1) + [4] + [2])


@pytest.mark.parametrize("bumped_k", [1, 2, 3])
def test_attachment_flag_uses_measured_eigenvalues(monkeypatch, bumped_k):
    # shifting T(l, bumped_k) by the identity shifts its measured eigenvalue
    # by one, which the report's attachment flag must catch
    datum = _datum(2, d=3, chi0=DirichletCharacter.quadratic(F5, 3))
    build = transfer.gl3_hecke_on_boundary

    def shifted(datum, l, ks, V):
        # the checks stack T(l,1), T(l,2), T(l,3) in one call; bump one slice
        image = build(datum, l, ks, V)
        i = ks.index(bumped_k)
        image[i] = (image[i] + V) % datum.space.p
        return image

    monkeypatch.setattr(transfer, "gl3_hecke_on_boundary", shifted)
    report = run_transfer_checks(datum, WINDOW)
    assert report
    assert all(entry["attachment"] is False for entry in report)


def test_unsearched_prime_raises_before_any_operator(monkeypatch):
    datum = BoundaryDatum.build(5, 0, 0, 0, 1, 11, window=(2,))
    built = []
    monkeypatch.setattr(transfer, "hecke_orbit_action", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match=r"l = 31 is not in the datum's window \(2,\)"):
        run_transfer_checks(datum, (2, 31))
    assert built == []
    for oracle in (expected_eigenvalues, FrobeniusData.from_boundary):
        with pytest.raises(ValueError, match=r"l = 31 is not in the datum's window \(2,\)"):
            oracle(datum, 31)
    with pytest.raises(ValueError, match=r"l = 31 is not in the datum's window \(2,\)"):
        BoundaryDatum.build(5, 0, 0, 0, 1, 11, window=(2,), lambdas={2: 3, 31: 7})


def test_build_rejects_a_chi0_whose_modulus_is_not_d(monkeypatch):
    # chi0 is read at psi1 mod its modulus, so one of modulus 3 at d = 1
    # would build a datum whose checks all pass at the wrong character
    built = []
    monkeypatch.setattr(transfer, "SymbolSpace", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match="chi0 must have modulus d"):
        BoundaryDatum.build(5, 0, 0, 0, 1, 11, chi0=DirichletCharacter.quadratic(F5, 3), window=(2,))
    assert built == []


@pytest.mark.parametrize("window,l", [((2, 4), 4), ((1, 3), 1), ((9,), 9)])
def test_build_rejects_a_window_l_that_is_not_prime(monkeypatch, window, l):
    # the space's T_l is the coset sum of diag(1, l) only at a prime l, so a
    # unit or composite l raises before a space is built
    built = []
    monkeypatch.setattr(transfer, "SymbolSpace", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match="l = %d in the window is not prime" % l):
        BoundaryDatum.build(5, 0, 0, 0, 1, 11, window=window)
    assert built == []


@pytest.mark.parametrize("d", [5, 11, 55], ids=["p-divides-d", "d-is-N1", "d-is-pN1"])
def test_build_rejects_a_d_not_prime_to_p_times_N1(monkeypatch, d):
    # at d = 5 = p the level N = 55 is not prime to p, and at d = N1 the
    # boundary cosets need gcd(d, N1) = 1: both raise before a space is built
    built = []
    monkeypatch.setattr(transfer, "SymbolSpace", lambda *args, **kwargs: built.append(args))
    with pytest.raises(ValueError, match="d = %d must be prime to p \\* N1 = 55" % d):
        BoundaryDatum.build(5, 0, 0, 0, d, 11, window=(2, 3, 7))
    assert built == []


def _fixture_datum():
    return BoundaryDatum.build(5, 0, 0, 0, 1, 11, window=(2,))


def test_a_datum_constructed_directly_rejects_a_chi0_whose_modulus_is_not_d():
    # chi0 of modulus 7 at d = 3 is read at psi1 mod 7, and every flag of the
    # checks would pass at the wrong character
    datum = _fixture_datum()
    chi0 = DirichletCharacter.trivial(datum.space.field, 7)
    with pytest.raises(ValueError, match="chi0 must have modulus d"):
        BoundaryDatum(c=0, d=3, chi0=chi0, space=datum.space, eigen=datum.eigen)
    chi0 = DirichletCharacter.trivial(datum.space.field, 3)
    assert BoundaryDatum(c=0, d=3, chi0=chi0, space=datum.space, eigen=datum.eigen).N == 33


def test_a_datum_constructed_directly_rejects_a_d_not_prime_to_p_times_N1():
    # d = N1 would otherwise raise only inside hecke_orbit_action
    datum = _fixture_datum()
    chi0 = DirichletCharacter.trivial(datum.space.field, 11)
    with pytest.raises(ValueError, match="d = 11 must be prime to p \\* N1 = 55"):
        BoundaryDatum(c=0, d=11, chi0=chi0, space=datum.space, eigen=datum.eigen)
    with pytest.raises(ValueError, match="d = 11 must be prime to p \\* N1 = 55"):
        dataclasses.replace(datum, d=11, chi0=chi0)


def test_a_datum_rejects_an_eigensystem_of_another_space():
    # an equal space built twice is still another space
    datum, other = _fixture_datum(), _fixture_datum()
    with pytest.raises(ValueError, match="not one of the datum's space"):
        dataclasses.replace(datum, eigen=other.eigen)


def test_a_built_datum_keeps_no_hecke_matrix():
    # the search's T_l are dropped when it returns: nothing reachable from
    # the datum has the (dim, dim, r) shape of an operator on the space
    datum = BoundaryDatum.build(5, 0, 0, 0, 1, 53, window=(2, 3, 7))
    space = datum.space
    assert space.dim > 1
    shapes = [x.shape for x in _reachable_arrays(datum)]
    assert (space.dim, space.field.r) in shapes
    assert (space.dim, space.dim, space.field.r) not in shapes


def test_corrupted_psi2_of_one_coset_raises(monkeypatch):
    # moving one coset's psi2 of T(l,k) out of the level-N1 semigroup must
    # fail semigroup_act's check of the stack, for each k, whether k is
    # applied alone or stacked with the others: the corrupted psi2 is the
    # one with a nonzero (0, 1) entry, so it is a block of its own, and its
    # scalar chi0(psi1) psi1^c is a unit, so the block is live
    datum = _datum(0)
    units = identity(datum.space.dim, datum.space.field)
    translate = transfer.hecke_orbit_action
    for k in (1, 2, 3):

        def corrupted(l, ks, N, d, k=k):
            out = translate(l, ks, N, d)
            ks = (ks,) if np.ndim(ks) == 0 else tuple(ks)
            if k in ks:
                rows = np.flatnonzero(out.slot == ks.index(k))
                out.psi2[rows[min(5, len(rows) - 1)], 0, 1] += 1
            return out

        monkeypatch.setattr(transfer, "hecke_orbit_action", corrupted)
        for ks in (k, (1, 2, 3)):
            with pytest.raises(ValueError, match=r"congruent to \(\*,0\) mod level"):
                gl3_hecke_on_boundary(datum, 7, ks, units)
        with pytest.raises(ValueError, match=r"congruent to \(\*,0\) mod level"):
            run_transfer_checks(datum, (7,))


@pytest.mark.parametrize("d", [1, 3])
def test_full_checks_at_large_window_primes(d):
    # T(l,k) at l = 31 and 47, the largest window primes of the target scale
    window = WINDOW + (31, 47)
    chi0 = DirichletCharacter.quadratic(F5, 3) if d == 3 else None
    lambdas = {l: elliptic_ap(l) for l in window}
    datum = BoundaryDatum.build(5, 0, 0, 2, d, 11, chi0=chi0, window=window, lambdas=lambdas)
    report = run_transfer_checks(datum, (31, 47))
    assert [entry["l"] for entry in report] == [31, 47]
    for entry in report:
        assert all(entry.values()), entry


def test_attachment_eisenstein_calibration():
    # identity-type representation: lambda = 1 + l, all data trivial; both
    # sides are the characteristic polynomial of diag(1, l, l^2)
    F = F5
    for l in (2, 13):
        lam = F.from_int(1 + l)
        lm = F.from_int(l)
        c1 = lm * lam + F.one()
        c2 = lm * (lm**2 + lam)
        c3 = lm**3
        frob = FrobeniusData(l=l, c1=c1, c2=c2, c3=c3)
        # factorized form (1 - X)(1 - lX)(1 - l^2 X)
        assert c1 == F.one() + lm + lm**2
        assert c2 == lm + lm**2 + lm**3
        a1, a2, a3 = c1, lm**2 + lam, F.one()
        assert verify_attachment(frob, a1, a2, a3)


def test_twisted_contragredient_involution_and_identity():
    datum = _datum(3)
    for l in WINDOW:
        frob = FrobeniusData.from_boundary(datum, l)
        back = twisted_contragredient(twisted_contragredient(frob))
        assert (back.c1, back.c2, back.c3) == (frob.c1, frob.c2, frob.c3)
    # identity representation: all eigenvalues 1 -> output eigenvalues l^2
    F = F5
    l = 2
    frob = FrobeniusData(l=l, c1=F.from_int(3), c2=F.from_int(3), c3=F.one())
    out = twisted_contragredient(frob)
    lm = F.from_int(l)
    assert out.c1 == F.from_int(3) * lm**2
    assert out.c2 == F.from_int(3) * lm**4
    assert out.c3 == lm**6


def test_twisted_contragredient_weight_link():
    # the dual-data first-recipe weights match dual_weight of the original
    # second-recipe weights, exhaustively over tame data at p=5
    from gl3hecke.weights import (
        InertialData,
        ORDINARY,
        dual_weight,
        predict_weights_by_recipe,
        twisted_contragredient_data,
    )

    import itertools

    for a, b, c in itertools.product(range(4), repeat=3):
        data = InertialData(p=5, kind=ORDINARY, a=a, b=b, c=c)
        tc = twisted_contragredient_data(data)
        r1, r2 = predict_weights_by_recipe(data)
        tc_r1, _ = predict_weights_by_recipe(tc)
        assert {dual_weight(t) for t in tc_r1} == r2


def test_c_varies_only_scalar():
    # the operators for different c differ by the per-coset psi1-power
    d0 = _datum(0)
    d2 = _datum(2)
    l = 7
    ev0 = eigenvalue_of(d0, l, 1)
    ev2 = eigenvalue_of(d2, l, 1)
    F = d0.space.field
    lam = d0.eigen.lambdas[l]
    assert ev0 == F.from_int(l) * lam + F.one()
    assert ev2 == F.from_int(l) * lam + F.from_int(pow(l, 2, 5))


@pytest.mark.parametrize(
    "p,a,b,window,degree",
    [
        pytest.param(5, 0, 0, WINDOW, 1, id="F5"),
        # a space built over F_{7^3}, where every eigenvalue of this one lies
        pytest.param(7, 4, 0, (2, 3), 3, id="F343"),
    ],
)
@pytest.mark.parametrize("d", [1, 3])
def test_grouped_assembly_matches_per_coset_reference(p, a, b, window, degree, d):
    chi0 = DirichletCharacter.quadratic(make_field(p), 3) if d == 3 else None
    datum = BoundaryDatum.build(p, a, b, 2, d, 11, chi0=chi0, chi1=DirichletCharacter.trivial(make_field(p, degree), 11), window=window)
    assert datum.space.field.r == degree and datum.chi0.field == datum.space.field
    units = identity(datum.space.dim, datum.space.field)
    for l in (2, 7, 13):
        if l == p:
            continue
        for k in (1, 2, 3):
            assert np.array_equal(gl3_hecke_on_boundary(datum, l, k, units), per_coset_reference(datum, l, k)), (l, k)


# (p, a, b, N1): the boundary benchmark's spaces, whose eigenvalues need F_{p^2}
# or F_{p^3}
EXT_SPACES = [
    (13, 4, 0, 11),
    (7, 4, 0, 11),
    (7, 0, 0, 53),
    (5, 4, 0, 11),
    (5, 0, 0, 43),
    (5, 0, 0, 29),
    (5, 0, 0, 67),
    (13, 0, 0, 11),
]


@pytest.mark.parametrize("key", EXT_SPACES, ids=["p%d-w%d,%d-N%d" % key for key in EXT_SPACES])
def test_extended_eigenclass_keeps_operators_over_the_base_field(monkeypatch, key):
    # the datum's eigenclass is moved to a system over the largest field of
    # the space: every check holds there, every boundary operator is applied
    # over F_p to at most r_E columns, the F_p coordinates of the class, in
    # one semigroup_act call per window prime
    p, a, b, N1 = key
    window = (2, 3)
    datum = BoundaryDatum.build(p, a, b, 1, 1, N1, window=window)
    system = max(find_eigensystems(datum.space, window), key=lambda s: s.field.r)
    datum = dataclasses.replace(datum, eigen=system)
    space = datum.space
    Fp = make_field(p)
    assert space.field == Fp and system.space is space
    act = SymbolSpace.semigroup_act
    blocks = []

    def spy(self, V, m):
        blocks.append(np.shape(V))
        return act(self, V, m)

    monkeypatch.setattr(SymbolSpace, "semigroup_act", spy)
    report = run_transfer_checks(datum, window)
    for entry in report:
        assert all(entry.values()), entry
    # one pass per window prime, for T(l,1), T(l,2) and T(l,3) together
    assert report and len(blocks) == len(report), blocks
    assert all(shape[0] == space.dim and shape[-1] == Fp.r for shape in blocks), blocks
    assert all(len(shape) == 2 or shape[1] <= system.field.r for shape in blocks), (blocks, system.field.r)


# (p, a, b, N1) with squarefree N1, whose eigenclasses over F_p lie in F_p,
# F_{p^2} or F_{p^3}.  The last three also have classes with F_p < F < E, of
# degree 6: the first two built over F = F_{p^2}, the last over F_{p^3}.
PROPERTY_SPACES = [
    (5, 0, 0, 11),
    (5, 0, 0, 14),
    (7, 0, 0, 15),
    (5, 0, 0, 26),
    (7, 2, 0, 10),
    (11, 2, 0, 14),
    (13, 4, 0, 11),
    (7, 4, 0, 11),
    (5, 4, 0, 11),
]


@lru_cache(maxsize=None)
def _searched_space(p, a, b, N1, r):
    """The space over F_{p^r} and its eigensystems over every prime below 8
    prime to p N1."""
    space = SymbolSpace(N1, p, a, b, chi1=DirichletCharacter.trivial(make_field(p, r), N1))
    return space, find_eigensystems(space, [l for l in (2, 3, 5, 7) if gcd(l, p * N1) == 1])


@settings(max_examples=30, deadline=None)
@given(
    key=st.sampled_from(PROPERTY_SPACES),
    r=st.sampled_from([1, 2, 3]),
    pick=st.integers(0, 7),
    d=st.sampled_from([1, 2, 3]),
    quadratic=st.booleans(),
    c=st.integers(0, 11),
    l=st.sampled_from([2, 3, 5, 7]),
    k=st.sampled_from([1, 2, 3]),
)
@example(key=(13, 4, 0, 11), r=2, pick=2, d=1, quadratic=False, c=1, l=2, k=1)
@example(key=(5, 4, 0, 11), r=3, pick=2, d=3, quadratic=True, c=2, l=7, k=2)
def test_operator_on_the_class_matches_the_per_coset_oracle(key, r, pick, d, quadratic, c, l, k):
    # eigenvalue_of's T(l,k) v, from the class's F_p columns recombined in E,
    # against the oracle's whole matrix embedded in E and applied to v
    p, a, b, N1 = key
    assume(gcd(d, p * N1) == 1 and gcd(l, p * N1 * d) == 1)
    space, systems = _searched_space(p, a, b, N1, r)
    F = space.field
    chi0 = DirichletCharacter.quadratic(F, 3) if d == 3 and quadratic else DirichletCharacter.trivial(F, d)
    eigen = systems[pick % len(systems)]
    datum = BoundaryDatum(c=c, d=d, chi0=chi0, space=space, eigen=eigen)
    E, v = eigen.field, eigen.vector
    ev = eigenvalue_of(datum, l, k)
    image = apply_matrix(embed_matrix(per_coset_reference(datum, l, k), F, E), v, E)
    assert ev is not None
    assert E.from_array(image) == [ev * x for x in E.from_array(v)]


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(PROPERTY_SPACES),
    r=st.sampled_from([1, 2, 3]),
    pick=st.integers(0, 7),
    d=st.sampled_from([1, 2, 3]),
    quadratic=st.booleans(),
    c=st.integers(0, 11),
    l=st.sampled_from([2, 3, 5, 7]),
    data=st.data(),
)
@example(key=(5, 0, 0, 11), r=1, pick=0, d=1, quadratic=False, c=0, l=2, data=None)
def test_attachment_identity_and_perturbation(key, r, pick, d, quadratic, c, l, data):
    # the measured T(l,1), T(l,2), T(l,3) eigenvalues of a searched class
    # close the identity, the third equals its closed form, and adding a
    # nonzero delta of the class's field to any one of them breaks it
    p, a, b, N1 = key
    assume(gcd(d, p * N1) == 1 and gcd(l, p * N1 * d) == 1)
    space, systems = _searched_space(p, a, b, N1, r)
    F = space.field
    chi0 = DirichletCharacter.quadratic(F, 3) if d == 3 and quadratic else DirichletCharacter.trivial(F, d)
    eigen = systems[pick % len(systems)]
    datum = BoundaryDatum(c=c, d=d, chi0=chi0, space=space, eigen=eigen)
    E = eigen.field
    coords = st.lists(st.integers(0, p - 1), min_size=E.r, max_size=E.r).filter(any)
    delta = E.one() if data is None else E.element(data.draw(coords))
    measured = eigenvalue_of(datum, l, (1, 2, 3))
    assert measured[2] == a_l3(datum, l)
    frob = FrobeniusData.from_boundary(datum, l)
    assert verify_attachment(frob, *measured)
    for i in range(3):
        bumped = list(measured)
        bumped[i] = bumped[i] + delta
        assert not verify_attachment(frob, *bumped)


@settings(max_examples=20, deadline=None)
@given(
    key=st.sampled_from(PROPERTY_SPACES),
    r=st.sampled_from([1, 2, 3]),
    pick=st.integers(0, 7),
    d=st.sampled_from([1, 2, 3]),
    quadratic=st.booleans(),
    c=st.integers(0, 11),
    l=st.sampled_from([2, 3, 5, 7]),
    ks=st.permutations([1, 2, 3]),
    seed=st.integers(0, 2**16),
)
@example(key=(5, 4, 0, 11), r=3, pick=2, d=3, quadratic=True, c=2, l=7, ks=[1, 2, 3], seed=0)
@example(key=(13, 4, 0, 11), r=2, pick=2, d=1, quadratic=False, c=1, l=2, ks=[3, 1, 2], seed=1)
def test_stacked_operator_matches_single_k_and_the_per_coset_oracle(key, r, pick, d, quadratic, c, l, ks, seed):
    # a block of classes over the space's field F: the F_p coordinate columns
    # of an eigenclass over E, as eigenvalue_of moves them, and two random
    # classes over F.  Each slice of the stacked image is the single-k image
    # and the per-coset oracle's matrix applied to the block.
    p, a, b, N1 = key
    assume(gcd(d, p * N1) == 1 and gcd(l, p * N1 * d) == 1)
    space, systems = _searched_space(p, a, b, N1, r)
    F = space.field
    chi0 = DirichletCharacter.quadratic(F, 3) if d == 3 and quadratic else DirichletCharacter.trivial(F, d)
    eigen = systems[pick % len(systems)]
    datum = BoundaryDatum(c=c, d=d, chi0=chi0, space=space, eigen=eigen)
    rE = eigen.field.r
    block = np.zeros((space.dim, rE + 2, F.r), dtype=np.int64)
    block[:, :rE, 0] = eigen.vector
    block[:, rE:] = np.random.default_rng(seed).integers(0, p, (space.dim, 2, F.r))
    stacked = gl3_hecke_on_boundary(datum, l, tuple(ks), block)
    assert stacked.shape == (3,) + block.shape
    for image, k in zip(stacked, ks):
        assert np.array_equal(image, gl3_hecke_on_boundary(datum, l, k, block)), k
        assert np.array_equal(image, apply_matrix(per_coset_reference(datum, l, k), block, F)), k


def test_checks_leave_numpy_random_unimported():
    # the library draws its spot checks from random.Random, and its set
    # operations are boolean masks: the first use of numpy.random, or of the
    # np.unique, np.isin and np.setdiff1d calls that import numpy.ma, costs
    # import time and peak memory in every fresh process
    script = textwrap.dedent(
        """
        import sys
        import gl3hecke
        from gl3hecke.modrep import build_gl3_module, u_invariants
        from gl3hecke.transfer import BoundaryDatum, run_transfer_checks
        build_gl3_module(5, 2, 1, 0)
        assert u_invariants(build_gl3_module(5, 3, 2, 1)).dim == 2
        datum = BoundaryDatum.build(5, 0, 0, 0, 1, 11, window=(2, 7))
        assert all(all(entry.values()) for entry in run_transfer_checks(datum, (2, 7)))
        print("numpy.random" in sys.modules, "numpy.ma" in sys.modules)
        """
    )
    src = os.path.dirname(os.path.dirname(gl3hecke.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]
