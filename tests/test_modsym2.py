import pytest

from gl3hecke.characters import DirichletCharacter
from gl3hecke.ffield import make_field
from gl3hecke.modsym2 import (
    SymbolSpace,
    build_space,
    find_eigensystems,
    hecke_t,
    semigroup_act,
    symbol_terms,
)

from _oracles import elliptic_ap, tau


def test_oracles_pinned_values():
    assert elliptic_ap(2) == -2
    assert elliptic_ap(3) == -1
    assert elliptic_ap(7) == -2
    assert elliptic_ap(13) == 4
    assert tau(2) == -24
    assert tau(3) == 252


def test_symbol_terms_unimodular_passthrough():
    terms = symbol_terms(((1, 0), (0, 1)))
    assert len(terms) == 1
    sign, U = terms[0]
    assert sign == 1
    from gl3hecke.modsym2 import _det2

    assert _det2(U) == 1


def test_symbol_terms_boundary_telescopes():
    # the line divisor of the decomposition telescopes to (w) - (u)
    from gl3hecke.modsym2 import _row_canonical

    for M in [((1, 0), (3, 7)), ((2, 5), (9, 4)), ((1, 2), (5, 3))]:
        terms = symbol_terms(M)
        divisor = {}
        for s, U in terms:
            for pt, c in ((_row_canonical(U[0]), -s), (_row_canonical(U[1]), s)):
                divisor[pt] = divisor.get(pt, 0) + c
        u, w = _row_canonical(M[0]), _row_canonical(M[1])
        divisor = {k: v for k, v in divisor.items() if v}
        assert divisor == {u: -1, w: 1} or (u == w and divisor == {})


def test_level_one_weight_two_vanishes():
    space = build_space(1, 5, 0, 0)
    assert space.dim == 0
    assert find_eigensystems(space, [2, 3]) == []


def test_level11_weight2_regression_mod5():
    space = build_space(11, 5, 0, 0)
    assert space.dim > 0
    systems = find_eigensystems(space, [2, 3, 7, 13])
    assert systems
    hit = [
        s
        for s in systems
        if all(s.lambdas[l] == s.field.from_int(elliptic_ap(l)) for l in (2, 3, 7, 13))
    ]
    assert hit, [s.lambdas for s in systems]


def test_level1_weight12_delta_mod11():
    space = build_space(1, 11, 10, 0)
    systems = find_eigensystems(space, [2])
    assert any(s.lambdas[2] == s.field.from_int(tau(2)) for s in systems)


def test_eisenstein_eigenvalue_level11():
    space = build_space(11, 7, 0, 0)
    systems = find_eigensystems(space, [2, 3])
    assert any(
        s.lambdas[2] == s.field.from_int(3) and s.lambdas[3] == s.field.from_int(4) for s in systems
    )


def test_unsplit_piece_without_extension_raises():
    # T_2 on this space has an irreducible quadratic factor over F_5; the
    # extension search finds 4 systems, and without it nothing may be dropped
    space = SymbolSpace(11, 5, 4, 0)
    with pytest.raises(ValueError, match=r"l=2: degrees \[2\]"):
        find_eigensystems(space, [2, 3], allow_extension=False)
    assert len(find_eigensystems(space, [2, 3])) == 4


def test_hecke_operators_commute():
    space = build_space(11, 5, 0, 0)
    T2 = hecke_t(space, 2)
    T3 = hecke_t(space, 3)
    n = space.dim
    F = space.field
    for i in range(n):
        for j in range(n):
            a = sum((T2[i][k] * T3[k][j] for k in range(n)), F.zero())
            b = sum((T3[i][k] * T2[k][j] for k in range(n)), F.zero())
            assert a == b


def test_hecke_from_coset_sum_matches():
    space = build_space(11, 5, 0, 0)
    l = 3
    T = hecke_t(space, l)
    cosets = [((1, 0), (beta, l)) for beta in range(l)] + [((l, 0), (0, 1))]
    F = space.field
    for k in range(space.dim):
        v = [F.zero()] * space.dim
        v[k] = F.one()
        acc = [F.zero()] * space.dim
        for m in cosets:
            img = semigroup_act(space, v, m)
            acc = [x + y for x, y in zip(acc, img)]
        col = [T[i][k] for i in range(space.dim)]
        assert acc == col


def test_action_matrix_columns_and_hecke_coset_sum():
    space = build_space(11, 5, 2, 0)
    F = space.field
    for l in (2, 3):
        cosets = [((1, 0), (beta, l)) for beta in range(l)] + [((l, 0), (0, 1))]
        mats = [space.action_matrix(m) for m in cosets]
        for m, A in zip(cosets, mats):
            for j in range(space.dim):
                e = [F.zero()] * space.dim
                e[j] = F.one()
                assert [A[i][j] for i in range(space.dim)] == semigroup_act(space, e, m)
        total = [[sum((A[i][j] for A in mats), F.zero()) for j in range(space.dim)] for i in range(space.dim)]
        assert hecke_t(space, l) == total
    # single summands do not descend to the quotient: matrices congruent
    # mod N act differently, so the cache key is the integer matrix
    assert space.action_matrix(((1, 0), (1, 2))) != space.action_matrix(((1, 0), (12, 2)))


def test_symbol_action_multiplicative_sample():
    # multiplicativity holds at the symbol-representative level: individual
    # semigroup elements are Hecke summands and only coset sums descend to
    # the quotient
    space = build_space(11, 5, 2, 0)
    F = space.field
    from gl3hecke.modsym2 import _mul2

    m1 = ((1, 0), (3, 2))  # det 2
    m2 = ((3, 0), (1, 1))  # det 3
    m12 = _mul2(m1, m2)
    for j in range(space.dimV):
        e = [F.zero()] * space.dimV
        e[j] = F.one()
        for rep in space.reps[:4]:
            z = [(1, rep, e)]
            step = space.symbols_to_coords(space.act_symbols(space.act_symbols(z, m1), m2))
            direct = space.symbols_to_coords(space.act_symbols(z, m12))
            assert step == direct


def test_central_scalar_action():
    # l * identity acts by chi1(l) * l^(a+b) on coefficients and fixes symbols
    space = build_space(11, 5, 2, 1)
    F = space.field
    l = 3
    m = ((l, 0), (0, l))
    for k in range(space.dim):
        v = [F.zero()] * space.dim
        v[k] = F.one()
        img = semigroup_act(space, v, m)
        want = [F.from_int(pow(l, 3, 5)) * x for x in v]
        assert img == want


def test_semigroup_rejects_bad_matrices():
    space = build_space(11, 5, 0, 0)
    with pytest.raises(ValueError):
        semigroup_act(space, [space.field.zero()] * space.dim, ((1, 1), (0, 2)))
    with pytest.raises(ValueError):
        semigroup_act(space, [space.field.zero()] * space.dim, ((1, 0), (0, -1)))


def test_irrational_system_triggers_extension():
    # level 23 weight 2: the cuspidal eigenvalues generate a quadratic
    # extension mod 7 (disc 5 is a non-residue), so the search must extend
    space = build_space(23, 7, 0, 0)
    systems = find_eigensystems(space, [2])
    assert systems
    big = [s for s in systems if s.field.r > 1]
    assert big, "expected the scalar field to grow"
    F = big[0].field
    for s in big:
        lam = s.lambdas[2]
        if lam.coords[1:] and any(lam.coords[1:]):
            # the quadratic system satisfies x^2 + x - 1 = 0 mod 7
            assert lam * lam + lam - F.one() == F.zero()
            break
    else:
        pytest.fail("no genuinely quadratic eigenvalue found")


def test_quadratic_character_twist_space_builds():
    F = make_field(5)
    chi = DirichletCharacter.quadratic(F, 3).lift(33)
    space = build_space(33, 5, 0, 0, chi1=chi)
    assert space.dim >= 0
    if space.dim:
        hecke_t(space, 2)
