import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3hecke.characters import DirichletCharacter
from gl3hecke.ffield import make_field
from gl3hecke.linalg import rref
from gl3hecke.modsym2 import (
    SymbolSpace,
    _distinct_degrees,
    _eigen_split,
    _poly_mul_fq,
    build_space,
    find_eigensystems,
    hecke_t,
    semigroup_act,
    symbol_terms,
)

from _oracles import elliptic_ap, scan_eigen_split, tau


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


# -- the eigenvalue split ------------------------------------------------------


def _block_diag(field, blocks):
    n = sum(len(b) for b in blocks)
    M = [[field.zero()] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            M[at + i][at : at + len(b)] = row
        at += len(b)
    return M


def _companion(field, f):
    """Companion matrix of the monic f (constant term first): x acts on
    1, x, ..., x^(d-1) by columns."""
    d = len(f) - 1
    C = [[field.zero()] * d for _ in range(d)]
    for i in range(1, d):
        C[i][i - 1] = field.one()
    for i in range(d):
        C[i][d - 1] = -f[i]
    return C


def _matmul(field, A, B):
    return [[sum((a * b for a, b in zip(row, col)), field.zero()) for col in zip(*B)] for row in A]


def _units(field, k):
    return [[field.one() if i == j else field.zero() for j in range(k)] for i in range(k)]


def test_eigen_split_finds_a_factor_both_first_krylov_runs_miss():
    # diag(1, 2) + companion(x^2 - 2) over F_5: the Krylov runs from e0 and
    # e1 see only x - 1 and x - 2, and x^2 - 2 is irreducible mod 5
    F = make_field(5)
    A = _block_diag(F, [[[F.from_int(1)]], [[F.from_int(2)]], _companion(F, [F.from_int(-2), F.zero(), F.one()])])
    space = SimpleNamespace(field=F, dim=4)
    pieces, degrees = _eigen_split(space, A, _units(F, 4))
    assert degrees == [2]
    assert [(lam, vecs) for lam, vecs in pieces] == [(F.from_int(1), [_units(F, 4)[0]]), (F.from_int(2), [_units(F, 4)[1]])]


def test_distinct_degrees_keeps_a_factor_of_multiplicity_p():
    F = make_field(5)
    m = [F.from_int(-1), F.one()]
    for _ in range(5):
        m = _poly_mul_fq(m, [F.from_int(-2), F.zero(), F.one()], F)
    assert _distinct_degrees(m, F) == [1, 2]


def _irreducible(field, d, rng):
    """A random monic irreducible polynomial of degree 2 or 3: no root."""
    elements = list(field.elements())
    while True:
        f = [rng.choice(elements) for _ in range(d)] + [field.one()]
        if all(not sum((c * x**i for i, c in enumerate(f)), field.zero()).is_zero() for x in elements):
            return f


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([5, 7]),
    r=st.sampled_from([1, 2]),
    kinds=st.lists(st.sampled_from(["linear", "jordan", "quadratic", "cubic"]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigen_split_matches_the_scan_oracle(p, r, kinds, seed):
    # A = P B P^-1 with B block diagonal: 1x1 eigenvalues (which may repeat),
    # 2x2 Jordan blocks, companion matrices of irreducible quadratics and cubics
    F = make_field(p, r)
    rng = random.Random(seed)
    elements = list(F.elements())
    size = {"linear": 1, "jordan": 2, "quadratic": 2, "cubic": 3}
    blocks, degrees, k = [], set(), 0
    for kind in kinds:
        if k + size[kind] > 5:
            continue
        k += size[kind]
        lam = rng.choice(elements)
        if kind == "linear":
            blocks.append([[lam]])
        elif kind == "jordan":
            blocks.append([[lam, F.one()], [F.zero(), lam]])
        else:
            blocks.append(_companion(F, _irreducible(F, size[kind], rng)))
            degrees.add(size[kind])
    while True:
        P = [[rng.choice(elements) for _ in range(k)] for _ in range(k)]
        R, pivots = rref([row + e for row, e in zip(P, _units(F, k))], F)
        if pivots[:k] == list(range(k)):
            break
    Pinv = [row[k:] for row in R]
    A = _matmul(F, _matmul(F, P, _block_diag(F, blocks)), Pinv)
    space = SimpleNamespace(field=F, dim=k + 1)
    basis = [[rng.choice(elements) for _ in range(k + 1)] for _ in range(k)]
    pieces, got_degrees = _eigen_split(space, A, basis)
    assert pieces == scan_eigen_split(space, A, basis)
    assert got_degrees == sorted(degrees)


@pytest.mark.parametrize("label,e", [((5, 4, 0, 11), 2), ((7, 4, 0, 11), 3)], ids=["F25", "F343"])
def test_extend_scalars_matches_a_rebuild(label, e):
    p, a, b, N = label
    small = SymbolSpace(N, p, a, b)
    for l in (2, 3):
        small.hecke_matrix(l)  # cached before the extension, so embedded
    big = small.field.extension(e)
    ext = small.extend_scalars(big)
    ref = SymbolSpace(N, p, a, b, chi1=DirichletCharacter.trivial(big, N), field=big)
    assert ext.field == big and ext.chi1 == ref.chi1
    assert ext.free == ref.free and ext.dim == ref.dim
    assert ext._reducer.rows == ref._reducer.rows
    for l in (2, 3):
        assert ext.hecke_matrix(l) == ref.hecke_matrix(l)
    for psi2 in [((1, 0), (3, 2)), ((3, 0), (1, 1)), ((2, 11), (1, 7)), ((5, 22), (2, 9))]:
        assert ext.action_matrix(psi2) == ref.action_matrix(psi2)
    # the small space is left as it was
    assert small.field == make_field(p) and all(x.field == small.field for row in small.hecke_matrix(2) for x in row)


def test_level101_eigensystems_need_a_sextic_extension():
    # T_2 has an irreducible factor of degree 6 over F_5 on this space
    systems = find_eigensystems(SymbolSpace(101, 5, 0, 0), [2, 3])
    assert len(systems) == 8
    assert {s.field for s in systems} == {make_field(5, 6)}
    lams = {(s.lambdas[2], s.lambdas[3]) for s in systems}
    assert {(x.frobenius(), y.frobenius()) for x, y in lams} == lams
