import copy
import random
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl3hecke import linalg, modsym2
from gl3hecke.arith import det
from gl3hecke.characters import DirichletCharacter
from gl3hecke.ffield import _distinct_degrees, _poly_mul, make_field
from gl3hecke.linalg import apply_matrix, embed_matrix, identity, nullspace
from gl3hecke.heckegl3 import hecke_orbit_action
from gl3hecke.modsym2 import SymbolSpace, _coset_rep, _eigen_split, _minimal_polynomial, _symbol_terms, find_eigensystems, p1_points

from _oracles import (
    classes,
    coeff_act,
    elliptic_ap,
    lifted_coset_rep,
    mul2,
    p1_canonical_scan,
    prime_field_minpoly,
    row_canonical,
    rref,
    scalar_free_columns,
    scalar_semigroup_act,
    scan_eigen_split,
    symbol_terms,
    tau,
    to_full,
)
from test_modrep import _reachable_arrays


def _arr(field, M):
    """The coordinate array (k, n, r) of a list of k rows of Fq."""
    return np.array([field.to_array(row) for row in M], dtype=np.int64).reshape(len(M), -1, field.r)


def _fq(field, X):
    """The rows of the coordinate array X (k, n, r) as lists of Fq."""
    return [field.from_array(row) for row in X]


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
    assert det(U) == 1


def test_symbol_terms_boundary_telescopes():
    # the line divisor of the decomposition telescopes to (w) - (u)
    for M in [((1, 0), (3, 7)), ((2, 5), (9, 4)), ((1, 2), (5, 3))]:
        terms = symbol_terms(M)
        divisor = {}
        for s, U in terms:
            for pt, c in ((row_canonical(U[0]), -s), (row_canonical(U[1]), s)):
                divisor[pt] = divisor.get(pt, 0) + c
        u, w = row_canonical(M[0]), row_canonical(M[1])
        divisor = {k: v for k, v in divisor.items() if v}
        assert divisor == {u: -1, w: 1} or (u == w and divisor == {})


def test_level_one_weight_two_vanishes():
    space = SymbolSpace(1, 5, 0, 0)
    assert space.dim == 0
    assert find_eigensystems(space, [2, 3]) == []
    assert space.hecke_matrix(2).shape == (0, 0, 1)


def test_level11_weight2_regression_mod5():
    space = SymbolSpace(11, 5, 0, 0)
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
    space = SymbolSpace(1, 11, 10, 0)
    systems = find_eigensystems(space, [2])
    assert any(s.lambdas[2] == s.field.from_int(tau(2)) for s in systems)


def test_eisenstein_eigenvalue_level11():
    space = SymbolSpace(11, 7, 0, 0)
    systems = find_eigensystems(space, [2, 3])
    assert any(
        s.lambdas[2] == s.field.from_int(3) and s.lambdas[3] == s.field.from_int(4) for s in systems
    )


def test_unsplit_piece_is_extended_alone():
    # T_2 on this space has an irreducible quadratic factor over F_5: its
    # two conjugate systems move to F_25, the two rational ones stay over
    # F_5, nothing is dropped, and the space itself stays over F_5
    space = SymbolSpace(11, 5, 4, 0)
    systems = find_eigensystems(space, [2, 3])
    assert [s.field for s in systems] == [make_field(5)] * 2 + [make_field(5, 2)] * 2
    assert all(s.space is space for s in systems) and space.field == make_field(5)
    x, y = systems[2:]
    assert {l: v.frobenius() for l, v in x.lambdas.items()} == y.lambdas
    assert all(s.vector.shape == (space.dim, s.field.r) for s in systems)
    assert all(v.field == s.field for s in systems for v in s.lambdas.values())


def test_hecke_operators_commute():
    space = SymbolSpace(11, 5, 0, 0)
    # over F_5 the coordinate arrays are integer matrices with one trailing coordinate
    T2 = space.hecke_matrix(2)[..., 0]
    T3 = space.hecke_matrix(3)[..., 0]
    assert np.array_equal(T2 @ T3 % 5, T3 @ T2 % 5)


@pytest.mark.parametrize("l", [1, 4, 9, 15])
def test_hecke_matrix_rejects_an_l_that_is_not_prime(l):
    # the coset sum of diag(1, l) is T_l only for a prime l: on (11, 5, 0, 0)
    # it was 0 at l = 4 and found lambda_4 = 0, lambda_9 = 1 for the
    # Eisenstein system, whose sigma_1(4) = 2 and sigma_1(9) = 3 mod 5
    space = SymbolSpace(11, 5, 0, 0)
    with pytest.raises(ValueError, match="l = %d is not prime" % l):
        space.hecke_matrix(l)
    with pytest.raises(ValueError, match="l = %d is not prime" % l):
        find_eigensystems(space, [2, l])


@pytest.mark.parametrize("l", [5, 11], ids=["l-is-p", "l-is-N"])
def test_hecke_matrix_rejects_a_prime_that_divides_p_times_the_level(l):
    with pytest.raises(ValueError, match="^l must be prime to p and the level$"):
        SymbolSpace(11, 5, 0, 0).hecke_matrix(l)


def test_hecke_from_coset_sum_matches():
    space = SymbolSpace(11, 5, 0, 0)
    l = 3
    T = space.hecke_matrix(l)
    cosets = [((1, 0), (beta, l)) for beta in range(l)] + [((l, 0), (0, 1))]
    for k, v in enumerate(identity(space.dim, space.field)):
        acc = sum(space.semigroup_act(v, m) for m in cosets) % 5
        assert np.array_equal(acc, T[:, k])


def test_action_matrix_columns_and_hecke_coset_sum():
    # a stack acting on the identity gives one whole matrix per element,
    # column j the image of unit vector j
    space = SymbolSpace(11, 5, 2, 0)
    units = identity(space.dim, space.field)
    for l in (2, 3):
        cosets = [((1, 0), (beta, l)) for beta in range(l)] + [((l, 0), (0, 1))]
        mats = space.semigroup_act(units, cosets)
        for m, A in zip(cosets, mats):
            for j, e in enumerate(units):
                assert np.array_equal(A[:, j], space.semigroup_act(e, m))
        assert np.array_equal(space.hecke_matrix(l), mats.sum(axis=0) % 5)
    # single summands do not descend to the quotient: matrices congruent
    # mod N act differently
    assert not np.array_equal(space.semigroup_act(units, ((1, 0), (1, 2))), space.semigroup_act(units, ((1, 0), (12, 2))))


def _act_symbols(space, pairs, m):
    """Representative-level action on formal sums of unimodular symbols with
    coefficients: pairs is [(sign, U, V)], V a block of coefficient columns
    (dimV, k, r), and the image is the same shape."""
    out = []
    for sign, U, V in pairs:
        W = coeff_act(space, V, m)
        out.extend((sign * s, U2, W) for s, U2 in symbol_terms(mul2(U, m)))
    return out


def _symbols_to_classes(space, pairs):
    full = np.zeros((space.full_dim,) + pairs[0][2].shape[1:], dtype=np.int64)
    for sign, U, V in pairs:
        to_full(space, U, V, full, sign=sign)
    return classes(space, full)


def test_symbol_action_multiplicative_sample():
    # multiplicativity holds at the symbol-representative level: individual
    # semigroup elements are Hecke summands and only coset sums descend to
    # the quotient.  Every coefficient unit vector is one column of the block.
    space = SymbolSpace(11, 5, 2, 0)
    m1 = ((1, 0), (3, 2))  # det 2
    m2 = ((3, 0), (1, 1))  # det 3
    m12 = mul2(m1, m2)
    units = identity(space.dimV, space.field)
    for rep in space.reps[:4].tolist():
        z = [(1, tuple(map(tuple, rep)), units)]
        step = _symbols_to_classes(space, _act_symbols(space, _act_symbols(space, z, m1), m2))
        direct = _symbols_to_classes(space, _act_symbols(space, z, m12))
        assert np.array_equal(step, direct)


def test_central_scalar_action():
    # l * identity acts by chi1(l) * l^(a+b) on coefficients and fixes symbols
    space = SymbolSpace(11, 5, 2, 1)
    F = space.field
    l = 3
    m = ((l, 0), (0, l))
    for v in identity(space.dim, F):
        assert np.array_equal(space.semigroup_act(v, m), pow(l, 3, 5) * v)


def test_semigroup_rejects_bad_matrices():
    space = SymbolSpace(11, 5, 0, 0)
    with pytest.raises(ValueError):
        space.semigroup_act(np.zeros((space.dim, 1), dtype=np.int64), ((1, 1), (0, 2)))
    with pytest.raises(ValueError):
        space.semigroup_act(np.zeros((space.dim, 1), dtype=np.int64), ((1, 0), (0, -1)))
    # a stack is checked as a whole, before any work, and the error names its
    # first bad matrix: determinant 5 = p here, a first row (1, 1) after it
    stack = np.array([((1, 0), (0, 2)), ((2, 0), (1, 1)), ((1, 11), (0, 5)), ((1, 1), (0, 2))])
    with pytest.raises(ValueError, match=r"matrix 2 of the batch, \[\[1, 11\], \[0, 5\]\]: determinant"):
        space.semigroup_act(identity(space.dim, space.field), stack)
    with pytest.raises(ValueError, match=r"matrix 2 of the batch, .*: first row"):
        space.semigroup_act(identity(space.dim, space.field), stack[[0, 1, 3]])


def _random_semigroup_matrix(rng, N, p):
    """An integer matrix with entries of both signs up to 10^4, first row
    congruent to (*, 0) mod N and positive determinant prime to pN."""
    while True:
        m00, m10, m11 = (rng.randint(-(10**4), 10**4) for _ in range(3))
        m01 = N * rng.randint(-(10**4 // N), 10**4 // N)
        d = m00 * m11 - m01 * m10
        if d < 0:
            m10, m11, d = -m10, -m11, -d
        if d and gcd(d, p * N) == 1:
            return ((m00, m01), (m10, m11))


@settings(max_examples=40, deadline=None)
@given(
    mats=st.lists(
        st.tuples(*[st.integers(-(10**4), 10**4)] * 4).filter(lambda m: m[0] * m[3] != m[1] * m[2]), min_size=1, max_size=8
    )
)
def test_symbol_terms_on_arrays_match_the_scalar_decomposition(mats):
    # every term, with its sign and the overall sign of U, which no action
    # matrix can see: -U has the same coset, and its coefficients differ by
    # chi1(-1) (-1)^(a-b), which is 1 on every nonzero space
    M = np.array(mats, dtype=np.int64).reshape(-1, 2, 2)
    src, sign, U = _symbol_terms(M, M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0])
    for i, (a, b, c, d) in enumerate(mats):
        got = sorted((s, tuple(map(tuple, u))) for s, u in zip(sign[src == i].tolist(), U[src == i].tolist()))
        assert got == sorted(symbol_terms(((a, b), (c, d))))


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([5, 7, 13]),
    N=st.sampled_from([11, 13, 29, 53]),
    dimV=st.integers(1, 5),
    b=st.integers(0, 1),
    r=st.sampled_from([1, 2, 3]),
    quadratic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_action_matrices_match_the_scalar_oracle(p, N, dimV, b, r, quadratic, seed):
    # the quadratic character mod N is even for N = 13, 29, 53; mod 11 it is
    # odd, which keeps the spaces of odd a - b nonzero there
    assume(N != p)
    F = make_field(p, r)
    space = SymbolSpace(N, p, b + dimV - 1, b, chi1=(DirichletCharacter.quadratic if quadratic else DirichletCharacter.trivial)(F, N))
    assert space.free == scalar_free_columns(space)
    rng = random.Random(seed)
    ms = [_random_semigroup_matrix(rng, N, p) for _ in range(3)]
    ms.append(ms[0])  # a batch that repeats a matrix
    units = identity(space.dim, F)
    A = space.semigroup_act(units, np.array(ms))
    assert A.shape == (4, space.dim, space.dim, r)
    for m, Am in zip(ms, A):
        assert np.array_equal(Am, scalar_semigroup_act(space, units, m))
    # the pass on a block of classes that are not unit vectors
    V = np.array([[[rng.randrange(p) for _ in range(r)] for _ in range(2)] for _ in range(space.dim)], dtype=np.int64)
    V = V.reshape(space.dim, 2, r)
    assert np.array_equal(space.semigroup_act(V, np.array(ms)), np.stack([apply_matrix(Am, V, F) for Am in A]))


def test_action_matrices_of_a_zero_space():
    # chi1(-1) (-1)^(a-b) = -1 kills every symbol: the batch still has its shape
    F = make_field(5, 2)
    space = SymbolSpace(11, 5, 0, 0, chi1=DirichletCharacter.quadratic(F, 11))
    assert space.dim == 0
    ms = np.array([((1, 0), (0, 2)), ((1, 0), (1, 2)), ((2, 0), (0, 1))])
    assert space.semigroup_act(identity(0, F), ms).shape == (3, 0, 0, 2)
    assert space.hecke_matrix(2).shape == (0, 0, 2)


@pytest.mark.parametrize(
    "huge",
    [
        ((1, 0), (2**57 + 1, 1)),  # 2 max|rep m| max|rep| passes 2^63 (rep m reaches 10 (2^57 + 1))
        ((2**61 + 1, 0), (0, 1)),  # rep m itself could leave int64
    ],
)
def test_large_entries_are_exact_or_raise_overflow(huge):
    # the pass is in int64: entries near 2^40 are still exact, equal to the
    # oracle's Python integers, and entries whose products could leave int64
    # raise OverflowError instead of wrapping
    space = SymbolSpace(11, 5, 2, 0)
    near = 2**40 + 1  # 2^40 = 1 mod 5 and mod 11
    ms = [((near, 0), (7, 1)), ((3, 0), (5 - 2**40, 2)), ((1, 11 * 2**36), (-5, 2**40 + 3))]
    units = identity(space.dim, space.field)
    A = space.semigroup_act(units, np.array(ms))
    for m, Am in zip(ms, A):
        assert np.array_equal(Am, scalar_semigroup_act(space, units, m))
    with pytest.raises(OverflowError):
        space.semigroup_act(units, np.array([huge]))


def test_irrational_system_triggers_extension():
    # level 23 weight 2: the cuspidal eigenvalues generate a quadratic
    # extension mod 7 (disc 5 is a non-residue), so the search must extend
    space = SymbolSpace(23, 7, 0, 0)
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
    space = SymbolSpace(33, 5, 0, 0, chi1=chi)
    assert space.dim >= 0
    if space.dim:
        space.hecke_matrix(2)


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
    F25 = make_field(5, 2)
    A = _block_diag(F, [[[F.from_int(1)]], [[F.from_int(2)]], _companion(F, [F.from_int(-2), F.zero(), F.one()])])
    pieces = _eigen_split(F, _arr(F, A), identity(4, F))
    assert [(lam, E, _fq(E, vecs)) for lam, E, vecs in pieces[:2]] == [
        (F.from_int(1), F, [_units(F, 4)[0]]),
        (F.from_int(2), F, [_units(F, 4)[1]]),
    ]
    # the two square roots of 2, each over F_25 with an eigenvector in the
    # companion block
    assert [E for _, E, _ in pieces[2:]] == [F25, F25]
    assert {lam * lam for lam, _, _ in pieces[2:]} == {F25.from_int(2)} and pieces[2][0] != pieces[3][0]
    for lam, _, vecs in pieces[2:]:
        (v,) = _fq(F25, vecs)
        assert v[:2] == [F25.zero()] * 2 and v[2] == lam * v[3]


def test_eigen_split_extends_a_piece_already_over_an_extension():
    # over F_25, companion(x^2 - a) with a a non-square of F_25 needs F_625;
    # the piece's own field is F_25, and the rational root 3 stays there
    F25 = make_field(5, 2)
    a = next(x for x in F25.units() if x ** ((F25.order - 1) // 2) != F25.one())
    A = _block_diag(F25, [[[F25.from_int(3)]], _companion(F25, [-a, F25.zero(), F25.one()])])
    pieces = _eigen_split(F25, _arr(F25, A), identity(3, F25))
    F625 = make_field(5, 4)
    assert [(lam, E) for lam, E, _ in pieces[:1]] == [(F25.from_int(3), F25)]
    assert [E for _, E, _ in pieces[1:]] == [F625, F625]
    a_big = F25.embed(a, F625)
    assert all(lam * lam == a_big for lam, _, _ in pieces[1:])


def _poly(coeffs, p):
    """The coordinate array over F_p of the integer coefficients, constant term first."""
    return np.array(coeffs, dtype=np.int64)[:, None] % p


def test_distinct_degrees_keeps_a_factor_of_multiplicity_p():
    F = make_field(5)
    m = _poly([-1, 1], 5)
    for _ in range(5):
        m = _poly_mul(m, _poly([-2, 0, 1], 5), F)
    parts = list(_distinct_degrees(m, F))
    assert [d for d, _ in parts] == [1, 2]
    assert np.array_equal(parts[0][1], _poly([-1, 1], 5)) and np.array_equal(parts[1][1], _poly([-2, 0, 1], 5))


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
    kinds=st.lists(st.sampled_from(["linear", "jordan", "quadratic", "cubic", "twice", "quadratic-jordan"]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigen_split_matches_the_scan_oracle(p, r, kinds, seed):
    # A = P B P^-1 with B block diagonal: 1x1 eigenvalues (which may repeat),
    # 2x2 Jordan blocks, companion matrices C of irreducible quadratics and
    # cubics, diag(C, C) (an eigenspace of dimension 2 at each root) and
    # [[C, I], [0, C]] (a repeated factor with eigenspaces of dimension 1)
    F = make_field(p, r)
    rng = random.Random(seed)
    elements = list(F.elements())
    size = {"linear": 1, "jordan": 2, "quadratic": 2, "cubic": 3, "twice": 4, "quadratic-jordan": 4}
    blocks, degrees, k = [], set(), 0
    for kind in kinds:
        if k + size[kind] > 6:
            continue
        k += size[kind]
        lam = rng.choice(elements)
        if kind == "linear":
            blocks.append([[lam]])
        elif kind == "jordan":
            blocks.append([[lam, F.one()], [F.zero(), lam]])
        elif kind in ("quadratic", "cubic"):
            blocks.append(_companion(F, _irreducible(F, size[kind], rng)))
            degrees.add(size[kind])
        else:
            C = _companion(F, _irreducible(F, 2, rng))
            block = _block_diag(F, [C, C])
            if kind == "quadratic-jordan":
                block[0][2], block[1][3] = F.one(), F.one()
            blocks.append(block)
            degrees.add(2)
    while True:
        P = [[rng.choice(elements) for _ in range(k)] for _ in range(k)]
        R, pivots = rref([row + e for row, e in zip(P, _units(F, k))], F)
        if pivots[:k] == list(range(k)):
            break
    Pinv = [row[k:] for row in R]
    A = _matmul(F, _matmul(F, P, _block_diag(F, blocks)), Pinv)
    basis = [[rng.choice(elements) for _ in range(k + 1)] for _ in range(k)]
    pieces = _eigen_split(F, _arr(F, A), _arr(F, basis))
    # the pieces over F are the scan's; the others are over the field each
    # eigenvalue generates, one per root of the irreducible blocks
    assert [(lam, _fq(F, vecs)) for lam, E, vecs in pieces if E == F] == scan_eigen_split(F, A, basis)
    extended = [(lam, E) for lam, E, _ in pieces if E != F]
    assert sorted({E.r // r for _, E in extended}) == sorted(degrees)
    for lam, E in extended:
        assert len({lam ** (F.order**i) for i in range(E.r // r)}) == E.r // r
    # every kernel is byte for byte the one nullspace(A - lambda) gives over
    # E on the whole piece, carried to the span by basis
    for lam, E, vecs in pieces:
        M = embed_matrix(_arr(F, A), F, E)
        M[range(k), range(k)] -= lam.coords
        kernel = np.stack(nullspace(M % p, E), axis=1)
        expected = apply_matrix(embed_matrix(_arr(F, basis), F, E).swapaxes(0, 1), kernel, E).swapaxes(0, 1)
        assert np.array_equal(vecs, expected)


# (N, p, a, b): the boundary benchmark's spaces and four more
ORACLE_SPACES = [
    (11, 13, 4, 0),
    (11, 7, 4, 0),
    (53, 7, 0, 0),
    (11, 5, 4, 0),
    (43, 5, 0, 0),
    (29, 5, 0, 0),
    (67, 5, 0, 0),
    (11, 13, 0, 0),
    (101, 5, 0, 0),
    (23, 7, 0, 0),
    (67, 17, 0, 0),
]


def _minpolys(system):
    return tuple(sorted((l, prime_field_minpoly(v)) for l, v in system.lambdas.items()))


@pytest.mark.parametrize("key", ORACLE_SPACES, ids=["N%d-p%d-w%d,%d" % key for key in ORACLE_SPACES])
def test_systems_match_the_whole_space_oracle(key):
    # the same space rebuilt over the lcm field, where every eigenvalue is
    # rational, gives the old whole-space answer: the per-system minimal
    # polynomials over F_p must agree as multisets
    N, p, a, b = key
    window = [2, 3]
    systems = find_eigensystems(SymbolSpace(N, p, a, b), window)
    # each system lives over the field its eigenvalues generate: a rational
    # system stays over F_p
    for s in systems:
        assert s.field.r == lcm(*(len(prime_field_minpoly(v)) - 1 for v in s.lambdas.values()))
    big = make_field(p, lcm(*(s.field.r for s in systems)))
    oracle = find_eigensystems(SymbolSpace(N, p, a, b, chi1=DirichletCharacter.trivial(big, N)), window)
    assert {s.field for s in oracle} == {big}
    assert sorted(map(_minpolys, systems)) == sorted(map(_minpolys, oracle))


def test_level101_eigensystems_need_a_sextic_extension():
    # T_2 has an irreducible factor of degree 6 over F_5 on this space; its
    # six systems move to F_{5^6} and the two rational ones stay over F_5
    systems = find_eigensystems(SymbolSpace(101, 5, 0, 0), [2, 3])
    assert len(systems) == 8
    assert [s.field for s in systems] == [make_field(5)] * 2 + [make_field(5, 6)] * 6
    lams = {(s.lambdas[2], s.lambdas[3]) for s in systems[2:]}
    assert {(x.frobenius(), y.frobenius()) for x, y in lams} == lams


@pytest.mark.parametrize("N", [1, 2, 4, 11, 12, 29, 43, 53, 67, 143, 211])
def test_p1_label_table_matches_the_unit_scan(N):
    label = p1_points(N)
    pairs = [(x, y) for x in range(N) for y in range(N) if gcd(gcd(x, y), N) == 1]
    assert sorted(label) == pairs
    # the scan costs a unit loop per pair, so the largest levels are sampled
    sample = pairs if N < 100 else random.Random(N).sample(pairs, 400)
    assert all(label[v] == p1_canonical_scan(v, N) for v in sample)
    # |P^1(Z/N)| = N prod (1 + 1/q) over the primes q dividing N
    size = N
    for q in {q for q in range(2, N + 1) if N % q == 0 and all(q % r for r in range(2, q))}:
        size = size // q * (q + 1)
    assert len(set(label.values())) == size


class _MatrixSpace:
    """Just what find_eigensystems reads of a space: its field, dimension and
    Hecke matrices, here given outright as rows of Fq."""

    N, p, weight = 1, 5, (0, 0)

    def __init__(self, field, hecke):
        self.field, self.dim = field, len(hecke[2])
        self._hecke = {l: _arr(field, T) for l, T in hecke.items()}

    def hecke_matrix(self, l):
        return self._hecke[l]


def _matpow(field, A, e):
    out = _units(field, len(A))
    while e:
        if e & 1:
            out = _matmul(field, out, A)
        A = _matmul(field, A, A)
        e >>= 1
    return out


def test_a_piece_extended_twice_meets_the_directly_embedded_operators():
    # over F_25, C = companion(h) with h irreducible of degree 6 acts like a
    # generator t of F_{5^12}, and T_2 = N(C), N the norm down to F_{5^4},
    # acts like an element of F_{5^4} outside F_25.  The pieces go F_25 ->
    # F_{5^4} -> F_{5^12}, a tower that disagrees with embedding F_25 in
    # F_{5^12} directly, and every system must still check out against the
    # directly embedded T_2 and T_3
    F25 = make_field(5, 2)
    rng = random.Random(12)
    elements = list(F25.elements())
    while True:
        h = [rng.choice(elements) for _ in range(6)] + [F25.one()]
        if [d for d, _ in _distinct_degrees(F25.to_array(h), F25)] != [6]:
            continue
        C = _companion(F25, h)
        C1 = _matpow(F25, C, 625)
        T2 = _matmul(F25, _matmul(F25, C, C1), _matpow(F25, C1, 625))
        if [d for d, _ in _distinct_degrees(_minimal_polynomial(_arr(F25, T2), F25), F25)] == [2]:
            break
    systems = find_eigensystems(_MatrixSpace(F25, {2: T2, 3: C}), [2, 3])
    F12 = make_field(5, 12)
    assert [s.field for s in systems] == [F12] * 6
    h12 = [F25.embed(c, F12) for c in h]
    assert all(sum((c * s.lambdas[3] ** i for i, c in enumerate(h12)), F12.zero()).is_zero() for s in systems)
    assert len({s.lambdas[3] for s in systems}) == 6 and len({s.lambdas[2] for s in systems}) == 2


def _ints(field, M):
    return [[field.from_int(x) for x in row] for row in M]


def test_a_line_that_the_next_operator_moves_raises():
    # T_2 = diag(1, 2) cuts F_5^2 into the lines e0 and e1; T_3 fixes e0 and
    # sends e1 to e0 + e1, so the final pass finds no T_3-eigenvalue on e1
    F = make_field(5)
    space = _MatrixSpace(F, {2: _ints(F, [[1, 0], [0, 2]]), 3: _ints(F, [[1, 1], [0, 1]])})
    with pytest.raises(RuntimeError, match="subspace is not invariant"):
        find_eigensystems(space, [2, 3])


def test_an_eigenspace_that_the_next_operator_moves_raises():
    # the T_2-eigenspace span(e0, e1) of diag(1, 1, 2) is not T_3-invariant:
    # T_3 sends e0 to e0 + e2, and restricting T_3 to the piece raises
    F = make_field(5)
    T3 = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
    space = _MatrixSpace(F, {2: _ints(F, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]), 3: _ints(F, T3)})
    with pytest.raises(RuntimeError, match="subspace is not invariant"):
        find_eigensystems(space, [2, 3])


def test_a_wrong_eigenvalue_fails_the_final_check(monkeypatch):
    # the split's eigenvalues moved by one: the later primes see only lines,
    # so only the final T_l v = lambda_l v check can catch it
    F = make_field(5)
    space = _MatrixSpace(F, {2: _ints(F, [[1, 0], [0, 2]]), 3: _ints(F, [[3, 0], [0, 4]])})
    assert [[int(x.coords[0]) for x in (s.lambdas[2], s.lambdas[3])] for s in find_eigensystems(space, [2, 3])] == [[1, 3], [2, 4]]
    split = modsym2._eigen_split
    monkeypatch.setattr(modsym2, "_eigen_split", lambda *args: [(lam + E.one(), E, vecs) for lam, E, vecs in split(*args)])
    with pytest.raises(RuntimeError, match="eigensystem verification failed"):
        find_eigensystems(space, [2, 3])


@pytest.mark.parametrize("key", [(101, 5, 0, 0, 1), (11, 7, 4, 0, 3)], ids=["N101-p5-F5", "N11-p7-F343"])
def test_no_operator_or_identity_basis_is_embedded(monkeypatch, key):
    # the search moves classes over an extension by their F_p columns: no
    # input to embed_matrix is a Hecke matrix of the search, shares its
    # memory, or has the (dim, dim) shape of an operator or of the first
    # piece's basis
    N, p, a, b, r = key
    F = make_field(p, r)
    space = SymbolSpace(N, p, a, b, chi1=DirichletCharacter.trivial(F, N))
    embed, hecke_matrix, seen, operators = linalg.embed_matrix, SymbolSpace.hecke_matrix, [], []

    def spy(A, field, big):
        seen.append(np.shape(A))
        assert not any(np.shares_memory(A, T) for T in operators)
        assert np.shape(A)[:2] != (space.dim, space.dim)
        return embed(A, field, big)

    def kept(self, l):
        operators.append(hecke_matrix(self, l))
        return operators[-1]

    for module in (linalg, modsym2):
        monkeypatch.setattr(module, "embed_matrix", spy)
    monkeypatch.setattr(SymbolSpace, "hecke_matrix", kept)
    systems = find_eigensystems(space, [2, 3])
    assert {s.field.r for s in systems} == ({1, 6} if r == 1 else {3})
    assert seen or r == 3


@pytest.mark.parametrize("key,window", [((101, 5, 0, 0, 1), (2, 3, 7)), ((11, 7, 4, 0, 3), (2, 3))], ids=["N101-p5-F5", "N11-p7-F343"])
def test_each_system_meets_each_operator_once_and_nothing_is_solved(monkeypatch, key, window):
    # every basis the search keeps is in trailing-pivot normal form, so
    # _restrict reads its matrix off the images with no row reduction, and
    # each system meets each T_l in one eigenvalue call
    N, p, a, b, r = key
    F = make_field(p, r)
    space = SymbolSpace(N, p, a, b, chi1=DirichletCharacter.trivial(F, N))
    eigenvalue, rref, restrict = linalg.eigenvalue, linalg.rref, modsym2._restrict
    calls, restricting = [], []

    def count(img, v, field):
        calls.append(v)
        return eigenvalue(img, v, field)

    def no_rref_in_restrict(A, field):
        assert not restricting
        return rref(A, field)

    def flagged(*args):
        restricting.append(True)
        try:
            return restrict(*args)
        finally:
            restricting.pop()

    for module in (linalg, modsym2):
        monkeypatch.setattr(module, "eigenvalue", count)
    monkeypatch.setattr(linalg, "rref", no_rref_in_restrict)
    monkeypatch.setattr(modsym2, "_restrict", flagged)
    systems = find_eigensystems(space, window)
    assert systems and len(calls) == len(systems) * len(window)
    for s in systems:
        assert list(linalg.trailing_pivots(s.vector[None])) == [np.flatnonzero(s.vector.any(axis=1))[-1]]


@pytest.mark.parametrize("key", [(53, 7, 0, 0, 1), (11, 7, 4, 0, 3)], ids=["N53-p7-F7", "N11-p7-F343"])
def test_a_built_space_keeps_no_relation_basis(key):
    # the relation reducer lives only while the quotient is built: no array
    # reachable from the space has as many rows as the relation rank and
    # the full_dim columns of a full vector, in Fq or in F_p coordinates
    N, p, a, b, r = key
    space = SymbolSpace(N, p, a, b, chi1=DirichletCharacter.trivial(make_field(p, r), N))
    rank = space.full_dim - space.dim
    arrays = _reachable_arrays(space)
    assert any(x is space._pivot_rows for x in arrays)
    assert [x.shape for x in arrays if x.ndim >= 2 and x.shape[0] >= rank and x.shape[1] in (space.full_dim, space.full_dim * r)] == []


def _state(space):
    """The attributes of the space: the bytes of every array, and a copy of
    every container, so that one grown in place is seen."""
    return {
        key: (x.dtype, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else copy.deepcopy(x) if isinstance(x, (list, dict, tuple)) else x
        for key, x in vars(space).items()
    }


def test_a_space_holds_the_same_state_after_its_operators_run():
    # a space is its presentation: T_l and a boundary action (the psi2
    # blocks of T(7, 1) and T(7, 2) at d = 3) read it and add nothing to it
    space = SymbolSpace(11, 5, 0, 0)
    state = _state(space)
    space.hecke_matrix(2)
    space.semigroup_act(identity(space.dim, space.field), hecke_orbit_action(7, (1, 2), 33, 3).psi2)
    assert _state(space) == state


def test_coset_reps_complete_their_labels_as_the_coprime_lift_did():
    for N in list(range(1, 101)) + [133, 143, 210, 221]:
        labels = sorted(set(p1_points(N).values()))
        for c, d in labels:
            assert (c, d) == (0, 1) or (c > 0 and N % c == 0), (N, c, d)
            assert gcd(c, d) == 1, (N, c, d)
        reps = np.array([_coset_rep(lab) for lab in labels], dtype=np.int64)
        assert (reps[:, 0, 0] * reps[:, 1, 1] - reps[:, 0, 1] * reps[:, 1, 0] == 1).all(), N
        assert (reps[:, :, 1] % N == np.array(labels) % N).all(), N
        assert reps.tobytes() == np.array([lifted_coset_rep(lab, N) for lab in labels], dtype=np.int64).tobytes(), N


def test_the_search_builds_each_window_operator_once(monkeypatch):
    # the search holds its own T_l: one hecke_matrix call per distinct
    # window prime, however many pieces and systems meet it
    space = SymbolSpace(53, 7, 0, 0)
    hecke_matrix, calls = SymbolSpace.hecke_matrix, []

    def spy(self, l):
        calls.append(l)
        return hecke_matrix(self, l)

    monkeypatch.setattr(SymbolSpace, "hecke_matrix", spy)
    systems = find_eigensystems(space, [5, 2, 3, 2])
    assert len(systems) > 1
    assert calls == [2, 3, 5]


def test_hecke_matrix_returns_a_new_array_each_call():
    space = SymbolSpace(53, 7, 0, 0)
    first, second = space.hecke_matrix(3), space.hecke_matrix(3)
    assert first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, second)


def test_the_scalar_field_is_the_field_of_chi1():
    with pytest.raises(ValueError, match="characteristic 7, not p = 5"):
        SymbolSpace(11, 5, 0, 0, chi1=DirichletCharacter.trivial(make_field(7), 11))
    F343 = make_field(7, 3)
    space = SymbolSpace(11, 7, 4, 0, chi1=DirichletCharacter.trivial(F343, 11))
    assert space.field == F343 and space.chi1.field == F343
    assert space.hecke_matrix(2).shape == (space.dim, space.dim, 3)
    assert SymbolSpace(11, 7, 4, 0).field == make_field(7)
