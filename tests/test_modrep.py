import gc
import random
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3hecke import modrep
from gl3hecke.arith import adj3, det, primitive_root
from gl3hecke.characters import DirichletCharacter
from gl3hecke.ffield import make_field
from gl3hecke.linalg import matmul_mod, np_rref
from gl3hecke.modrep import (
    CertificateError,
    build_gl2_module,
    build_gl3_module,
    gl_generators,
    sub_matrix,
    u_invariants,
)

import _oracles
from _oracles import (
    SequentialSpinBasis,
    TwistedAction,
    coord_solver,
    composition_factor_dims,
    dict_sub_matrix,
    direct_u_invariants,
    g_elem,
    g_elem_inv,
    gfp_highest_weight_span,
    kron_carrier,
    kron_carrier_act,
    kron_twist_gl3,
    levi_act,
    mat3,
    mat_mul3,
    random_invertible,
    recording_radical_quotient,
    spin_certificate,
    spin_radical_quotient,
    twisted_act,
)
from test_pinned_outputs import MODULE_KEYS

F5 = make_field(5)


def test_gl2_trivial_and_standard():
    triv = build_gl2_module(5, 0, 0)
    assert triv.dim == 1
    std = build_gl2_module(5, 1, 0)
    assert std.dim == 2
    g = np.array([[1, 2], [3, 4]])
    # standard module: substitution on linear forms is the transpose-coordinate
    # matrix, so rho(g) columns express the images of the basis
    rho = std.rho(g)
    assert rho.shape == (2, 2)


def test_gl2_weight_7_4_1_torus_weights():
    # Sym^3 (x) det: basis y1^3, y1^2 y2, y1 y2^2, y2^3 has torus weights
    # t^4 u, t^3 u^2, t^2 u^3, t u^4
    mod = build_gl2_module(7, 4, 1)
    assert mod.dim == 4
    t, u = 3, 2
    rho = mod.rho(np.diag([t, u]))
    want = [pow(t, 3 - i, 7) * pow(u, i, 7) * pow(t * u, 1, 7) % 7 for i in range(4)]
    assert np.array_equal(rho, np.diag(want) % 7)


def test_gl2_rho_is_homomorphism():
    mod = build_gl2_module(7, 4, 1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = rng.integers(0, 7, (2, 2))
        h = rng.integers(0, 7, (2, 2))
        if (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % 7 == 0:
            continue
        if (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]) % 7 == 0:
            continue
        assert np.array_equal(mod.rho(g @ h % 7), mod.rho(g) @ mod.rho(h) % 7)


def test_gl2_right_action_is_right():
    mod = build_gl2_module(5, 3, 1)
    rng = np.random.default_rng(1)
    v = rng.integers(0, 5, mod.dim)
    m1 = np.array([[1, 0], [2, 5]])
    m2 = np.array([[3, 0], [1, 2]])
    lhs = mod.act_right(mod.act_right(v, m1), m2)
    rhs = mod.act_right(v, m1 @ m2)
    assert np.array_equal(lhs % 5, rhs % 5)


def test_gl3_trivial_std_wedge_dims():
    assert build_gl3_module(5, 0, 0, 0).dim == 1
    assert build_gl3_module(5, 1, 0, 0).dim == 3
    assert build_gl3_module(5, 1, 1, 0).dim == 3


def test_gl3_adjoint_label_dim8_with_meataxe_oracle():
    mod = build_gl3_module(7, 2, 1, 0)
    # independent oracle: decompose the 9-dimensional carrier
    p = 7
    dims = composition_factor_dims([kron_carrier(p, 1, 1, g) for g in gl_generators(3, p)], p, seed=3)
    assert mod.dim in dims
    assert sum(dims) == 9
    assert dims == [1, 8]
    assert mod.dim == 8


def test_gl3_rho_homomorphism_sample():
    mod = build_gl3_module(5, 3, 1, 0)
    rng = np.random.default_rng(7)
    count = 0
    while count < 6:
        g = rng.integers(0, 5, (3, 3))
        h = rng.integers(0, 5, (3, 3))
        if det(g) % 5 == 0 or det(h) % 5 == 0:
            continue
        count += 1
        assert np.array_equal(mod.rho(g @ h % 5), mod.rho(g) @ mod.rho(h) % 5)


def test_u_invariants_standard():
    mod = build_gl3_module(5, 1, 0, 0)
    levi = u_invariants(mod)
    assert levi.dim == 2
    assert levi.gl1_exponent == 0


def test_u_invariants_trivial():
    mod = build_gl3_module(5, 0, 0, 0)
    levi = u_invariants(mod)
    assert levi.dim == 1
    assert levi.gl1_exponent == 0


def test_u_invariants_221_label():
    mod = build_gl3_module(5, 2, 1, 0)
    levi = u_invariants(mod)
    assert levi.dim == 2  # dim F(2,1)
    assert levi.gl1_exponent == 0
    assert levi.gl2_module.label == (2, 1)


def test_u_invariants_nonzero_c():
    mod = build_gl3_module(7, 4, 2, 1)
    levi = u_invariants(mod)
    assert levi.dim == 3
    assert levi.gl1_exponent == 1


def test_conjugated_module_same_dim_and_weight():
    # the off-parabolic twist leaves dimension and highest weight unchanged:
    # the conjugated module still has one U+-fixed line, of the labelled weight
    mod = build_gl3_module(5, 2, 1, 0)
    p = 5
    gx = np.eye(3, dtype=np.int64)
    gx[0, 1] = 3
    gxi = np.eye(3, dtype=np.int64)
    gxi[0, 1] = -3

    conj = modrep.IrreducibleModule(
        p=mod.p, n=3, label=mod.label, basis=mod.basis, image=lambda g, rows: mod.image(gx @ np.asarray(g) @ gxi % p, rows)
    )
    spin_certificate(conj)  # raises if the weight moved


def _carrier_action(p, i, j):
    """The carrier action on its own factor table, as a build makes it."""
    return modrep._carrier_action(p, i, j, modrep._factor_table(p, (i, j)))


def _highest_weight_submodule(p, i, j):
    """W, the span of the carrier highest-weight vector y1^i z3^j under the
    group, without quotienting out the radical of the contravariant form;
    rho is read through coord_solver."""
    W = gfp_highest_weight_span(p, i, j)
    act = _carrier_action(p, i, j)
    coords = coord_solver(W, p)
    return modrep.IrreducibleModule(
        p=p, n=3, label=(i + j, j, 0), basis=W, image=modrep._carrier_image(act, W, coords, p)
    )


@pytest.mark.parametrize("p,i,j,w_dim,irr_dim", [(7, 3, 3, 64, 37), (5, 1, 3, 24, 18)])
def test_certificate_rejects_the_unquotiented_highest_weight_submodule(p, i, j, w_dim, irr_dim):
    # W is generated by its highest-weight vector, so a spin from that vector
    # alone cannot tell it from the irreducible quotient; its U+-fixed space can
    W = _highest_weight_submodule(p, i, j)
    assert W.dim == w_dim
    assert build_gl3_module(p, i + j, j, 0).dim == irr_dim
    with pytest.raises(CertificateError, match="dimension 2, not 1"):
        spin_certificate(W)


def _dual(mod):
    """The contragredient g -> rho(g^-1)^T of a module, labelled by the
    highest weight (-c, -b, -a) of the dual of F(a,b,c)."""
    p = mod.p
    a, b, c = mod.label

    def image(g, rows):
        g = np.asarray(g) % p
        G = mod.rho(np.array(adj3(g)) * pow(int(det(g)), p - 2, p) % p)
        return G if rows is None else matmul_mod(rows, G, p)

    return modrep.IrreducibleModule(p=p, n=mod.n, label=(-c, -b, -a), basis=mod.basis, image=image)


@pytest.mark.parametrize("p,i,j", [(7, 3, 3), (5, 1, 3)])
def test_certificate_rejects_the_dual_of_the_highest_weight_submodule(p, i, j):
    # the dual of W has one U+-fixed line, of the right weight, but that line
    # spans only the socle, the dual of the irreducible quotient of W
    with pytest.raises(CertificateError, match="spans a proper submodule"):
        spin_certificate(_dual(_highest_weight_submodule(p, i, j)))
    spin_certificate(_dual(build_gl3_module(p, i + j, j, 0)))  # the irreducible's dual passes


def test_certificate_rejects_a_wrong_label():
    # F(3, 1) labelled (4, 2): the same Sym^2 carrier and form, and the
    # weights of (4, 2), but the torus scales v+ by the weight (3, 1)
    mod = build_gl2_module(5, 3, 1)
    relabelled = modrep.IrreducibleModule(
        p=5, n=2, label=(4, 2), basis=mod.basis, image=mod.image, weights=mod.weights + 1
    )
    with pytest.raises(CertificateError, match="wrong torus weight"):
        modrep._certify_module(relabelled, [modrep._form_weights(2, 2, 5)], mod.basis[0], modrep._factor_table(5, (2,)))
    with pytest.raises(CertificateError, match="wrong torus weight"):
        spin_certificate(relabelled)


def _patch_table_entry(monkeypatch, g, factor, edit):
    """Have modrep._factor_table make tables in which factor number factor
    of the entry of g is a copy that edit(S, p) has changed in place."""
    table_of = modrep._factor_table

    def patched(p, degrees):
        table = table_of(p, degrees)
        key = (np.asarray(g, dtype=np.int64) % p).tobytes()
        if key in table:
            entry = list(table[key])
            entry[factor] = entry[factor].copy()
            edit(entry[factor], p)
            table[key] = tuple(entry)
        return table

    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    monkeypatch.setattr(modrep, "_factor_table", patched)


def test_gl2_certificate_rejects_a_carrier_that_v_plus_does_not_generate(monkeypatch):
    # rho(E_10) loses the x y^2 component of E_10(1) x^3 = (x + y)^3, so the
    # carrier would not be Dist(U-) v+

    def lowered(S, p):
        S[2, 0] = 0

    _patch_table_entry(monkeypatch, gl_generators(2, 5)[1], 0, lowered)
    with pytest.raises(CertificateError, match="does not generate the carrier"):
        build_gl2_module(5, 3, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_every_restricted_gl2_label_builds(p):
    for b in range(p - 1):
        for a in range(b, b + p):
            assert build_gl2_module(p, a, b).dim == a - b + 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gl2_module_rho_is_the_stacked_gl2_rho(p):
    # the module reads its table, or computes the factors of a g outside
    # it; modsym2 stacks gl2_rho: both give the same bytes
    gs = np.vstack([np.stack(gl_generators(2, p)), np.random.default_rng(p).integers(-p, 2 * p, (6, 2, 2))])
    for b in range(p - 1):
        for a in range(b, b + p):
            mod = build_gl2_module(p, a, b)
            _assert_byte_identical([mod.rho(g) for g in gs], list(modrep.gl2_rho(gs, a, b, p)))


def _weyl_dim(i, j):
    return (i + 1) * (j + 1) * (i + j + 2) // 2


@pytest.mark.parametrize("i,j", [(3, 0), (0, 3)])
def test_certificate_rejects_a_form_corrupted_at_one_carrier_column(i, j, monkeypatch):
    # the other factor has degree 0, so place 1 of the degree-3 factor form
    # is carrier column 1 of the form the radical is cut with
    forms = modrep._form_weights

    def corrupted(nvars, deg, p):
        w = forms(nvars, deg, p)
        if deg == 3:
            w[1] = (w[1] + 1) % p
        return w

    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    monkeypatch.setattr(modrep, "_form_weights", corrupted)
    with pytest.raises(CertificateError, match="not contravariant"):
        build_gl3_module(7, i + j, j, 0)


def _add_one_at(row, col):
    def edit(S, p):
        S[row, col] = (S[row, col] + 1) % p

    return edit


def test_certificate_rejects_a_corrupted_factor_of_one_generator(monkeypatch):
    # Sym^2(adj g) of the torus generator g = diag(1, g0, 1) gains an entry
    # off its diagonal, at row 0 and column 1, which the highest-weight
    # checks of v+ = y1^2 z3^2 do not read: they read its last column
    p = 7
    _patch_table_entry(monkeypatch, np.diag([1, primitive_root(p), 1]), 1, _add_one_at(0, 1))
    with pytest.raises(CertificateError, match="not contravariant"):
        build_gl3_module(p, 4, 2, 0)


def test_certificate_reads_the_factor_of_the_transpose_from_the_table(monkeypatch):
    # Sym^2(E_01), the first factor of the entry of E_10, gains an entry
    # above its diagonal.  E_10 is the transpose of E_01, the first
    # generator checked, so the check fails first at E_01, where that entry
    # is read as the factor of g^T
    p = 7
    _patch_table_entry(monkeypatch, gl_generators(3, p)[1], 0, _add_one_at(0, 5))
    with pytest.raises(CertificateError, match=r"not contravariant under \[\[1, 1, 0\], \[0, 1, 0\]"):
        build_gl3_module(p, 4, 2, 0)


@pytest.mark.parametrize("p,i,j,row", [(7, 2, 1, 7), (5, 1, 3, 6)])
def test_certificate_rejects_w_with_one_row_dropped(p, i, j, row, monkeypatch):
    # W is then not a submodule, and here the row carries part of the
    # quotient, so L falls one row short of dim L(lambda); (7, 2, 1) has no
    # radical, so there every row does
    span = modrep._highest_weight_span
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    monkeypatch.setattr(modrep, "_highest_weight_span", lambda *args: np.delete(span(*args), row, axis=0))
    with pytest.raises(CertificateError, match="dimension"):
        build_gl3_module(p, i + j, j, 0)


def test_certificate_rejects_a_basis_that_meets_the_radical(monkeypatch):
    # the first 18 rows of W at (5, 1, 3) in place of the 18 rows L that
    # avoid the radical: the dimension of L(4, 3, 0), but five vectors of
    # their span lie in the radical
    quotient = modrep._radical_quotient

    def first_rows(W, *args):
        L, coords = quotient(W, *args)
        return W[: len(L)], coords

    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    monkeypatch.setattr(modrep, "_radical_quotient", first_rows)
    with pytest.raises(CertificateError, match="degenerate"):
        build_gl3_module(5, 4, 3, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_gl3_key_builds(p, monkeypatch):
    # restricted weights above the lowest alcove (i + j + 2 > p) lose the
    # Weyl module of the reflected weight (p - 2 - j, p - 2 - i); the Weyl
    # dimension vanishes when a coordinate of that weight is -1
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    for i in range(p):
        for j in range(p):
            want = _weyl_dim(i, j) - (_weyl_dim(p - 2 - j, p - 2 - i) if i + j + 2 > p else 0)
            assert build_gl3_module(p, i + j, j, 0).dim == want


def test_twisted_act_identity_and_torus():
    mod = build_gl2_module(5, 3, 0)
    chi = DirichletCharacter.trivial(F5, 1)
    T = TwistedAction(base=mod, x=0, chi=chi)
    e = [1, 0, 0, 0]
    out = twisted_act(T, e, np.eye(2, dtype=np.int64))
    assert out.tolist() == [[x] for x in e]
    # diag(l, 1) on the highest-weight vector scales by l^a
    l = 2
    out = twisted_act(T, e, np.diag([l, 1]))
    assert out.tolist() == [[pow(l, 3, 5)], [0], [0], [0]]


def test_twisted_act_character_scalar():
    mod = build_gl2_module(5, 1, 0)
    chi = DirichletCharacter.quadratic(F5, 3)
    T = TwistedAction(base=mod, x=0, chi=chi)
    e = [1, 1]
    s = np.array([[2, 3], [1, 1]])  # s_11 = 2 = -1 under chi; det = -1
    plain = TwistedAction(base=mod, x=0, chi=DirichletCharacter.trivial(F5, 3))
    out = twisted_act(T, e, s)
    ref = twisted_act(plain, e, s)
    assert np.array_equal(out, -ref % 5)


def test_twisted_act_rejects_bad_first_row():
    mod = build_gl2_module(5, 1, 0)
    chi = DirichletCharacter.quadratic(F5, 3)
    T = TwistedAction(base=mod, x=0, chi=chi)
    with pytest.raises(ValueError):
        twisted_act(T, [1, 0], np.array([[1, 1], [0, 2]]))


def test_levi_act_identity_and_block():
    mod = build_gl3_module(5, 2, 1, 0)
    levi = u_invariants(mod)
    chi0 = DirichletCharacter.trivial(F5, 1)
    chi1 = DirichletCharacter.trivial(F5, 11)
    e = [1, 0]
    out = levi_act(levi, 1, chi0, chi1, np.eye(3, dtype=np.int64), e)
    assert out.tolist() == [[x] for x in e]
    # block diag(1, diag(l,1)) conjugated into P_d acts as diag(l,1) on F(a,b)
    l, d = 2, 1
    s = mat_mul3(mat_mul3(g_elem_inv(d), mat3([[1, 0, 0], [0, l, 0], [0, 0, 1]])), g_elem(d))
    out = levi_act(levi, d, chi0, chi1, s, e)
    direct = levi.gl2_module.act_right(np.array(e), np.diag([l, 1]))
    assert out.tolist() == [[int(x)] for x in direct]


def test_levi_act_character_and_power_scalar():
    mod = build_gl3_module(5, 2, 1, 1)
    levi = u_invariants(mod)
    assert levi.gl1_exponent == 1
    chi0 = DirichletCharacter.quadratic(F5, 3)
    chi1 = DirichletCharacter.trivial(F5, 11)
    d, N = 3, 33
    # an element of P_d with psi1 = 2: use g_d^{-1} diag(2, h) g_d
    s = mat_mul3(mat_mul3(g_elem_inv(d), mat3([[2, 0, 0], [0, 1, 0], [0, 0, 1]])), g_elem(d))
    e = [1, 0]
    out = levi_act(levi, d, chi0, chi1, s, e)
    # psi1 = 2: chi0(2) = -1, power scalar 2^1; block action trivial
    assert out.tolist() == [[-2 % 5], [0]]


@pytest.mark.parametrize("p,label", [(5, (3, 2, 1)), (5, (4, 2, 0)), (7, (3, 1, 0))])
def test_uinv_dims_match_gl2(p, label):
    mod = build_gl3_module(p, *label)
    levi = u_invariants(mod)
    a, b, c = label
    assert levi.dim == a - b + 1
    assert levi.gl1_exponent == c % (p - 1)


def test_meataxe_on_reducible_direct_sum():
    # block direct sum of the standard and trivial rank-2 modules
    std = build_gl2_module(5, 1, 0)
    gens = []
    for g in gl_generators(2, 5):
        m = np.zeros((3, 3), dtype=np.int64)
        m[:2, :2] = std.rho(g)
        m[2, 2] = 1
        gens.append(m)
    assert composition_factor_dims(gens, 5, seed=1) == [1, 2]


# (p, a, b, c): both restricted ends, a nontrivial radical, determinant twists
ORACLE_LABELS = [
    (5, 0, 0, 0), (5, 1, 0, 0), (5, 1, 1, 0), (5, 3, 1, 0), (5, 4, 3, 2), (5, 4, 0, 0),
    (5, 4, 4, 0), (5, 6, 4, 0), (5, 7, 4, 1), (7, 2, 1, 0), (7, 6, 0, 0), (7, 7, 1, 1),
    (7, 5, 3, 0), (7, 8, 7, 1), (11, 5, 3, 0),
]


def _module_arrays(label):
    p = label[0]
    mod = build_gl3_module(*label)
    levi = u_invariants(mod)
    return [mod.basis] + [mod.rho(g) for g in gl_generators(3, p)] + [levi.basis, levi.iso]


@pytest.mark.parametrize("label", ORACLE_LABELS, ids=lambda lab: "%d-%d-%d-%d" % lab)
def test_module_matches_sequential_spin_oracle(label, monkeypatch):
    # the spins of the oracles, of W from v+ and of the built module from its
    # U+-fixed line, give the same bytes and the same verdict with the
    # row-at-a-time basis as with the batched one
    p, a, b, c = label
    mod = build_gl3_module(*label)
    spans = []
    for basis in (_oracles.SpinBasis, SequentialSpinBasis):
        monkeypatch.setattr(_oracles, "SpinBasis", basis)
        spans.append(gfp_highest_weight_span(p, a - b, b - c))
        spin_certificate(mod)
    _assert_byte_identical(spans[:1], spans[1:])


def _assert_byte_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


@st.composite
def _substitution_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.sampled_from([2, 3]))
    deg = draw(st.integers(0, p - 1))
    entries = st.integers(-3 * p, 3 * p)
    A, B = (np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n) for _ in "AB")
    return p, deg, A, B


@settings(max_examples=100, deadline=None)
@given(_substitution_case())
def test_sub_matrix_matches_dict_oracle_and_is_an_antihomomorphism(case):
    p, deg, A, B = case
    got = sub_matrix(A, deg, p)
    _assert_byte_identical([got], [dict_sub_matrix(A, deg, p)])
    # f -> f(A y) then f -> f(B y) is f -> f(A B y)
    assert np.array_equal(sub_matrix(A @ B, deg, p), sub_matrix(B, deg, p) @ got % p)


@st.composite
def _substitution_stack(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.sampled_from([2, 3]))
    deg = draw(st.integers(0, p - 1))
    k = draw(st.integers(1, 8))
    entries = st.integers(-3 * p, 3 * p)
    return p, deg, np.array(draw(st.lists(entries, min_size=k * n * n, max_size=k * n * n))).reshape(k, n, n)


@settings(max_examples=60, deadline=None)
@given(_substitution_stack())
def test_stacked_sub_matrix_matches_the_dict_oracle_matrix_by_matrix(case):
    p, deg, M = case
    _assert_byte_identical(list(sub_matrix(M, deg, p)), [dict_sub_matrix(m, deg, p) for m in M])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_factor_table_entry_is_the_factors_of_its_key(p):
    # the table holds each generator and its transpose, as the certificate
    # reads them, and each entry has the bytes _sym_factors computes
    for degrees in [(k,) for k in range(p)] + [(i, j) for i in range(p) for j in range(p)]:
        n = len(degrees) + 1
        table = modrep._factor_table(p, degrees)
        assert {h.tobytes() for g in gl_generators(n, p) for h in (g, g.T)} <= set(table)
        for key, entry in table.items():
            g = np.frombuffer(key, dtype=np.int64).reshape(n, n)
            _assert_byte_identical(list(entry), list(modrep._sym_factors(g, degrees, p)))


def test_a_build_makes_one_sub_matrix_call_per_factor_degree(monkeypatch):
    calls = []
    sub, certify = modrep.sub_matrix, modrep._certify_module

    def spy(M, deg, p):
        calls.append((np.shape(M), deg))
        return sub(M, deg, p)

    def certify_without_calls(*args):
        before = len(calls)
        certify(*args)
        assert len(calls) == before

    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    monkeypatch.setattr(modrep, "sub_matrix", spy)
    monkeypatch.setattr(modrep, "_certify_module", certify_without_calls)
    # the rank-3 table stacks the six generators, diag(1, 1, g0) and E_20(1)
    mod = build_gl3_module(7, 6, 2, 0)
    assert calls == [((8, 3, 3), 4), ((8, 3, 3), 2)]
    # u_invariants reads only the table, and its rank-2 build F(6, 2)
    # stacks the three generators and diag(1, g0)
    u_invariants(mod)
    assert calls[2:] == [((4, 2, 2), 4)]
    calls.clear()
    gl2 = build_gl2_module(7, 4, 1)
    assert calls == [((4, 2, 2), 3)]
    # a g outside the table has its factors computed once, one call each
    for module, g, want in [(mod, [[1, 2, 0], [0, 1, 3], [4, 0, 1]], 2), (gl2, [[2, 1], [3, 5]], 1)]:
        calls.clear()
        first = module.rho(np.array(g))
        assert len(calls) == want
        assert np.array_equal(module.rho(np.array(g)), first)
        assert len(calls) == want


def test_sub_matrix_raises_past_the_int64_bound():
    with pytest.raises(OverflowError):
        sub_matrix(np.eye(3, dtype=np.int64), 1, 2**31 + 11)


# (p, a, b, c) of the module keys (p, a-b, b-c) = (5,1,3), (7,3,3), (11,5,6), (13,6,0)
SUBSTITUTION_LABELS = [(5, 4, 3, 0), (7, 6, 3, 0), (11, 11, 6, 0), (13, 6, 0, 0)]


@pytest.mark.parametrize("label", SUBSTITUTION_LABELS, ids=lambda lab: "%d-%d-%d-%d" % lab)
def test_module_matches_dict_substitution_oracle(label, monkeypatch):
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    got = _module_arrays(label)
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    monkeypatch.setattr(modrep, "sub_matrix", dict_sub_matrix)
    _assert_byte_identical(got, _module_arrays(label))


# determinant twists: c not divisible by p - 1, and c a nonzero multiple of p - 1
TWIST_LABELS = [(5, 5, 4, 1), (7, 9, 5, 3), (11, 16, 10, 5), (5, 4, 4, 4), (7, 9, 7, 6), (13, 18, 12, 12)]


@pytest.mark.parametrize(
    "label", ORACLE_LABELS + SUBSTITUTION_LABELS + TWIST_LABELS, ids=lambda lab: "%d-%d-%d-%d" % lab
)
def test_module_matches_explicit_kronecker_carrier_oracle(label, monkeypatch):
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    got = _module_arrays(label)
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    monkeypatch.setattr(modrep, "_carrier_act", kron_carrier_act)
    # the twist reads the base's coordinate map as the base's quotient made it
    quotients = {}
    monkeypatch.setattr(modrep, "_radical_quotient", recording_radical_quotient(quotients))
    monkeypatch.setattr(modrep, "_twist_gl3", lambda base, *label: kron_twist_gl3(base, *label, quotients[id(base.basis)]))
    _assert_byte_identical(got, _module_arrays(label))


@pytest.mark.parametrize("label", TWIST_LABELS, ids=lambda lab: "%d-%d-%d-%d" % lab)
def test_twist_rho_is_det_power_times_base_rho(label):
    p, a, b, c = label
    mod = build_gl3_module(*label)
    base = build_gl3_module(p, a - c, b - c, 0)
    assert mod.untwisted is base and mod.basis is base.basis
    rng = random.Random(c)
    for g in gl_generators(3, p) + [random_invertible(p, rng) for _ in range(4)]:
        d = pow(int(det(g)) % p, c, p)
        assert np.array_equal(mod.rho(g), base.rho(g) * d % p)


@pytest.mark.parametrize("c", [1, 3, 6])
def test_every_module_is_one_type_and_a_twist_points_to_its_base(c, monkeypatch):
    # rho is data, not a subclass hook; c = p - 1 twists by the trivial
    # character but is still a module of its own label
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    gl2 = build_gl2_module(7, 3, 1)
    base = build_gl3_module(7, 4, 2, 0)
    twist = build_gl3_module(7, 4 + c, 2 + c, c)
    for m in (gl2, base, twist):
        assert type(m) is modrep.IrreducibleModule
    assert gl2.untwisted is gl2 and base.untwisted is base
    assert twist.untwisted is base is modrep._GL3_CACHE[(7, 2, 2)] and twist is not base
    # identity, not the generated field-wise __eq__, which compares numpy bases
    assert (build_gl2_module(5, 3, 1) == build_gl2_module(5, 3, 1)) is False


def test_twist_with_a_built_key_computes_no_carrier_action(monkeypatch):
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    calls, act = [], modrep._carrier_act

    def counted(factors, X, p):
        calls.append(len(X))
        return act(factors, X, p)

    monkeypatch.setattr(modrep, "_carrier_act", counted)
    first = u_invariants(build_gl3_module(11, 12, 6, 1))
    assert calls and first.base.carrier_dim == 588
    calls.clear()
    kernels, nullspace = [], modrep.np_nullspace

    def recorded(A, p):
        kernels.append(np.shape(A))
        return nullspace(A, p)

    monkeypatch.setattr(modrep, "np_nullspace", recorded)
    second = u_invariants(build_gl3_module(11, 16, 10, 5))
    assert calls == []
    # the twist solves no kernel for its invariants or its intertwiner, and
    # the certificate of its rank-2 model F(16, 10) solves none either: its
    # weight spaces are lines
    assert kernels == []
    assert second.dim == first.dim == 7 and second.gl1_exponent == 5
    assert second.basis is first.basis and second.iso is first.iso


# twists whose base intertwiner is not symmetric, so that a transposed
# intertwiner shows
ASYMMETRIC_TWISTS = [(5, 7, 3, 2), (7, 11, 5, 3)]


@pytest.mark.parametrize("label", TWIST_LABELS + ASYMMETRIC_TWISTS, ids=lambda lab: "%d-%d-%d-%d" % lab)
def test_twist_invariants_match_the_direct_computation(label, monkeypatch):
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    mod = build_gl3_module(*label)
    got, want = u_invariants(mod), direct_u_invariants(mod)
    _assert_byte_identical([got.basis, got.iso], [want.basis, want.iso])
    assert (got.gl1_exponent, got.gl2_module.label) == (want.gl1_exponent, want.gl2_module.label)
    # read off the base's invariants, which are computed once and read-only
    levi = u_invariants(mod.untwisted)
    assert u_invariants(mod.untwisted) is levi and got.basis is levi.basis and got.iso is levi.iso
    assert not (levi.basis.flags.writeable or levi.iso.flags.writeable)


@st.composite
def _restricted_label(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    i, j = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
    c = draw(st.sampled_from([0, 1, p - 2]))
    return p, i + j + c, j + c, c


@settings(max_examples=60, deadline=None)
@given(_restricted_label())
def test_u_invariants_match_the_direct_fixed_space(label):
    # the invariants read off the weights with mu_1 = c are the fixed space
    # that np_nullspace finds, byte for byte, with the same intertwiner
    mod = build_gl3_module(*label)
    got, want = u_invariants(mod), direct_u_invariants(mod)
    _assert_byte_identical([got.basis, got.iso], [want.basis, want.iso])
    assert (got.gl1_exponent, got.gl2_module.label) == (want.gl1_exponent, want.gl2_module.label)


def test_u_invariants_reject_a_moved_lowest_weight_row():
    # rho(u2) no longer fixes one basis row of weight mu_1 = 0
    base = build_gl3_module(7, 5, 2, 0)
    k = int(np.flatnonzero(base.weights[:, 0] == 0)[1])
    u2 = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 1]])

    def image(g, rows):
        G = base.image(g, None)
        if np.array_equal(g, u2):
            G[k, (k + 1) % base.dim] = (G[k, (k + 1) % base.dim] + 1) % 7
        return G if rows is None else matmul_mod(rows, G, 7)

    broken = modrep.IrreducibleModule(p=7, n=3, label=base.label, basis=base.basis, image=image, weights=base.weights)
    with pytest.raises(CertificateError, match="not fixed by the unipotent radical"):
        u_invariants(broken)


def test_u_invariants_reject_a_levi_image_off_the_lowest_weight_rows():
    # the image of one invariant row under diag(1, E_01) gains a coordinate
    # off the rows of weight mu_1 = 0, which the rank-2 block would drop
    base = build_gl3_module(7, 5, 2, 0)
    low = np.flatnonzero(base.weights[:, 0] == 0)
    off = int(np.setdiff1d(np.arange(base.dim), low)[0])
    e12 = np.array([[1, 0, 0], [0, 1, 1], [0, 0, 1]])

    def image(g, rows):
        G = base.image(g, None)
        if np.array_equal(g, e12):
            G[low[0], off] = (G[low[0], off] + 1) % 7
        return G if rows is None else matmul_mod(rows, G, 7)

    broken = modrep.IrreducibleModule(p=7, n=3, label=base.label, basis=base.basis, image=image, weights=base.weights)
    with pytest.raises(CertificateError, match="off the lowest Levi weight rows"):
        u_invariants(broken)


def test_a_base_module_build_forms_no_full_image(monkeypatch):
    # the build's only images are the highest-weight check's, of the one row
    # v+; u_invariants images only the rows of K
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    calls, make = [], modrep._carrier_image

    def spied(*args):
        image = make(*args)

        def spy(g, rows):
            calls.append(rows)
            return image(g, rows)

        return spy

    monkeypatch.setattr(modrep, "_carrier_image", spied)
    p = 7
    mod = build_gl3_module(p, 5, 2, 0)
    assert calls and all(rows is not None and len(rows) == 1 for rows in calls)
    calls.clear()
    levi = u_invariants(mod)
    assert len(calls) == 6 and all(np.array_equal(rows, levi.basis) for rows in calls)


def _reachable_arrays(root):
    """Every numpy array reachable from root through gc referents, without
    entering modules, their namespaces or classes."""
    namespaces = {id(vars(m)) for m in list(sys.modules.values())}
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in namespaces or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        stack.extend(gc.get_referents(obj))
    return arrays


def test_a_built_module_keeps_no_dim_by_dim_array(monkeypatch):
    # rho is formed where it is read and dropped: after the build and
    # u_invariants, the module holds its basis, not its images
    monkeypatch.setattr(modrep, "_GL3_CACHE", {})
    mod = build_gl3_module(7, 5, 2, 0)
    u_invariants(mod)
    arrays = _reachable_arrays(mod)
    assert any(x is mod.basis for x in arrays)
    assert [x.shape for x in arrays if x.shape == (mod.dim, mod.dim)] == []


def _keys(p):
    """Every module key (p, i, j) at p <= 7; at p = 11 the four keys of the
    local-weights benchmark."""
    if p == 11:
        return [(11, 2, 3), (11, 3, 2), (11, 5, 6), (11, 6, 5)]
    return [(p, i, j) for i in range(p) for j in range(p)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_bounded_spins_return_the_full_spin(p, monkeypatch):
    # the spin certificate's spin stops at the module's dimension and
    # returns the bytes of the full spin
    full, seen = _oracles.spin, []

    def both(rows, actions, p, dim=None):
        got = full(rows, actions, p, dim)
        _assert_byte_identical([got], [full(rows, actions, p)])
        seen.append((len(got), dim))
        return got

    monkeypatch.setattr(_oracles, "spin", both)
    for _, i, j in _keys(p):
        mod = build_gl3_module(p, i + j, j, 0)
        seen.clear()
        spin_certificate(mod)
        assert seen == [(mod.dim, mod.dim)]


@pytest.mark.parametrize(
    "labels",
    [
        pytest.param([(p, i + j, j, 0) for _, i, j in _keys(p)], id="p%d" % p) for p in (2, 3, 5, 7)
    ]
    + [pytest.param([(p, i + j + c, j + c, c) for p, i, j in MODULE_KEYS for c in (0, 1)], id="module-keys")],
)
def test_the_spin_certificate_accepts_every_built_module(labels):
    # the reference certificate, the G(F_p) spin from the U+-fixed line,
    # accepts every module that the certificate by proof accepted
    for label in labels:
        spin_certificate(build_gl3_module(*label))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_graded_span_is_the_reduced_gfp_spin(p):
    # W built one weight space at a time from the divided powers of the
    # simple roots is the span of v+ under the generators of GL_3(F_p), in
    # reduced echelon form, and at most Weyl-dimensional
    for _, i, j in _keys(p):
        got = modrep._highest_weight_span(p, i, j, _carrier_action(p, i, j))
        want = gfp_highest_weight_span(p, i, j)
        _assert_byte_identical([got], [np_rref(want, p)[0]])
        assert len(got) <= _weyl_dim(i, j)


def _basis_and_generators(p, i, j):
    mod = build_gl3_module(p, i + j, j, 0)
    return [mod.basis] + [mod.rho(g) for g in gl_generators(3, p)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_radical_quotient_matches_the_carrier_spin_oracle(p, monkeypatch):
    for key in _keys(p):
        monkeypatch.setattr(modrep, "_GL3_CACHE", {})
        got = _basis_and_generators(*key)
        monkeypatch.setattr(modrep, "_GL3_CACHE", {})
        with monkeypatch.context() as m:
            m.setattr(modrep, "_radical_quotient", spin_radical_quotient)
            _assert_byte_identical(got, _basis_and_generators(*key))


@pytest.mark.parametrize("p,i,j,radical", [(7, 2, 1, 0), (5, 1, 3, 6)])
def test_radical_quotient_copies_w_only_when_the_radical_is_nonzero(p, i, j, radical):
    W = modrep._highest_weight_span(p, i, j, _carrier_action(p, i, j))
    wt = np.kron(modrep._form_weights(3, i, p), modrep._form_weights(3, j, p))
    L, _ = modrep._radical_quotient(W, modrep._carrier_weights(i, j), wt, p)
    assert len(W) - len(L) == radical
    assert (L is W) == (radical == 0)


class _IdentityBlock:
    dim = 2

    def rho(self, h):
        return np.eye(self.dim, dtype=np.int64)


def test_intertwiner_raises_unless_the_solution_space_is_a_line():
    # with the identity on both sides every 2 x 2 matrix intertwines: a
    # four-dimensional solution space, which Schur's lemma rules out
    with pytest.raises(CertificateError, match="dimension 4, not 1"):
        modrep._intertwiner(lambda h: np.eye(2, dtype=np.int64), _IdentityBlock(), 5)


def test_characteristic_two_modules():
    # F_2^* is trivial, so the torus generators are the identity
    assert build_gl2_module(2, 1, 0).dim == 2
    assert build_gl3_module(2, 1, 0, 0).dim == 3
    assert build_gl3_module(2, 2, 1, 0).dim == 8  # the adjoint of SL_3, irreducible away from 3


@pytest.mark.parametrize(
    "build,args",
    [
        (build_gl2_module, (9, 1, 0)),
        (build_gl2_module, (1, 0, 0)),
        (build_gl3_module, (9, 1, 0, 0)),
        (build_gl3_module, (9, 2, 1, 0)),
        (build_gl3_module, (25, 3, 1, 0)),
    ],
)
def test_module_builds_reject_a_p_that_is_not_prime(build, args):
    with pytest.raises(ValueError, match="p = %d is not prime" % args[0]):
        build(*args)


def test_module_builds_keep_p_2_and_3():
    assert build_gl2_module(2, 1, 0).dim == 2
    assert build_gl3_module(3, 2, 1, 0).dim == 7
