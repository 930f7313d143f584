import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl3hecke import linalg
from gl3hecke.ffield import make_field
from gl3hecke.linalg import SpinBasis, matmul_mod, np_rref, np_rref_stack

import _oracles
from _oracles import SequentialSpinBasis


@pytest.mark.parametrize("p", [2, 5, 13, 65521])
def test_matmul_mod_matches_exact_reference(p):
    rng = np.random.default_rng(p)
    for m, n, k in [(1, 1, 1), (3, 7, 2), (17, 40, 9), (0, 5, 3), (4, 0, 6), (60, 300, 25)]:
        A = rng.integers(0, p, (m, n))
        B = rng.integers(0, p, (n, k))
        want = (A.astype(object) @ B.astype(object)) % p
        got = matmul_mod(A, B, p)
        assert got.dtype == np.int64 and got.shape == (m, k)
        assert np.array_equal(got, want.astype(np.int64))
    # vector operands and entries in (-p, p)
    v = rng.integers(-(p - 1), p, 11)
    M = rng.integers(-(p - 1), p, (11, 4))
    assert np.array_equal(matmul_mod(v, M, p), (v.astype(object) @ M.astype(object)) % p)
    assert int(matmul_mod(v, v, p)) == int(v.astype(object) @ v.astype(object)) % p


@pytest.mark.parametrize("p,n", [(2, 40), (5, 40), (13, 40), (65521, 40), (2**25 - 39, 8)])
def test_matmul_mod_float_path_on_negative_and_float64_operands(p, n):
    # past _SMALL, so the product runs in float64 and is converted to int64
    # before the remainder; entries in (-p, p) give negative sums
    rng = np.random.default_rng(p)
    m, k = 70, 90
    A = rng.integers(-(p - 1), p, (m, n))
    B = rng.integers(-(p - 1), p, (n, k))
    assert A.size * k > linalg._SMALL
    # sums -p, -2p and -n (p - 1)**2: exact negative multiples and the extreme
    A[0], A[1] = -1, -(p - 1)
    B[:, :3] = 0
    B[:2, 0] = (p - 1, 1)
    B[:4, 1] = (p - 1, 1, p - 1, 1)
    B[:, 2] = p - 1
    want = ((A.astype(object) @ B.astype(object)) % p).astype(np.int64)
    assert want[0, 0] == want[0, 1] == 0
    for X, Y in [(A, B), (A.astype(np.float64), B.astype(np.float64)), (A, B.astype(np.float64))]:
        got = matmul_mod(X, Y, p)
        assert got.dtype == np.int64 and got.min() >= 0 and got.max() < p
        assert np.array_equal(got, want)


def test_matmul_mod_exact_at_the_largest_allowed_entries():
    # n * (p - 1)**2 just below 2**53: every partial sum is still exact, in
    # the int64 product of small operands and in the float64 one of large ones
    p = 2**25 - 39  # prime
    n = (2**53 - 1) // (p - 1) ** 2
    assert n == 8
    for m, k in [(2, 3), (100, 60)]:
        A = np.full((m, n), p - 1, dtype=np.int64)
        B = np.full((n, k), p - 1, dtype=np.int64)
        assert np.array_equal(matmul_mod(A, B, p), np.full((m, k), n * (p - 1) ** 2 % p))


def test_matmul_mod_raises_past_the_float64_bound():
    p = 2**31 - 1
    A = np.ones((2, 4), dtype=np.int64)
    with pytest.raises(OverflowError):
        matmul_mod(A, A.T, p)
    p = 2**25 - 39
    n = 9  # the smallest n with n * (p - 1)**2 >= 2**53
    assert (n - 1) * (p - 1) ** 2 < 2**53 <= n * (p - 1) ** 2
    with pytest.raises(OverflowError):
        matmul_mod(np.ones((1, n), dtype=np.int64), np.ones((n, 1), dtype=np.int64), p)


@st.composite
def blocks(draw):
    """A prime, a width, rows to add first and a block that mixes random,
    zero, repeated and dependent rows."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 9))
    entry = st.integers(0, p - 1)
    row = st.lists(entry, min_size=n, max_size=n)
    first = draw(st.lists(row, max_size=5))
    block = []
    for _ in range(draw(st.integers(0, 12))):
        seen = first + block
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "random" and not seen):
            block.append([0] * n)
        elif kind == "random":
            block.append(draw(row))
        elif kind == "repeat":
            block.append(list(draw(st.sampled_from(seen))))
        else:
            coeffs = draw(st.lists(entry, min_size=len(seen), max_size=len(seen)))
            block.append([sum(c * r[j] for c, r in zip(coeffs, seen)) % p for j in range(n)])
    as_array = lambda rows: np.array(rows, dtype=np.int64).reshape(-1, n)
    return p, n, as_array(first), as_array(block)


@settings(max_examples=200, deadline=None)
@given(blocks())
def test_add_rows_matches_sequential_adds(case):
    p, n, first, block = case
    batched, single, oracle = SpinBasis(p, n), SpinBasis(p, n), SequentialSpinBasis(p, n)
    for M in (first, block):
        want = [oracle.add(v) for v in M]
        assert list(batched.add_rows(M)) == want
        assert [single.add(v) for v in M] == want
        for spin in (batched, single):
            assert spin.pivots == oracle.pivots
            assert np.array_equal(spin.basis(), oracle.basis())
    assert np.array_equal(batched.reduce(block), np.array([oracle.reduce(v) for v in block]).reshape(-1, n))


def test_a_long_block_is_added_in_chunks_like_sequential_adds():
    # more rows than one chunk, with a rank past the chunk size
    rng = np.random.default_rng(11)
    p, n = 7, 150
    rows = rng.integers(0, p, (300, 100)) @ rng.integers(0, p, (100, n)) % p
    rows[::9] = 0
    rows = np.vstack([rows, rows[:50]])
    spin, oracle = SpinBasis(p, n), SequentialSpinBasis(p, n)
    assert list(spin.add_rows(rows)) == [oracle.add(v) for v in rows]
    assert spin.rank == 100 and spin.pivots == oracle.pivots
    assert np.array_equal(spin.basis(), oracle.basis())


@st.composite
def prime_field_matrices(draw):
    """A prime and a matrix of at most 10 rows and 24 columns over F_p
    that mixes random, zero, repeated and combined rows.  The primes start
    at 5, the least characteristic of ffield's fields, which the oracle
    computes in."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    n = draw(st.integers(1, 24))
    entry = st.integers(0, p - 1)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([0] * n)
        elif kind == "random":
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n)])
    return p, np.array(rows, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(prime_field_matrices())
def test_np_rref_matches_the_list_oracle(case):
    p, A = case
    F = make_field(p)
    R, pivots = np_rref(A, p)
    R0, pivots0 = _oracles.rref([[F.from_int(int(x)) for x in row] for row in A], F)
    assert pivots == pivots0
    assert R.dtype == np.int64 and R.tolist() == [F.to_array(row)[:, 0].tolist() for row in R0]


# -- matrices over F_q as coordinate arrays, against the list-of-Fq oracles ------


@st.composite
def fq_rows(draw):
    """A field F_{p^r} and rows over it mixing random, zero, repeated and
    dependent rows."""
    F = make_field(draw(st.sampled_from([5, 7, 13])), draw(st.sampled_from([1, 2, 3, 6])))
    n = draw(st.integers(1, 6))
    element = st.lists(st.integers(0, F.p - 1), min_size=F.r, max_size=F.r).map(F.element)
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "random" and not rows):
            rows.append([F.zero()] * n)
        elif kind == "random":
            rows.append(draw(st.lists(element, min_size=n, max_size=n)))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(element, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), F.zero()) for j in range(n)])
    return F, rows


def _arr(F, rows):
    return np.array([F.to_array(row) for row in rows], dtype=np.int64).reshape(len(rows), -1, F.r)


@settings(max_examples=150, deadline=None)
@given(fq_rows())
def test_coordinate_kernels_match_the_list_oracles(case):
    F, rows = case
    n = len(rows[0])
    A = _arr(F, rows)
    R, pivots = linalg.rref(A, F)
    R0, pivots0 = _oracles.rref(rows, F)
    assert pivots == pivots0 and R.tolist() == [F.to_array(row).tolist() for row in R0]
    kernel = linalg.nullspace(A, F)
    assert isinstance(kernel, list)
    assert [v.tolist() for v in kernel] == [F.to_array(v).tolist() for v in _oracles.nullspace(rows, F)]
    reducer, oracle = linalg.RowReducer(F, n), _oracles.RowReducer(F, n)
    flags = [oracle.add(v) for v in rows]
    assert [reducer.add(v) for v in A] == flags
    assert reducer.pivot_columns() == oracle.pivot_columns()
    batch = linalg.RowReducer(F, n)
    assert list(batch.add_rows(A)) == flags and batch.pivot_columns() == oracle.pivot_columns()
    # residues of the rows reversed and rotated, against the final span
    probe = [row[1:] + row[:1] for row in reversed(rows)]
    assert np.array_equal(reducer.reduce(_arr(F, probe)), _arr(F, [oracle.reduce(v) for v in probe]))


@settings(max_examples=60, deadline=None)
@given(fq_rows())
def test_products_embeddings_and_frobenius_match_fq_arithmetic(case):
    F, rows = case
    A, v = _arr(F, rows), rows[-1]
    want = [sum((a * x for a, x in zip(row, v)), F.zero()) for row in rows]
    assert np.array_equal(linalg.apply_matrix(A, F.to_array(v), F), F.to_array(want))
    x = rows[0][0]
    assert np.array_equal(matmul_mod(A, F.mul_matrices(x.coords).T, F.p), _arr(F, [[x * a for a in row] for row in rows]))
    # the embedding as the old Horner evaluation at the least root, and x -> x^p
    big = F.extension(2)
    root = F._embedding_root(big)

    def horner(y):
        acc = big.zero()
        for c in reversed(y.coords):
            acc = acc * root + big.from_int(c)
        return acc

    assert np.array_equal(linalg.embed_matrix(A, F, big), _arr(big, [[horner(a) for a in row] for row in rows]))
    assert all(F.embed(a, big) == horner(a) for a in rows[0])
    frobenius = F.frobenius_matrix(1)
    assert np.array_equal(matmul_mod(A, frobenius.T, F.p), _arr(F, [[a**F.p for a in row] for row in rows]))


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([5, 7, 13]),
    a=st.integers(1, 3),
    b=st.integers(1, 3),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    k=st.sampled_from([None, 1, 3]),
    stacked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_extend_scalars_matches_the_embedded_operator(p, a, b, n, m, k, stacked, seed):
    # F_p <= F = F_{p^a} <= E = F_{p^(ab)}: an operator over F, one matrix or
    # a stack of two as gl3_hecke_on_boundary returns for a sequence of ks,
    # moves a vector or a block over E exactly as the operator embedded in E
    F, E = make_field(p, a), make_field(p, a * b)
    rng = np.random.default_rng(seed)
    mats = rng.integers(0, p, (2 if stacked else 1, m, n, F.r))
    V = rng.integers(0, p, (n, E.r) if k is None else (n, k, E.r))

    def op(C):
        images = np.stack([linalg.apply_matrix(A, C, F) for A in mats])
        return images if stacked else images[0]

    want = np.stack([linalg.apply_matrix(linalg.embed_matrix(A, F, E), V, E) for A in mats])
    got = linalg.extend_scalars(op, V, F, E)
    assert got.shape == (want if stacked else want[0]).shape
    assert np.array_equal(got, want if stacked else want[0])


@pytest.mark.parametrize("a", [1, 2])
def test_extend_scalars_embeds_no_matrix(a, monkeypatch):
    # the images are embedded and recombined by one product with a fixed F_p
    # matrix, over F = F_p and over F = F_{p^2} alike
    F, E = make_field(7, a), make_field(7, 3 * a)
    rng = np.random.default_rng(a)
    A, V = rng.integers(0, 7, (4, 5, F.r)), rng.integers(0, 7, (5, 2, E.r))
    embed = linalg.embed_matrix

    def refuse(*args):
        raise AssertionError("extend_scalars called embed_matrix")

    monkeypatch.setattr(linalg, "embed_matrix", refuse)
    got = linalg.extend_scalars(lambda C: linalg.apply_matrix(A, C, F), V, F, E)
    assert np.array_equal(got, linalg.apply_matrix(embed(A, F, E), V, E))


# -- trailing-pivot normal form ---------------------------------------------------


@st.composite
def normal_forms(draw):
    """A field F_{p^r} and a basis in trailing-pivot normal form over it: the
    kernel basis of nullspace, of np_nullspace (over F_p, a (k, n) array),
    or rref of a column-reversed block flipped back; and a generator for the
    scalars of the checks."""
    p, kind = draw(st.sampled_from([5, 7, 13])), draw(st.sampled_from(["nullspace", "np_nullspace", "reversed rref"]))
    F = make_field(p, 1 if kind == "np_nullspace" else draw(st.integers(1, 3)))
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, p, (draw(st.integers(1, n)), n, F.r))
    # zero columns put free columns, and so trailing pivots, in the middle
    A[:, rng.random(n) < 0.3] = 0
    if kind == "nullspace":
        B = np.array(linalg.nullspace(A, F)).reshape(-1, n, F.r)
    elif kind == "np_nullspace":
        B = linalg.np_nullspace(A[..., 0], p)
    else:
        B = linalg.rref(A[:, ::-1], F)[0][::-1, ::-1]
    assume(len(B))
    return F, B, rng


def _units(F, rng, count):
    """count random coordinate vectors of field elements other than 0 and 1."""
    out = []
    while len(out) < count:
        x = rng.integers(0, F.p, F.r)
        if x.any() and x.tolist() != [1] + [0] * (F.r - 1):
            out.append(x)
    return out


def _scaled(F, x, V):
    """x V for the coordinates x of one element and the coordinate array V."""
    return matmul_mod(V, F.mul_matrices(x).T, F.p)


@settings(max_examples=150, deadline=None)
@given(normal_forms())
def test_trailing_pivots_read_coordinates_and_reject_corruptions(case):
    F, B, rng = case
    p, k = F.p, len(B)
    # over F_p the checks run on the (k, n, 1) array and hand back (k, n)
    B3, back = (B, lambda X: X) if B.ndim == 3 else (B[..., None], lambda X: X[..., 0])
    T = linalg.trailing_pivots(B)
    c = rng.integers(0, p, (k, F.r))
    w = linalg.apply_matrix(B3.swapaxes(0, 1), c, F)
    assert np.array_equal(w[T], c)
    i, j = rng.choice(k, 2) if k > 1 else (0, 0)
    u, x = _units(F, rng, 2)
    corrupt = [B3.copy(), B3.copy()]
    corrupt[0][i] = _scaled(F, u, B3[i])
    corrupt[1][i] = 0
    if k > 1:
        j = j if j != i else (i + 1) % k
        swapped, added = B3.copy(), B3.copy()
        swapped[[i, j]] = B3[[j, i]]
        added[i] = (B3[i] + _scaled(F, x, B3[j])) % p
        corrupt += [swapped, added]
    for X in corrupt:
        with pytest.raises(ValueError):
            linalg.trailing_pivots(back(X))


@settings(max_examples=100, deadline=None)
@given(normal_forms())
def test_eigenvalue_is_read_at_the_trailing_pivot(case):
    F, B, rng = case
    p = F.p
    B3 = B if B.ndim == 3 else B[..., None]
    i = rng.integers(len(B))
    v, t = B3[i], linalg.trailing_pivots(B)[i]
    lam = rng.integers(0, p, F.r)
    img = _scaled(F, lam, v)
    assert linalg.eigenvalue(img, v, F) == F.element(lam.tolist())
    # off the pivot an image that is not a multiple of v
    s = (t + 1 + rng.integers(len(v) - 1)) % len(v)
    img[s] = (img[s] + _units(F, rng, 1)[0]) % p
    assert linalg.eigenvalue(img, v, F) is None
    with pytest.raises(ValueError):
        linalg.eigenvalue(img, np.zeros_like(v), F)
    with pytest.raises(ValueError):
        linalg.eigenvalue(img, _scaled(F, _units(F, rng, 1)[0], v), F)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([5, 7, 13]), n=st.integers(1, 8), data=st.data())
def test_np_nullspace_is_its_own_reversed_rref(p, n, data):
    # each kernel row is 1 at its free column and 0 at the other free
    # columns, with its other entries at pivots left of it: the basis is
    # already the rref of the kernel taken from the right
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, p, (data.draw(st.integers(1, n)), n))
    A[:, rng.random(n) < 0.3] = 0
    N = linalg.np_nullspace(A, p)
    assume(len(N))
    linalg.trailing_pivots(N)
    assert np.array_equal(np_rref(N[:, ::-1], p)[0][::-1, ::-1], N)


def test_int64_kernels_raise_past_the_int64_bound():
    # (p - 1)**2 >= 2**63: the elementwise updates would wrap around
    p = 2**32 + 15  # prime
    with pytest.raises(OverflowError):
        np_rref(np.array([[2, 3], [5, 7]]), p)
    with pytest.raises(OverflowError):
        SpinBasis(p, 2).add_rows(np.array([[2, 3]]))


@st.composite
def rref_stacks(draw):
    """A prime, a shape up to 8 x 8 and a stack of 0 to 8 matrices of it:
    random, zero, rank-deficient, or a smaller matrix padded with zero rows
    and columns at the end (kept with its unpadded shape)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17]))
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack, inner = [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "zero", "deficient", "padded"]))
        A = np.zeros((m, n), dtype=np.int64)
        h, w = m, n
        if kind == "padded":
            h, w = draw(st.integers(0, m)), draw(st.integers(0, n))
        if kind == "deficient":
            # rows from combinations of at most r random rows
            r = draw(st.integers(0, min(m, n)))
            A[:] = rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n)) % p
        elif kind != "zero":
            A[:h, :w] = rng.integers(0, p, (h, w))
        stack.append(A)
        inner.append(A[:h, :w])
    return p, np.array(stack, dtype=np.int64).reshape(len(stack), m, n), inner


@settings(max_examples=200, deadline=None)
@given(rref_stacks())
def test_np_rref_stack_is_np_rref_matrix_by_matrix(case):
    p, A, inner = case
    R, is_pivot = np_rref_stack(A, p)
    assert R.dtype == np.int64 and R.shape == A.shape and is_pivot.shape == (len(A), A.shape[2])
    for k in range(len(A)):
        rank = int(is_pivot[k].sum())
        want, pivots = np_rref(A[k], p)
        assert np.array_equal(R[k][:rank], want) and np.flatnonzero(is_pivot[k]).tolist() == pivots
        assert not R[k][rank:].any()
        # a matrix padded with zero rows and columns reduces to its own form, padded
        w = inner[k].shape[1]
        small, small_pivots = np_rref(inner[k], p)
        assert small_pivots == pivots and np.array_equal(want[:, :w], small) and not want[:, w:].any()


def test_np_rref_stack_raises_at_the_same_p_as_np_rref():
    # 3037000493 and 3037000507 are the primes either side of (p - 1)**2 = 2**63
    A = np.array([[[2, 3], [5, 7]], [[0, 0], [4, 1]]])
    for p in (3037000493, 3037000507):
        try:
            want = [np_rref(M, p) for M in A]
        except OverflowError:
            with pytest.raises(OverflowError):
                np_rref_stack(A, p)
            assert p == 3037000507
            continue
        R, is_pivot = np_rref_stack(A, p)
        for k, (Rk, pivots) in enumerate(want):
            assert np.array_equal(R[k][: len(pivots)], Rk) and np.flatnonzero(is_pivot[k]).tolist() == pivots
