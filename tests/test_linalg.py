import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3hecke.linalg import SpinBasis, matmul_mod, np_rref

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


def test_matmul_mod_exact_at_the_largest_allowed_entries():
    # n * (p - 1)**2 just below 2**53: every partial sum is still exact
    p = 2**25 - 39  # prime
    n = (2**53 - 1) // (p - 1) ** 2
    assert n == 8
    A = np.full((2, n), p - 1, dtype=np.int64)
    B = np.full((n, 3), p - 1, dtype=np.int64)
    assert np.array_equal(matmul_mod(A, B, p), np.full((2, 3), n * (p - 1) ** 2 % p))


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


def test_int64_kernels_raise_past_the_int64_bound():
    # (p - 1)**2 >= 2**63: the elementwise updates would wrap around
    p = 2**32 + 15  # prime
    with pytest.raises(OverflowError):
        np_rref(np.array([[2, 3], [5, 7]]), p)
    with pytest.raises(OverflowError):
        SpinBasis(p, 2).add_rows(np.array([[2, 3]]))
