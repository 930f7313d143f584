import random
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl3hecke import heckegl3
from gl3hecke.arith import det, divisors, is_prime, is_squarefree
from gl3hecke.heckegl3 import ProjectiveOrbits, coset_reps, hecke_orbit_action, orbit_rep

from _oracles import (
    IDENTITY3,
    BfsProjectiveOrbits,
    g_elem,
    g_elem_inv,
    gl2_orbit_example_check,
    in_gamma0,
    in_parabolic,
    in_semigroup,
    level_group_generators,
    mat3,
    mat_mul3,
    mat_vec3,
    p1_row_orbit_equivalent,
    psi_blocks,
    same_right_coset,
    smith_diagonal,
    theorem_psi_blocks,
    translate_to_parabolic,
)


def test_coset_reps_l2_k1_shapes():
    cs = coset_reps(2, 1, 1)
    assert cs.shape == (7, 3, 3) and cs.dtype == np.int64 and not cs.flags.writeable
    bottom = [g for g in cs.tolist() if g[2][2] == 2]
    middle = [g for g in cs.tolist() if g[1][1] == 2]
    top = [g for g in cs.tolist() if g[0][0] == 2]
    assert len(bottom) == 4 and len(middle) == 2 and len(top) == 1
    assert mat3(top[0]) == mat3([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_coset_reps_l2_k2_count():
    cs = coset_reps(2, 2, 1)
    assert len(cs) == 7
    assert all(det(g) == 4 for g in cs.tolist())


def test_coset_reps_l3_N5_det_and_shape():
    cs = coset_reps(3, 1, 5)
    assert len(cs) == 13
    for g in cs.tolist():
        assert det(g) == 3
        assert in_semigroup(g, 5)


def _listed_coset_reps(l, k):
    """The representatives written out one at a time, in their order."""
    if k == 3:
        return [[[l, 0, 0], [0, l, 0], [0, 0, l]]]
    if k == 1:
        return (
            [[[1, 0, 0], [0, 1, 0], [b, c, l]] for b in range(l) for c in range(l)]
            + [[[1, 0, 0], [a, l, 0], [0, 0, 1]] for a in range(l)]
            + [[[l, 0, 0], [0, 1, 0], [0, 0, 1]]]
        )
    return (
        [[[1, 0, 0], [a, l, 0], [b, 0, l]] for a in range(l) for b in range(l)]
        + [[[l, 0, 0], [0, 1, 0], [0, c, l]] for c in range(l)]
        + [[[l, 0, 0], [0, l, 0], [0, 0, 1]]]
    )


@pytest.mark.parametrize("l", [2, 3, 7, 47])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_coset_reps_array_matches_listed_order(l, k):
    assert coset_reps(l, k, 1).tolist() == _listed_coset_reps(l, k)


@pytest.mark.parametrize("l,k,N", [(2, 1, 11), (2, 2, 11), (3, 1, 5), (3, 2, 5), (5, 1, 33)])
def test_coset_reps_pairwise_distinct(l, k, N):
    reps = coset_reps(l, k, N).tolist()
    assert len(reps) == l * l + l + 1
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not same_right_coset(reps[i], reps[j], N)


@pytest.mark.parametrize("l,k", [(2, 1), (2, 2), (3, 1), (3, 3)])
def test_coset_smith_form(l, k):
    want = {1: (1, 1, l), 2: (1, l, l), 3: (l, l, l)}[k]
    for g in coset_reps(l, k, 7).tolist():
        assert smith_diagonal(g) == want


def test_double_coset_closure_randomized():
    # random gamma1 * rep * gamma2 lands back in the union of rep cosets
    rng = random.Random(7)
    N, l, k = 5, 2, 1
    reps = coset_reps(l, k, N).tolist()
    gens = [
        mat3([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
        mat3([[1, 0, 0], [0, 1, 0], [1, 0, 1]]),
        mat3([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
        mat3([[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
        mat3([[1, N, 0], [0, 1, 0], [0, 0, 1]]),
        mat3([[1, 0, N], [0, 1, 0], [0, 0, 1]]),
    ]
    inv = {g: None for g in gens}

    def rand_gamma():
        g = IDENTITY3
        for _ in range(rng.randint(1, 6)):
            h = rng.choice(gens)
            if rng.random() < 0.5:
                # inverse of an elementary matrix: negate the off-diagonal
                h = mat3([[h[i][j] if i == j else -h[i][j] for j in range(3)] for i in range(3)])
            g = mat_mul3(g, h)
        return g

    for _ in range(40):
        s = rng.choice(reps)
        g = mat_mul3(mat_mul3(rand_gamma(), s), rand_gamma())
        hits = [r for r in reps if same_right_coset(g, r, N)]
        assert len(hits) == 1


def test_translate_case1_diagonal():
    # s = diag(l, l, 1) with a = 0: gamma = I, psi1 = l, psi2 = [[l,0],[0,1]]
    for l in (2, 5, 7):
        for d in (1, 3, 11, 33):
            s = mat3([[l, 0, 0], [0, l, 0], [0, 0, 1]])
            tr = translate_to_parabolic(s, d, 33, l=l)
            assert tr.case == 1
            assert tr.gamma == IDENTITY3
            assert tr.psi1 == l
            assert tr.psi2 == ((l, 0), (0, 1))


def test_translate_case4_pinned_example():
    # l=3, d=1, N=5, s has a*d+1 = 3 divisible by l
    s = mat3([[1, 0, 0], [2, 3, 0], [0, 0, 1]])
    tr = translate_to_parabolic(s, 1, 5, l=3)
    assert tr.case == 4
    assert tr.psi1 == 3
    assert tr.psi2[0] == (1, 0)
    assert tr.psi2[1][0] == 0  # (1+ad)/l * c - b*d = 0 here
    sg = mat_mul3(s, tr.gamma)
    assert in_parabolic(sg, 1)


def test_translate_case3_pinned_example():
    # l=2, d=3, N=33, s = diag(1,2,1): ad+1 = 1, not divisible by 2
    s = mat3([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    tr = translate_to_parabolic(s, 3, 33, l=2)
    assert tr.case == 3
    assert tr.psi1 == 1
    assert tr.psi2[0] == (2, 0)
    assert in_parabolic(mat_mul3(s, tr.gamma), 3)


def _random_squarefree_instances(rng, count):
    cases = []
    while len(cases) < count:
        N = rng.choice([1, 5, 7, 11, 15, 21, 33, 35, 30, 6, 10, 14, 55])
        l = rng.choice([2, 3, 5, 7, 11, 13])
        if N % l == 0:
            continue
        ds = divisors(N)
        d = rng.choice([x for x in ds if gcd(x, N // x) == 1])
        k = rng.choice([1, 2])
        cases.append((l, k, N, d))
    return cases


def test_translate_randomized_validation():
    rng = random.Random(20240811)
    for l, k, N, d in _random_squarefree_instances(rng, 250):
        reps = coset_reps(l, k, N).tolist()
        s = rng.choice(reps)
        for policy in ("least", "alt"):
            tr = translate_to_parabolic(s, d, N, l=l, policy=policy)
            gamma = tr.gamma
            assert det(gamma) == 1
            assert in_gamma0(gamma, N)
            assert gamma[0][2] == gamma[1][2] == gamma[2][0] == gamma[2][1] == 0
            assert gamma[2][2] == 1
            sg = mat_mul3(s, gamma)
            assert in_parabolic(sg, d)
            # block congruences
            assert (tr.psi1 - sg[0][0]) % d == 0 if d > 1 else True
            assert (tr.psi2[0][0] - sg[0][0]) % (N // d) == 0 if N // d > 1 else True
            # the blocks are the closed form under either choice of gamma
            assert (tr.psi1, tr.psi2, tr.case) == theorem_psi_blocks(s, d, l)


def test_psi_blocks_basics():
    assert psi_blocks(IDENTITY3, 3) == (1, ((1, 0), (0, 1)))
    # unipotent radical elements: psi trivial
    u = mat_mul3(mat_mul3(g_elem_inv(3), mat3([[1, 0, 0], [5, 1, 0], [7, 0, 1]])), g_elem(3))
    assert psi_blocks(u, 3) == (1, ((1, 0), (0, 1)))


def test_psi_congruence_on_parabolic_semigroup_samples():
    rng = random.Random(99)
    N, d = 33, 3
    found = 0
    while found < 200:
        # random element of P_d cap S_0(3,N), built directly: conjugating
        # back by g_d, the first row of s is (y, d*(y - x22), -d*x23) with
        # y = x11 - d*x21, so s lies in S_0(N) iff x23 = 0 mod N/d (x23 = 0
        # in this range) and x22 = x11 - d*x21 mod N/d
        x11, x21 = rng.randint(1, 40), rng.randint(-9, 9)
        x22 = rng.choice([v for v in range(1, 41) if (v - x11 + d * x21) % (N // d) == 0])
        x = mat3(
            [
                [x11, 0, 0],
                [x21, x22, 0],
                [rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 40)],
            ]
        )
        s = mat_mul3(mat_mul3(g_elem_inv(d), x), g_elem(d))
        if gcd(det(s), 5 * N) != 1 or det(s) <= 0:
            continue
        if not in_semigroup(s, N):
            continue
        found += 1
        psi1, psi2 = psi_blocks(s, d)
        assert (psi1 - s[0][0]) % d == 0
        assert (psi2[0][0] - s[0][0]) % (N // d) == 0
        # psi2 lands in the rank-2 semigroup at level N/d
        assert psi2[0][1] % (N // d) == 0


def test_unipotent_levi_intersection_small_height():
    # integral elements of U_d * L^1_d with determinant one are unipotent
    d, N = 3, 33
    for x11 in range(1, 5):
        for u1 in range(-3, 4):
            for u2 in range(-3, 4):
                m = mat3([[x11, 0, 0], [u1, 1, 0], [u2, 0, 1]])
                s = mat_mul3(mat_mul3(g_elem_inv(d), m), g_elem(d))
                if det(s) == 1 and in_gamma0(s, N):
                    assert x11 == 1


def test_orbit_reps_n30():
    orb = ProjectiveOrbits(30)
    assert orb.orbit_count == 8
    for d in divisors(30):
        assert orb.orbit_rep((1, d, 0)) == d


def test_orbit_rep_small_cases():
    assert orbit_rep((1, 1, 0), 1) == 1
    assert orbit_rep((1, 0, 0), 6) == 6  # (1:6:0) reduces to (1:0:0)


def test_orbit_rep_rejects_nonsquarefree():
    with pytest.raises(ValueError):
        ProjectiveOrbits(25)


def test_orbit_rep_constant_on_orbits():
    orb = ProjectiveOrbits(33)
    rng = random.Random(5)
    gens = [
        mat3([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
        mat3([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
        mat3([[1, 0, 0], [0, 1, 0], [0, 1, 1]]),
        mat3([[2, 0, 0], [0, 17, 0], [0, 0, 1]]),  # 2*17 = 34 = 1 mod 33
    ]
    for _ in range(100):
        v = (rng.randint(0, 32), rng.randint(0, 32), rng.randint(0, 32))
        if gcd(gcd(gcd(v[0], v[1]), v[2]), 33) != 1:
            continue
        d = orb.orbit_rep(v)
        g = gens[rng.randrange(len(gens))]
        w = tuple(sum(v[k] * g[k][j] for k in range(3)) % 33 for j in range(3))
        assert orb.orbit_rep(w) == d


@pytest.mark.parametrize("N", [1, 2, 3, 6, 10, 11, 15, 30, 42])
def test_closed_form_orbits_match_bfs_oracle(N):
    bfs = BfsProjectiveOrbits(N)
    orb = ProjectiveOrbits(N)
    assert orb.orbit_count == bfs.orbit_count == len(divisors(N))
    for v in bfs.points():
        assert orb.orbit_rep(v) == bfs.orbit_rep(v)
        assert orbit_rep(v, N) == bfs.orbit_rep(v)


SQUAREFREE_UP_TO_210 = [N for N in range(1, 211) if is_squarefree(N)]


@settings(max_examples=100, deadline=None)
@given(
    N=st.sampled_from(SQUAREFREE_UP_TO_210),
    v=st.tuples(*[st.integers(-500, 500)] * 3),
    word=st.lists(st.integers(0, 10**6), max_size=12),
    scale=st.integers(1, 10**6),
)
def test_orbit_rep_invariant_under_level_group_words(N, v, word, scale):
    assume(gcd(gcd(gcd(v[0], v[1]), v[2]), N) == 1)
    d = orbit_rep(v, N)
    assert N % d == 0
    gens = level_group_generators(N)  # includes the unit-torus elements
    w = v
    for i in word:
        w = tuple(x % N for x in mat_vec3(w, gens[i % len(gens)]))
    u = scale if gcd(scale, N) == 1 else 1
    assert orbit_rep(tuple(x * u for x in w), N) == d


def test_orbit_rep_rejects_bad_input():
    with pytest.raises(ValueError):
        orbit_rep((2, 0, 0), 6)  # not primitive mod 6
    with pytest.raises(ValueError):
        orbit_rep((3, 3, 6), 15)
    with pytest.raises(ValueError):
        orbit_rep((1, 0, 0), 12)  # not squarefree
    for N in (0, -4, -6):
        with pytest.raises(ValueError, match="positive"):
            ProjectiveOrbits(N)


def test_hecke_orbit_action_stabilizes():
    # every coset s has a level-group gamma (solved by the oracle) with
    # s gamma fixing (1:d:0), and (1:d:0) s stays in the orbit of (1:d:0)
    for (l, N, d) in [(2, 11, 1), (2, 33, 3), (3, 35, 5)]:
        for k in (1, 2):
            out = hecke_orbit_action(l, k, N, d)
            assert len(out) == l * l + l + 1
            for s in out.reps.tolist():
                v = mat_vec3((1, d, 0), mat_mul3(s, translate_to_parabolic(s, d, N, l=l).gamma))
                assert v[2] == 0 and v[1] == d * v[0]
                # orbit preservation: (1:d:0)s stays in the orbit of (1:d:0)
                w = mat_vec3((1, d, 0), s)
                assert ProjectiveOrbits(N).orbit_rep(w) == d


def test_case_partition_matches_四_family_split():
    # for T(l,1): l^2 in case 1, l-1 in case 3, 1 in case 4, 1 in case 2
    l, N, d = 2, 33, 3
    cases = hecke_orbit_action(l, 1, N, d).case.tolist()
    assert cases.count(1) == l * l
    assert cases.count(3) == l - 1
    assert cases.count(4) == 1
    assert cases.count(2) == 1


def test_gl2_orbit_example():
    assert gl2_orbit_example_check()


def test_p1_row_equivalence_witness_and_identity_images():
    assert p1_row_orbit_equivalent(25, (5, 1), (5, 6))
    # with s = identity the images stay equivalent
    assert p1_row_orbit_equivalent(25, (5, 1), (5, 6))
    assert not p1_row_orbit_equivalent(25, (10, 1), (5, 3))


PRIMES_UP_TO_47 = [l for l in range(2, 48) if is_prime(l)]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    l=st.sampled_from(PRIMES_UP_TO_47),
    N=st.sampled_from(SQUAREFREE_UP_TO_210),
    k=st.sampled_from([1, 2, 3]),
)
def test_batched_translation_matches_per_coset(data, l, N, k):
    # the closed-form arrays equal, coset by coset, the table and the blocks
    # read off a solved gamma under both choices of gamma: the blocks do
    # not depend on gamma
    assume(N % l)
    d = data.draw(st.sampled_from([x for x in divisors(N) if gcd(x, N // x) == 1]))
    out = hecke_orbit_action(l, k, N, d)
    reps = coset_reps(l, k, N)
    assert len(out) == len(reps) and np.array_equal(out.reps, reps)
    for i, s in enumerate(reps.tolist()):
        got = (out.psi1[i], mat3(out.psi2[i].tolist()), out.case[i])
        assert got == theorem_psi_blocks(s, d, l)
        for policy in ("least", "alt"):
            tr = translate_to_parabolic(s, d, N, l=l, policy=policy)
            assert got == (tr.psi1, tr.psi2, tr.case)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), l=st.sampled_from(PRIMES_UP_TO_47), N=st.sampled_from(SQUAREFREE_UP_TO_210))
def test_every_psi2_lies_in_the_level_semigroup(data, l, N):
    # the closed form never writes psi2's (0, 1) entry, and det psi2 is 1, l
    # or l^2: every psi2 is in the level-N semigroup of the rank-2 group
    assume(N % l)
    d = data.draw(st.sampled_from([x for x in divisors(N) if gcd(x, N // x) == 1]))
    psi2 = hecke_orbit_action(l, (1, 2, 3), N, d).psi2
    assert not psi2[:, 0, 1].any()
    assert set((psi2[:, 0, 0] * psi2[:, 1, 1]).tolist()) <= {1, l, l * l}


@pytest.mark.parametrize("ks", [(1, 2, 3), (3, 1), (2, 2, 1)])
@pytest.mark.parametrize("l,N,d", [(2, 11, 1), (7, 33, 3), (5, 42, 6)])
def test_orbit_action_over_a_sequence_of_ks_concatenates_the_single_ks(l, N, d, ks):
    # one call over several ks gives the single-k results in the order of
    # the ks, each coset tagged with the slot of its k
    out = hecke_orbit_action(l, ks, N, d)
    singles = [hecke_orbit_action(l, k, N, d) for k in ks]
    assert len(out) == sum(len(s) for s in singles)
    for name in ("reps", "case", "psi1", "psi2"):
        assert np.array_equal(getattr(out, name), np.concatenate([getattr(s, name) for s in singles]))
    assert np.array_equal(out.slot, np.repeat(np.arange(len(ks)), [len(s) for s in singles]))
    assert not any(s.slot.any() for s in singles)


def test_corrupted_psi1_of_one_coset_raises(monkeypatch):
    # setting one coset's psi1 wrong must fail the determinant certificate
    blocks = heckegl3._levi_blocks

    def corrupted(*args):
        case, psi1, psi2 = blocks(*args)
        psi1[5] += 1
        return case, psi1, psi2

    hecke_orbit_action(7, 1, 33, 3)
    monkeypatch.setattr(heckegl3, "_levi_blocks", corrupted)
    with pytest.raises(RuntimeError, match=r"psi1 \* det psi2 differs from det s"):
        hecke_orbit_action(7, 1, 33, 3)


@pytest.mark.parametrize("k", [1, 2])
def test_translation_exact_below_the_int64_bound_and_raises_above(k):
    # the bound l ((l - 1) d + 1) < 2^63 holds at l = 3 up to d = top, a
    # multiple of 3; at d = top - 1 the case-3 cosets with a = 2 compute
    # l t = l (2 d + 1) = 2^63 - 11, and every block still equals the closed
    # form in Python integers; d = top + 1 raises (N = d both times)
    l = 3
    top = ((2**63 - 1) // l - 1) // (l - 1)
    d = top - 1
    assert top % l == 0 and d % l == 2 and 2**63 - l * (2 * d + 1) == 11
    out = hecke_orbit_action(l, k, d, d)
    for i, s in enumerate(coset_reps(l, k, d).tolist()):
        assert (out.psi1[i], mat3(out.psi2[i].tolist()), out.case[i]) == theorem_psi_blocks(s, d, l)
    with pytest.raises(OverflowError, match="int64"):
        hecke_orbit_action(l, k, top + 1, top + 1)
