"""Matrix kernels: stacked calls, blockwise flows, and scipy oracles."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mycocat import kernels
from mycocat.errors import DomainError


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(321)
    mats = [rng.normal(size=(n, n)) * s for n in (2, 5, 24) for s in (0.05, 0.5, 2.0)]
    return mats


def rel_fro(a, ref):
    return np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-300)


def test_expm_stack_matches_per_matrix_calls():
    # norms from 1e-3 to above theta_13, so the members' squaring counts differ
    rng = np.random.default_rng(321)
    for n in (2, 5, 24):
        stack = np.stack([rng.normal(size=(n, n)) * s / n for s in (1e-3, 0.05, 0.5, 2.0, 20.0)])
        stacked = kernels.expm(stack)
        for a, got in zip(stack, stacked):
            assert np.array_equal(got, kernels.expm(a))
        assert kernels.expm(stack.reshape(5, 1, n, n)).shape == (5, 1, n, n)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    log_norms=st.lists(st.floats(-8.0, np.log10(50.0)), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_expm_is_batch_invariant(n, log_norms, seed):
    # every member equals its single-matrix call bit for bit, whatever
    # norms share its stack
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(len(log_norms), n, n))
    stack *= (10.0 ** np.array(log_norms) / np.linalg.norm(stack, axis=(1, 2)))[:, None, None]
    for a, got in zip(stack, kernels.expm(stack)):
        assert np.array_equal(got, kernels.expm(a))


def test_expm_against_scipy(samples):
    for a in samples:
        ours = kernels.expm(a)
        ref = scipy.linalg.expm(a)
        scale = np.abs(ref).max()
        assert np.max(np.abs(ours - ref)) < 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("x", [1e20, 1e100, 1e200, 1e300])
def test_expm_of_a_huge_nilpotent_against_scipy(x):
    # 2**s squarings from the Frobenius norm would amplify the Pade
    # roundoff past 1; at 1e200 the sum of squares overflows, and at 1e300
    # so would the unscaled Pade coefficient b_1 = 3.2e16 times the member
    a = np.array([[0.0, x], [0.0, 0.0]])
    ref = scipy.linalg.expm(a)
    assert np.max(np.abs(kernels.expm(a) - ref)) <= 1e-15 * x


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_expm_refuses_a_non_finite_member(bad):
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = bad
    with pytest.raises(DomainError, match="finite"):
        kernels.expm(stack)


@pytest.mark.parametrize("x", [1e300, np.finfo(float).max])
@pytest.mark.parametrize("lower", [False, True])
def test_expm_of_a_square_zero_member_up_to_the_largest_float(x, lower):
    # a @ a = 0 takes no squaring at any norm; the result is I + a, finite,
    # with no numpy warning (warnings are errors in this suite)
    a = np.array([[0.0, x], [0.0, 0.0]])
    if lower:
        a = a.T
    got = kernels.expm(a)
    assert np.isfinite(got).all()
    assert np.max(np.abs(got - (np.eye(2) + a))) <= 1e-15 * x


def cancelling_paths(x):
    """Strictly triangular after a permutation, with the two paths from 0 to
    2 cancelling: a @ a = 0, but its products overflow for x above ~1e154."""
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 2] = a[0, 3] = x
    a[3, 2] = -x
    return a


@pytest.mark.parametrize(
    "a", [[[800.0]], [[0.0, 1e3], [1e3, 0.0]], cancelling_paths(2.0**664)]
)
def test_expm_refuses_a_finite_member_whose_result_overflows(a):
    # exp(800) and exp(1000) exceed the largest float; the cancelling member
    # takes no squaring, and its first product is inf - inf
    stack = np.stack([np.zeros_like(a), a])
    with pytest.raises(DomainError, match="overflows"):
        kernels.expm(stack)


def dense_nilpotent(rng, n):
    """Orthogonal conjugate of a random strictly upper triangular matrix."""
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q @ np.triu(rng.normal(size=(n, n)), 1) @ q.T


@pytest.mark.parametrize("x", [1e2, 1e4, 1e6, 1e8])
def test_expm_squarings_keep_the_pade_error_term_below_roundoff(x):
    # Al-Mohy and Higham 2009, Algorithm 5.1: after s halvings,
    # |c_27| || |A_s|^27 ||_1 / ||A_s||_1 <= 2^-53. A dense nilpotent has
    # A^27 = 0 but |A|^27 far from 0; halving by its powers alone would
    # leave the Pade denominator with condition about (x / 2)^2
    rng = np.random.default_rng(int(x))
    c27 = math.factorial(13) ** 2 / (math.factorial(26) * math.factorial(27))
    members = [x * np.array([[1.0, 1.0], [-1.0, -1.0]])]
    members += [dense_nilpotent(rng, n) for n in (2, 3, 5, 8)]
    members = [m * x / np.linalg.norm(m) for m in members]
    for a in members:
        s = kernels._far_squarings(a[None])[0]
        scaled = np.abs(np.ldexp(a, -s))
        alpha = c27 * np.linalg.norm(np.linalg.matrix_power(scaled, 27), 1)
        assert alpha / np.linalg.norm(scaled, 1) <= 2.0**-53


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    kind=st.sampled_from(["gauss", "non-normal", "nilpotent"]),
    log_norm=st.floats(np.log10(5.4), 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_expm_above_theta_13_against_scipy(n, kind, log_norm, seed):
    rng = np.random.default_rng(seed)
    if kind == "nilpotent":
        a = dense_nilpotent(rng, n)
    else:
        a = rng.normal(size=(n, n))
        if kind == "non-normal":
            a = np.triu(a) * np.logspace(0, 2, n)
    a *= 10.0**log_norm / np.linalg.norm(a)
    assert rel_fro(kernels.expm(a), scipy.linalg.expm(a)) < 1e-10


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    log_norms=st.lists(st.floats(-3.0, 308.0), min_size=1, max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
def test_expm_of_huge_square_zero_members(n, log_norms, seed):
    # members above norm 30 are a = e_0 w^T with w_0 = 0, so a @ a = 0 and
    # exp(a) = I + a at any norm; the others are dense and random
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(len(log_norms), n, n))
    for a, log_norm in zip(stack, log_norms):
        if log_norm > 1.5:
            a[1:] = 0.0
            a[0, 0] = 0.0
        a /= np.linalg.norm(a)
        a *= 10.0**log_norm
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stacked = kernels.expm(stack)
        for a, log_norm, got in zip(stack, log_norms, stacked):
            assert np.array_equal(got, kernels.expm(a))
            if log_norm > 1.5:
                exact = np.eye(n) + a
                assert np.max(np.abs(got - exact)) <= 1e-15 * 10.0**log_norm


def test_logm_stack_matches_per_matrix_calls():
    # members need different square-root counts (norm 0.05 to 2.5)
    rng = np.random.default_rng(11)
    xs = []
    for target in np.linspace(0.05, 2.5, 10):
        x = rng.normal(size=(6, 6))
        xs.append(x * target / np.linalg.norm(x, "fro"))
    stack = np.stack([kernels.expm(x) for x in xs])
    stacked = kernels.logm(stack)
    for m, got in zip(stack, stacked):
        assert np.max(np.abs(got - kernels.logm(m))) < 1e-13


def test_logm_stack_raises_when_one_member_stalls():
    stalled = np.diag([-1.0, 1.0])  # no real principal square root
    with pytest.raises(DomainError):
        kernels.logm(np.stack([np.eye(2), stalled]))


@pytest.mark.parametrize("m", [np.diag([1e200, 1e200]), np.array([[1.0, -1e160], [0.0, 1.0]])])
def test_logm_refuses_a_member_whose_distance_from_i_overflows(m):
    # the sum of squares of M - I overflows before any square root is taken
    with pytest.raises(DomainError, match="overflows"):
        kernels.logm(np.stack([np.eye(2), m]))


def test_logm_against_scipy():
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.normal(size=(5, 5))
        x *= 1.0 / np.linalg.norm(x, "fro")
        m = scipy.linalg.expm(x)
        ours = kernels.logm(m)
        ref = scipy.linalg.logm(m)
        assert np.max(np.abs(ours - np.real(ref))) < 1e-10


def stacked_system(drift, controls):
    """(system, parts) for the flow kernels: the gather of drift and controls
    on the blocks of their union sparsity pattern."""
    mats = np.concatenate((drift[None], controls))
    parts = kernels.blocks((mats != 0).any(axis=0))
    return kernels.gather(mats, parts), parts


def test_piecewise_flow_is_ordered_product():
    rng = np.random.default_rng(13)
    drift = 0.2 * rng.normal(size=(4, 4))
    controls = np.stack([0.3 * rng.normal(size=(4, 4)) for _ in range(2)])
    lengths = np.array([0.5, 0.25])
    inputs = np.array([[1.0, 0.0], [0.0, -1.0]])
    flow = kernels.piecewise_flow(*stacked_system(drift, controls), lengths, inputs)
    first = scipy.linalg.expm(lengths[0] * (drift + controls[0]))
    second = scipy.linalg.expm(lengths[1] * (drift - controls[1]))
    assert np.allclose(flow, second @ first, atol=1e-12)


# ---------------------------------------------------------------------------
# Block decomposition
# ---------------------------------------------------------------------------


def components(parts):
    return sorted(tuple(int(i) for i in row if i >= 0) for row in parts.index)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    density=st.floats(0.0, 0.4),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_are_the_connected_components(n, density, seed):
    rng = np.random.default_rng(seed)
    pattern = rng.random((n, n)) < density
    parts = kernels.blocks(pattern)
    count, labels = scipy.sparse.csgraph.connected_components(pattern, directed=False)
    expected = sorted(tuple(np.flatnonzero(labels == k)) for k in range(count))
    if len(parts.index) == 1 and count > 1:
        # merged into one dense block: padding would cost more
        assert count * max(map(len, expected)) ** 3 > n**3
        assert components(parts) == [tuple(range(n))]
    else:
        assert components(parts) == expected
    firsts = [row[0] for row in parts.index]
    assert firsts == sorted(firsts)
    # gather then scatter keeps exactly the block entries of a matrix
    m = rng.normal(size=(n, n))
    inside = np.zeros((n, n), dtype=bool)
    for comp in components(parts):
        inside[np.ix_(comp, comp)] = True
    assert np.array_equal(kernels.scatter(kernels.gather(m, parts), parts), np.where(inside, m, 0.0))


def test_blocks_merge_when_padding_costs_more_than_dense():
    pattern = np.zeros((24, 24), dtype=bool)
    pattern[:12, :12] = True  # one 12-block and twelve singletons
    assert components(kernels.blocks(pattern)) == [tuple(range(24))]
    pattern = np.eye(24, dtype=bool)
    pattern[0, 1] = True  # one pair and 22 singletons: padding to 2 is cheap
    assert kernels.blocks(pattern).index.shape == (23, 2)


# ---------------------------------------------------------------------------
# Gate: blockwise flows against unblocked products
# ---------------------------------------------------------------------------


def block_structured(rng, sizes, count, kind):
    """``count`` random matrices sharing one block pattern: blocks of the
    given sizes, scattered by a random permutation ("blocks"), fully dense
    ("dense") or all zero ("zero").

    Entries are scaled so piece generators stay below Frobenius norm ~3.
    There scipy's expm, the oracle, is itself accurate to ~2e-14; near norm
    4 its error on non-normal 2x2 blocks reaches 1e-13 (checked against a
    40-digit exponential)."""
    n = sum(sizes)
    mats = np.zeros((count, n, n))
    if kind == "dense":
        mats = 0.5 * rng.normal(size=(count, n, n)) / np.sqrt(n)
    elif kind == "blocks":
        start = 0
        for size in sizes:
            cut = slice(start, start + size)
            mats[:, cut, cut] = 0.5 * rng.normal(size=(count, size, size)) / np.sqrt(size)
            start += size
        perm = rng.permutation(n)
        mats = mats[:, perm][:, :, perm]
    return mats


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    pieces=st.integers(1, 3),
    channels=st.integers(0, 2),
    kind=st.sampled_from(["blocks", "dense", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[1, 1, 1], pieces=2, channels=2, kind="zero", seed=0)
@example(sizes=[6], pieces=3, channels=2, kind="dense", seed=1)
@example(sizes=[1, 2, 1, 3], pieces=3, channels=2, kind="blocks", seed=2)
def test_piecewise_flow_matches_unblocked_product(sizes, pieces, channels, kind, seed):
    rng = np.random.default_rng(seed)
    mats = block_structured(rng, sizes, 1 + channels, kind)
    drift, controls = mats[0], mats[1:]
    lengths = rng.uniform(0.1, 1.0, size=pieces)
    inputs = rng.uniform(-1.0, 1.0, size=(pieces, channels))
    inputs[rng.random((pieces, channels)) < 0.3] = 0.0

    flow = kernels.piecewise_flow(*stacked_system(drift, controls), lengths, inputs)
    n = drift.shape[0]
    ours = ref = np.eye(n)
    for length, u in zip(lengths, inputs):
        gen = length * (drift + np.tensordot(u, controls, axes=1))
        ours = kernels.expm(gen) @ ours
        ref = scipy.linalg.expm(gen) @ ref
    assert rel_fro(flow, ours) < 1e-13
    assert rel_fro(flow, ref) < 1e-13
    if kind == "zero":
        assert np.array_equal(flow, np.eye(n))


def test_apply_flows_matches_flow_matrices_and_single_programs():
    # 130 programs of 0-3 pieces: more than two chunks, null programs included
    rng = np.random.default_rng(14)
    mats = block_structured(rng, [2, 1, 3], 3, "blocks")
    parts = kernels.blocks((mats != 0).any(axis=0))
    system = kernels.gather(mats, parts)
    counts = rng.integers(0, 4, size=130)
    lengths = rng.uniform(0.1, 1.0, size=counts.sum())
    inputs = rng.uniform(-1.0, 1.0, size=(counts.sum(), 2))
    vectors = rng.normal(size=(130, 6))
    out = kernels.apply_flows(system, parts, lengths, inputs, counts, vectors)
    starts = np.cumsum(counts) - counts
    for j, (start, count) in enumerate(zip(starts, counts)):
        own = slice(start, start + count)
        single = kernels.apply_flows(
            system, parts, lengths[own], inputs[own], counts[j:j + 1], vectors[j:j + 1]
        )
        assert np.array_equal(out[j], single[0])
        flow = kernels.piecewise_flow(system, parts, lengths[own], inputs[own])
        assert np.max(np.abs(out[j] - flow @ vectors[j])) < 1e-13 * np.abs(vectors[j]).max()
        if not count:
            assert np.array_equal(out[j], vectors[j])


def test_block_classes_merge_only_byte_identical_blocks():
    # blocks 0, 2 and 4 have the same slices; block 3 differs from them
    # only by a -0.0 drift entry, block 1 by its values
    rng = np.random.default_rng(15)
    same, other = rng.normal(size=(2, 3, 2, 2))
    same[0, 0, 0] = 0.0
    signed = same.copy()
    signed[0, 0, 0] = -0.0
    parts = kernels.blocks(np.kron(np.eye(5, dtype=bool), np.ones((2, 2), dtype=bool)))
    system = np.stack([same, other, same, signed, same], axis=1)
    classes, merged = kernels.block_classes(system, parts)
    assert merged.kind.tolist() == [0, 1, 0, 2, 0]
    assert classes.tobytes() == np.stack([same, other, signed], axis=1).tobytes()
    assert np.array_equal(merged.index, parts.index) and parts.kind.tolist() == list(range(5))

    counts = rng.integers(0, 4, size=70)
    lengths = rng.uniform(0.1, 1.0, size=counts.sum())
    inputs = rng.uniform(-1.0, 1.0, size=(counts.sum(), 2))
    vectors = rng.normal(size=(70, 10))
    got = kernels.apply_flows(classes, merged, lengths, inputs, counts, vectors)
    ref = kernels.apply_flows(system, parts, lengths, inputs, counts, vectors)
    assert got.tobytes() == ref.tobytes()
    got = kernels.piecewise_flow(classes, merged, lengths[:3], inputs[:3])
    assert got.tobytes() == kernels.piecewise_flow(system, parts, lengths[:3], inputs[:3]).tobytes()
