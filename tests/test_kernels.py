"""Matrix kernels: stacked calls, blockwise flows, and scipy oracles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mycocat import kernels


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(321)
    mats = [rng.normal(size=(n, n)) * s for n in (2, 5, 24) for s in (0.05, 0.5, 2.0)]
    return mats


def rel_fro(a, ref):
    return np.linalg.norm(a - ref) / max(np.linalg.norm(ref), 1e-300)


def test_expm_stack_matches_per_matrix_calls():
    # norms from below theta_3 to above theta_13, so the stack's degree and
    # squaring count differ from most members' own
    rng = np.random.default_rng(321)
    for n in (2, 5, 24):
        stack = np.stack([rng.normal(size=(n, n)) * s / n for s in (1e-3, 0.05, 0.5, 2.0, 20.0)])
        stacked = kernels.expm(stack)
        for a, got in zip(stack, stacked):
            assert rel_fro(got, kernels.expm(a)) < 1e-13
        assert kernels.expm(stack.reshape(5, 1, n, n)).shape == (5, 1, n, n)


def test_expm_against_scipy(samples):
    for a in samples:
        ours = kernels.expm(a)
        ref = scipy.linalg.expm(a)
        scale = np.abs(ref).max()
        assert np.max(np.abs(ours - ref)) < 1e-12 * max(1.0, scale)


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
    with pytest.raises(ValueError):
        kernels.logm(np.stack([np.eye(2), stalled]))


def test_logm_against_scipy():
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.normal(size=(5, 5))
        x *= 1.0 / np.linalg.norm(x, "fro")
        m = scipy.linalg.expm(x)
        ours = kernels.logm(m)
        ref = scipy.linalg.logm(m)
        assert np.max(np.abs(ours - np.real(ref))) < 1e-10


def test_piecewise_flow_is_ordered_product():
    rng = np.random.default_rng(13)
    drift = 0.2 * rng.normal(size=(4, 4))
    controls = np.stack([0.3 * rng.normal(size=(4, 4)) for _ in range(2)])
    lengths = np.array([0.5, 0.25])
    inputs = np.array([[1.0, 0.0], [0.0, -1.0]])
    flow = kernels.piecewise_flow(drift, controls, lengths, inputs)
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

    flow = kernels.piecewise_flow(drift, controls, lengths, inputs)
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
