"""Matrix kernels: stacked calls, blockwise flows, and scipy oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import assume, example, given, settings
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


def mp_error(got, a):
    """Normwise error of ``got`` against a 40-digit exp(a)."""
    with mpmath.workdps(40):
        ref = mpmath.expm(mpmath.matrix(a.tolist()))
        return float(mpmath.mnorm(mpmath.matrix(got.tolist()) - ref, "F") / mpmath.mnorm(ref, "F"))


def test_expm_of_1x1_members_is_np_exp():
    # every member takes np.exp itself, which is correctly rounded, at any
    # norm; the overflow refusal of [[800]] covers the top of the range
    x = np.concatenate([
        np.linspace(-kernels._THETA_13, kernels._THETA_13, 101), [0.0, -0.0, 1e-300, 5e-324],
        [5.4, -5.4, 8.0, 160.0, 700.0, 709.78, -700.0, -745.0, -1e300],
    ])
    assert np.array_equal(kernels.expm(x[:, None, None])[:, 0, 0], np.exp(x))


def test_expm_of_2x2_members_with_exact_answers():
    eps = np.finfo(float).eps
    assert np.array_equal(kernels.expm(np.zeros((2, 2))), np.eye(2))
    # square-zero: half trace 0 and discriminant exactly 0, so I + a
    for a in ([[0.0, 3.0], [0.0, 0.0]], [[0.0, 0.0], [-5.0, 0.0]],
              [[2.0, 2.0], [-2.0, -2.0]], [[2.0, -4.0], [1.0, -2.0]]):
        a = np.array(a)
        assert np.array_equal(kernels.expm(a), np.eye(2) + a)
    # diagonal, the padded 1 x 1 block of the reference species included
    for d in ([3.0, -3.0], [5.0, 0.0], [-1.2, 0.7], [3.7, 3.7], [0.0, 1e-9]):
        exact = np.diag(np.exp(d))
        got = kernels.expm(np.diag(d))
        assert np.array_equal(got[[0, 1], [1, 0]], [0.0, 0.0])
        assert np.linalg.norm(got - exact) <= 2 * eps * np.linalg.norm(exact)
    # the rotation generator: discriminant -t^2
    for t in (1e-8, 0.3, 1.0, 2.5, -3.7):
        rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        got = kernels.expm(np.array([[0.0, t], [-t, 0.0]]))
        assert np.max(np.abs(got - rot)) <= eps
    # discriminant about -1e-9, computed with cancellation from h^2 and bc
    a = np.array([[1.0, 2.0], [-0.5, -1.0 + 1e-9]])
    assert mp_error(kernels.expm(a), a) <= 1e-15


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["gauss", "triangular", "near-nilpotent", "diagonal"]),
    log_norm=st.floats(-8.0, np.log10(kernels._THETA_13)),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="gauss", log_norm=np.log10(kernels._THETA_13), seed=0)
def test_expm_2x2_closed_form_against_40_digits(kind, log_norm, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2))
    if kind == "triangular":
        a[1, 0] = 0.0
    elif kind == "diagonal":
        a[[0, 1], [1, 0]] = 0.0
    elif kind == "near-nilpotent":
        # trace 0 and discriminant h^2 + bc within a few ulps of 0
        a[1, 1] = -a[0, 0]
        a[1, 0] = -a[0, 0] ** 2 / a[0, 1]
    a *= 10.0**log_norm / np.linalg.norm(a)
    assert mp_error(kernels.expm(a), a) <= 1e-14


def closed_form_2x2(a):
    """exp of a 2 x 2 member by the closed form, in Python floats: m and h
    from the diagonal, the discriminant h^2 + bc, cosh and sinh of its root
    when it is not negative and cos and sin otherwise, sin / root (1 at
    root 0), then e^m times each entry. The transcendental functions are
    numpy's, one float at a time; every other step is Python arithmetic."""
    x, b, c, d = (float(v) for v in a.ravel())
    m, h = 0.5 * (x + d), 0.5 * (x - d)
    disc = h * h + b * c
    root = math.sqrt(abs(disc))
    trig = (np.cosh, np.sinh) if disc >= 0 else (np.cos, np.sin)
    cos, sin = (float(f(root)) for f in trig)
    q = sin / root if root > 0 else 1.0
    e = float(np.exp(m))
    return [[e * (q * h + cos), e * (q * b)], [e * (q * c), e * (q * -h + cos)]]


def two_by_twos(rng, sign, count):
    """``count`` 2 x 2 members of norm at most theta_13 whose discriminants
    are all positive, all negative, or exactly zero."""
    a = rng.normal(size=(count, 2, 2))
    if sign > 0:  # symmetric: h^2 + b^2 > 0
        a[:, 1, 0] = a[:, 0, 1]
    elif sign < 0:  # b c < -h^2
        a[:, 1, 1] = a[:, 0, 0]
        a[:, 1, 0] = -np.abs(a[:, 0, 1]) - 0.5
        a[:, 0, 1] = np.abs(a[:, 0, 1]) + 0.5
    else:  # h = 1 and b c = -1, h = 0 and b c = 0, or 0; all exact
        x = rng.integers(-8, 9, size=count) / 16
        a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1] = x + 1, 2.0, -0.5, x - 1
        a[::3] = [[0.5, 0.0], [3.0, 0.5]]
        a[1::6] = 0.0
        return a
    return a * np.minimum(1.0, 5.0 / np.linalg.norm(a, axis=(1, 2)))[:, None, None]


@pytest.mark.parametrize("signs", [(1,), (-1,), (0,), (1, -1, 0)], ids=["positive", "negative", "zero", "mixed"])
def test_expm_2x2_planes_match_a_python_float_closed_form(signs):
    # the plane form of the closed form, with only one trig family when
    # every discriminant has one sign, has the bits of the closed form
    # taken member by member
    rng = np.random.default_rng(19)
    a = np.concatenate([two_by_twos(rng, sign, 24) for sign in signs])
    h = 0.5 * (a[:, 0, 0] - a[:, 1, 1])
    disc = h * h + a[:, 0, 1] * a[:, 1, 0]
    assert {int(np.sign(v)) for v in disc} == set(signs)
    assert (np.linalg.norm(a, axis=(1, 2)) <= kernels._THETA_13).all()
    want = np.array([closed_form_2x2(member) for member in a])
    assert kernels.expm(a).tobytes() == want.tobytes()
    # a stack with a member above theta_13 takes the mixed path
    far = np.concatenate((a, [[[0.0, 9.0], [-9.0, 0.0]]]))
    assert kernels.expm(far)[:-1].tobytes() == want.tobytes()


def test_expm_keeps_the_pade_path_off_the_closed_form():
    # a member of size 3 or more, or a full 2 x 2 member above theta_13, has
    # the bits of the Pade approximant with its own squaring count
    rng = np.random.default_rng(17)
    for n, norm in ((2, 5.4), (2, 40.0), (3, 0.5), (3, 20.0)):
        a = rng.normal(size=(4, n, n))
        a *= (norm / np.linalg.norm(a, axis=(1, 2)))[:, None, None]
        far = norm > kernels._THETA_13
        squarings = kernels._far_squarings(a) if far else np.zeros(4, dtype=int)
        assert np.array_equal(kernels.expm(a), kernels._pade_13(a, squarings))


def test_expm_2x2_where_scipy_errs():
    # scipy is no oracle at the sweep's tolerance: here, at norm 5.37, its
    # expm errs by 8e-13 against 40 digits, and the closed form by 1.3e-16
    a = np.array([[-0.535, -2.958], [-4.133, 1.649]])
    assert np.linalg.norm(a) <= kernels._THETA_13
    assert mp_error(kernels.expm(a), a) <= 1e-15


def mp_triangular_exp(a):
    """exp of a triangular 2 x 2 ``a`` to 50 digits, entry by entry:
    e^a, e^d and b or c times (e^a - e^d) / (a - d), taken as
    e^d expm1(a - d) / (a - d) so that it does not cancel, and as e^a where
    a = d; mpmath's exponent range holds e^(-1e300)."""
    with mpmath.workdps(50):
        x, y = mpmath.mpf(a[0, 0]), mpmath.mpf(a[1, 1])
        ex, ey = mpmath.exp(x), mpmath.exp(y)
        delta = ex if x == y else ey * mpmath.expm1(x - y) / (x - y)
        return [[ex, mpmath.mpf(a[0, 1]) * delta], [mpmath.mpf(a[1, 0]) * delta, ey]]


def triangular_error(got, a):
    """Largest entrywise error of ``got`` against :func:`mp_triangular_exp`,
    relative to the entry, in units of eps; an entry below the smallest
    normal float counts its absolute error in units of that float."""
    ref = mp_triangular_exp(a)
    tiny = np.finfo(float).tiny
    return max(
        float(abs(mpmath.mpf(got[i, j]) - ref[i][j]) / max(abs(ref[i][j]), tiny))
        for i in range(2) for j in range(2)
    ) / np.finfo(float).eps


@pytest.mark.parametrize("lower", [False, True])
def test_expm_of_a_stiff_triangular_member_against_mpmath(lower):
    # [[-s, s], [0, 0]] has exp [[e^-s, 1 - e^-s], [0, 1]]; the Pade path's
    # squarings lost 3.9e-3 at s = 1e14 and 0.98 at s = 1e17. Below
    # theta_13 / sqrt(2) the member takes the general 2 x 2 closed form.
    for s in np.logspace(-3, 300, 607):
        a = np.array([[-s, s], [0.0, 0.0]])
        if lower:
            a = a[::-1, ::-1].copy()
        got = kernels.expm(a)
        assert triangular_error(got, a) <= 4, s
        exact = np.array([[np.exp(-s), -np.expm1(-s)], [0.0, 1.0]])
        assert np.max(np.abs(got - (exact[::-1, ::-1] if lower else exact))) <= 2.3e-16, s


@settings(max_examples=150, deadline=None)
@given(
    diagonal=st.tuples(st.floats(-700.0, 700.0), st.floats(-3.0, 3.0)),
    log_off=st.floats(-3.0, 300.0),
    upper=st.booleans(),
    same=st.booleans(),
)
@example(diagonal=(-700.0, 0.0), log_off=300.0, upper=True, same=False)
@example(diagonal=(650.0, 1.0), log_off=2.0, upper=False, same=True)
def test_expm_triangular_2x2_above_theta_13_against_mpmath(diagonal, log_off, upper, same):
    # both branches of the divided difference: |a - d| above 2 and within
    # it (``same`` puts d within 3 of a); the error is relative to each
    # entry, and e^((a + d) / 2) is off by up to |a| ulps where a + d rounds
    x, dy = diagonal
    y = x + dy if same else dy
    a = np.zeros((2, 2))
    a[0, 0], a[1, 1] = x, y
    a[(0, 1) if upper else (1, 0)] = -(10.0**log_off)
    # below theta_13 the general closed form; hypot does not overflow
    assume(math.hypot(*a.ravel()) > kernels._THETA_13)
    if any(abs(entry) > np.finfo(float).max for row in mp_triangular_exp(a) for entry in row):
        with pytest.raises(DomainError, match="overflows"):
            kernels.expm(a)
        return
    got = kernels.expm(a)
    assert np.array_equal(got, kernels._expm_triangular_2x2(a[None])[0])
    assert triangular_error(got, a) <= 2 * (1 + max(abs(x), abs(y)))


def test_expm_triangular_2x2_agrees_with_mpmath_expm():
    # the closed form against mpmath's own expm, which shares no formula
    rng = np.random.default_rng(26)
    for _ in range(20):
        a = np.triu(rng.normal(size=(2, 2))) * rng.uniform(3.0, 40.0)
        if rng.random() < 0.5:
            a = a.T.copy()
        assert np.linalg.norm(a) > kernels._THETA_13 or abs(a[0, 1] + a[1, 0]) == 0
        assert mp_error(kernels.expm(a), a) <= 1e-14


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
        assert got.tobytes() == kernels.logm(m).tobytes()


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
    # an isolated slot with a zero diagonal is static: in no block
    static = ~(pattern.any(axis=0) | pattern.any(axis=1))
    expected = sorted(
        tuple(comp)
        for k in range(count)
        if not (len(comp := np.flatnonzero(labels == k)) == 1 and static[comp[0]])
    )
    active = tuple(np.flatnonzero(~static))
    assert tuple(parts.active) == active
    if len(parts.index) == 1 and len(expected) > 1:
        # merged into one dense block: padding would cost more
        assert len(expected) * max(map(len, expected)) ** 3 > len(active) ** 3
        assert components(parts) == [active]
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
    pattern[:12, :12] = True  # one 12-block and twelve static slots
    assert components(kernels.blocks(pattern)) == [tuple(range(12))]
    pattern |= np.eye(24, dtype=bool)  # the singletons now active
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
    # 130 programs of 0-3 pieces in one flow call, null programs included
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


def test_apply_flows_splits_a_piece_stack_past_the_byte_bound(monkeypatch):
    # a dense 16 x 16 species: 2 KiB a piece, so one call holds 512 pieces;
    # 800 programs of 0-3 pieces need three calls, and one program past
    # the bound on its own takes a call of its own
    rng = np.random.default_rng(16)
    mats = block_structured(rng, [16], 2, "dense")
    parts = kernels.blocks((mats != 0).any(axis=0))
    system = kernels.gather(mats, parts)
    per_call = kernels.FLOW_BYTES // system[0].nbytes
    counts = rng.integers(0, 4, size=800)
    counts[400] = per_call + 1
    lengths = rng.uniform(0.1, 1.0, size=counts.sum())
    inputs = rng.uniform(-1.0, 1.0, size=(counts.sum(), 1))
    vectors = rng.normal(size=(800, 16))
    calls = []
    expm = kernels.expm

    def counted(a):
        calls.append(len(a))
        return expm(a)

    monkeypatch.setattr(kernels, "expm", counted)
    out = kernels.apply_flows(system, parts, lengths, inputs, counts, vectors)
    assert sum(calls) == counts.sum() > 3 * per_call
    assert len(calls) == 5 and sorted(calls)[-2] <= per_call
    assert calls[2] == counts[400]
    starts = np.cumsum(counts) - counts
    for j, (start, count) in enumerate(zip(starts, counts)):
        own = slice(start, start + count)
        single = kernels.apply_flows(
            system, parts, lengths[own], inputs[own], counts[j:j + 1], vectors[j:j + 1]
        )
        assert np.array_equal(out[j], single[0])


@pytest.mark.parametrize(
    "flow_bytes, one_call", [(kernels.FLOW_BYTES, True), (2**12, False)], ids=["one-call", "split"]
)
def test_apply_flows_runs_each_program_from_its_k_states(monkeypatch, flow_bytes, one_call):
    # (P, k, n) states give the bits of the (P * k, n) call with each
    # program listed k times, and each program's pieces are exponentiated
    # once; 2**12 bytes hold 18 pieces of this species, so the split case
    # takes several calls
    rng = np.random.default_rng(17)
    mats = block_structured(rng, [2, 1, 3], 3, "blocks")
    parts = kernels.blocks((mats != 0).any(axis=0))
    system = kernels.gather(mats, parts)
    counts = rng.integers(0, 4, size=40)
    lengths = rng.uniform(0.1, 1.0, size=counts.sum())
    inputs = rng.uniform(-1.0, 1.0, size=(counts.sum(), 2))
    vectors = rng.normal(size=(40, 5, 6))
    rows = np.repeat(np.arange(40), 5)
    starts = np.cumsum(counts) - counts
    pieces = np.concatenate([np.arange(a, a + c) for a, c in zip(starts[rows], counts[rows])])
    monkeypatch.setattr(kernels, "FLOW_BYTES", flow_bytes)
    ref = kernels.apply_flows(
        system, parts, lengths[pieces], inputs[pieces], counts[rows], vectors.reshape(200, 6)
    )
    calls = []
    expm = kernels.expm

    def counted(a):
        calls.append(len(a))
        return expm(a)

    monkeypatch.setattr(kernels, "expm", counted)
    got = kernels.apply_flows(system, parts, lengths, inputs, counts, vectors)
    assert got.shape == vectors.shape
    assert got.tobytes() == ref.tobytes()
    assert sum(calls) == counts.sum()
    assert (len(calls) == 1) == one_call


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


def oracle_rows(flow, parts, vector):
    """``flow @ vector`` in Python floats, one block at a time: row i of
    block b is sum_j F_ij x_j over the block's indices j in block order,
    each product rounded on its own and added in that order."""
    out = [0.0] * parts.n
    for index in parts.index:
        cols = [int(j) for j in index if j >= 0]
        for i in cols:
            acc = float(flow[i, cols[0]]) * float(vector[cols[0]])
            for j in cols[1:]:
                acc += float(flow[i, j]) * float(vector[j])
            out[i] = acc
    return out


def two_by_two_classes(rng):
    # four 2 x 2 blocks, scattered, in two byte-identical pairs: 2 classes
    pair = 0.5 * rng.normal(size=(2, 3, 2, 2))
    perm = rng.permutation(8)
    pattern = np.kron(np.eye(4, dtype=bool), np.ones((2, 2), dtype=bool))[perm][:, perm]
    parts = kernels.blocks(pattern)
    system = np.stack([pair[0], pair[1], pair[1], pair[0]], axis=1)
    classes, merged = kernels.block_classes(system, parts)
    assert len(classes[0]) == 2 and merged.index.shape == (4, 2)
    return classes, merged


def single_entries(rng):
    # the commuting species' shape: every block is 1 x 1
    mats = np.stack([np.diag(0.5 * rng.normal(size=7)) for _ in range(3)])
    parts = kernels.blocks(np.eye(7, dtype=bool))
    assert parts.index.shape == (7, 1)
    return kernels.gather(mats, parts), parts


def one_dense_block(rng):
    mats = block_structured(rng, [12], 3, "dense")
    parts = kernels.blocks((mats != 0).any(axis=0))
    assert parts.index.shape == (1, 12)
    return kernels.gather(mats, parts), parts


@pytest.mark.parametrize("build", [two_by_two_classes, single_entries, one_dense_block])
@pytest.mark.parametrize("k", [None, 3], ids=["P-n", "P-k-n"])
def test_apply_flows_rows_sum_their_columns_in_order(build, k):
    # each row is F_i0 x_0 + F_i1 x_1 + ... in column order with every
    # product rounded on its own, whichever kernel BLAS would dispatch: a
    # fused multiply-add (as BLAS gemv may use) or another order moves bits
    rng = np.random.default_rng(18)
    system, parts = build(rng)
    counts = rng.integers(0, 4, size=25)
    lengths = rng.uniform(0.1, 1.0, size=counts.sum())
    inputs = rng.uniform(-1.0, 1.0, size=(counts.sum(), 2))
    vectors = rng.normal(size=(25, parts.n) if k is None else (25, k, parts.n))
    got = kernels.apply_flows(system, parts, lengths, inputs, counts, vectors)
    assert got.shape == vectors.shape
    starts = np.cumsum(counts) - counts
    for p, (start, count) in enumerate(zip(starts, counts)):
        own = slice(start, start + count)
        flow = kernels.piecewise_flow(system, parts, lengths[own], inputs[own])
        for state, row in zip(vectors[p].reshape(-1, parts.n), got[p].reshape(-1, parts.n)):
            want = oracle_rows(flow, parts, state) if count else state.tolist()
            assert row.tobytes() == np.array(want).tobytes()


def static_slot_species(rng, sizes):
    """(system, parts) of blocks of the given sizes, scattered, with two
    static slots that no matrix touches."""
    mats = block_structured(rng, sizes + [1, 1], 3, "blocks")
    n = len(mats[0])
    static = rng.choice(n, size=2, replace=False)
    mats[:, static] = 0.0
    mats[:, :, static] = 0.0
    parts = kernels.blocks((mats != 0).any(axis=0))
    assert sorted(set(range(n)) - set(parts.active.tolist())) == sorted(static.tolist())
    return (*kernels.block_classes(kernels.gather(mats, parts), parts), static)


@pytest.mark.parametrize("sizes", [[2, 1, 3], [2, 2]], ids=["padded", "unpadded"])
@pytest.mark.parametrize("k", [None, 3], ids=["P-n", "P-k-n"])
@pytest.mark.parametrize("flow_bytes", [kernels.FLOW_BYTES, 2**11], ids=["one-call", "split"])
def test_static_slots_keep_their_input_bits(monkeypatch, sizes, k, flow_bytes):
    # a static slot is in no block: every program, with pieces or without,
    # leaves its entries as they are, -0.0 included, and its flow is 1.0 on
    # that slot's diagonal and 0.0 elsewhere on its row and column
    rng = np.random.default_rng(20)
    system, parts, static = static_slot_species(rng, sizes)
    monkeypatch.setattr(kernels, "FLOW_BYTES", flow_bytes)
    counts = rng.integers(0, 4, size=30)
    counts[:2] = (0, 2)
    lengths = rng.uniform(0.1, 1.0, size=counts.sum())
    inputs = rng.uniform(-1.0, 1.0, size=(counts.sum(), 2))
    vectors = rng.normal(size=(30, parts.n) if k is None else (30, k, parts.n))
    vectors[..., static[0]] = -0.0
    got = kernels.apply_flows(system, parts, lengths, inputs, counts, vectors)
    assert got[..., static].tobytes() == vectors[..., static].tobytes()
    starts = np.cumsum(counts) - counts
    for p, (start, count) in enumerate(zip(starts, counts)):
        own = slice(start, start + count)
        flow = kernels.piecewise_flow(system, parts, lengths[own], inputs[own])
        assert np.array_equal(flow[static], np.eye(parts.n)[static])
        assert np.array_equal(flow[:, static], np.eye(parts.n)[:, static])
        for state, row in zip(vectors[p].reshape(-1, parts.n), got[p].reshape(-1, parts.n)):
            want = np.array(oracle_rows(flow, parts, state) if count else state.tolist())
            assert row[parts.active].tobytes() == want[parts.active].tobytes()


@pytest.mark.parametrize("k", [None, 3], ids=["P-n", "P-k-n"])
def test_zero_dynamics_moves_no_state(k):
    # no slot is active: no block, no expm call, and every state keeps its
    # bytes; the flow of any program is the identity
    rng = np.random.default_rng(21)
    mats = np.zeros((3, 5, 5))
    mats[1, 2, 2] = -0.0
    parts = kernels.blocks((mats != 0).any(axis=0))
    assert parts.index.shape == (0, 0) and len(parts.active) == 0 and len(parts.place) == 0
    system, parts = kernels.block_classes(kernels.gather(mats, parts), parts)
    counts = np.array([0, 2, 1, 3])
    lengths = rng.uniform(0.1, 1.0, size=6)
    inputs = rng.uniform(-1.0, 1.0, size=(6, 2))
    vectors = rng.normal(size=(4, 5) if k is None else (4, k, 5))
    vectors[..., 1] = -0.0
    got = kernels.apply_flows(system, parts, lengths, inputs, counts, vectors)
    assert got.tobytes() == vectors.tobytes()
    flow = kernels.piecewise_flow(system, parts, lengths, inputs)
    assert flow.tobytes() == np.eye(5).tobytes()


def test_one_piece_programs_have_the_bits_of_a_mixed_run():
    # the piece stack of a run of one-piece programs is its flows, with the
    # bits those programs have inside a run that takes the product loop
    rng = np.random.default_rng(22)
    for build in (two_by_two_classes, single_entries, one_dense_block):
        system, _ = build(rng)
        ones = np.ones(12, dtype=int)
        mixed = np.concatenate(([3, 2], ones, [2, 1]))
        lengths = rng.uniform(0.1, 1.0, size=mixed.sum())
        inputs = rng.uniform(-1.0, 1.0, size=(mixed.sum(), system.shape[0] - 1))
        inside = kernels._block_flows(system, lengths, inputs, mixed)
        alone = kernels._block_flows(system, lengths[5:17], inputs[5:17], ones)
        assert alone.shape == (12,) + system.shape[1:]
        assert alone.tobytes() == inside[2:14].tobytes()
        last = kernels._block_flows(system, lengths[-1:], inputs[-1:], ones[:1])
        assert last.tobytes() == inside[-1:].tobytes()
