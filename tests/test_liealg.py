"""Lie machinery: exp/log, commutators, truncated expansions, generators."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mycocat.errors import DomainError, ParameterError, ShapeError
from mycocat.liealg import (
    bch_truncated,
    commutator,
    effective_mixture_generator,
    estimate_generator,
    matrix_exp,
    matrix_log,
)
from mycocat.experiments import reference_species
from mycocat.programs import Program, ReferenceDynamics, flow_matrix

UP = np.array([[0.0, 1.0], [0.0, 0.0]])
DOWN = np.array([[0.0, 0.0], [1.0, 0.0]])


def fit_slope(xs, ys):
    xs, ys = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    slope, _ = np.polyfit(xs, ys, 1)
    return slope


class TestMatrixExp:
    def test_exp_of_zero_is_identity(self):
        assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), rtol=0, atol=1e-15)

    def test_nilpotent_series_terminates(self):
        assert np.allclose(
            matrix_exp(UP), np.array([[1.0, 1.0], [0.0, 1.0]]), rtol=0, atol=1e-15
        )

    def test_diagonal_case(self, nprng):
        for _ in range(10):
            a, b = nprng.normal(size=2)
            out = matrix_exp(np.diag([a, b]))
            assert np.allclose(out, np.diag([np.exp(a), np.exp(b)]), rtol=1e-13)

    def test_matches_scipy_at_large_norm(self, nprng):
        for _ in range(20):
            x = nprng.normal(size=(5, 5))
            x *= 5.0 / np.linalg.norm(x, "fro")
            ours = matrix_exp(x)
            ref = scipy.linalg.expm(x)
            assert np.max(np.abs(ours - ref)) / np.max(np.abs(ref)) < 1e-12

    def test_time_argument_scales(self, nprng):
        x = nprng.normal(size=(3, 3))
        assert np.allclose(matrix_exp(x, 0.5), matrix_exp(0.5 * x), atol=0)

    def test_nonfinite_rejected(self):
        bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(Exception):
            matrix_exp(bad)


class TestMatrixLog:
    def test_log_of_identity_is_zero(self):
        assert np.array_equal(matrix_log(np.eye(3)), np.zeros((3, 3)))

    def test_inverse_of_nilpotent_exp(self):
        assert np.allclose(
            matrix_log(np.array([[1.0, 1.0], [0.0, 1.0]])), UP, atol=1e-15
        )

    def test_roundtrip_on_random_generators(self, nprng):
        worst = 0.0
        for _ in range(100):
            x = nprng.normal(size=(4, 4))
            x *= nprng.uniform(0.1, 1.0) / np.linalg.norm(x, "fro")
            back = matrix_log(matrix_exp(x))
            worst = max(worst, float(np.max(np.abs(back - x))))
        assert worst < 1e-10

    def test_negative_real_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            matrix_log(np.diag([-1.0, 1.0]))

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            matrix_log(np.diag([0.0, 1.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        coupling=st.sampled_from(["noncommuting", "commuting"]),
        n_sites=st.integers(1, 4),
        log_eps=st.floats(-3.0, 0.0),
        amp_p=st.floats(-1.9, 1.9),
        amp_q=st.floats(-1.9, 1.9),
        both=st.booleans(),
    )
    @example("noncommuting", 8, 0.0, 1.9, 1.9, True)
    @example("noncommuting", 8, -3.0, 1.0, -1.0, False)
    def test_blockwise_log_matches_scipy(
        self, coupling, n_sites, log_eps, amp_p, amp_q, both
    ):
        """Flows of one or two reference pulses, block diagonal by
        construction, over eps in [1e-3, 1] and amplitudes within +-1.9
        (the noncommuting composite leaves the principal domain only at
        |amp_p * amp_q| * eps^2 >= 4). Near the identity scipy's logm errs
        by ~1e-16 absolute, up to 2e-12 relative to a log of norm 1e-4
        (checked against a 40-digit log), hence the absolute term."""
        species = reference_species(n_sites=n_sites, coupling=coupling)
        eps = 10.0**log_eps
        pieces = [(1.0, (amp_p * eps, 0.0))]
        if both:
            pieces.append((1.0, (0.0, amp_q * eps)))
        m = flow_matrix(species.dynamics, Program(tuple(pieces)))
        ours = matrix_log(m)
        ref = np.real(scipy.linalg.logm(m))
        err = np.linalg.norm(ours - ref)
        assert err < 1e-12 * np.linalg.norm(ref) + 1e-15 * np.linalg.norm(m)

    def test_one_block_on_the_negative_axis_is_rejected(self, nprng):
        good = matrix_exp(0.3 * nprng.normal(size=(3, 3)))
        bad = np.array([[-1.0, 0.5], [0.0, 2.0]])
        m = scipy.linalg.block_diag(good, np.eye(2), bad)
        perm = nprng.permutation(7)
        m = m[perm][:, perm]
        with pytest.raises(DomainError):
            matrix_log(m)
        with pytest.raises(DomainError):
            matrix_log(scipy.linalg.block_diag(good, np.diag([-1.0, 1.0])))


class TestCommutator:
    def test_self_commutator_vanishes(self, nprng):
        x = nprng.normal(size=(3, 3))
        assert np.array_equal(commutator(x, x), np.zeros((3, 3)))

    def test_canonical_nilpotent_pair(self):
        assert np.array_equal(commutator(UP, DOWN), np.diag([1.0, -1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            commutator(np.zeros((2, 2)), np.zeros((3, 3)))

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(np.float64, (3, 3), elements=st.floats(-2, 2)),
        arrays(np.float64, (3, 3), elements=st.floats(-2, 2)),
    )
    def test_antisymmetry(self, x, y):
        assert np.allclose(commutator(x, y), -commutator(y, x), atol=1e-12)

    def test_jacobi_identity(self, nprng):
        for _ in range(100):
            x, y, z = (nprng.normal(size=(4, 4)) for _ in range(3))
            total = (
                commutator(x, commutator(y, z))
                + commutator(y, commutator(z, x))
                + commutator(z, commutator(x, y))
            )
            assert np.max(np.abs(total)) < 1e-12

    def test_bilinearity(self, nprng):
        x, y, z = (nprng.normal(size=(3, 3)) for _ in range(3))
        a, b = 0.7, -1.3
        assert np.allclose(
            commutator(a * x + b * y, z),
            a * commutator(x, z) + b * commutator(y, z),
            atol=1e-12,
        )


class TestBchTruncated:
    def test_order_one_is_scaled_sum(self, nprng):
        x, y = nprng.normal(size=(3, 3)), nprng.normal(size=(3, 3))
        r = bch_truncated(x, y, 0.1, 1)
        assert np.allclose(r.value, 0.1 * (x + y), atol=0)

    def test_order_two_coefficient(self, nprng):
        x, y = nprng.normal(size=(3, 3)), nprng.normal(size=(3, 3))
        eps = 0.2
        r = bch_truncated(x, y, eps, 2)
        second = dict((o, t) for o, t in r.terms)[2]
        assert np.allclose(second, (eps**2 / 2) * commutator(y, x), atol=0)

    def test_commuting_pair_collapses_to_sum(self):
        x = np.diag([1.0, 2.0])
        y = np.diag([-0.5, 0.25])
        for order in (1, 2, 3):
            r = bch_truncated(x, y, 0.3, order)
            assert np.allclose(r.value, 0.3 * (x + y), atol=1e-15)

    def test_value_is_sum_of_terms(self, nprng):
        x, y = nprng.normal(size=(3, 3)), nprng.normal(size=(3, 3))
        r = bch_truncated(x, y, 0.1, 3)
        assert np.allclose(r.value, sum(t for _, t in r.terms), atol=0)

    def test_unsupported_order(self):
        with pytest.raises(ParameterError):
            bch_truncated(UP, DOWN, 0.1, 4)

    @pytest.mark.parametrize(
        "order,eps_grid,expected",
        [
            (1, np.geomspace(1e-1, 1e-3, 5), 2.0),
            (2, np.geomspace(1e-1, 1e-3, 5), 3.0),
            (3, np.geomspace(1e-1, 1e-2, 5), 4.0),
        ],
    )
    def test_truncation_error_order(self, order, eps_grid, expected):
        errors = []
        for eps in eps_grid:
            exact = matrix_log(matrix_exp(DOWN, eps) @ matrix_exp(UP, eps))
            trunc = bch_truncated(UP, DOWN, eps, order).value
            errors.append(np.max(np.abs(trunc - exact)))
        assert fit_slope(eps_grid, errors) == pytest.approx(expected, abs=0.15)


class TestEffectiveMixtureGenerator:
    def test_commuting_pair_adds(self):
        x = np.diag([0.3, -0.2])
        y = np.diag([0.1, 0.5])
        eps = 0.25
        out = effective_mixture_generator(x, y, eps)
        assert np.max(np.abs(out - eps * (x + y))) < 1e-12

    def test_within_fourth_order_of_truncation(self):
        eps = 0.1
        exact = effective_mixture_generator(UP, DOWN, eps)
        trunc = bch_truncated(UP, DOWN, eps, 3).value
        assert np.max(np.abs(exact - trunc)) < 1e-4

    def test_reproduces_the_flow(self, nprng):
        x = 0.5 * nprng.normal(size=(3, 3))
        y = 0.5 * nprng.normal(size=(3, 3))
        eps = 0.2
        gen = effective_mixture_generator(x, y, eps)
        flows = matrix_exp(y, eps) @ matrix_exp(x, eps)
        assert np.max(np.abs(matrix_exp(gen) - flows)) < 1e-10


class TestEstimateGenerator:
    def make_dyn(self, nprng):
        drift = 0.3 * nprng.normal(size=(3, 3))
        a1 = 0.5 * nprng.normal(size=(3, 3))
        return ReferenceDynamics(drift, (a1,))

    def test_zero_control_pulse_recovers_drift(self, nprng):
        dyn = self.make_dyn(nprng)
        family = lambda eps: Program(((eps, (0.0,)),))
        out = estimate_generator(family, dyn, 0.05)
        assert np.max(np.abs(out - dyn.drift)) < 1e-10

    def test_unit_pulse_recovers_drift_plus_control(self, nprng):
        dyn = self.make_dyn(nprng)
        family = lambda eps: Program(((eps, (1.0,)),))
        out = estimate_generator(family, dyn, 0.05)
        assert np.max(np.abs(out - (dyn.drift + dyn.controls[0]))) < 1e-10

    def test_two_scales_agree(self, nprng):
        dyn = self.make_dyn(nprng)
        family = lambda eps: Program(((eps, (1.0,)),))
        a = estimate_generator(family, dyn, 0.1)
        b = estimate_generator(family, dyn, 0.05)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_multi_piece_rejected(self, nprng):
        dyn = self.make_dyn(nprng)
        family = lambda eps: Program(((eps, (1.0,)), (eps, (0.0,))))
        with pytest.raises(ParameterError):
            estimate_generator(family, dyn, 0.1)
