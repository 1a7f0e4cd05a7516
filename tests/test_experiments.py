"""Order-asymmetry scans, log-log fits, and the two-pulse worked example."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat import kernels
from mycocat.errors import ConfigError, InsufficientDataError
from mycocat.experiments import (
    DELTA_FLOOR,
    ExposureExperiment,
    PulseTemplate,
    WorkedExampleConfig,
    electrode_array,
    fit_loglog_slope,
    initial_state,
    reference_species,
    run_order_asymmetry_scan,
    run_worked_example,
)
from mycocat.envmyc import myc_distance
from mycocat.laws import SpeciesFunctor
from mycocat.liealg import commutator, estimate_generator
from mycocat.programs import (
    Extraction,
    ReferenceDynamics,
    StateLayout,
    concatenate,
    evolve,
)


class TestFitLoglogSlope:
    def test_exact_square_law(self):
        rows = [(eps, eps**2) for eps in (0.2, 0.1, 0.05, 0.01)]
        fit = fit_loglog_slope(rows)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_cubic_with_prefactor(self):
        rows = [(eps, 5 * eps**3) for eps in (0.3, 0.1, 0.03, 0.01)]
        fit = fit_loglog_slope(rows)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-10)

    def test_noisy_square_law_stays_close(self):
        rng = np.random.default_rng(8)
        rows = [
            (eps, eps**2 * (1 + 0.01 * rng.standard_normal()))
            for eps in np.geomspace(0.5, 0.005, 12)
        ]
        fit = fit_loglog_slope(rows)
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_fewer_than_three_positive_rows_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_loglog_slope([(0.1, 0.01), (0.05, 0.0), (0.01, 0.0)])


def experiment(coupling="noncommuting", scaling="amplitude", **kwargs):
    species = reference_species(n_sites=2, channels=2, features=3, coupling=coupling)
    return ExposureExperiment(
        species=species,
        pulse_p=PulseTemplate(channel=0),
        pulse_q=PulseTemplate(channel=1),
        scaling=scaling,
        **kwargs,
    )


class TestExperimentValidation:
    def test_grid_must_decrease(self):
        with pytest.raises(ConfigError):
            experiment(eps_grid=(0.01, 0.05, 0.1, 0.2))

    def test_grid_needs_four_points(self):
        with pytest.raises(ConfigError):
            experiment(eps_grid=(0.2, 0.1, 0.05))

    def test_grid_needs_a_decade(self):
        with pytest.raises(ConfigError):
            experiment(eps_grid=(0.2, 0.15, 0.1, 0.05))

    def test_unknown_scaling_rejected(self):
        with pytest.raises(ConfigError):
            experiment(scaling="sideways")


class TestOrderAsymmetryScan:
    def test_noncommuting_pair_is_quadratic(self):
        report = run_order_asymmetry_scan(experiment())
        assert report.slope == pytest.approx(2.0, abs=0.1)
        assert report.r_squared >= 0.999
        assert report.verdict == "quadratic"
        assert report.commutator_norm > 0

    def test_duration_scaling_matches(self):
        report = run_order_asymmetry_scan(experiment(scaling="duration"))
        assert report.slope == pytest.approx(2.0, abs=0.1)

    def test_commuting_pair_hits_floor(self):
        report = run_order_asymmetry_scan(experiment(coupling="commuting"))
        assert all(delta <= DELTA_FLOOR for _, delta in report.rows)
        assert report.slope is None
        assert "commuting" in report.verdict
        assert report.commutator_norm < 1e-10

    def test_identical_pulses_flagged_and_fit_skipped(self):
        species = reference_species(n_sites=2, channels=2, features=3)
        exp = ExposureExperiment(
            species=species,
            pulse_p=PulseTemplate(channel=0),
            pulse_q=PulseTemplate(channel=0),
        )
        report = run_order_asymmetry_scan(exp)
        assert report.slope is None
        assert len(report.excluded) == len(report.rows)

    def test_commutator_norm_consistent_with_verdict(self):
        quad = run_order_asymmetry_scan(experiment())
        flat = run_order_asymmetry_scan(experiment(coupling="commuting"))
        assert (quad.commutator_norm > 1e-10) == (quad.verdict == "quadratic")
        assert (flat.commutator_norm > 1e-10) == (flat.verdict == "quadratic")

    def test_dropping_largest_eps_barely_moves_slope(self):
        full = run_order_asymmetry_scan(experiment())
        trimmed = run_order_asymmetry_scan(
            experiment(eps_grid=(0.1, 0.05, 0.02, 0.01))
        )
        assert abs(full.slope - trimmed.slope) < 0.05

    def test_report_is_deterministic(self):
        a = run_order_asymmetry_scan(experiment())
        b = run_order_asymmetry_scan(experiment())
        assert a == b

    @pytest.mark.parametrize("scaling", ["amplitude", "duration"])
    def test_rows_match_per_eps_evolve_loop(self, scaling):
        # the scan runs both orderings over the grid in one batch; each row
        # has the bits of its own two evolve calls
        exp = experiment(scaling=scaling, eps_grid=tuple(np.geomspace(0.3, 0.003, 70)))
        assert scan_rows_oracle(exp, lambda f, s, p: evolve(s, p, f.dynamics)) == list(
            run_order_asymmetry_scan(exp).rows
        )

    def test_overridden_transform_is_honoured(self):
        class Doubling(SpeciesFunctor):
            def transform_many(self, vectors, table):
                return 2.0 * super().transform_many(vectors, table)

        base = experiment()
        mutant = Doubling("doubling", base.species.dynamics, base.species.extraction)
        exp = dataclasses.replace(base, species=mutant)
        rows = list(run_order_asymmetry_scan(exp).rows)
        assert rows == scan_rows_oracle(exp, lambda f, s, p: f.transform(s, p))
        # doubling both final states doubles every distance exactly
        assert rows == [(eps, 2.0 * d) for eps, d in run_order_asymmetry_scan(base).rows]


def dense_commutator_norm(exp):
    """The scan's commutator norm through n x n: the two generator
    estimates, their dense commutator, its Frobenius norm."""
    dyn = exp.species.dynamics
    x_p, x_q = (
        estimate_generator(pulse.generator_family(dyn.channels), dyn, 0.1)
        for pulse in (exp.pulse_p, exp.pulse_q)
    )
    return float(np.linalg.norm(commutator(x_p, x_q), "fro"))


def repeated_block_species(rng, sizes):
    """Species on a path of sum(sizes) one-feature sites whose drift and two
    controls are one random block per size, repeated for every block of
    that size and scattered to permuted indices; a drift chain keeps each
    block one component."""
    n = sum(sizes)
    mats = np.zeros((3, n, n))
    templates = {}
    start = 0
    for size in sizes:
        if size not in templates:
            block = 0.5 * rng.normal(size=(3, size, size)) / np.sqrt(size)
            block[0, np.arange(size - 1), np.arange(1, size)] = 0.5
            templates[size] = block
        mats[:, start:start + size, start:start + size] = templates[size]
        start += size
    perm = rng.permutation(n)
    mats = mats[:, perm][:, :, perm]
    dyn = ReferenceDynamics(mats[0], (mats[1], mats[2]))
    return SpeciesFunctor("blocks", dyn, Extraction(StateLayout(electrode_array(n), 1)))


class TestScanCommutator:
    """The scan estimates both generators and their commutator on the block
    classes of the dynamics; the n x n path is the oracle."""

    @pytest.mark.parametrize("coupling", ["noncommuting", "commuting"])
    @pytest.mark.parametrize("n_sites", [1, 8, 64])
    def test_reference_species_bit_for_bit(self, coupling, n_sites):
        exp = dataclasses.replace(
            experiment(coupling=coupling),
            species=reference_species(n_sites=n_sites, coupling=coupling),
        )
        assert run_order_asymmetry_scan(exp).commutator_norm == dense_commutator_norm(exp)

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=2, max_size=10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_repeated_block_species(self, sizes, seed):
        # a blockwise product can round differently from a dense one
        species = repeated_block_species(np.random.default_rng(seed), sizes)
        exp = dataclasses.replace(experiment(), species=species)
        ours = run_order_asymmetry_scan(exp).commutator_norm
        dense = dense_commutator_norm(exp)
        assert abs(ours - dense) <= 1e-13 * dense

    @pytest.mark.parametrize("coupling", ["noncommuting", "commuting"])
    def test_no_block_search_and_one_log_per_class(self, monkeypatch, coupling):
        exp = dataclasses.replace(
            experiment(coupling=coupling),
            species=reference_species(n_sites=64, coupling=coupling),
        )
        classes = exp.species.dynamics._system.shape[1]
        searches, members = [], []
        blocks, logm = kernels.blocks, kernels.logm

        def counted_blocks(pattern):
            searches.append(pattern.shape)
            return blocks(pattern)

        def counted_logm(m):
            members.append(m.size // m.shape[-1] ** 2)
            return logm(m)

        monkeypatch.setattr(kernels, "blocks", counted_blocks)
        monkeypatch.setattr(kernels, "logm", counted_logm)
        run_order_asymmetry_scan(exp)
        assert searches == []
        assert members and max(members) <= 2 * classes


def scan_rows_oracle(exp, run):
    """(eps, delta) rows of the scan from one ``run`` per ordering and eps."""
    species = exp.species
    channels = species.dynamics.channels
    state = initial_state(species.extraction.layout, exp.seed)
    rows = []
    for eps in exp.eps_grid:
        p = exp.pulse_p.program(eps, exp.scaling, channels)
        q = exp.pulse_q.program(eps, exp.scaling, channels)
        pq = species.on_object(run(species, state, concatenate(p, q)))
        qp = species.on_object(run(species, state, concatenate(q, p)))
        rows.append((eps, float(myc_distance(pq, qp, exp.weights))))
    return rows


class TestWorkedExample:
    def test_default_run_meets_predictions(self):
        result = run_worked_example()
        for mode in ("amplitude", "duration"):
            scan = result.scans[mode]
            assert scan.slope == pytest.approx(2.0, abs=0.1)
            assert scan.r_squared >= 0.999
            assert scan.verdict == "quadratic"
        laws = {r.law: r for r in result.law_reports}
        assert laws["functor-laws"].passed
        assert laws["functor-laws"].max_residual < 1e-10
        assert laws["compatibility"].passed

    def test_environment_pulses_recorded(self):
        result = run_worked_example()
        env = result.env_initial
        assert len(env.graph.nodes) == 8
        site0 = env.graph.nodes[0]
        assert result.env_after_a.phi[site0][0] == pytest.approx(0.5)
        mid = env.graph.nodes[4]
        assert result.env_after_b.phi[mid][1] == pytest.approx(0.5)
        # composite carries both pulses
        assert result.env_after_ab.phi[site0][0] == pytest.approx(0.5)
        assert result.env_after_ab.phi[mid][1] == pytest.approx(0.5)

    def test_commuting_variant_verdict(self):
        result = run_worked_example(WorkedExampleConfig(coupling="commuting"))
        for scan in result.scans.values():
            below_floor = all(d <= 1e-12 for _, d in scan.rows)
            assert below_floor or scan.slope >= 2.8

    def test_single_scaling_mode_restriction(self):
        result = run_worked_example(WorkedExampleConfig(scaling_modes=("duration",)))
        assert set(result.scans) == {"duration"}
        assert result.summary_json()["config"]["scaling_modes"] == ["duration"]

    def test_summary_json_is_deterministic(self):
        import json

        a = json.dumps(run_worked_example().summary_json(), sort_keys=True)
        b = json.dumps(run_worked_example().summary_json(), sort_keys=True)
        assert a == b

    def test_config_from_json_rejects_unknown_field(self):
        with pytest.raises(ConfigError, match="not_a_field"):
            WorkedExampleConfig.from_json({"not_a_field": 1})

    def test_config_from_json_reports_bad_pulse_path(self):
        with pytest.raises(ConfigError, match="pulse_p"):
            WorkedExampleConfig.from_json({"pulse_p": {"amplitude": 1.0}})


def test_electrode_array_shape():
    g = electrode_array(5)
    assert len(g.nodes) == 5
    assert len(g.edges) == 4
    assert g.is_connected()
