"""Order-asymmetry scans, log-log fits, and the two-pulse worked example."""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat import experiments, kernels
from mycocat.cli import main, read_suite_entry
from mycocat.errors import ConfigError, InsufficientDataError, ParameterError, ShapeError
from mycocat.experiments import (
    DELTA_FLOOR,
    MAX_DYNAMICS_BYTES,
    ExposureExperiment,
    PulseTemplate,
    WorkedExampleConfig,
    coupling_matrices,
    electrode_array,
    fit_loglog_slope,
    initial_state,
    random_pulses,
    reference_species,
    run_order_asymmetry_scan,
    run_worked_example,
    species_from_config,
    wide_environment,
)
from mycocat.readers import MAX_SAMPLES
from mycocat.envmyc import Constraints, DistanceWeights, EnvObject, myc_distance
from mycocat.laws import SpeciesFunctor, field_writeback
from mycocat.liealg import estimate_generator
from mycocat.programs import (
    Extraction,
    PieceTable,
    Program,
    ReferenceDynamics,
    StateLayout,
    concatenate,
    evolve,
)


class TestConfigSizeBounds:
    """Sizes and counts read from a config are bounded before anything is
    built: an integral float such as 1e308 reads as a 309-digit int."""

    def test_species_dynamics_budget_is_inclusive(self, monkeypatch):
        # 8 bytes * (1 + 1 channel) * (1024 sites * 2 features)^2
        assert 8 * 2 * (1024 * 2) ** 2 == MAX_DYNAMICS_BYTES
        built = []
        monkeypatch.setattr(experiments, "reference_species", lambda **kw: built.append(kw))
        species_from_config({"n_sites": 1024, "channels": 1, "features": 2}, "species")
        assert [(kw["n_sites"], kw["channels"], kw["features"]) for kw in built] == [(1024, 1, 2)]
        for key, value in (("n_sites", 1025), ("features", 1e308), ("channels", 1e308)):
            config = {"n_sites": 1024, "channels": 1, "features": 2, key: value}
            with pytest.raises(ConfigError) as exc:
                species_from_config(config, "species")
            assert str(exc.value) == (
                f"species.{key}: too large, the species' dynamics would take more than 64 MiB"
            )
        assert len(built) == 1

    def test_worked_example_budget_and_counts(self):
        # one channel, so two features: exactly the budget at 1024 sites
        one = {"channels": 1, "pulse_q": PulseTemplate(channel=0)}
        WorkedExampleConfig(
            n_sites=1024, functor_samples=MAX_SAMPLES, compat_pulses=MAX_SAMPLES, **one
        )
        with pytest.raises(ConfigError, match="^n_sites: too large"):
            WorkedExampleConfig(n_sites=1025, **one)
        for key in ("functor_samples", "compat_pulses"):
            with pytest.raises(ConfigError) as exc:
                WorkedExampleConfig(**{key: MAX_SAMPLES + 1})
            assert str(exc.value) == f"{key}: must be at most {MAX_SAMPLES}"

    @pytest.mark.parametrize("law, key", [
        ("functor_laws", "samples"), ("naturality", "programs"), ("lipschitz", "pairs"),
        ("compatibility", "pulses"),
    ])
    def test_suite_counts_are_capped(self, law, key):
        entry = read_suite_entry({"law": law, key: MAX_SAMPLES}, "checks[0].", None, None)
        assert entry[key] == MAX_SAMPLES
        with pytest.raises(ConfigError) as exc:
            read_suite_entry({"law": law, key: MAX_SAMPLES + 1}, "checks[0].", None, None)
        assert str(exc.value) == f"checks[0].{key}: must be at most {MAX_SAMPLES}"


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

    def test_rows_at_one_eps_rejected(self):
        with pytest.raises(InsufficientDataError, match="at least 2 distinct eps, got 1"):
            fit_loglog_slope([(0.1, 0.01), (0.1, 0.02), (0.1, 0.03)])

    @pytest.mark.parametrize("eps", [0.0, -0.05, math.inf, math.nan])
    def test_eps_not_finite_and_positive_rejected(self, eps):
        with pytest.raises(ParameterError, match="finite positive eps"):
            fit_loglog_slope([(0.1, 0.01), (eps, 0.02), (0.01, 1e-4), (0.02, 4e-4)])

    @pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
    def test_delta_not_finite_rejected(self, delta):
        with pytest.raises(ParameterError, match="finite deltas"):
            fit_loglog_slope([(0.1, 0.01), (0.05, delta), (0.01, 1e-4), (0.02, 4e-4)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PulseTemplate(0, amplitude="x"), "amplitude: must be a number, got 'x'"),
        (lambda: PulseTemplate(0, duration=True), "duration: must be a number, got True"),
        (lambda: PulseTemplate("0"), "channel: must be an integer, got '0'"),
        (lambda: PulseTemplate(True), "channel: must be an integer, got True"),
        (lambda: DistanceWeights("1"), "omega: must be a number, got '1'"),
        (lambda: DistanceWeights(1.0, 1.0, True), "structure: must be a number, got True"),
        (lambda: StateLayout(electrode_array(2), "3"),
         "feature_count: must be an integer, got '3'"),
        (lambda: StateLayout(electrode_array(2), True),
         "feature_count: must be an integer, got True"),
        (lambda: StateLayout(electrode_array(2), 2.5),
         "feature_count: must be an integer, got 2.5"),
        (lambda: experiment(seed="1"), "seed: must be an integer, got '1'"),
        (lambda: experiment(seed=1.5), "seed: must be an integer, got 1.5"),
        (lambda: WorkedExampleConfig(seed="1"), "seed: must be an integer, got '1'"),
        (lambda: WorkedExampleConfig(seed=1.5), "seed: must be an integer, got 1.5"),
        (lambda: WorkedExampleConfig(n_sites="8"), "n_sites: must be an integer, got '8'"),
        (lambda: WorkedExampleConfig(channels=True), "channels: must be an integer, got True"),
        (lambda: WorkedExampleConfig(functor_samples=2.5),
         "functor_samples: must be an integer, got 2.5"),
        (lambda: WorkedExampleConfig(compat_pulses="50"),
         "compat_pulses: must be an integer, got '50'"),
    ],
    ids=[
        "pulse-string-amplitude", "pulse-bool-duration", "pulse-string-channel",
        "pulse-bool-channel", "weights-string", "weights-bool", "layout-string-features",
        "layout-bool-features", "layout-fractional-features", "scan-string-seed",
        "scan-fractional-seed", "worked-example-string-seed", "worked-example-fractional-seed",
        "worked-example-string-sites", "worked-example-bool-channels",
        "worked-example-fractional-samples", "worked-example-string-pulses",
    ],
)
def test_code_built_records_read_their_numbers(build, message):
    # each was a bare TypeError, or was stored and failed later, or was
    # coerced (True as channel 1, a layout of dimension 2 or 5.0)
    with pytest.raises(ShapeError) as exc:
        build()
    assert str(exc.value) == message


def test_code_built_records_store_read_numbers():
    pulse = PulseTemplate(1.0, amplitude=2, duration=np.float64(0.5))
    assert (pulse.channel, pulse.amplitude, pulse.duration) == (1, 2.0, 0.5)
    assert type(pulse.channel) is int and type(pulse.amplitude) is float
    assert StateLayout(electrode_array(2), 3.0).dim == 6
    weights = DistanceWeights(1, np.float64(2.0), 3)
    assert all(type(w) is float for w in (weights.omega, weights.sigma, weights.structure))
    assert experiment(seed=np.int64(7)).seed == 7 == WorkedExampleConfig(seed=7.0).seed
    config = WorkedExampleConfig(n_sites=4.0, channels=np.int64(2), functor_samples=3.0)
    assert (config.n_sites, config.channels, config.functor_samples) == (4, 2, 3)
    assert type(config.n_sites) is int and type(config.channels) is int


@pytest.mark.parametrize(
    "size",
    [{"n_sites": 0}, {"n_sites": -1}, {"features": 0}, {"channels": 0}, {"channels": -1}],
)
def test_reference_species_refuses_an_empty_state(size):
    # n_sites=0 built a species of dimension 0, and -1 was accepted too;
    # channels=0 built a species without controls, and -1 was numpy's
    # bare ValueError
    ((name, value),) = size.items()
    with pytest.raises(ParameterError) as exc:
        reference_species(**size)
    assert str(exc.value) == f"{name}: must be positive, got {value}"


def test_reference_species_reads_its_sizes():
    # each was a bare TypeError from numpy or a comparison
    for size, message in (
        ({"n_sites": "8"}, "n_sites: must be an integer, got '8'"),
        ({"channels": "2"}, "channels: must be an integer, got '2'"),
        ({"features": True}, "features: must be an integer, got True"),
    ):
        with pytest.raises(ShapeError) as exc:
            reference_species(**size)
        assert str(exc.value) == message
    species = reference_species(n_sites=2.0, channels=np.int64(2), features=3.0)
    assert species.dynamics.dim == 6 and len(species.dynamics.controls) == 2


def test_reference_species_reads_its_coupling():
    # numpy's bare ValueError for an array; the config reads a string first
    for coupling, shown in ((np.array(["noncommuting", "commuting"]), "array("), (None, "None")):
        with pytest.raises(ShapeError) as exc:
            reference_species(coupling=coupling)
        assert str(exc.value).startswith(f"coupling: must be a string, got {shown}")
    with pytest.raises(ConfigError, match="^coupling: unknown coupling kind 'other'$"):
        reference_species(coupling="other")


def test_pulse_template_refuses_non_finite_values():
    for kwargs, message in (
        ({"amplitude": math.nan}, "amplitude: must be finite, got nan"),
        ({"amplitude": -math.inf}, "amplitude: must be finite, got -inf"),
        ({"duration": math.inf}, "duration: must be finite, got inf"),
        ({"duration": math.nan}, "duration: must be finite, got nan"),
    ):
        with pytest.raises(ParameterError) as exc:
            PulseTemplate(0, **kwargs)
        assert str(exc.value) == message
    # a reversed pulse and a negative channel or duration are built, and
    # refused where the species or the pieces are known
    assert PulseTemplate(-1, amplitude=-0.5, duration=-1.0).amplitude == -0.5
    with pytest.raises(ParameterError, match="^piece lengths must be strictly positive$"):
        PulseTemplate(0, duration=-1.0).program(0.1, "amplitude", 2)


def test_electrode_array_reads_its_size():
    # -1 built an empty array; 2.5 and "3" were bare TypeErrors
    for size, error, message in (
        (-1, ParameterError, "n_sites: must be nonnegative, got -1"),
        (2.5, ShapeError, "n_sites: must be an integer, got 2.5"),
        ("3", ShapeError, "n_sites: must be an integer, got '3'"),
        (True, ShapeError, "n_sites: must be an integer, got True"),
    ):
        with pytest.raises(error) as exc:
            electrode_array(size)
        assert str(exc.value) == message
    assert electrode_array(3.0) == electrode_array(np.int64(3))
    assert len(electrode_array(3).nodes) == 3 and len(electrode_array(0).nodes) == 0


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

    @pytest.mark.parametrize("first, shown", [("0.2", "'0.2'"), (True, "True")],
                             ids=["string", "bool"])
    def test_grid_entries_are_read_as_numbers(self, first, shown):
        # float() read "0.2" as 0.2 and True as 1.0, and the scan ran
        with pytest.raises(ShapeError) as exc:
            experiment(eps_grid=(first, 0.1, 0.05, 0.02, 0.01))
        assert str(exc.value) == f"eps_grid[0]: must be a number, got {shown}"

    @pytest.mark.parametrize("last", [0.0, -0.01])
    def test_grid_must_be_positive(self, last):
        # checked before the decade ratio, which divides by the last entry
        with pytest.raises(ConfigError, match=r"^eps_grid: entries must be positive$"):
            experiment(eps_grid=(0.2, 0.1, 0.05, 0.02, last))

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
        exp = base.replace(species=mutant)
        rows = list(run_order_asymmetry_scan(exp).rows)
        assert rows == scan_rows_oracle(exp, lambda f, s, p: f.transform(s, p))
        # doubling both final states doubles every distance exactly
        assert rows == [(eps, 2.0 * d) for eps, d in run_order_asymmetry_scan(base).rows]


def dense_commutator_norm(exp):
    """The scan's commutator norm through n x n: each pulse's exact
    generator duration * (drift + amplitude * A_channel), their dense
    commutator, its Frobenius norm."""
    dyn = exp.species.dynamics
    x_p, x_q = (
        pulse.duration * (dyn.drift + pulse.amplitude * dyn.controls[pulse.channel])
        for pulse in (exp.pulse_p, exp.pulse_q)
    )
    return float(np.linalg.norm(x_p @ x_q - x_q @ x_p, "fro"))


def rotation_species(k):
    """One site, two features: channel 0 turns them by k radians per unit
    time, channel 1 stretches one and shrinks the other."""
    dyn = ReferenceDynamics(
        np.zeros((2, 2)), (k * np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([1.0, -1.0]))
    )
    return SpeciesFunctor("rotation", dyn, Extraction(StateLayout(electrode_array(1), 2), 1.0))


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
    """The scan reads both generators off the dynamics and forms their
    commutator on the block classes; the dense exact generators are the
    oracle."""

    @pytest.mark.parametrize("coupling", ["noncommuting", "commuting"])
    @pytest.mark.parametrize("n_sites", [1, 8, 64])
    def test_reference_species_bit_for_bit(self, coupling, n_sites):
        exp = experiment(coupling=coupling).replace(
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
        exp = experiment().replace(species=species)
        ours = run_order_asymmetry_scan(exp).commutator_norm
        dense = dense_commutator_norm(exp)
        assert abs(ours - dense) <= 1e-13 * dense

    def test_zero_dynamics_has_a_zero_commutator(self):
        # no slot is active, so there is no block class and no entry: the
        # commutator norm is 0.0 and every row sits at the floor
        layout = StateLayout(electrode_array(2), 3)
        zeros = np.zeros((layout.dim, layout.dim))
        species = SpeciesFunctor("still", ReferenceDynamics(zeros, (zeros, zeros)), Extraction(layout))
        report = run_order_asymmetry_scan(experiment().replace(species=species))
        assert report.commutator_norm == 0.0
        assert all(delta == 0.0 for _, delta in report.rows)

    @pytest.mark.parametrize("k", [40.0, 10 * math.pi])
    def test_rotation_past_a_half_turn(self, k):
        # a log of the pulse flow exp(0.1 k J) leaves the principal branch
        # once the turn passes pi; the exact generators have [kJ, D] of
        # norm 2 sqrt(2) k
        exp = experiment().replace(species=rotation_species(k))
        norm = run_order_asymmetry_scan(exp).commutator_norm
        assert norm == dense_commutator_norm(exp)
        assert norm == pytest.approx(2 * math.sqrt(2) * k, rel=1e-15)

    @pytest.mark.parametrize("coupling", ["noncommuting", "commuting"])
    def test_no_block_search_no_log_and_one_flow_call(self, monkeypatch, logm_calls, coupling):
        exp = experiment(coupling=coupling).replace(
            species=reference_species(n_sites=64, coupling=coupling),
        )
        searches, flows = [], []
        blocks, expm = kernels.blocks, kernels.expm

        def counted_blocks(pattern):
            searches.append(pattern.shape)
            return blocks(pattern)

        def counted_expm(a):
            flows.append(a.shape)
            return expm(a)

        monkeypatch.setattr(kernels, "blocks", counted_blocks)
        monkeypatch.setattr(kernels, "expm", counted_expm)
        run_order_asymmetry_scan(exp)
        assert searches == []
        assert logm_calls == []
        # the rows' one call: both orderings' pieces at every eps
        assert len(flows) == 1 and flows[0][0] == 4 * len(exp.eps_grid)

    def test_the_commutator_is_not_scattered(self, monkeypatch):
        # the norm is taken on the block classes; nothing is built n x n
        scattered, scatter = [], kernels.scatter
        monkeypatch.setattr(
            kernels, "scatter", lambda *args: scattered.append(1) or scatter(*args)
        )
        exp = experiment().replace(species=reference_species(n_sites=64))
        assert run_order_asymmetry_scan(exp).commutator_norm == dense_commutator_norm(exp)
        assert scattered == []


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


@pytest.fixture
def logm_calls(monkeypatch):
    """The shape of every ``kernels.logm`` argument, in call order."""
    calls, logm = [], kernels.logm

    def counted_logm(m):
        calls.append(m.shape)
        return logm(m)

    monkeypatch.setattr(kernels, "logm", counted_logm)
    return calls


class TestTheExperimentsTakeNoLog:
    """README: the experiments take no log; every matrix log comes from
    ``liealg``'s own entry points."""

    def test_worked_example(self, logm_calls):
        run_worked_example()
        assert logm_calls == []
        # the counter sees a log that is taken
        estimate_generator(lambda e: PulseTemplate(0).program(e, "duration", 2),
                           reference_species(n_sites=2).dynamics, 0.1)
        assert len(logm_calls) == 1

    def test_check_laws_on_the_sample_suite(self, logm_calls, monkeypatch, tmp_path):
        monkeypatch.delenv("MYCOCAT_SEED", raising=False)
        suite = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs" / "laws_suite.json"
        assert main(["check-laws", str(suite), "--out-dir", str(tmp_path)]) == 0
        assert logm_calls == []


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


def coupling_oracle(layout, channels, kind):
    """The control matrices of :func:`coupling_matrices`, one site at a time."""
    n, m = layout.dim, layout.feature_count
    mats = []
    for ch in range(channels):
        a = np.zeros((n, n))
        for i in range(len(layout.graph.nodes)):
            base = i * m
            if kind == "commuting":
                a[base + ch % m, base + ch % m] = 1.0
            elif ch % 2 == 0:
                a[base, base + 1] = 1.0
            else:
                a[base + 1, base] = 1.0
        mats.append(a)
    return mats


@pytest.mark.parametrize("kind", ["noncommuting", "commuting"])
def test_coupling_matrices_equal_the_per_site_oracle(kind):
    for n_sites in range(1, 10):
        for features in range(2, 5):
            layout = StateLayout(electrode_array(n_sites), features)
            for channels in range(1, 5):
                ours = coupling_matrices(layout, channels, kind)
                oracle = coupling_oracle(layout, channels, kind)
                assert len(ours) == channels
                for a, b in zip(ours, oracle):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()


def written_back_wide_environment(species, seed):
    """The seeded initial state written back into a loose template
    environment: the oracle of :func:`wide_environment`."""
    layout = species.extraction.layout
    channels = layout.feature_count - 1
    template = EnvObject(
        layout.graph,
        {v: 1.0 for v in layout.graph.nodes},
        {v: (0.0,) * channels for v in layout.graph.nodes},
        Constraints(
            phi_bounds=tuple((-100.0, 100.0) for _ in range(channels)), budget=math.inf
        ),
    )
    return field_writeback(template, initial_state(layout, seed))


@pytest.mark.parametrize("coupling", ["noncommuting", "commuting"])
@pytest.mark.parametrize("n_sites", range(1, 10))
def test_wide_environment_is_the_written_back_initial_state(coupling, n_sites):
    species = reference_species(n_sites=n_sites, coupling=coupling)
    for seed in (0, 1, 42):
        ours = wide_environment(species, seed)
        oracle = written_back_wide_environment(species, seed)
        assert ours == oracle
        for env in (ours, oracle):
            assert list(env.rho) == list(env.phi) == list(env.graph.nodes)
        rows = [
            np.array([(env.rho[v], *env.phi[v]) for v in env.graph.nodes]).tobytes()
            for env in (ours, oracle)
        ]
        assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# Pulse programs built as arrays
# ---------------------------------------------------------------------------


def pulse_program(pulse, eps, scaling, channels):
    """The scaled pulse built from Python floats, one Program per eps: the
    oracle of ``PulseTemplate.pieces`` and ``PulseTemplate.program``."""
    control = [0.0] * channels
    if scaling == "amplitude":
        control[pulse.channel] = pulse.amplitude * eps
        return Program(((pulse.duration, tuple(control)),))
    control[pulse.channel] = pulse.amplitude
    return Program(((pulse.duration * eps, tuple(control)),))


def orderings_oracle(exp):
    """The scan's orderings built from one Program per pulse and eps: p;q
    at every eps, then q;p, by ``take`` and ``concatenate``."""
    channels, grid = exp.species.dynamics.channels, len(exp.eps_grid)
    pulses = PieceTable.from_programs([
        pulse_program(pulse, eps, exp.scaling, channels)
        for pulse in (exp.pulse_p, exp.pulse_q)
        for eps in exp.eps_grid
    ])
    return pulses.concatenate(pulses.take([*range(grid, 2 * grid), *range(grid)]))


def scan_orderings(exp):
    """The one piece table the scan runs its orderings on."""
    seen = []

    class Recording(SpeciesFunctor):
        def transform_many(self, vectors, table):
            seen.append(table)
            return super().transform_many(vectors, table)

    species = exp.species
    recording = Recording(species.label, species.dynamics, species.extraction)
    run_order_asymmetry_scan(exp.replace(species=recording))
    (table,) = seen
    return table


def table_bytes(table):
    return [(a.dtype, a.shape, a.tobytes()) for a in (table.lengths, table.inputs, table.counts)]


PULSE_PAIRS = {
    "default": (PulseTemplate(0), PulseTemplate(1)),
    "scaled": (PulseTemplate(1, amplitude=0.37, duration=1.9),
               PulseTemplate(0, amplitude=2.3, duration=0.61)),
}
GRIDS = {
    "4-point": (0.4, 0.2, 0.1, 0.04),
    "9-point": (0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001),
}


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("pulses", PULSE_PAIRS.values(), ids=PULSE_PAIRS.keys())
@pytest.mark.parametrize("scaling", ["amplitude", "duration"])
def test_scan_orderings_equal_the_program_built_table(scaling, pulses, grid):
    exp = experiment(scaling=scaling, eps_grid=grid).replace(
        pulse_p=pulses[0], pulse_q=pulses[1]
    )
    assert table_bytes(scan_orderings(exp)) == table_bytes(orderings_oracle(exp))
    for pulse in pulses:
        for eps in grid:
            ours = pulse.program(eps, scaling, 2)
            assert ours.to_json() == pulse_program(pulse, eps, scaling, 2).to_json()
            assert all(type(u) is float for u in ours.pieces[0][1])


@pytest.mark.parametrize("scaling", ["amplitude", "duration"])
@pytest.mark.parametrize(
    "pulse, message",
    [
        ({"amplitude": math.inf}, "amplitude: must be finite, got inf"),
        ({"amplitude": math.nan}, "amplitude: must be finite, got nan"),
        ({"duration": 0.0}, "piece lengths must be strictly positive"),
    ],
    ids=["infinite-amplitude", "nan-amplitude", "zero-duration"],
)
def test_scan_refuses_a_bad_pulse_as_programs_do(scaling, pulse, message):
    # a NaN or infinite template value is refused by the template itself,
    # before the scan or a program sees it; a zero duration by the pieces
    for run in (run_order_asymmetry_scan, orderings_oracle):
        with pytest.raises(ParameterError) as exc:
            run(experiment(scaling=scaling).replace(pulse_q=PulseTemplate(0, **pulse)))
        assert str(exc.value) == message


def test_scan_refuses_an_overflowing_scaled_control():
    # each template value is finite; the product at the largest eps is not
    exp = experiment(eps_grid=(4.0, 2.0, 1.0, 0.4)).replace(
        pulse_p=PulseTemplate(0, amplitude=1e308)
    )
    with pytest.raises(ParameterError) as exc:
        run_order_asymmetry_scan(exp)
    assert str(exc.value) == "piece lengths and controls must be finite"


def random_pulse_programs(species, count, seed):
    """One Program per pulse from the draws of ``random_pulses``: its oracle."""
    rng = np.random.default_rng(seed)
    channels = species.dynamics.channels
    controls = np.zeros((count, channels))
    if channels:
        picked = rng.integers(0, channels, count)
        controls[np.arange(count), picked] = rng.uniform(0.05, 0.5, count)
    lengths = rng.uniform(0.1, 1.0, count)
    return [
        Program(((length, tuple(control)),))
        for length, control in zip(lengths.tolist(), controls.tolist())
    ]


def species_without_controls():
    dyn = ReferenceDynamics(np.zeros((2, 2)), ())
    return SpeciesFunctor("still", dyn, Extraction(StateLayout(electrode_array(1), 2)))


@pytest.mark.parametrize(
    "species",
    [reference_species(n_sites=2, channels=c) for c in (1, 2, 3)] + [species_without_controls()],
    ids=["1-channel", "2-channel", "3-channel", "no-channel"],
)
def test_random_pulses_table_equals_the_program_list(species):
    for seed in range(21):
        for count in (0, 1, 50):
            table = random_pulses(species, count, seed)
            programs = random_pulse_programs(species, count, seed)
            assert [table.program(i) for i in range(count)] == programs
            if count:  # an empty table keeps the species' control width
                assert table_bytes(table) == table_bytes(PieceTable.from_programs(programs))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda s: random_pulses(s, 5, None), ShapeError, "seed: must be an integer, got None"),
        (lambda s: random_pulses(s, 5, -1), ParameterError, "seed: must be nonnegative, got -1"),
        (lambda s: random_pulses(s, 5, 1.5), ShapeError, "seed: must be an integer, got 1.5"),
        (lambda s: random_pulses(s, -1, 0), ParameterError, "count: must be nonnegative, got -1"),
        (lambda s: random_pulses(s, None, 0), ShapeError, "count: must be an integer, got None"),
        (lambda s: random_pulses(s, 2.5, 0), ShapeError, "count: must be an integer, got 2.5"),
        (lambda s: random_pulses(s, math.nan, 0), ShapeError, "count: must be an integer, got nan"),
        (lambda s: random_pulses(s, "5", 0), ShapeError, "count: must be an integer, got '5'"),
        (lambda s: random_pulses(s, True, 0), ShapeError, "count: must be an integer, got True"),
        (lambda s: random_pulses(s, [5], 0), ShapeError, "count: must be an integer, got list"),
        (lambda s: initial_state(s.extraction.layout, None), ShapeError,
         "seed: must be an integer, got None"),
        (lambda s: initial_state(s.extraction.layout, -3), ParameterError,
         "seed: must be nonnegative, got -3"),
        (lambda s: wide_environment(s, None), ShapeError, "seed: must be an integer, got None"),
    ],
    ids=[
        "pulses-none-seed", "pulses-negative-seed", "pulses-fractional-seed",
        "pulses-negative-count", "pulses-none-count", "pulses-fractional-count",
        "pulses-nan-count", "pulses-string-count", "pulses-bool-count", "pulses-list-count",
        "state-none-seed", "state-negative-seed", "environment-none-seed",
    ],
)
def test_seeded_builders_read_count_and_seed(call, error, message):
    # seed=None drew fresh entropy, and each count was a bare numpy error
    with pytest.raises(error) as exc:
        call(reference_species(n_sites=2))
    assert str(exc.value) == message


def test_seeded_builders_take_integral_numbers():
    species = reference_species(n_sites=2)
    assert table_bytes(random_pulses(species, 5.0, np.int64(3))) == table_bytes(
        random_pulses(species, 5, 3)
    )
    layout = species.extraction.layout
    assert initial_state(layout, 7.0).vector.tobytes() == initial_state(layout, 7).vector.tobytes()


def test_worked_example_builds_a_program_only_for_a_witness(monkeypatch):
    # the scans and the compatibility pulses are piece tables built from
    # arrays; the functor-law witness holds p and q, the compatibility one
    # its program
    built = []
    init = Program.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Program, "__init__", counted)
    run_worked_example()
    assert len(built) <= 3
