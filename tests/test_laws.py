"""Law harness: functor laws, naturality, adjunction, Lipschitz, compatibility."""

import json
import math

import numpy as np
import pytest

from mycocat import experiments, kernels
from mycocat.envmyc import Constraints, EnvBatch, EnvObject
from mycocat.errors import ConstraintError, InputError, ParameterError, ShapeError
from mycocat.experiments import WorkedExampleConfig, reference_species, run_worked_example
from mycocat.graphs import AttributedGraph
from mycocat.envmyc import env_distance, myc_distance
from mycocat.laws import (
    FiniteInstance,
    STATES_PER_PROGRAM,
    LawReport,
    NaturalTransformationData,
    SpeciesFunctor,
    check_adjunction,
    check_compatibility,
    check_functor_laws,
    check_lipschitz,
    check_naturality,
    direct_embedding,
    field_writeback,
    identity_adjunction_instance,
    identity_transformation,
    matched_environment_evolution,
    non_causal_variant,
    perturbed_variant,
    replay_functor_law_witness,
    scaled_environment_evolution,
    similarity_variant,
)
from mycocat.programs import (
    InternalState,
    PieceTable,
    Program,
    StateLayout,
    concatenate,
    evolve,
)


@pytest.fixture(scope="module")
def species():
    return reference_species(n_sites=3, channels=2, features=3)


def wide_env(species, seed=0, jitter=0.3):
    layout = species.extraction.layout
    channels = layout.feature_count - 1
    chi = Constraints(
        phi_bounds=tuple((-100.0, 100.0) for _ in range(channels)),
        budget=math.inf,
    )
    template = EnvObject(
        layout.graph,
        {v: 1.0 for v in layout.graph.nodes},
        {v: (0.0,) * channels for v in layout.graph.nodes},
        chi,
    )
    rng = np.random.default_rng(seed)
    state = InternalState(1.0 + jitter * rng.standard_normal(layout.dim), layout)
    return field_writeback(template, state)


def random_pulses(channels, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        control = [0.0] * channels
        control[int(rng.integers(0, channels))] = float(rng.uniform(0.05, 0.5))
        out.append(Program(((float(rng.uniform(0.1, 1.0)), tuple(control)),)))
    return out


def random_states(rng, f, count):
    # one (count, n) normal draw, a state per row
    layout = f.extraction.layout
    return [InternalState(v, layout) for v in rng.normal(size=(count, f.dynamics.dim))]


def random_programs(rng, channels, counts):
    # programs with the given piece counts: every length in one draw, then
    # every control in one draw, sliced program by program
    total = int(sum(counts))
    lengths = rng.uniform(0.1, 0.6, total).tolist()
    controls = (0.5 * rng.normal(size=(total, channels))).tolist()
    programs, start = [], 0
    for k in counts:
        own = slice(start, start + k)
        programs.append(Program(tuple(zip(lengths[own], map(tuple, controls[own])))))
        start += k
    return programs


def functor_samples(seed, f, count, max_pieces=2):
    # the functor-law checker's stream as (state, p, q) triples: the states,
    # then the (2, count) piece counts (row 0 for p), then p's pieces, then q's
    rng = np.random.default_rng(seed)
    states = random_states(rng, f, count)
    counts = rng.integers(1, max_pieces + 1, size=(2, count))
    ps = random_programs(rng, f.dynamics.channels, counts[0])
    qs = random_programs(rng, f.dynamics.channels, counts[1])
    return list(zip(states, ps, qs))


def test_infinite_residual_fails_an_infinite_tolerance():
    witness = {"pair_index": 0, "kind": "zero-distance-expansion"}
    report = LawReport("lipschitz", 1, math.inf, math.inf, witness=witness)
    assert not report.passed
    assert report.to_json()["verdict"] == "fail"
    assert LawReport("lipschitz", 1, 1e308, math.inf).passed


class TestFunctorLaws:
    def test_reference_dynamics_pass(self, species):
        report = check_functor_laws(species, sample_count=100, tol=1e-10, seed=42)
        assert report.passed
        assert report.max_residual < 1e-10
        assert report.samples == 100

    def test_null_programs_give_zero_residual(self, species):
        report = check_functor_laws(species, sample_count=5, tol=0.0, seed=1)
        # residual tolerance zero would fail on roundoff; here we only check
        # the identity branch never fires and residuals stay tiny
        assert report.max_residual < 1e-12

    def test_non_causal_mutant_fails(self, species):
        mutant = non_causal_variant(species)
        report = check_functor_laws(mutant, sample_count=50, tol=1e-10, seed=42)
        assert not report.passed
        assert report.max_residual > 1e-6

    def test_null_program_that_moves_the_state_fails_identity_law(self, species):
        class Drifting(SpeciesFunctor):
            # Composes exactly, but the null program shifts the state.
            def transform_many(self, vectors, table):
                moved = super().transform_many(vectors, table)
                return np.where(per_row(table.counts > 0, vectors), moved, vectors + 1e-3)

        mutant = Drifting("drifting", species.dynamics, species.extraction)
        report = check_functor_laws(mutant, sample_count=20, tol=1e-10, seed=42)
        assert not report.passed
        assert report.witness == {"kind": "identity-law", "sample": 0}

    def test_witness_replays_bit_for_bit(self, species):
        report = check_functor_laws(species, sample_count=50, tol=1e-10, seed=7)
        assert report.witness is not None
        replayed = replay_functor_law_witness(species, report.witness)
        assert replayed == report.max_residual

    def test_witness_state_is_a_row_of_one_normal_draw(self, species):
        # the states are the stream's first draw, one (S, n) call
        for seed in (0, 7, 42):
            report = check_functor_laws(species, sample_count=30, tol=1e-10, seed=seed)
            rows = np.random.default_rng(seed).normal(size=(30, species.dynamics.dim))
            assert report.witness["state"] == rows[report.witness["sample"]].tolist()

    def test_every_witness_replays_bit_for_bit(self, species):
        mutant = non_causal_variant(species)
        for seed in range(20):
            for f in (species, mutant):
                report = check_functor_laws(f, sample_count=40, tol=1e-10, seed=seed)
                state, p, q = functor_samples(seed, f, 40)[report.witness["sample"]]
                assert report.witness["state"] == state.vector.tolist()
                assert (report.witness["p"], report.witness["q"]) == (p.to_json(), q.to_json())
                replayed = replay_functor_law_witness(f, report.witness)
                assert replayed == report.witness["residual"] == report.max_residual

    def test_report_is_deterministic(self, species):
        a = check_functor_laws(species, sample_count=20, tol=1e-10, seed=9)
        b = check_functor_laws(species, sample_count=20, tol=1e-10, seed=9)
        assert a == b

    def test_report_json_fields(self, species):
        report = check_functor_laws(species, sample_count=5, tol=1e-10, seed=3)
        payload = report.to_json()
        assert payload["law"] == "functor-laws"
        assert payload["verdict"] == "pass"
        assert set(payload) >= {"seed", "samples", "max_residual", "tolerance", "witness"}


class TestNaturality:
    def test_identity_transformation_is_structurally_exact(self, species):
        programs = random_pulses(2, 5, seed=3)
        report = check_naturality(
            species, species, identity_transformation(), programs, tol=0.0, seed=5
        )
        assert report.max_residual == 0.0
        assert report.passed

    def test_similarity_transformed_species_passes(self, species):
        other, eta = similarity_variant(species, seed=13)
        programs = random_pulses(2, 10, seed=3)
        report = check_naturality(species, other, eta, programs, tol=1e-9, seed=5)
        assert report.passed
        assert report.max_residual < 1e-9

    def test_perturbed_species_fails_with_positive_sensitivity(self, species):
        other = perturbed_variant(species, magnitude=0.1)
        programs = random_pulses(2, 10, seed=3)
        report = check_naturality(
            species, other, identity_transformation(), programs, tol=1e-9, seed=5
        )
        assert not report.passed
        assert report.max_residual > 1e-4  # reported species sensitivity


def column_order_image(p, state):
    """``p @ state`` in Python floats: row i is sum_j p_ij s_j, each product
    rounded on its own and added in column order."""
    out = []
    for row in p.tolist():
        acc = row[0] * float(state[0])
        for pij, sj in zip(row[1:], state[1:].tolist()):
            acc += pij * sj
        out.append(acc)
    return out


def test_similarity_map_rows_equal_their_one_row_calls():
    # a BLAS gemv or gemm may fuse multiply-adds or sum in another order, so
    # a row's bits could depend on what shares its call
    f = reference_species()
    n = f.dynamics.dim
    other, eta = similarity_variant(f, seed=11)
    rng = np.random.default_rng(11)
    p = np.eye(n) + 0.1 * rng.normal(size=(n, n)) / math.sqrt(n)
    assert np.array_equal(other.dynamics.drift, p @ f.dynamics.drift @ np.linalg.inv(p))
    states = np.random.default_rng(12).normal(size=(50, n))
    images = eta.map_state(states)
    assert images.shape == (50, n)
    for state, image in zip(states, images):
        assert image.tobytes() == eta.map_state(state[None])[0].tobytes()
        assert image.tobytes() == np.array(column_order_image(p, state)).tobytes()


@pytest.mark.parametrize(
    "state_map",
    [lambda v: v[:, :-1], lambda v: v[:-1], lambda v: v.ravel(), lambda v: v[0]],
    ids=["width", "rows", "flat", "first-row"],
)
def test_naturality_refuses_images_of_another_shape(species, state_map):
    eta = NaturalTransformationData(state_map=state_map)
    with pytest.raises(ShapeError, match=r"^translated states have shape \("):
        check_naturality(species, species, eta, random_pulses(2, 3, seed=3), seed=5)


def test_perturbed_variant_reads_its_magnitude(species):
    for magnitude, error, message in (
        ("x", ShapeError, "magnitude: must be a number, got 'x'"),
        (None, ShapeError, "magnitude: must be a number, got None"),
        (True, ShapeError, "magnitude: must be a number, got True"),
        ([1], ShapeError, "magnitude: must be a number, got list"),
        (math.nan, ParameterError, "magnitude: must be finite, got nan"),
        (-math.inf, ParameterError, "magnitude: must be finite, got -inf"),
    ):
        with pytest.raises(error) as exc:
            perturbed_variant(species, magnitude)
        assert str(exc.value) == message
    # a negative magnitude flips the bump; an integral one is a number
    base = species.dynamics.controls[0]
    up, down = (perturbed_variant(species, m).dynamics.controls[0] - base for m in (1, -1.0))
    assert np.allclose(up, -down, rtol=0.0, atol=1e-15)
    assert np.linalg.norm(up, "fro") == pytest.approx(1.0)


def table_and_programs(seed, channels=2, count=12):
    """Programs of 1 to 3 pieces drawn as one table, and the same programs
    as a list of :class:`Program`."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 4, count)
    pieces = int(counts.sum())
    table = PieceTable(
        rng.uniform(0.1, 0.6, pieces), rng.uniform(0.05, 0.5, (pieces, channels)), counts
    )
    return table, [table.program(i) for i in range(count)]


class TestTableOrPrograms:
    """The checkers that take programs read a table or a Program list into
    one table on entry: the report and its witness are the same bytes."""

    @pytest.mark.parametrize("variant", ["identity", "similarity", "perturbed"])
    def test_naturality(self, species, variant):
        other, eta = {
            "identity": (species, identity_transformation()),
            "similarity": similarity_variant(species, seed=13),
            "perturbed": (perturbed_variant(species, magnitude=0.1), identity_transformation()),
        }[variant]
        for seed in (1, 2, 3):
            table, programs = table_and_programs(seed)
            reports = [
                json.dumps(check_naturality(species, other, eta, p, tol=1e-9, seed=seed).to_json())
                for p in (table, programs, iter(programs))
            ]
            assert reports[0] == reports[1] == reports[2]
            witness = json.loads(reports[0])["witness"]
            assert witness["program"] == programs[witness["program_index"]].to_json()

    @pytest.mark.parametrize("scale", [1.0, 1.1])
    def test_compatibility(self, species, scale):
        iota = direct_embedding(species.extraction.layout, 2)
        psi = scaled_environment_evolution(species, iota, scale)
        envs = [wide_env(species, seed=2), wide_env(species, seed=5)]
        for seed in (1, 2, 3):
            table, programs = table_and_programs(seed)
            reports = [
                json.dumps(check_compatibility(iota, psi, species, envs, p, tol=1e-8).to_json())
                for p in (table, programs, iter(programs))
            ]
            assert reports[0] == reports[1] == reports[2]
            witness = json.loads(reports[0])["witness"]
            assert witness["program"] == programs[witness["program_index"]].to_json()


def naturality(kind, morphism, pair, lhs, rhs):
    """A naturality violation as ``check_adjunction`` reports it."""
    return {"kind": kind, "morphism": morphism, "pair": pair, "lhs": lhs, "rhs": rhs}


class TestAdjunction:
    def test_identity_instance_passes(self):
        instance, bijection = identity_adjunction_instance()
        report = check_adjunction(instance, bijection)
        assert report.passed
        assert report.max_residual == 0.0

    def test_cardinality_mismatch_fails_with_witness(self):
        instance, bijection = identity_adjunction_instance()
        # fabricate an extra morphism on the network side only
        myc_hom = dict(instance.myc_hom)
        myc_hom[("X", "Y")] = ("f", "f_extra")
        broken = FiniteInstance(
            env_objects=instance.env_objects,
            myc_objects=instance.myc_objects,
            env_hom=instance.env_hom,
            myc_hom=myc_hom,
            env_compose=instance.env_compose,
            myc_compose=instance.myc_compose,
            f_obj=instance.f_obj,
            f_mor=instance.f_mor,
            g_obj=instance.g_obj,
            g_mor=instance.g_mor,
        )
        report = check_adjunction(broken, bijection)
        assert not report.passed
        assert report.witness is not None
        kinds = {v["kind"] for v in report.witness["violations"]}
        assert "domain" in kinds or "surjectivity" in kinds

    def test_non_bijective_candidate_fails(self):
        instance, bijection = identity_adjunction_instance()
        squashed = {k: dict(v) for k, v in bijection.items()}
        squashed[("X", "Y")]["f"] = "id_X"  # wrong codomain element
        report = check_adjunction(instance, squashed)
        assert not report.passed

    @pytest.mark.parametrize(
        "table, key, value, violations",
        [
            # F sends f to id_Y: the square of f at (X, Y) has no left side
            ("f_mor", "f", "id_Y", [naturality("naturality-env", "f", ["X", "Y"], None, "f")]),
            # G sends id_Y to f: no environment composite ends either square
            (
                "g_mor", "id_Y", "f",
                [
                    naturality("naturality-myc", "id_Y", ["X", "Y"], "f", None),
                    naturality("naturality-myc", "id_Y", ["Y", "Y"], "id_Y", None),
                ],
            ),
            # a square whose network composite is missing is counted, not judged
            ("myc_compose", ("id_X", "f"), None, []),
            # f then id_Y is id_X in the environments: one square of each kind
            (
                "env_compose", ("f", "id_Y"), "id_X",
                [
                    naturality("naturality-env", "f", ["X", "Y"], "f", "id_X"),
                    naturality("naturality-myc", "id_Y", ["X", "Y"], "f", "id_X"),
                ],
            ),
        ],
        ids=["wrong-f_mor", "wrong-g_mor", "missing-myc_compose", "wrong-env_compose"],
    )
    def test_naturality_report_is_pinned(self, table, key, value, violations):
        instance, bijection = identity_adjunction_instance()
        fields = dict(vars(instance))
        fields[table] = dict(fields[table])
        if value is None:
            del fields[table][key]
        else:
            fields[table][key] = value
        report = check_adjunction(FiniteInstance(**fields), bijection)
        assert report.to_json() == {
            "law": "adjunction",
            "seed": None,
            "samples": 12,
            "max_residual": float(len(violations)),
            "tolerance": 0.0,
            "verdict": "fail" if violations else "pass",
            "witness": {"violations": violations} if violations else None,
        }


class TestLipschitz:
    def test_equal_pair_is_skipped(self, species):
        e = wide_env(species, seed=1)
        report = check_lipschitz(species, [(e, e)], bound=5.0)
        assert report.samples == 0
        assert report.max_residual == 0.0

    def test_identity_flow_is_isometry(self, species):
        pairs = [
            (wide_env(species, seed=i), wide_env(species, seed=100 + i))
            for i in range(5)
        ]
        report = check_lipschitz(species, pairs, bound=1.0 + 1e-9)
        assert report.passed
        assert report.max_residual == pytest.approx(1.0, abs=1e-12)

    def test_witness_is_the_first_pair_within_ulps_of_the_maximum(self, species):
        # the direct embedding is an isometry: every ratio is 1 within one
        # ulp, and roundoff alone made the last of the largest, pair 8, the
        # witness; the maximum stays the largest ratio
        pairs = [
            (wide_env(species, seed=i), wide_env(species, seed=100 + i))
            for i in range(10)
        ]
        report = check_lipschitz(species, pairs)
        assert report.witness["pair_index"] == 0
        assert report.witness["ratio"] == 1.0
        assert report.max_residual == 1.0 + 2.0**-52

    def test_linear_flow_scales_by_e_squared(self):
        # drift 2*I over unit time multiplies every state difference by e^2
        from mycocat.programs import Extraction, ReferenceDynamics, StateLayout
        from mycocat.laws import SpeciesFunctor
        from mycocat.experiments import electrode_array

        layout = StateLayout(electrode_array(3), 2)
        n = layout.dim
        dyn = ReferenceDynamics(2.0 * np.eye(n), (np.zeros((n, n)),))
        species = SpeciesFunctor("doubling", dyn, Extraction(layout))
        pairs = [
            (wide_env(species, seed=i), wide_env(species, seed=50 + i))
            for i in range(4)
        ]
        flow_program = Program(((1.0, (0.0,)),))
        report = check_lipschitz(
            species, pairs, bound=math.e**2 + 1e-6, program=flow_program
        )
        assert report.passed
        assert report.max_residual == pytest.approx(math.e**2, rel=1e-10)


class TestCompatibility:
    def test_null_program_residual_zero(self, species):
        layout = species.extraction.layout
        iota = direct_embedding(layout, 2)
        psi = matched_environment_evolution(species, iota)
        env = wide_env(species, seed=2)
        report = check_compatibility(iota, psi, species, [env], [Program()], tol=0.0)
        assert report.max_residual == 0.0

    def test_matched_construction_passes_on_50_pulses(self, species):
        layout = species.extraction.layout
        iota = direct_embedding(layout, 2)
        psi = matched_environment_evolution(species, iota)
        env = wide_env(species, seed=2)
        pulses = random_pulses(2, 50, seed=11)
        report = check_compatibility(iota, psi, species, [env], pulses, tol=1e-8)
        assert report.passed
        assert report.samples == 50

    def test_matched_psi_is_the_scaled_psi_at_one(self):
        # the worked example's species, environment and compatibility pulses
        config = WorkedExampleConfig()
        species = reference_species(
            n_sites=config.n_sites, channels=config.channels, features=config.features,
            sigma=config.sigma, coupling=config.coupling,
        )
        iota = direct_embedding(species.extraction.layout, config.channels)
        table = experiments.random_pulses(species, config.compat_pulses, config.seed + 1)
        assert len(table) == 50
        env = experiments.wide_environment(species, config.seed)
        batch = EnvBatch.from_envs([env] * len(table))
        matched = matched_environment_evolution(species, iota)(batch, table)
        scaled = scaled_environment_evolution(species, iota, 1.0)(batch, table)
        assert matched.fields.tobytes() == scaled.fields.tobytes()
        # scale 1 keeps every control's bits: the fields are the plain flow's
        moved = species.transform_many(iota.many(batch), table)
        assert matched.fields.tobytes() == moved.tobytes()

    def test_amplitude_mismatched_psi_fails(self, species):
        layout = species.extraction.layout
        iota = direct_embedding(layout, 2)
        psi = scaled_environment_evolution(species, iota, 1.1)
        env = wide_env(species, seed=2)
        pulses = random_pulses(2, 20, seed=11)
        report = check_compatibility(iota, psi, species, [env], pulses, tol=1e-8)
        assert not report.passed
        assert report.max_residual > 1e-4


class TestEnvironmentBatches:
    """psi and iota run on ``EnvBatch`` field arrays: a check builds no
    ``EnvObject`` beyond its inputs."""

    @pytest.fixture()
    def env_constructions(self, monkeypatch):
        calls = []
        init = EnvObject.__init__

        def counted(env, *args, **kwargs):
            calls.append(1)
            init(env, *args, **kwargs)

        monkeypatch.setattr(EnvObject, "__init__", counted)
        return calls

    def test_compatibility_builds_no_environment(self, species, env_constructions):
        iota = direct_embedding(species.extraction.layout, 2)
        psi = matched_environment_evolution(species, iota)
        env = wide_env(species, seed=2)
        pulses = random_pulses(2, 50, seed=11)
        env_constructions.clear()
        report = check_compatibility(iota, psi, species, [env], pulses)
        assert report.samples == 50
        assert env_constructions == []

    def test_worked_example_builds_six_environments(self, env_constructions):
        # the demo environment, its three morphism images, and the
        # compatibility environment with its template
        run_worked_example()
        assert len(env_constructions) <= 6

    def test_many_embeds_each_environment_bit_for_bit(self, species):
        iota = direct_embedding(species.extraction.layout, 2)
        envs = [wide_env(species, seed=k) for k in range(5)]
        many = iota.many(EnvBatch.from_envs(envs))
        assert [row.tobytes() for row in many] == [iota(e).vector.tobytes() for e in envs]
        nodes = species.extraction.layout.graph.nodes
        assert many[0].tolist() == [x for v in nodes for x in (envs[0].rho[v], *envs[0].phi[v])]

    def test_many_keeps_the_first_channels(self, species):
        layout = StateLayout(species.extraction.layout.graph, 2)
        iota = direct_embedding(layout, 1)
        env = wide_env(species, seed=3)
        many = iota.many(EnvBatch.from_envs([env]))
        nodes = layout.graph.nodes
        assert many[0].tolist() == [x for v in nodes for x in (env.rho[v], env.phi[v][0])]
        assert iota(env).vector.tobytes() == many[0].tobytes()

    def test_embedding_refuses_another_graph(self, species):
        iota = direct_embedding(species.extraction.layout, 2)
        psi = matched_environment_evolution(species, iota)
        graph = AttributedGraph(("a",), ())
        chi = Constraints(phi_bounds=((0.0, 1.0),) * 2)
        other = EnvObject(graph, {"a": 1.0}, {"a": (0.0, 0.0)}, chi)
        with pytest.raises(InputError, match="environment graph differs"):
            iota(other)
        with pytest.raises(InputError, match="^iota undefined on sampled environment 0$"):
            check_compatibility(iota, psi, species, [other], [Program()])

    def test_field_writeback_refuses_a_state_on_another_graph(self, species):
        # the inverse of iota on iota's image refuses what iota refuses; the
        # same nodes in another order are another graph
        iota = direct_embedding(species.extraction.layout, 2)
        template = wide_env(species, seed=3)
        assert field_writeback(template, iota(template)) == template
        graph = template.graph
        for other in (AttributedGraph(("a",), ()), AttributedGraph(graph.nodes[::-1], graph.edges)):
            layout = StateLayout(other, 3)
            with pytest.raises(InputError) as exc:
                field_writeback(template, InternalState(np.ones(layout.dim), layout))
            assert str(exc.value) == "environment graph differs from the observation graph"

    def test_checkers_refuse_mixed_constraints(self, species):
        iota = direct_embedding(species.extraction.layout, 2)
        psi = matched_environment_evolution(species, iota)
        env = wide_env(species, seed=2)
        looser = EnvObject(env.graph, env.rho, env.phi, Constraints(
            phi_bounds=env.chi.phi_bounds, budget=1e9
        ))
        with pytest.raises(ParameterError, match="^environment 1 has other constraints"):
            check_compatibility(iota, psi, species, [env, looser], [Program()])
        with pytest.raises(ParameterError, match="^environment 1 has other constraints"):
            check_lipschitz(species, [(env, looser)])

    def test_psi_result_is_checked_like_the_written_back_environment(self, species):
        # the doubled fields leave the phi bounds; the batch refuses them
        # with the message field_writeback gives for the same state
        iota = direct_embedding(species.extraction.layout, 2)
        doubling = Doubling("doubling", species.dynamics, species.extraction)
        psi = matched_environment_evolution(doubling, iota)
        base = wide_env(species, jitter=0.0)
        env = EnvObject(base.graph, base.rho, base.phi, Constraints(
            phi_bounds=((0.0, 1.5),) * 2
        ))
        with pytest.raises(ConstraintError) as written_back:
            field_writeback(env, InternalState(2.0 * iota(env).vector, iota.layout))
        with pytest.raises(ConstraintError) as batched:
            psi(EnvBatch.from_envs([env, env]), PieceTable.from_programs([Program()] * 2))
        assert str(batched.value) == str(written_back.value)
        assert str(batched.value).startswith("phi channel 0 at node 'site0' is 2.0")


# ---------------------------------------------------------------------------
# Batched checkers against per-sample loops
# ---------------------------------------------------------------------------
#
# Each oracle is the per-sample loop the checker replaces: one flow per
# (state, program) pair through ``run``, in sample order, with the checker's
# RNG stream, witness rule (``pick_witness``) and report fields. ``evolve_run`` builds it from
# ``evolve``; ``transform_run`` from a species' own ``transform``, which is
# its ``transform_many`` of one pair.


def evolve_run(f, state, program):
    return evolve(state, program, f.dynamics)


def transform_run(f, state, program):
    return f.transform(state, program)


def pick_witness(scored):
    # the witness rule: the first (value, witness) pair within 4 ulps of the
    # largest value, which is the reported maximum
    if not scored:
        return 0.0, None
    worst = max(value for value, _ in scored)
    near = worst - 4 * np.spacing(worst)
    return worst, next(witness for value, witness in scored if value >= near)


def oracle_functor_laws(f, run, sample_count, tol, seed):
    scored = []
    for i, (state, p, q) in enumerate(functor_samples(seed, f, sample_count)):
        joint = f.on_object(run(f, state, concatenate(p, q)))
        second = f.on_object(run(f, run(f, state, p), q))
        residual = myc_distance(joint, second)
        scored.append((residual, {
            "kind": "composition", "sample": i,
            "state": [float(x) for x in state.vector],
            "p": p.to_json(), "q": q.to_json(), "residual": residual,
        }))
        unmoved = f.on_object(run(f, state, Program()))
        if myc_distance(f.on_object(state), unmoved) != 0.0:
            return LawReport("functor-laws", i + 1, math.inf, tol, seed,
                             {"kind": "identity-law", "sample": i})
    worst, witness = pick_witness(scored)
    return LawReport("functor-laws", sample_count, worst, tol, seed, witness)


def oracle_naturality(f1, f2, eta, programs, run, tol, seed, states_per_program=5):
    rng = np.random.default_rng(seed)
    layout = f2.extraction.layout
    states = iter(random_states(rng, f1, len(programs) * states_per_program))
    scored = []
    for pi, program in enumerate(programs):
        for si in range(states_per_program):
            state = next(states)
            # eta maps a batch of states; each is mapped here as a batch of one
            translated = InternalState(eta.map_state(state.vector[None])[0], layout)
            moved = run(f1, state, program)
            path1 = f2.on_object(InternalState(eta.map_state(moved.vector[None])[0], layout))
            path2 = f2.on_object(run(f2, translated, program))
            residual = myc_distance(path1, path2)
            scored.append((residual, {
                "program_index": pi, "state_index": si,
                "state": [float(x) for x in state.vector],
                "program": program.to_json(), "residual": residual,
            }))
    worst, witness = pick_witness(scored)
    return LawReport("naturality", len(scored), worst, tol, seed, witness)


def oracle_lipschitz(f, pairs, iota, program, run, bound):
    scored = []
    for idx, (e1, e2) in enumerate(pairs):
        m1 = f.on_object(run(f, iota(e1), program))
        m2 = f.on_object(run(f, iota(e2), program))
        d_env = env_distance(e1, e2)
        d_myc = myc_distance(m1, m2)
        if d_env == 0.0:
            continue
        ratio = d_myc / d_env
        scored.append(
            (ratio, {"pair_index": idx, "ratio": ratio, "d_env": d_env, "d_myc": d_myc})
        )
    worst, witness = pick_witness(scored)
    return LawReport("lipschitz", len(scored), worst, bound, None, witness)


def oracle_compatibility(iota, psi, f, environments, programs, run, tol):
    scored = []
    for ei, env in enumerate(environments):
        start = iota(env)
        for pi, program in enumerate(programs):
            evolved = psi(EnvBatch.from_envs([env]), PieceTable.from_programs([program]))
            static_leg = f.on_object(iota(evolved.env(0)))
            operational_leg = f.on_object(run(f, start, program))
            residual = myc_distance(static_leg, operational_leg)
            scored.append((residual, {
                "environment_index": ei, "program_index": pi,
                "program": program.to_json(), "residual": residual,
            }))
    worst, witness = pick_witness(scored)
    return LawReport("compatibility", len(scored), worst, tol, None, witness)


def lipschitz_pairs(species, count, seed):
    return [(wide_env(species, seed + 2 * k), wide_env(species, seed + 2 * k + 1))
            for k in range(count)]


TWO_PIECES = Program(((0.4, (0.3, -0.2)), (0.25, (0.1, 0.5))))


class Doubling(SpeciesFunctor):
    # Every result, the null program's included, is twice the evolved state.
    def transform_many(self, vectors, table):
        return 2.0 * super().transform_many(vectors, table)


class TestBatchedCheckersMatchPerSampleLoops:
    """130 samples, each leg's flows in one expm call."""

    def test_functor_laws(self, species):
        report = check_functor_laws(species, sample_count=130, tol=1e-10, seed=4)
        assert report == oracle_functor_laws(species, evolve_run, 130, 1e-10, 4)

    def test_naturality(self, species):
        other, eta = similarity_variant(species, seed=3)
        programs = random_pulses(2, 26, seed=5)
        report = check_naturality(species, other, eta, programs, tol=1e-9, seed=6)
        assert report.samples == 130
        assert report == oracle_naturality(species, other, eta, programs, evolve_run, 1e-9, 6)

    def test_lipschitz(self, species):
        pairs = lipschitz_pairs(species, 65, seed=100)
        iota = direct_embedding(species.extraction.layout, 2)
        report = check_lipschitz(species, pairs, bound=10.0, iota=iota, program=TWO_PIECES)
        assert report.samples == 65
        assert report == oracle_lipschitz(species, pairs, iota, TWO_PIECES, evolve_run, 10.0)

    def test_compatibility(self, species):
        iota = direct_embedding(species.extraction.layout, 2)
        psi = scaled_environment_evolution(species, iota, 1.1)
        envs = [wide_env(species, seed=2), wide_env(species, seed=3)]
        pulses = random_pulses(2, 65, seed=12)
        report = check_compatibility(iota, psi, species, envs, pulses, tol=1e-8)
        assert report.samples == 130
        assert report == oracle_compatibility(iota, psi, species, envs, pulses, evolve_run, 1e-8)

    def test_matched_compatibility_is_exactly_zero(self, species):
        # psi evolves one program at a time, the operational leg in batches;
        # both legs give the same bits
        iota = direct_embedding(species.extraction.layout, 2)
        psi = matched_environment_evolution(species, iota)
        pulses = random_pulses(2, 130, seed=13)
        report = check_compatibility(iota, psi, species, [wide_env(species, 2)], pulses)
        assert report.max_residual == 0.0


class TestOverriddenTransformIsHonoured:
    """A subclass that overrides ``transform_many`` reaches every checker."""

    @pytest.fixture()
    def doubling(self, species):
        return Doubling("doubling", species.dynamics, species.extraction)

    def test_functor_laws(self, doubling):
        report = check_functor_laws(doubling, sample_count=20, tol=1e-10, seed=42)
        assert report == oracle_functor_laws(doubling, transform_run, 20, 1e-10, 42)
        assert report.witness == {"kind": "identity-law", "sample": 0}

    def test_naturality(self, species, doubling):
        programs = random_pulses(2, 4, seed=3)
        eta = identity_transformation()
        report = check_naturality(species, doubling, eta, programs, tol=1e-9, seed=5)
        assert report == oracle_naturality(
            species, doubling, eta, programs, transform_run, 1e-9, 5
        )
        assert not report.passed

    def test_lipschitz(self, species, doubling):
        pairs = lipschitz_pairs(species, 6, seed=50)
        iota = direct_embedding(species.extraction.layout, 2)
        base = check_lipschitz(species, pairs, iota=iota, program=TWO_PIECES)
        report = check_lipschitz(doubling, pairs, iota=iota, program=TWO_PIECES)
        assert report == oracle_lipschitz(doubling, pairs, iota, TWO_PIECES, transform_run, math.inf)
        # doubling both images doubles every distance exactly
        assert report.max_residual == 2.0 * base.max_residual

    def test_compatibility(self, species, doubling):
        iota = direct_embedding(species.extraction.layout, 2)
        psi = matched_environment_evolution(species, iota)
        envs = [wide_env(species, seed=2)]
        pulses = random_pulses(2, 8, seed=11)
        report = check_compatibility(iota, psi, doubling, envs, pulses, tol=1e-8)
        assert report == oracle_compatibility(iota, psi, doubling, envs, pulses, transform_run, 1e-8)
        assert not report.passed


def non_causal_loop(f, state, program):
    # The mutant's rule one piece at a time: each piece runs from the start
    # state and the last result is kept.
    out = state
    for piece in program.pieces:
        out = evolve(state, Program((piece,)), f.dynamics)
    return out


class TestSingleFlowPath:
    """Every species flow, the mutant's and psi's included, is batched."""

    def test_batched_non_causal_mutant_matches_piece_loop(self, species):
        mutant = non_causal_variant(species)
        samples = functor_samples(21, species, 130, max_pieces=3)
        states = [state for state, _, _ in samples]
        programs = [p if i % 5 else Program() for i, (_, p, _) in enumerate(samples)]
        assert {len(p.pieces) for p in programs} == {0, 1, 2, 3}
        moved = mutant.transform_many(
            np.stack([s.vector for s in states]), PieceTable.from_programs(programs)
        )
        assert [m.tobytes() for m in moved] == [
            non_causal_loop(mutant, s, p).vector.tobytes() for s, p in zip(states, programs)
        ]

    def test_non_causal_functor_laws_match_piece_loop(self, species):
        mutant = non_causal_variant(species)
        report = check_functor_laws(mutant, sample_count=130, tol=1e-10, seed=4)
        assert not report.passed
        assert report == oracle_functor_laws(mutant, non_causal_loop, 130, 1e-10, 4)

    @pytest.mark.parametrize("scale", [1.0, 1.1])
    def test_psi_on_many_pairs_matches_psi_on_each(self, species, scale):
        iota = direct_embedding(species.extraction.layout, 2)
        if scale == 1.0:
            psi = matched_environment_evolution(species, iota)
        else:
            psi = scaled_environment_evolution(species, iota, scale)
        envs = [wide_env(species, seed=k % 3) for k in range(130)]
        pulses = random_pulses(2, 130, seed=14)
        together = psi(EnvBatch.from_envs(envs), PieceTable.from_programs(pulses))
        alone = [
            psi(EnvBatch.from_envs([env]), PieceTable.from_programs([pulse])).env(0)
            for env, pulse in zip(envs, pulses)
        ]
        assert [together.env(i) for i in range(len(together))] == alone
        assert [v.tobytes() for v in iota.many(together)] == [
            iota(e).vector.tobytes() for e in alone
        ]

    @pytest.fixture()
    def expm_calls(self, monkeypatch):
        calls = []
        expm = kernels.expm

        def counted(a):
            calls.append(len(a))
            return expm(a)

        monkeypatch.setattr(kernels, "expm", counted)
        return calls

    def test_compatibility_takes_one_expm_per_leg(self, species, expm_calls):
        iota = direct_embedding(species.extraction.layout, 2)
        psi = scaled_environment_evolution(species, iota, 1.1)
        pulses = random_pulses(2, 130, seed=12)
        report = check_compatibility(iota, psi, species, [wide_env(species, 2)], pulses)
        assert report.samples == 130
        # static and operational legs, 130 programs each
        assert expm_calls == [130, 130]

    @pytest.mark.parametrize("variant", ["similarity", "perturbed"])
    def test_naturality_exponentiates_each_program_once_per_leg(
        self, species, variant, expm_calls
    ):
        if variant == "similarity":
            other, eta = similarity_variant(species, seed=3)
        else:
            other, eta = perturbed_variant(species), identity_transformation()
        programs = random_pulses(2, 26, seed=5)
        report = check_naturality(species, other, eta, programs, seed=6)
        assert report.samples == 26 * STATES_PER_PROGRAM
        # one call per species, one member per program rather than one per
        # (program, state) pair
        assert expm_calls == [26, 26]

    def test_mutant_functor_laws_take_one_expm_per_leg(self, species, expm_calls):
        check_functor_laws(non_causal_variant(species), sample_count=130, seed=4)
        # the joint and first legs share one call, the second leg takes
        # another; the null programs take none
        assert len(expm_calls) == 2


class TestEmptySampleSets:
    def test_functor_laws(self, species):
        for count in (0, -3):
            with pytest.raises(ParameterError):
                check_functor_laws(species, sample_count=count)

    def test_naturality(self, species):
        eta = identity_transformation()
        for empty in ([], experiments.random_pulses(species, 0, 0)):
            with pytest.raises(ParameterError):
                check_naturality(species, species, eta, empty)

    def test_lipschitz(self, species):
        with pytest.raises(ParameterError):
            check_lipschitz(species, [])

    def test_compatibility(self, species):
        iota = direct_embedding(species.extraction.layout, 2)
        psi = matched_environment_evolution(species, iota)
        env = wide_env(species, seed=2)
        for empty in ([], experiments.random_pulses(species, 0, 0)):
            with pytest.raises(ParameterError):
                check_compatibility(iota, psi, species, [env], empty)
        with pytest.raises(ParameterError):
            check_compatibility(iota, psi, species, [], [Program()])


def seeded_calls(species, seed):
    eta = identity_transformation()
    return {
        "similarity": lambda: similarity_variant(species, seed=seed),
        "functor-laws": lambda: check_functor_laws(species, sample_count=4, seed=seed),
        "naturality": lambda: check_naturality(
            species, species, eta, [Program(((0.5, (1.0, 0.0)),))], seed=seed
        ),
    }


@pytest.mark.parametrize("call", ["similarity", "functor-laws", "naturality"])
@pytest.mark.parametrize(
    "seed, error, message",
    [
        (None, ShapeError, "seed: must be an integer, got None"),
        (-1, ParameterError, "seed: must be nonnegative, got -1"),
        ("a", ShapeError, "seed: must be an integer, got 'a'"),
        (1.5, ShapeError, "seed: must be an integer, got 1.5"),
        (True, ShapeError, "seed: must be an integer, got True"),
    ],
    ids=["none", "negative", "string", "fraction", "bool"],
)
def test_seeded_checkers_read_their_seed(species, call, seed, error, message):
    # None drew fresh entropy, -1 was numpy's bare ValueError and "a" a
    # bare TypeError
    with pytest.raises(error) as exc:
        seeded_calls(species, seed)[call]()
    assert str(exc.value) == message


def test_seeded_checkers_take_integral_numbers(species):
    for call in ("functor-laws", "naturality"):
        got = seeded_calls(species, 3.0)[call]()
        assert got.seed == 3 and type(got.seed) is int
        assert got.to_json() == seeded_calls(species, np.int64(3))[call]().to_json()
    got, want = (seeded_calls(species, seed)["similarity"]()[0].dynamics for seed in (3.0, 3))
    assert np.array_equal(got.drift, want.drift) and np.array_equal(got.controls, want.controls)


def test_direct_embedding_reads_its_channels(species):
    layout = species.extraction.layout
    for channels, error, message in (
        ("x", ShapeError, "channels: must be an integer, got 'x'"),
        (2.5, ShapeError, "channels: must be an integer, got 2.5"),
        (None, ShapeError, "channels: must be an integer, got None"),
        (-1, ParameterError, "channels: must be nonnegative, got -1"),
    ):
        with pytest.raises(error) as exc:
            direct_embedding(layout, channels)
        assert str(exc.value) == message
    assert direct_embedding(layout, 2.0) == direct_embedding(layout, 2)


# ---------------------------------------------------------------------------
# NaN residuals are the worst, never skipped
# ---------------------------------------------------------------------------


def per_row(mask, vectors):
    # a (P,) program mask shaped to act on (P, ..., n) states, every state
    # of program i alike
    return mask.reshape(mask.shape + (1,) * (vectors.ndim - 1))


def nan_species(species, rows):
    # Evolves as ``species`` does, then sets the states of the programs
    # that ``rows(table)`` marks to NaN: a species whose flow fails on some
    # programs.
    class NaNRows(SpeciesFunctor):
        def transform_many(self, vectors, table):
            moved = super().transform_many(vectors, table)
            return np.where(per_row(rows(table), vectors), math.nan, moved)

    return NaNRows("nan-rows", species.dynamics, species.extraction)


class TestNaNResidualsFail:
    def test_functor_laws(self, species):
        # only joint programs have 4 pieces; their rows come out NaN
        mutant = nan_species(species, lambda table: table.counts == 4)
        report = check_functor_laws(mutant, sample_count=20, seed=42)
        i, p, q = next(
            (i, p, q)
            for i, (_, p, q) in enumerate(functor_samples(42, species, 20))
            if len(p.pieces) + len(q.pieces) == 4
        )
        assert i > 0  # some residuals before the witness are finite
        assert not report.passed and report.verdict == "fail"
        assert math.isnan(report.max_residual)
        assert report.witness["sample"] == i
        assert (report.witness["p"], report.witness["q"]) == (p.to_json(), q.to_json())
        assert math.isnan(report.witness["residual"])

    @pytest.mark.parametrize("nan_from, witness", [(16, (0, 0)), (23, (1, 2))])
    def test_naturality(self, species, nan_from, witness):
        # eta maps the 15 start states in one call, then the 15 moved states
        # in another; counted across both calls, it returns NaN from row
        # nan_from - 1 on
        calls = []

        def state_map(v):
            rows = sum(calls) + np.arange(len(v))
            calls.append(len(v))
            return np.where((rows >= nan_from - 1)[:, None], math.nan, v)

        eta = NaturalTransformationData(state_map=state_map)
        programs = random_pulses(2, 3, seed=3)
        report = check_naturality(species, species, eta, programs, tol=1e-9, seed=5)
        assert calls == [15, 15]
        assert not report.passed
        assert math.isnan(report.max_residual)
        assert (report.witness["program_index"], report.witness["state_index"]) == witness
        assert math.isnan(report.witness["residual"])

    @pytest.mark.parametrize("count", [STATES_PER_PROGRAM, 3, 7])
    def test_naturality_marks_programs_not_states(self, species, count):
        # the override sees (P, 5, n) states; program 2's five come out NaN,
        # so the first NaN residual is program 2's first state, whether or
        # not P equals the states per program
        mutant = nan_species(species, lambda table: np.arange(len(table)) == 2)
        programs = random_pulses(2, count, seed=3)
        eta = identity_transformation()
        report = check_naturality(mutant, species, eta, programs, tol=1e-9, seed=5)
        assert not report.passed
        assert math.isnan(report.max_residual)
        assert (report.witness["program_index"], report.witness["state_index"]) == (2, 0)
        clean = check_naturality(species, species, eta, programs, tol=1e-9, seed=5)
        assert clean.passed

    def test_lipschitz(self, species):
        # the image of pair 2's first environment is NaN
        mutant = nan_species(species, lambda table: np.arange(len(table)) == 4)
        pairs = lipschitz_pairs(species, 5, seed=60)
        report = check_lipschitz(mutant, pairs, bound=10.0)
        assert not report.passed
        assert math.isnan(report.max_residual)
        assert report.witness["pair_index"] == 2
        assert math.isnan(report.witness["ratio"])

    def test_lipschitz_nan_images_at_zero_distance_differ(self, species):
        mutant = nan_species(species, lambda table: np.arange(len(table)) == 1)
        env = wide_env(species, seed=1)
        report = check_lipschitz(mutant, [(env, env)], bound=10.0)
        assert not report.passed
        assert report.witness == {"pair_index": 0, "kind": "zero-distance-expansion"}

    def test_lipschitz_overflowing_distances(self, species):
        # both distances overflow to inf, and inf / inf is NaN, without a
        # numpy warning (the tests turn it into an error)
        graph = species.extraction.layout.graph
        chi = Constraints(phi_bounds=((-1e308, 1e308),) * 2)
        e1, e2 = (
            EnvObject(graph, {v: 0.0 for v in graph.nodes}, {v: (x, 0.0) for v in graph.nodes}, chi)
            for x in (1e308, -1e308)
        )
        report = check_lipschitz(species, [(e1, e2)], bound=10.0)
        assert math.isnan(report.max_residual) and not report.passed
        assert report.witness["d_env"] == report.witness["d_myc"] == math.inf

    def test_compatibility(self, species):
        # the operational leg of pulse 3 comes out NaN; psi runs the species
        iota = direct_embedding(species.extraction.layout, 2)
        psi = matched_environment_evolution(species, iota)
        mutant = nan_species(species, lambda table: np.arange(len(table)) == 3)
        pulses = random_pulses(2, 8, seed=11)
        report = check_compatibility(iota, psi, mutant, [wide_env(species, 2)], pulses)
        assert not report.passed
        assert math.isnan(report.max_residual)
        assert report.witness["program_index"] == 3
        assert math.isnan(report.witness["residual"])
