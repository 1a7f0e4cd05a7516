"""Law harness: functor laws, naturality, adjunction, Lipschitz, compatibility."""

import math

import numpy as np
import pytest

from mycocat.envmyc import Constraints, EnvObject
from mycocat.errors import InputError
from mycocat.experiments import reference_species
from mycocat.laws import (
    FiniteInstance,
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
from mycocat.programs import InternalState, Program


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
            def transform(self, state, program):
                if program.pieces:
                    return super().transform(state, program)
                return InternalState(state.vector + 1e-3, state.layout)

        mutant = Drifting("drifting", species.dynamics, species.extraction)
        report = check_functor_laws(mutant, sample_count=20, tol=1e-10, seed=42)
        assert not report.passed
        assert report.witness == {"kind": "identity-law", "sample": 0}

    def test_witness_replays_bit_for_bit(self, species):
        report = check_functor_laws(species, sample_count=50, tol=1e-10, seed=7)
        assert report.witness is not None
        replayed = replay_functor_law_witness(species, report.witness)
        assert replayed == report.max_residual

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

    def test_missing_component_raises_input_error(self, species):
        eta = NaturalTransformationData(components={})
        programs = random_pulses(2, 1, seed=3)
        with pytest.raises(InputError):
            check_naturality(species, species, eta, programs, tol=1e-9, seed=5)


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
            env_identity=instance.env_identity,
            myc_identity=instance.myc_identity,
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

    def test_amplitude_mismatched_psi_fails(self, species):
        layout = species.extraction.layout
        iota = direct_embedding(layout, 2)
        psi = scaled_environment_evolution(species, iota, 1.1)
        env = wide_env(species, seed=2)
        pulses = random_pulses(2, 20, seed=11)
        report = check_compatibility(iota, psi, species, [env], pulses, tol=1e-8)
        assert not report.passed
        assert report.max_residual > 1e-4
