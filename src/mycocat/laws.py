"""Falsification harness: quantitative checkers for the structural laws.

Each checker samples inputs from a seeded generator, measures how far a
law is from holding (as a network distance residual), and returns a
:class:`LawReport` carrying the worst case found. Failures are reported,
never raised; the witness stored in a report contains enough data to
replay its residual exactly.

Checkers:

- :func:`check_functor_laws` -- programs compose iff their induced network
  updates compose; identity programs induce identity updates.
- :func:`check_naturality` -- a species-to-species translation commutes
  with every induced update; the residual of a failing square measures
  species-specific sensitivity.
- :func:`check_adjunction` -- a candidate hom-set bijection on an
  explicitly enumerated finite instance is well-defined, bijective, and
  natural in both arguments.
- :func:`check_lipschitz` -- empirical expansion ratio of the
  environment-to-network map over a list of environment pairs.
- :func:`check_compatibility` -- evolving the environment then mapping to
  a network agrees with mapping first and evolving internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .envmyc import (
    DistanceWeights,
    EnvObject,
    MycMorphism,
    MycObject,
    env_distance,
    identity_myc_morphism,
    myc_distance,
)
from .errors import InputError, ResourceError
from .graphs import identity_morphism
from .programs import (
    Extraction,
    InternalState,
    Program,
    ReferenceDynamics,
    concatenate,
    evolve,
    extract,
)


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check: worst residual, tolerance, and witness."""

    law: str
    samples: int
    max_residual: float
    tolerance: float
    seed: int | None = None
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "seed": self.seed,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "witness": self.witness,
        }


# ---------------------------------------------------------------------------
# Species functors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeciesFunctor:
    """One species: reference dynamics plus a measurement pipeline.

    ``transform`` realizes the induced state transition of a program;
    subclasses may override it (the test mutants do) while the checkers
    only ever go through this surface.
    """

    label: str
    dynamics: ReferenceDynamics
    extraction: Extraction

    def transform(self, state: InternalState, program: Program) -> InternalState:
        return evolve(state, program, self.dynamics)

    def on_object(self, state: InternalState) -> MycObject:
        return extract(state, self.extraction)

    def on_program(self, state: InternalState, program: Program) -> MycMorphism:
        before = self.on_object(state)
        if not program.pieces:
            return identity_myc_morphism(before)
        after = self.on_object(self.transform(state, program))
        return MycMorphism(
            before, after, identity_morphism(before.graph), kind="assign"
        )


class NonCausalSpecies(SpeciesFunctor):
    """Mutant that resets to the initial state at internal piece boundaries.

    Each piece of a multi-piece program acts on the program's start state
    instead of the running state, so concatenation no longer matches
    sequential execution. Single-piece and null programs behave normally,
    which keeps the identity law intact while breaking composition.
    """

    def transform(self, state: InternalState, program: Program) -> InternalState:
        out = state
        for piece in program.pieces:
            out = evolve(state, Program((piece,)), self.dynamics)
        return out


def non_causal_variant(f: SpeciesFunctor) -> NonCausalSpecies:
    return NonCausalSpecies(f.label + "-noncausal", f.dynamics, f.extraction)


def perturbed_variant(
    f: SpeciesFunctor, channel: int = 0, magnitude: float = 0.1, seed: int = 7
) -> SpeciesFunctor:
    """Species with one control matrix perturbed; used as a sensitivity probe."""
    rng = np.random.default_rng(seed)
    controls = list(np.array(c) for c in f.dynamics.controls)
    bump = rng.normal(size=controls[channel].shape)
    bump *= magnitude / np.linalg.norm(bump, "fro")
    controls[channel] = controls[channel] + bump
    dyn = ReferenceDynamics(f.dynamics.drift, tuple(controls))
    return SpeciesFunctor(f.label + "-perturbed", dyn, f.extraction)


def similarity_variant(
    f: SpeciesFunctor, seed: int = 11, strength: float = 0.1
) -> tuple[SpeciesFunctor, "NaturalTransformationData"]:
    """Species conjugated by a well-conditioned change of basis P, together
    with the translation S -> P @ S as a natural comparison map."""
    rng = np.random.default_rng(seed)
    n = f.dynamics.dim
    p = np.eye(n) + strength * rng.normal(size=(n, n)) / math.sqrt(n)
    p_inv = np.linalg.inv(p)
    dyn = ReferenceDynamics(
        p @ f.dynamics.drift @ p_inv,
        tuple(p @ c @ p_inv for c in f.dynamics.controls),
    )
    species = SpeciesFunctor(f.label + "-conjugate", dyn, f.extraction)
    eta = NaturalTransformationData(state_map=lambda v: p @ v)
    return species, eta


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------


def _random_program(rng: np.random.Generator, channels: int, max_pieces: int = 2) -> Program:
    pieces = tuple(
        (
            float(rng.uniform(0.1, 0.6)),
            tuple(float(x) for x in 0.5 * rng.normal(size=channels)),
        )
        for _ in range(int(rng.integers(1, max_pieces + 1)))
    )
    return Program(pieces)


def _random_state(rng: np.random.Generator, f: SpeciesFunctor) -> InternalState:
    return InternalState(rng.normal(size=f.dynamics.dim), f.extraction.layout)


# ---------------------------------------------------------------------------
# Functor laws
# ---------------------------------------------------------------------------


def functor_law_residual(
    f: SpeciesFunctor, state: InternalState, p: Program, q: Program
) -> float:
    """Distance between the one-shot and the composed network updates."""
    joint = f.on_program(state, concatenate(p, q))
    second = f.on_program(f.transform(state, p), q)
    return myc_distance(joint.target, second.target)


def check_functor_laws(
    f: SpeciesFunctor,
    sample_count: int = 100,
    tol: float = 1e-10,
    seed: int = 0,
) -> LawReport:
    """Sample (state, p, q) triples and measure composition residuals.

    Also asserts that the null program induces the identity update
    exactly; a violation is reported with an ``identity-law`` witness.
    """
    rng = np.random.default_rng(seed)
    channels = f.dynamics.channels
    worst = 0.0
    witness: dict | None = None
    for i in range(sample_count):
        state = _random_state(rng, f)
        p = _random_program(rng, channels)
        q = _random_program(rng, channels)
        residual = functor_law_residual(f, state, p, q)
        if residual >= worst:
            worst = residual
            witness = {
                "kind": "composition",
                "sample": i,
                "state": [float(x) for x in state.vector],
                "p": p.to_json(),
                "q": q.to_json(),
                "residual": residual,
            }
        if not f.on_program(state, Program()).is_identity():
            return LawReport(
                law="functor-laws",
                samples=i + 1,
                max_residual=math.inf,
                tolerance=tol,
                seed=seed,
                witness={"kind": "identity-law", "sample": i},
            )
    return LawReport(
        law="functor-laws",
        samples=sample_count,
        max_residual=worst,
        tolerance=tol,
        seed=seed,
        witness=witness,
    )


def replay_functor_law_witness(f: SpeciesFunctor, witness: Mapping) -> float:
    """Recompute the residual recorded in a functor-law witness."""
    state = InternalState(
        np.asarray(witness["state"], dtype=np.float64), f.extraction.layout
    )
    return functor_law_residual(
        f, state, Program.from_json(witness["p"]), Program.from_json(witness["q"])
    )


# ---------------------------------------------------------------------------
# Naturality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NaturalTransformationData:
    """Per-object comparison components between two species.

    Components are given either as a state-level map applied at every
    sampled object, or as an explicit table keyed by the state vector's
    bytes. A sampled object with no component raises :class:`InputError`.
    """

    state_map: Callable[[np.ndarray], np.ndarray] | None = None
    components: Mapping[bytes, np.ndarray] | None = None

    def map_state(self, vector: np.ndarray) -> np.ndarray:
        if self.state_map is not None:
            return np.asarray(self.state_map(vector), dtype=np.float64)
        if self.components is not None:
            key = np.asarray(vector, dtype=np.float64).tobytes()
            if key not in self.components:
                raise InputError("no component supplied for a sampled object")
            return np.asarray(self.components[key], dtype=np.float64)
        raise InputError("natural transformation carries no components")


def identity_transformation() -> NaturalTransformationData:
    return NaturalTransformationData(state_map=lambda v: v)


def check_naturality(
    f1: SpeciesFunctor,
    f2: SpeciesFunctor,
    eta: NaturalTransformationData,
    programs: Sequence[Program],
    tol: float = 1e-9,
    seed: int = 0,
    states_per_program: int = 5,
    weights: DistanceWeights = DistanceWeights(),
) -> LawReport:
    """Measure commutation of the species-translation square.

    For each sampled source state S and each program f, compares
    translate-then-transform against transform-then-translate (both read
    out through the second species' pipeline). The max residual is the
    empirical sensitivity of the species pair to that program family.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness: dict | None = None
    samples = 0
    for pi, program in enumerate(programs):
        for si in range(states_per_program):
            state = _random_state(rng, f1)
            translated = InternalState(
                eta.map_state(state.vector), f2.extraction.layout
            )
            path1 = f2.on_object(
                InternalState(
                    eta.map_state(f1.transform(state, program).vector),
                    f2.extraction.layout,
                )
            )
            path2 = f2.on_object(f2.transform(translated, program))
            residual = myc_distance(path1, path2, weights)
            samples += 1
            if residual >= worst:
                worst = residual
                witness = {
                    "program_index": pi,
                    "state_index": si,
                    "state": [float(x) for x in state.vector],
                    "program": program.to_json(),
                    "residual": residual,
                }
    return LawReport(
        law="naturality",
        samples=samples,
        max_residual=worst,
        tolerance=tol,
        seed=seed,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Adjunction on finite instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteInstance:
    """Explicitly enumerated pair of tiny categories with functors both ways.

    Hom-sets are tuples of morphism names keyed by (source, target);
    ``compose_*[(f, g)]`` is the diagrammatic composite "f then g".
    """

    env_objects: tuple[str, ...]
    myc_objects: tuple[str, ...]
    env_hom: Mapping[tuple[str, str], tuple[str, ...]]
    myc_hom: Mapping[tuple[str, str], tuple[str, ...]]
    env_identity: Mapping[str, str]
    myc_identity: Mapping[str, str]
    env_compose: Mapping[tuple[str, str], str]
    myc_compose: Mapping[tuple[str, str], str]
    f_obj: Mapping[str, str] = field(default_factory=dict)
    f_mor: Mapping[str, str] = field(default_factory=dict)
    g_obj: Mapping[str, str] = field(default_factory=dict)
    g_mor: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        n_morphisms = sum(len(v) for v in self.env_hom.values()) + sum(
            len(v) for v in self.myc_hom.values()
        )
        if n_morphisms > 10_000:
            raise ResourceError("finite instance too large to enumerate")

    def env_morphisms(self):
        for (src, dst), names in self.env_hom.items():
            for name in names:
                yield src, dst, name

    def myc_morphisms(self):
        for (src, dst), names in self.myc_hom.items():
            for name in names:
                yield src, dst, name


def identity_adjunction_instance() -> tuple[FiniteInstance, dict]:
    """Two-object instance where both functors are the identity and the
    hom-set bijection is literal equality."""
    objects = ("X", "Y")
    hom = {
        ("X", "X"): ("id_X",),
        ("Y", "Y"): ("id_Y",),
        ("X", "Y"): ("f",),
        ("Y", "X"): (),
    }
    identity = {"X": "id_X", "Y": "id_Y"}
    compose = {
        ("id_X", "id_X"): "id_X",
        ("id_Y", "id_Y"): "id_Y",
        ("id_X", "f"): "f",
        ("f", "id_Y"): "f",
    }
    ident_map = {"id_X": "id_X", "id_Y": "id_Y", "f": "f"}
    instance = FiniteInstance(
        env_objects=objects,
        myc_objects=objects,
        env_hom=hom,
        myc_hom=hom,
        env_identity=identity,
        myc_identity=identity,
        env_compose=compose,
        myc_compose=compose,
        f_obj={"X": "X", "Y": "Y"},
        f_mor=ident_map,
        g_obj={"X": "X", "Y": "Y"},
        g_mor=ident_map,
    )
    bijection = {
        (e, m): {g: g for g in hom.get((instance.f_obj[e], m), ())}
        for e in objects
        for m in objects
    }
    return instance, bijection


def check_adjunction(
    instance: FiniteInstance,
    bijection: Mapping[tuple[str, str], Mapping[str, str]],
) -> LawReport:
    """Verify a candidate hom-set correspondence on a finite instance.

    Checks, over every object pair (E, M): the map is defined on exactly
    Hom(F(E), M), lands in Hom(E, G(M)), is injective and surjective, and
    is natural under pre-composition with every enumerated environment
    morphism and post-composition with every network morphism. The
    residual is the violation count.
    """
    violations: list[dict] = []
    checks = 0

    def hom_env(a, b):
        return tuple(instance.env_hom.get((a, b), ()))

    def hom_myc(a, b):
        return tuple(instance.myc_hom.get((a, b), ()))

    for e in instance.env_objects:
        for m in instance.myc_objects:
            fwd = dict(bijection.get((e, m), {}))
            left = hom_myc(instance.f_obj[e], m)
            right = hom_env(e, instance.g_obj[m])
            checks += 1
            if set(fwd) != set(left):
                violations.append(
                    {"kind": "domain", "pair": [e, m], "expected": list(left)}
                )
                continue
            if not set(fwd.values()) <= set(right):
                violations.append(
                    {"kind": "codomain", "pair": [e, m], "got": list(fwd.values())}
                )
                continue
            if len(set(fwd.values())) != len(fwd):
                violations.append({"kind": "injectivity", "pair": [e, m]})
            if set(fwd.values()) != set(right):
                violations.append(
                    {
                        "kind": "surjectivity",
                        "pair": [e, m],
                        "missing": sorted(set(right) - set(fwd.values())),
                    }
                )

    # naturality in the environment argument (pre-composition)
    for e_src, e_dst, alpha in instance.env_morphisms():
        for m in instance.myc_objects:
            for g in hom_myc(instance.f_obj[e_dst], m):
                checks += 1
                f_alpha = instance.f_mor.get(alpha)
                lhs_m = instance.myc_compose.get((f_alpha, g))
                if lhs_m is None:
                    continue
                lhs = bijection.get((e_src, m), {}).get(lhs_m)
                rhs_part = bijection.get((e_dst, m), {}).get(g)
                rhs = instance.env_compose.get((alpha, rhs_part))
                if lhs != rhs or lhs is None:
                    violations.append(
                        {
                            "kind": "naturality-env",
                            "morphism": alpha,
                            "pair": [e_src, m],
                            "lhs": lhs,
                            "rhs": rhs,
                        }
                    )

    # naturality in the network argument (post-composition)
    for m_src, m_dst, beta in instance.myc_morphisms():
        for e in instance.env_objects:
            for g in hom_myc(instance.f_obj[e], m_src):
                checks += 1
                lhs_m = instance.myc_compose.get((g, beta))
                if lhs_m is None:
                    continue
                lhs = bijection.get((e, m_dst), {}).get(lhs_m)
                rhs_part = bijection.get((e, m_src), {}).get(g)
                g_beta = instance.g_mor.get(beta)
                rhs = instance.env_compose.get((rhs_part, g_beta))
                if lhs != rhs or lhs is None:
                    violations.append(
                        {
                            "kind": "naturality-myc",
                            "morphism": beta,
                            "pair": [e, m_dst],
                            "lhs": lhs,
                            "rhs": rhs,
                        }
                    )

    return LawReport(
        law="adjunction",
        samples=checks,
        max_residual=float(len(violations)),
        tolerance=0.0,
        witness={"violations": violations[:10]} if violations else None,
    )


# ---------------------------------------------------------------------------
# Lipschitz / non-expansion
# ---------------------------------------------------------------------------


def direct_embedding(layout, channels: int) -> Callable[[EnvObject], InternalState]:
    """Environment-to-state map reading (rho, phi) into node feature slots.

    Requires feature_count == 1 + channels: feature 0 carries the resource
    value, features 1..k the chemical channels.
    """
    if layout.feature_count != channels + 1:
        raise InputError(
            f"direct embedding needs {channels + 1} features, layout has {layout.feature_count}"
        )

    def iota(env: EnvObject) -> InternalState:
        if env.graph != layout.graph:
            raise InputError("environment graph differs from the observation graph")
        vec = np.empty(layout.dim)
        for i, v in enumerate(layout.graph.nodes):
            base = i * layout.feature_count
            vec[base] = env.rho[v]
            for ch in range(channels):
                vec[base + 1 + ch] = env.phi[v][ch]
        return InternalState(vec, layout)

    return iota


def check_lipschitz(
    f: SpeciesFunctor,
    object_pairs: Sequence[tuple[EnvObject, EnvObject]],
    d_env_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
    d_myc_weights: DistanceWeights = DistanceWeights(),
    bound: float = math.inf,
    iota: Callable[[EnvObject], InternalState] | None = None,
    program: Program | None = None,
) -> LawReport:
    """Empirical expansion ratio of the environment-to-network map.

    Reports sup over pairs of d_myc(F(E1), F(E2)) / d_env(E1, E2),
    skipping pairs at zero environment distance unless their images
    differ (which scores infinity). ``iota`` defaults to the direct
    field embedding; ``program`` optionally runs a flow between embedding
    and extraction.
    """
    if iota is None:
        iota = direct_embedding(
            f.extraction.layout, f.extraction.layout.feature_count - 1
        )
    program = program if program is not None else Program()
    worst = 0.0
    witness: dict | None = None
    used = 0
    for idx, (e1, e2) in enumerate(object_pairs):
        m1 = f.on_object(f.transform(iota(e1), program))
        m2 = f.on_object(f.transform(iota(e2), program))
        d_env = env_distance(e1, e2, d_env_weights)
        d_myc = myc_distance(m1, m2, d_myc_weights)
        if d_env == 0.0:
            if d_myc > 0.0:
                return LawReport(
                    law="lipschitz",
                    samples=idx + 1,
                    max_residual=math.inf,
                    tolerance=bound,
                    witness={"pair_index": idx, "kind": "zero-distance-expansion"},
                )
            continue
        used += 1
        ratio = d_myc / d_env
        if ratio >= worst:
            worst = ratio
            witness = {"pair_index": idx, "ratio": ratio, "d_env": d_env, "d_myc": d_myc}
    return LawReport(
        law="lipschitz",
        samples=used,
        max_residual=worst,
        tolerance=bound,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Compatibility of static and operational semantics
# ---------------------------------------------------------------------------


def field_writeback(template: EnvObject, state: InternalState) -> EnvObject:
    """Write a state's features back into an environment's fields.

    Inverse of :func:`direct_embedding` on its image: feature 0 becomes
    the resource value, the remaining features the chemical channels.
    """
    layout = state.layout
    channels = layout.feature_count - 1
    rho = {}
    phi = {}
    for v in layout.graph.nodes:
        feats = layout.node_features(state.vector, v)
        rho[v] = feats[0]
        phi[v] = tuple(feats[1 : 1 + channels])
    return EnvObject(template.graph, rho, phi, template.chi)


def matched_environment_evolution(
    f: SpeciesFunctor,
    iota: Callable[[EnvObject], InternalState],
) -> Callable[[EnvObject, Program], EnvObject]:
    """Environment evolution that mirrors the internal dynamics exactly:
    embed, evolve, write the fields back."""

    def psi(env: EnvObject, program: Program) -> EnvObject:
        return field_writeback(env, f.transform(iota(env), program))

    return psi


def scaled_environment_evolution(
    f: SpeciesFunctor,
    iota: Callable[[EnvObject], InternalState],
    amplitude_scale: float,
) -> Callable[[EnvObject, Program], EnvObject]:
    """Mutant environment evolution that mis-scales every pulse amplitude."""

    def psi(env: EnvObject, program: Program) -> EnvObject:
        return field_writeback(
            env, f.transform(iota(env), program.scale_amplitude(amplitude_scale))
        )

    return psi


def check_compatibility(
    iota: Callable[[EnvObject], InternalState],
    psi: Callable[[EnvObject, Program], EnvObject],
    f: SpeciesFunctor,
    environments: Sequence[EnvObject],
    programs: Sequence[Program],
    tol: float = 1e-8,
    weights: DistanceWeights = DistanceWeights(),
) -> LawReport:
    """Compare the two legs of the static/operational square per program.

    Leg one evolves the environment with ``psi`` and reads the result out
    through the species pipeline; leg two embeds with ``iota`` and evolves
    internally. The report's residual is the max network distance between
    the legs over all (environment, program) pairs.
    """
    worst = 0.0
    witness: dict | None = None
    samples = 0
    for ei, env in enumerate(environments):
        try:
            start = iota(env)
        except (KeyError, InputError) as exc:
            raise InputError(f"iota undefined on sampled environment {ei}") from exc
        for pi, program in enumerate(programs):
            evolved_env = psi(env, program)
            static_leg = f.on_object(iota(evolved_env))
            operational_leg = f.on_object(f.transform(start, program))
            residual = myc_distance(static_leg, operational_leg, weights)
            samples += 1
            if residual >= worst:
                worst = residual
                witness = {
                    "environment_index": ei,
                    "program_index": pi,
                    "program": program.to_json(),
                    "residual": residual,
                }
    return LawReport(
        law="compatibility",
        samples=samples,
        max_residual=worst,
        tolerance=tol,
        witness=witness,
    )
