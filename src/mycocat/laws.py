"""Falsification harness: quantitative checkers for the structural laws.

Each checker samples inputs from a seeded generator, measures how far a
law is from holding (as a network distance residual), and returns a
:class:`LawReport` carrying the worst case found. Failures are reported,
never raised; the witness stored in a report contains enough data to
replay its residual exactly. The witness is the first sample within 4
ulps of the largest residual, so roundoff between residuals that are equal
in exact arithmetic does not choose it. A NaN residual is worse than any
number: the report then carries NaN, which fails every tolerance, and the
first NaN sample as its witness.

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
from typing import Callable, Mapping, Sequence

import numpy as np

from .envmyc import (
    DistanceWeights,
    EnvBatch,
    EnvObject,
    MycMorphism,
    MycObject,
    env_distances,
)
from .errors import InputError, ParameterError, Record, ResourceError, ShapeError
from .graphs import identity_morphism
from .kernels import column_matvec
from .programs import (
    NULL_PROGRAM,
    Extraction,
    InternalState,
    PieceTable,
    Program,
    ReferenceDynamics,
    StateLayout,
    evolve_many,
    extract,
    state_distances,
)
from .readers import read_count, read_number


class LawReport(Record):
    """Outcome of one law check: worst residual, tolerance, and witness."""

    def __init__(
        self,
        law: str,
        samples: int,
        max_residual: float,
        tolerance: float,
        seed: int | None = None,
        witness: dict | None = None,
    ):
        vars(self).update(
            law=law, samples=samples, max_residual=max_residual, tolerance=tolerance,
            seed=seed, witness=witness,
        )

    @property
    def passed(self) -> bool:
        """Residual within tolerance; an infinite or NaN residual fails any
        tolerance."""
        return self.max_residual <= self.tolerance and self.max_residual != math.inf

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


class SpeciesFunctor(Record):
    """One species: reference dynamics plus a measurement pipeline.

    ``transform_many`` realizes the induced state transitions of many
    (state, program) pairs, given as a (P, n) or (P, k, n) state array and
    a :class:`mycocat.programs.PieceTable` of P programs, and is the one
    override point: a subclass (the mutants do) overrides it, and
    ``transform`` of one pair goes through it too. The read-out is fixed by
    ``extraction``:
    the checkers measure distances between evolved states with
    :func:`mycocat.programs.state_distances`, which equals
    ``myc_distance`` of the ``on_object`` networks bit for bit.
    """

    def __init__(self, label: str, dynamics: ReferenceDynamics, extraction: Extraction):
        vars(self).update(label=label, dynamics=dynamics, extraction=extraction)

    def transform(self, state: InternalState, program: Program) -> InternalState:
        moved = self.transform_many(state.vector[None], PieceTable.from_programs([program]))
        return InternalState(moved[0], state.layout)

    def transform_many(self, vectors: np.ndarray, table: PieceTable) -> np.ndarray:
        """Run program i of ``table`` from row i of ``vectors`` for every i,
        in batched kernel calls: from one state when ``vectors`` is (P, n),
        from each of k states when it is (P, k, n), each program's flow
        computed once. Returns the results in the shape given, each with
        the bits of its pair run alone. An override must accept states of
        shape (P, ..., n) and act on each program's rows alike;
        :func:`check_naturality` passes (P, k, n) states."""
        return evolve_many(vectors, table, self.dynamics)

    def on_object(self, state: InternalState) -> MycObject:
        return extract(state, self.extraction)

    def on_program(self, state: InternalState, program: Program) -> MycMorphism:
        before = self.on_object(state)
        after = self.on_object(self.transform(state, program))
        return MycMorphism(before, after, identity_morphism(before.graph))


class NonCausalSpecies(SpeciesFunctor):
    """Mutant that resets to the initial state at internal piece boundaries.

    Each piece of a multi-piece program acts on the program's start state
    instead of the running state, so only the last piece's flow survives
    and concatenation no longer matches sequential execution. Single-piece
    and null programs behave normally, which keeps the identity law intact
    while breaking composition.
    """

    def transform_many(self, vectors: np.ndarray, table: PieceTable) -> np.ndarray:
        return super().transform_many(vectors, table.last_pieces())


def non_causal_variant(f: SpeciesFunctor) -> NonCausalSpecies:
    return NonCausalSpecies(f.label + "-noncausal", f.dynamics, f.extraction)


def perturbed_variant(f: SpeciesFunctor, magnitude: float = 0.1) -> SpeciesFunctor:
    """Species with control matrix 0 plus a fixed random bump of Frobenius
    norm ``|magnitude|``; used as a sensitivity probe. A negative
    ``magnitude`` flips the bump, and the config path accepts it too.
    ``magnitude`` is read by :func:`read_number`: a value that is not a
    number (None, a bool, a string, a list) raises :class:`ShapeError`
    naming it, and NaN or infinity :class:`ParameterError`, before any
    matrix is built."""
    if not math.isfinite(magnitude := read_number(magnitude, "magnitude")):
        raise ParameterError(f"magnitude: must be finite, got {magnitude}")
    rng = np.random.default_rng(7)
    controls = list(f.dynamics.controls)  # ReferenceDynamics copies them
    bump = rng.normal(size=controls[0].shape)
    bump *= magnitude / np.linalg.norm(bump, "fro")
    controls[0] = controls[0] + bump
    dyn = ReferenceDynamics(f.dynamics.drift, tuple(controls))
    return SpeciesFunctor(f.label + "-perturbed", dyn, f.extraction)


def similarity_variant(
    f: SpeciesFunctor, seed: int = 11
) -> tuple[SpeciesFunctor, "NaturalTransformationData"]:
    """Species conjugated by a well-conditioned change of basis P (the
    identity plus 0.1 times a seeded normal matrix over sqrt(n)), together
    with the translation S -> P S as a natural comparison map. The map takes
    its (R, n) rows in one :func:`mycocat.kernels.column_matvec` call, which
    calls no BLAS, so each row's image has the bits of its one-row call
    whatever shares the batch. ``seed`` is read by :func:`read_count`:
    None, a fraction or a string raises :class:`ShapeError` and a negative
    seed :class:`ParameterError`, so no run draws fresh entropy."""
    rng = np.random.default_rng(read_count(seed, "seed"))
    n = f.dynamics.dim
    p = np.eye(n) + 0.1 * rng.normal(size=(n, n)) / math.sqrt(n)
    p_inv = np.linalg.inv(p)
    dyn = ReferenceDynamics(
        p @ f.dynamics.drift @ p_inv,
        tuple(p @ c @ p_inv for c in f.dynamics.controls),
    )
    species = SpeciesFunctor(f.label + "-conjugate", dyn, f.extraction)
    eta = NaturalTransformationData(state_map=lambda v: column_matvec(p, v))
    return species, eta


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _translate(
    eta: "NaturalTransformationData", vectors: np.ndarray, layout: StateLayout
) -> np.ndarray:
    """``eta``'s components at the rows of ``vectors`` (R, n), in one
    ``state_map`` call, as (R, ``layout.dim``) states; images of another
    shape (another width or row count) are a :class:`ShapeError`."""
    moved = eta.map_state(vectors)
    if moved.shape != (want := (len(vectors), layout.dim)):
        raise ShapeError(f"translated states have shape {moved.shape}, expected {want}")
    return moved


def _table(programs: PieceTable | Sequence[Program]) -> PieceTable:
    """``programs`` as one :class:`PieceTable`: a table as it is, a
    sequence (or any iterable) of :class:`Program` read once by
    ``from_programs``."""
    return programs if isinstance(programs, PieceTable) else PieceTable.from_programs(programs)


def _worst(values: Sequence[float]) -> tuple[float, int | None]:
    """``(worst, index)``: the largest of ``values`` and the first index
    within 4 ulps (``np.spacing``) of it, the witness; ``(0.0, None)`` when
    there is no value. A NaN is worse than any number: the worst is then
    NaN and the witness the first NaN."""
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        return 0.0, None
    nan = np.isnan(values)
    if nan.any():
        return math.nan, int(nan.argmax())
    worst = float(values.max())
    near = worst - 4 * np.spacing(worst) if math.isfinite(worst) else worst
    return worst, int((values >= near).argmax())


def _report(
    law: str, residuals: np.ndarray, tol: float, witness_of: Callable, seed: int | None = None
) -> LawReport:
    """The report on one residual per sample: the worst (see :func:`_worst`)
    and the witness ``witness_of(i)`` of its sample ``i``, plus ``residual``."""
    worst, i = _worst(residuals)
    witness = None if i is None else {**witness_of(i), "residual": float(residuals[i])}
    return LawReport(law, len(residuals), worst, tol, seed, witness)


# ---------------------------------------------------------------------------
# Functor laws
# ---------------------------------------------------------------------------


def _functor_legs(
    f: SpeciesFunctor, states: np.ndarray, ps: PieceTable, qs: PieceTable
) -> tuple[np.ndarray, np.ndarray]:
    """``(residuals, unmoved)`` at every row i: the composition square, the
    network distance between running ``ps``'s program i then ``qs``'s from
    row i of ``states`` and running their concatenation, and the null
    program's result from row i. The joint leg, the first sequential leg
    and the null program take one ``transform_many`` call on the three
    tables stacked; the second leg starts from the first leg's results and
    takes another."""
    null = PieceTable(np.empty(0), np.empty((0, 0)), np.zeros(len(ps), np.intp))
    stacked = PieceTable._stacked([ps.concatenate(qs), ps, null])
    joint, first, unmoved = np.split(f.transform_many(np.concatenate((states,) * 3), stacked), 3)
    second = f.transform_many(first, qs)
    return state_distances(joint, second, f.extraction), unmoved


def check_functor_laws(
    f: SpeciesFunctor,
    sample_count: int = 100,
    tol: float = 1e-10,
    seed: int = 0,
) -> LawReport:
    """Sample (state, p, q) triples and measure composition residuals.

    Also asserts that the null program leaves the read-out network
    exactly unchanged; a violation is reported with an ``identity-law``
    witness naming the first failing sample. Every sample is drawn before
    any flow runs, each quantity in one call over the batch, in this order:
    the (S, n) states, the (2, S) piece counts in 1..2 (row 0 for p, row 1
    for q), then p's K piece lengths in [0.1, 0.6) and (K, c) controls
    (0.5 times a standard normal), then q's. The joint leg, the first
    sequential leg and the null program share one batched
    ``transform_many`` call; the second sequential leg takes another.
    Raises :class:`ParameterError` when ``sample_count`` is not positive;
    ``seed`` is read as :func:`similarity_variant` reads it.
    """
    if sample_count < 1:
        raise ParameterError(f"functor laws need at least one sample, got {sample_count}")
    rng = np.random.default_rng(seed := read_count(seed, "seed"))
    dim, channels = f.dynamics.dim, f.dynamics.channels
    states = rng.normal(size=(sample_count, dim))
    counts = rng.integers(1, 3, size=(2, sample_count))
    ps, qs = [
        PieceTable(rng.uniform(0.1, 0.6, k), 0.5 * rng.normal(size=(k, channels)), row)
        for row, k in zip(counts, counts.sum(axis=1))
    ]
    residuals, unmoved = _functor_legs(f, states, ps, qs)
    moved = np.flatnonzero(state_distances(states, unmoved, f.extraction) != 0.0)
    if moved.size:
        return LawReport(
            law="functor-laws",
            samples=int(moved[0]) + 1,
            max_residual=math.inf,
            tolerance=tol,
            seed=seed,
            witness={"kind": "identity-law", "sample": int(moved[0])},
        )

    def witness_of(i: int) -> dict:
        return {
            "kind": "composition",
            "sample": i,
            "state": states[i].tolist(),
            "p": ps.program(i).to_json(),
            "q": qs.program(i).to_json(),
        }

    return _report("functor-laws", residuals, tol, witness_of, seed)


def replay_functor_law_witness(f: SpeciesFunctor, witness: Mapping) -> float:
    """Recompute the residual recorded in a functor-law witness: the
    composition square of :func:`check_functor_laws` on the one row of the
    witness's state, p and q, which equals its residual bit for bit."""
    state = InternalState(
        np.asarray(witness["state"], dtype=np.float64), f.extraction.layout
    )
    ps, qs = (PieceTable.from_programs([Program.from_json(witness[k])]) for k in "pq")
    return float(_functor_legs(f, state.vector[None], ps, qs)[0][0])


# ---------------------------------------------------------------------------
# Naturality
# ---------------------------------------------------------------------------


class NaturalTransformationData(Record):
    """Per-object comparison components between two species, given as a
    state-level map on a batch: ``state_map`` takes an (R, n) array, one
    state per row, and returns their R images as an (R, n') array in one
    call. Each image should depend on its own row only, so that a checker's
    residuals do not depend on how its states are batched."""

    def __init__(self, state_map: Callable[[np.ndarray], np.ndarray]):
        vars(self).update(state_map=state_map)

    def map_state(self, vectors: np.ndarray) -> np.ndarray:
        """The images of the rows of ``vectors`` as a float64 array."""
        return np.asarray(self.state_map(vectors), dtype=np.float64)


def identity_transformation() -> NaturalTransformationData:
    """The comparison map of a species with itself: it returns its input
    unchanged."""
    return NaturalTransformationData(state_map=lambda v: v)


# Source states sampled per program by check_naturality.
STATES_PER_PROGRAM = 5


def check_naturality(
    f1: SpeciesFunctor,
    f2: SpeciesFunctor,
    eta: NaturalTransformationData,
    programs: PieceTable | Sequence[Program],
    tol: float = 1e-9,
    seed: int = 0,
) -> LawReport:
    """Measure commutation of the species-translation square.

    ``programs`` is a :class:`PieceTable` or a sequence of
    :class:`Program`, read into one table on entry; the report is the same
    for both. For each program f and each of :data:`STATES_PER_PROGRAM`
    sampled source states S, compares translate-then-transform against
    transform-then-translate (both read out through the second species'
    pipeline). The max residual is the empirical sensitivity of the
    species pair to that program family. Every state is drawn first, into
    one (P * k, n) array whose rows k * i to k * i + k - 1 belong to program
    i, and each species runs all pairs in one ``transform_many`` call on
    the (P, k, n) view, so each program's flow is computed once for its k
    states. ``eta`` maps all P * k start states in one ``state_map`` call
    and all P * k moved states in another; images of another shape than
    (P * k, n) raise :class:`ShapeError`. The witness holds its program's
    ``to_json``. Raises :class:`ParameterError` when there is no program;
    ``seed`` is read as :func:`similarity_variant` reads it.
    """
    table = _table(programs)
    if not len(table):
        raise ParameterError("naturality needs at least one program")
    rng = np.random.default_rng(seed := read_count(seed, "seed"))
    states = rng.normal(size=(len(table) * STATES_PER_PROGRAM, f1.dynamics.dim))
    layout = f2.extraction.layout
    per_program = (len(table), STATES_PER_PROGRAM, -1)
    moved1 = f1.transform_many(states.reshape(per_program), table).reshape(len(states), -1)
    moved2 = f2.transform_many(_translate(eta, states, layout).reshape(per_program), table)
    translated = _translate(eta, moved1, layout)
    residuals = state_distances(translated, moved2.reshape(len(states), -1), f2.extraction)

    def witness_of(i: int) -> dict:
        pi, si = divmod(i, STATES_PER_PROGRAM)
        return {
            "program_index": pi,
            "state_index": si,
            "state": states[i].tolist(),
            "program": table.program(pi).to_json(),
        }

    return _report("naturality", residuals, tol, witness_of, seed)


# ---------------------------------------------------------------------------
# Adjunction on finite instances
# ---------------------------------------------------------------------------


class FiniteInstance(Record):
    """Explicitly enumerated pair of tiny categories with functors both ways.

    Hom-sets are tuples of morphism names keyed by (source, target);
    ``compose_*[(f, g)]`` is the diagrammatic composite "f then g". An
    object or morphism map left out is a new empty dict.
    """

    def __init__(
        self,
        env_objects: tuple[str, ...],
        myc_objects: tuple[str, ...],
        env_hom: Mapping[tuple[str, str], tuple[str, ...]],
        myc_hom: Mapping[tuple[str, str], tuple[str, ...]],
        env_compose: Mapping[tuple[str, str], str],
        myc_compose: Mapping[tuple[str, str], str],
        f_obj: Mapping[str, str] | None = None,
        f_mor: Mapping[str, str] | None = None,
        g_obj: Mapping[str, str] | None = None,
        g_mor: Mapping[str, str] | None = None,
    ):
        n_morphisms = sum(len(v) for v in env_hom.values()) + sum(
            len(v) for v in myc_hom.values()
        )
        if n_morphisms > 10_000:
            raise ResourceError("finite instance too large to enumerate")
        vars(self).update(
            env_objects=env_objects, myc_objects=myc_objects, env_hom=env_hom,
            myc_hom=myc_hom, env_compose=env_compose, myc_compose=myc_compose,
            f_obj={} if f_obj is None else f_obj, f_mor={} if f_mor is None else f_mor,
            g_obj={} if g_obj is None else g_obj, g_mor={} if g_mor is None else g_mor,
        )


def _hom(table: Mapping, source: str, target: str) -> tuple[str, ...]:
    """The names of a hom table's morphisms from ``source`` to ``target``."""
    return tuple(table.get((source, target), ()))


def _morphisms(table: Mapping) -> list[tuple[str, str, str]]:
    """``(source, target, name)`` of every morphism of a hom table, in
    table order."""
    return [(src, dst, name) for (src, dst), names in table.items() for name in names]


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
    morphism and post-composition with every network morphism. Both
    naturality squares run in one loop, environment morphisms first, and
    read the bijection through one lookup ``phi(e, m, g)``; a square whose
    network composite the instance does not list is counted but not
    judged. ``samples`` counts the object pairs and the squares; the
    residual is the violation count, and the witness lists the first ten
    violations.
    """
    violations: list[dict] = []
    for e in instance.env_objects:
        for m in instance.myc_objects:
            fwd = dict(bijection.get((e, m), {}))
            left = _hom(instance.myc_hom, instance.f_obj[e], m)
            right = _hom(instance.env_hom, e, instance.g_obj[m])
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

    def phi(e: str, m: str, g: str | None) -> str | None:
        return bijection.get((e, m), {}).get(g)

    # (kind, morphism, pair (e, m), network composite c, environment pair):
    # the square commutes when phi(e, m, c) is the environment composite.
    # Pre-composition with each environment morphism alpha, then
    # post-composition with each network morphism beta.
    squares = [
        ("naturality-env", alpha, (e_src, m),
         instance.myc_compose.get((instance.f_mor.get(alpha), g)), (alpha, phi(e_dst, m, g)))
        for e_src, e_dst, alpha in _morphisms(instance.env_hom)
        for m in instance.myc_objects
        for g in _hom(instance.myc_hom, instance.f_obj[e_dst], m)
    ] + [
        ("naturality-myc", beta, (e, m_dst),
         instance.myc_compose.get((g, beta)), (phi(e, m_src, g), instance.g_mor.get(beta)))
        for m_src, m_dst, beta in _morphisms(instance.myc_hom)
        for e in instance.env_objects
        for g in _hom(instance.myc_hom, instance.f_obj[e], m_src)
    ]
    for kind, morphism, (e, m), composite, env_pair in squares:
        if composite is None:
            continue
        lhs, rhs = phi(e, m, composite), instance.env_compose.get(env_pair)
        if lhs != rhs or lhs is None:
            violations.append(
                {"kind": kind, "morphism": morphism, "pair": [e, m], "lhs": lhs, "rhs": rhs}
            )

    return LawReport(
        law="adjunction",
        samples=len(instance.env_objects) * len(instance.myc_objects) + len(squares),
        max_residual=float(len(violations)),
        tolerance=0.0,
        witness={"violations": violations[:10]} if violations else None,
    )


# ---------------------------------------------------------------------------
# Lipschitz / non-expansion
# ---------------------------------------------------------------------------


class DirectEmbedding(Record):
    """Environment-to-state map reading (rho, phi) into node feature slots:
    feature 0 carries the resource value, features 1..k the first k
    chemical channels. Requires ``layout.feature_count == 1 + channels``;
    ``channels`` is read by :func:`read_count`, so a value that is not an
    integer (a string, a fraction, a bool) raises :class:`ShapeError` and a
    negative one :class:`ParameterError`.

    Called on one :class:`EnvObject` it returns an :class:`InternalState`;
    ``many`` embeds an :class:`EnvBatch` as one (P, n) state array.
    """

    def __init__(self, layout: StateLayout, channels: int):
        channels = read_count(channels, "channels")
        if layout.feature_count != channels + 1:
            raise InputError(
                f"direct embedding needs {channels + 1} features, "
                f"layout has {layout.feature_count}"
            )
        vars(self).update(layout=layout, channels=channels)

    def __call__(self, env: EnvObject) -> InternalState:
        return InternalState(self.many(EnvBatch.from_envs([env]))[0], self.layout)

    def many(self, batch: EnvBatch) -> np.ndarray:
        """The (P, n) states of the P environments of ``batch``: their
        fields in node order, keeping the first ``channels`` chemical
        channels. A batch on another graph raises :class:`InputError`, one
        with fewer channels :class:`ShapeError`."""
        if batch.graph != self.layout.graph:
            raise InputError("environment graph differs from the observation graph")
        if batch.chi.channels < self.channels:
            raise ShapeError(
                f"environments have {batch.chi.channels} chemical channels, "
                f"the embedding reads {self.channels}"
            )
        return batch.fields[:, :, : 1 + self.channels].reshape(len(batch), self.layout.dim)


def direct_embedding(layout: StateLayout, channels: int) -> DirectEmbedding:
    """The :class:`DirectEmbedding` of ``channels`` chemical channels into
    ``layout``; ``channels`` is read as :class:`DirectEmbedding` reads it."""
    return DirectEmbedding(layout, channels)


def _require_layout(iota: DirectEmbedding, layout: StateLayout) -> None:
    if iota.layout != layout:
        raise ShapeError("state layout does not match the extraction layout")


def check_lipschitz(
    f: SpeciesFunctor,
    object_pairs: Sequence[tuple[EnvObject, EnvObject]],
    bound: float = math.inf,
    iota: DirectEmbedding | None = None,
    program: Program | None = None,
) -> LawReport:
    """Empirical expansion ratio of the environment-to-network map.

    Reports sup over pairs of d_myc(F(E1), F(E2)) / d_env(E1, E2), both
    distances with unit weights, skipping pairs at zero environment
    distance unless their images differ (which scores infinity; a NaN
    image distance differs). A NaN ratio is the worst. ``iota`` defaults to the direct
    field embedding and embeds every environment as one batch; ``program``
    optionally runs a flow between embedding and extraction, for every
    embedded environment in one ``transform_many`` call. The environment
    distances of all pairs come from one :func:`env_distances` call on
    that batch, equal to :func:`env_distance` bit for bit. Raises
    :class:`ParameterError` when there is no pair, or when the environments
    do not share one graph and one constraint record.
    """
    object_pairs = list(object_pairs)
    if not object_pairs:
        raise ParameterError("Lipschitz check needs at least one environment pair")
    layout = f.extraction.layout
    if iota is None:
        iota = direct_embedding(layout, layout.feature_count - 1)
    _require_layout(iota, layout)
    program = program if program is not None else NULL_PROGRAM
    batch = EnvBatch.from_envs([env for pair in object_pairs for env in pair])
    starts = iota.many(batch)
    images = f.transform_many(starts, PieceTable.from_programs([program]).repeat(len(starts)))
    d_mycs = state_distances(images[0::2], images[1::2], f.extraction)
    d_envs = env_distances(batch.take(range(0, len(batch), 2)), batch.take(range(1, len(batch), 2)))
    # a NaN image distance differs too
    expanded = np.flatnonzero((d_envs == 0.0) & (d_mycs != 0.0))
    if expanded.size:
        return LawReport(
            law="lipschitz",
            samples=int(expanded[0]) + 1,
            max_residual=math.inf,
            tolerance=bound,
            witness={"pair_index": int(expanded[0]), "kind": "zero-distance-expansion"},
        )
    used = np.flatnonzero(d_envs != 0.0)  # the pairs at nonzero distance
    with np.errstate(invalid="ignore"):  # inf / inf is NaN, as for floats
        ratios = d_mycs[used] / d_envs[used]
    worst, w = _worst(ratios)
    witness = None if w is None else {
        "pair_index": int(used[w]), "ratio": float(ratios[w]),
        "d_env": float(d_envs[used[w]]), "d_myc": float(d_mycs[used[w]]),
    }
    return LawReport(
        law="lipschitz",
        samples=len(used),
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
    nodes = state.layout.graph.nodes
    rows = state.layout.node_rows(state.vector)
    rho = {v: row[0] for v, row in zip(nodes, rows)}
    phi = {v: row[1:] for v, row in zip(nodes, rows)}
    return EnvObject(template.graph, rho, phi, template.chi)


EnvironmentEvolution = Callable[[EnvBatch, PieceTable], EnvBatch]


def matched_environment_evolution(
    f: SpeciesFunctor, iota: DirectEmbedding
) -> EnvironmentEvolution:
    """Environment evolution that mirrors the internal dynamics exactly: the
    scaled evolution at scale 1, which keeps every control's bits."""
    return scaled_environment_evolution(f, iota, 1.0)


def scaled_environment_evolution(
    f: SpeciesFunctor, iota: DirectEmbedding, amplitude_scale: float
) -> EnvironmentEvolution:
    """Environment evolution that scales every pulse amplitude by
    ``amplitude_scale`` (a mutant unless it is 1): embed the batch of
    environments, run scaled program i from environment i in one
    ``transform_many`` call, and write the states back as fields, the
    batch form of :func:`field_writeback`."""
    _require_layout(iota, f.extraction.layout)
    layout = iota.layout

    def psi(batch: EnvBatch, table: PieceTable) -> EnvBatch:
        moved = f.transform_many(iota.many(batch), table.scale_amplitude(amplitude_scale))
        fields = moved.reshape(len(moved), len(layout.graph.nodes), layout.feature_count)
        return EnvBatch(batch.graph, batch.chi, fields)

    return psi


def check_compatibility(
    iota: DirectEmbedding,
    psi: EnvironmentEvolution,
    f: SpeciesFunctor,
    environments: Sequence[EnvObject],
    programs: PieceTable | Sequence[Program],
    tol: float = 1e-8,
    weights: DistanceWeights = DistanceWeights(),
) -> LawReport:
    """Compare the two legs of the static/operational square per program.

    ``programs`` is a :class:`PieceTable` or a sequence of
    :class:`Program`, read into one table on entry; the report is the same
    for both. Leg one evolves the environment with ``psi`` and reads the
    result out through the species pipeline; leg two embeds with ``iota``
    and evolves internally. The report's residual is the max network
    distance between the legs over all (environment, program) pairs. The
    environments form one :class:`EnvBatch`, embedded once; ``psi`` maps a
    batch of environments and a :class:`PieceTable` of as many programs,
    one per environment, to the batch of evolved environments. It and the
    operational leg's ``transform_many`` each run on all pairs in one call.
    Pair i is environment i // P with program i % P, for P programs: its
    rows come from ``np.repeat`` and ``np.tile``, its witness's indices from
    ``divmod``. The witness holds its program's ``to_json``. Raises
    :class:`ParameterError` when there is no environment or program, or
    when the environments do not share one graph and one constraint
    record.
    """
    environments, table = list(environments), _table(programs)
    if not environments or not len(table):
        raise ParameterError(
            f"compatibility needs at least one environment and one program, got "
            f"{len(environments)} and {len(table)}"
        )
    _require_layout(iota, f.extraction.layout)
    batch = EnvBatch.from_envs(environments)
    try:
        starts = iota.many(batch)
    except InputError as exc:
        # the batch shares one graph, so the first environment is undefined
        raise InputError("iota undefined on sampled environment 0") from exc
    env_rows = np.repeat(np.arange(len(environments)), len(table))
    paired = table.take(np.tile(np.arange(len(table)), len(environments)))
    operational = f.transform_many(starts[env_rows], paired)
    static = iota.many(psi(batch.take(env_rows), paired))
    residuals = state_distances(static, operational, f.extraction, weights)

    def witness_of(i: int) -> dict:
        ei, pi = divmod(i, len(table))
        return {
            "environment_index": ei,
            "program_index": pi,
            "program": table.program(pi).to_json(),
        }

    return _report("compatibility", residuals, tol, witness_of)
