"""Programs, piece-exact evolution, extraction, and induced network updates."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat import experiments, kernels
from mycocat.envmyc import DistanceWeights, myc_distance
from mycocat.errors import ParameterError, ShapeError
from mycocat.experiments import reference_species
from mycocat.graphs import AttributedGraph
from mycocat.laws import SpeciesFunctor, perturbed_variant, similarity_variant
from mycocat.programs import (
    Extraction,
    InternalState,
    NULL_PROGRAM,
    Program,
    ReferenceDynamics,
    StateLayout,
    _piece_table,
    concatenate,
    evolve,
    evolve_many,
    extract,
    flow_matrix,
    programs_equivalent_at,
    state_distances,
)


def path_graph(n):
    nodes = tuple(f"v{i}" for i in range(n))
    edges = tuple((f"e{i}", (nodes[i], nodes[i + 1])) for i in range(n - 1))
    return AttributedGraph(nodes, edges)


def rk4_evolve(vector, program, dyn, steps_per_unit=2000):
    """Independent fixed-step RK4 integration of the piecewise bilinear ODE."""
    s = np.array(vector, dtype=float)
    for length, control in program.pieces:
        gen = dyn.drift.copy()
        for u, mat in zip(control, dyn.controls):
            gen = gen + u * mat
        nsteps = max(1, int(np.ceil(length * steps_per_unit)))
        h = length / nsteps
        for _ in range(nsteps):
            k1 = gen @ s
            k2 = gen @ (s + 0.5 * h * k1)
            k3 = gen @ (s + 0.5 * h * k2)
            k4 = gen @ (s + h * k3)
            s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return s


@pytest.fixture
def small_setup(nprng):
    layout = StateLayout(path_graph(2), 2)  # dim 4
    drift = 0.3 * nprng.normal(size=(4, 4))
    a1 = 0.4 * nprng.normal(size=(4, 4))
    a2 = 0.4 * nprng.normal(size=(4, 4))
    dyn = ReferenceDynamics(drift, (a1, a2))
    state = InternalState(nprng.normal(size=4), layout)
    return layout, dyn, state


class TestProgram:
    def test_null_is_concatenation_unit(self):
        p = Program(((2.0, (1.0, 0.0)),))
        assert concatenate(NULL_PROGRAM, p) == p
        assert concatenate(p, NULL_PROGRAM) == p

    def test_durations_add(self):
        p = Program(((2.0, (1.0,)),))
        q = Program(((3.0, (0.5,)),))
        assert concatenate(p, q).duration == pytest.approx(5.0)

    def test_duration_adds_left_to_right(self):
        # Compensated summation (builtin sum from Python 3.12 on) would give
        # 1e16 + 2 here; every supported interpreter must give 1e16.
        p = Program(((1e16, (0.0,)), (1.0, (0.0,)), (1.0, (0.0,))))
        assert p.duration == 1e16

    def test_signal_lookup_inside_second_block(self):
        p = Program(((2.0, (1.0,)),))
        q = Program(((1.5, (0.25,)), (1.5, (0.75,))))
        pq = concatenate(p, q)
        assert pq.control_at(2.5) == (0.25,)
        assert pq.control_at(2.0) == (1.0,)  # boundary belongs to p
        assert pq.control_at(5.0) == (0.75,)

    def test_concatenation_associative_structurally(self):
        p = Program(((1.0, (1.0,)),))
        q = Program(((2.0, (2.0,)),))
        r = Program(((3.0, (3.0,)),))
        assert concatenate(concatenate(p, q), r) == concatenate(p, concatenate(q, r))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ParameterError):
            Program(((0.0, (1.0,)),))

    def test_json_roundtrip(self):
        p = Program(((1.0, (1.0, 2.0)), (0.5, (0.0, -1.0))))
        assert Program.from_json(p.to_json()) == p


pieces_strategy = st.lists(
    st.tuples(
        st.floats(0.01, 5.0, allow_nan=False),
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    ),
    max_size=4,
).map(tuple)


@settings(max_examples=50, deadline=None)
@given(pieces_strategy, pieces_strategy, pieces_strategy)
def test_concatenation_associativity_property(a, b, c):
    p, q, r = Program(a), Program(b), Program(c)
    assert concatenate(concatenate(p, q), r) == concatenate(p, concatenate(q, r))
    assert concatenate(NULL_PROGRAM, p) == p
    assert concatenate(p, NULL_PROGRAM) == p


class TestEvolve:
    def test_zero_dynamics_keeps_state(self):
        layout = StateLayout(path_graph(2), 1)
        dyn = ReferenceDynamics(np.zeros((2, 2)), (np.zeros((2, 2)),))
        state = InternalState((0.3, 0.7), layout)
        out = evolve(state, Program(((5.0, (0.0,)),)), dyn)
        assert np.allclose(out.vector, state.vector, atol=0)

    def test_matches_rk4_oracle(self, small_setup):
        _, dyn, state = small_setup
        p = Program(((0.6, (0.8, -0.3)), (0.4, (-0.2, 0.5))))
        exact = evolve(state, p, dyn)
        approx = rk4_evolve(state.vector, p, dyn)
        assert np.max(np.abs(exact.vector - approx)) < 1e-8

    def test_causality_on_random_programs(self, small_setup, nprng):
        layout, dyn, _ = small_setup
        for _ in range(100):
            state = InternalState(nprng.normal(size=4), layout)
            p = Program(
                tuple(
                    (float(nprng.uniform(0.1, 0.8)), tuple(nprng.normal(size=2)))
                    for _ in range(nprng.integers(1, 3))
                )
            )
            q = Program(
                tuple(
                    (float(nprng.uniform(0.1, 0.8)), tuple(nprng.normal(size=2)))
                    for _ in range(nprng.integers(1, 3))
                )
            )
            joint = evolve(state, concatenate(p, q), dyn)
            stepwise = evolve(evolve(state, p, dyn), q, dyn)
            assert np.max(np.abs(joint.vector - stepwise.vector)) < 1e-12

    def test_dimension_mismatch(self, small_setup):
        layout, dyn, _ = small_setup
        bad = InternalState(np.zeros(2), StateLayout(path_graph(2), 1))
        with pytest.raises(ShapeError):
            evolve(bad, Program(((1.0, (0.0, 0.0)),)), dyn)

    def test_flow_of_null_program_is_identity(self, small_setup):
        _, dyn, _ = small_setup
        assert np.array_equal(flow_matrix(dyn, NULL_PROGRAM), np.eye(4))


FLOW_SPECIES = {
    "reference": reference_species(n_sites=3),
    "commuting": reference_species(n_sites=3, coupling="commuting"),
}
FLOW_SPECIES["similarity"] = similarity_variant(FLOW_SPECIES["reference"], seed=3)[0]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FLOW_SPECIES)), pieces_strategy)
def test_flow_matrix_is_the_evolved_identity_basis(name, pieces):
    # flow_matrix and evolve_many run one flow kernel: column i of the flow
    # is the i-th basis vector evolved, bit for bit (zeros compare by value)
    species = FLOW_SPECIES[name]
    dyn, layout = species.dynamics, species.extraction.layout
    p = Program(pieces)
    basis = [InternalState(e, layout) for e in np.eye(dyn.dim)]
    evolved = np.stack([s.vector for s in evolve_many(basis, [p] * dyn.dim, dyn)])
    assert np.array_equal(flow_matrix(dyn, p), evolved.T)


def per_block_system(dyn):
    """(system, parts) of ``dyn`` with one class per block: the gather of
    drift and controls on the blocks of their union pattern."""
    mats = np.concatenate((dyn.drift[None], np.reshape(dyn.controls, (-1, dyn.dim, dyn.dim))))
    parts = kernels.blocks((mats != 0).any(axis=0))
    return kernels.gather(mats, parts), parts


def assert_one_class_per_distinct_block(dyn):
    system, parts = per_block_system(dyn)
    distinct = {system[:, b].tobytes() for b in range(system.shape[1])}
    assert dyn._system.shape[1] == len(distinct)
    assert np.array_equal(dyn._blocks.index, parts.index)
    assert dyn._system[:, dyn._blocks.kind].tobytes() == system.tobytes()


def repeated_blocks(rng, sizes, mode, channels):
    """Drift and controls made of random blocks of the given sizes, scattered
    to permuted indices. Blocks of one size repeat one block ("repeats"),
    repeat it with the drift's zero (0, 0) entry negated in every other copy
    ("signed-zero"), or are all drawn afresh ("distinct"). A nonzero drift
    chain (i, i + 1) keeps each block one component."""
    templates = {}
    n = sum(sizes)
    mats = np.zeros((1 + channels, n, n))
    start = 0
    for k, size in enumerate(sizes):
        if mode == "distinct" or size not in templates:
            block = 0.5 * rng.normal(size=(1 + channels, size, size)) / np.sqrt(size)
            block[rng.random(block.shape) < 0.3] = 0.0
            block[0, np.arange(size - 1), np.arange(1, size)] = 0.5
            block[0, 0, 0] = 0.0
            templates[size] = block
        block = templates[size].copy()
        if mode == "signed-zero" and k % 2:
            block[0, 0, 0] = -0.0
        mats[:, start:start + size, start:start + size] = block
        start += size
    perm = rng.permutation(n)
    return mats[:, perm][:, :, perm]


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=7),
    mode=st.sampled_from(["repeats", "signed-zero", "distinct"]),
    channels=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_classes_keep_every_flow_bit_for_bit(sizes, mode, channels, seed):
    # evolve_many and flow_matrix on the block classes equal the one-class-
    # per-block path byte for byte, signs of zeros included
    rng = np.random.default_rng(seed)
    mats = repeated_blocks(rng, sizes, mode, channels)
    dyn = ReferenceDynamics(mats[0], tuple(mats[1:]))
    assert_one_class_per_distinct_block(dyn)
    system, parts = per_block_system(dyn)
    programs = [
        Program(tuple(
            (float(rng.uniform(0.1, 1.0)), tuple(rng.uniform(-1.0, 1.0, size=channels)))
            for _ in range(rng.integers(0, 4))
        ))
        for _ in range(70)
    ]
    layout = StateLayout(path_graph(len(mats[0])), 1)
    states = [InternalState(v, layout) for v in rng.normal(size=(70, len(mats[0])))]
    table = _piece_table(programs, dyn)
    ref = kernels.apply_flows(system, parts, *table, np.stack([s.vector for s in states]))
    got = np.stack([s.vector for s in evolve_many(states, programs, dyn)])
    assert got.tobytes() == ref.tobytes()
    for p in programs[:5]:
        lengths, inputs, _ = _piece_table([p], dyn)
        ref = kernels.piecewise_flow(system, parts, lengths, inputs)
        assert flow_matrix(dyn, p).tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "coupling, blocks, classes", [("noncommuting", 16, 2), ("commuting", 24, 3)]
)
def test_species_variants_keep_one_class_per_distinct_block(coupling, blocks, classes):
    # the reference species couples every site alike; the perturbed and
    # similarity variants are dense, a single block and class each
    species = reference_species(coupling=coupling)
    assert len(species.dynamics._blocks.kind) == blocks
    assert species.dynamics._system.shape[1] == classes
    for variant in (perturbed_variant(species), similarity_variant(species)[0]):
        assert_one_class_per_distinct_block(variant.dynamics)
        assert variant.dynamics._system.shape[1] == 1
    assert_one_class_per_distinct_block(species.dynamics)


def test_worked_example_exponentiates_each_block_class_once(monkeypatch):
    # the default run sends 11840 expm members when every block of every
    # piece is exponentiated; each scan estimates both pulse generators in
    # one call, so the run makes 12 calls
    members = []
    expm = kernels.expm

    def counted(a):
        members.append(a.size // a.shape[-1] ** 2)
        return expm(a)

    monkeypatch.setattr(kernels, "expm", counted)
    experiments.run_worked_example(experiments.WorkedExampleConfig())
    assert len(members) == 12
    assert sum(members) <= 1520


class TestEquivalence:
    def test_program_equivalent_to_itself_at_zero_tol(self, small_setup):
        _, dyn, state = small_setup
        p = Program(((0.5, (1.0, 0.0)),))
        assert programs_equivalent_at(state, p, p, dyn, tol=0.0)

    def test_commuting_diagonal_controls(self):
        layout = StateLayout(path_graph(2), 1)
        dyn = ReferenceDynamics(
            np.zeros((2, 2)),
            (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        )
        state = InternalState((1.0, 1.0), layout)
        ab = concatenate(
            Program(((0.3, (1.0, 0.0)),)), Program(((0.3, (0.0, 1.0)),))
        )
        ba = concatenate(
            Program(((0.3, (0.0, 1.0)),)), Program(((0.3, (1.0, 0.0)),))
        )
        assert programs_equivalent_at(state, ab, ba, dyn, tol=1e-10)

    def test_noncommuting_nilpotent_pair(self):
        layout = StateLayout(path_graph(2), 1)
        up = np.array([[0.0, 1.0], [0.0, 0.0]])
        down = np.array([[0.0, 0.0], [1.0, 0.0]])
        dyn = ReferenceDynamics(np.zeros((2, 2)), (up, down))
        state = InternalState((1.0, 1.0), layout)
        eps = 0.1
        ab = concatenate(
            Program(((eps, (1.0, 0.0)),)), Program(((eps, (0.0, 1.0)),))
        )
        ba = concatenate(
            Program(((eps, (0.0, 1.0)),)), Program(((eps, (1.0, 0.0)),))
        )
        assert not programs_equivalent_at(state, ab, ba, dyn, tol=1e-6)


class TestExtraction:
    def test_direct_readout(self):
        layout = StateLayout(path_graph(2), 1)
        state = InternalState((0.3, 0.7), layout)
        m = extract(state, Extraction(layout))
        assert m.omega == {"v0": (0.3,), "v1": (0.7,)}
        assert m.sigma == {"e0": 1.0}

    def test_extract_unchanged_by_null_program(self, small_setup):
        layout, dyn, state = small_setup
        ext = Extraction(layout, sigma=2.5)
        before = extract(state, ext)
        after = extract(evolve(state, NULL_PROGRAM, dyn), ext)
        assert myc_distance(before, after) == 0.0

    def test_layout_mismatch_raises(self, small_setup):
        layout, _, state = small_setup
        other = Extraction(StateLayout(path_graph(3), 2))
        with pytest.raises(ShapeError):
            extract(state, other)

    def test_features_match_index_map_oracle(self, small_setup, nprng):
        layout, dyn, state = small_setup
        p = Program(((0.7, (0.4, 0.1)),))
        evolved = evolve(state, p, dyn)
        m = extract(evolved, Extraction(layout))
        # oracle: walk the slots list and regroup by hand
        slots = layout.slots()
        for i, (node, feat) in enumerate(slots):
            assert m.omega[node][feat] == evolved.vector[i]


class TestExtractionInvariants:
    """Every network ``extract`` builds must be a valid ``MycObject``; an
    ``Extraction`` checks that once, and refuses a conductivity that is not
    finite, which would make every distance NaN."""

    @pytest.mark.parametrize(
        "graph, sigma, error",
        [
            (AttributedGraph(("a", "b"), ()), 1.0, ShapeError),
            (path_graph(2), {"e0": 1.0, "e9": 1.0}, ShapeError),
            (path_graph(2), {}, ShapeError),
            (path_graph(3), {"e0": 1.0, "e1": -0.5}, ParameterError),
            (path_graph(2), {"e0": math.inf}, ParameterError),
            (path_graph(2), -1.0, ParameterError),
            (path_graph(2), math.nan, ParameterError),
            (path_graph(2), math.inf, ParameterError),
            (path_graph(1), -1.0, ParameterError),
            (path_graph(1), math.inf, ParameterError),
        ],
    )
    def test_refused(self, graph, sigma, error):
        with pytest.raises(error):
            Extraction(StateLayout(graph, 1), sigma)

    def test_fields_alone_define_equality_and_repr(self):
        layout = StateLayout(path_graph(2), 1)
        assert Extraction(layout, 2.0) == Extraction(layout, 2.0)
        assert Extraction(layout, 2.0) != Extraction(layout, {"e0": 2.0})
        assert repr(Extraction(layout, 2.0)) == f"Extraction(layout={layout!r}, sigma=2.0)"

    def test_extract_reads_the_per_edge_sigma(self):
        layout = StateLayout(path_graph(3), 1)
        state = InternalState((0.0, 1.0, 2.0), layout)
        assert extract(state, Extraction(layout, {"e1": 3, "e0": 0.5})).sigma == {
            "e0": 0.5, "e1": 3.0
        }
        assert extract(state, Extraction(layout, 2)).sigma == {"e0": 2.0, "e1": 2.0}


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# An infinite weight is refused by DistanceWeights; 1e300 is the far end.
WEIGHT = st.sampled_from([0.0, 1.0, 0.5, 3.0, 1e300]) | st.floats(0.0, 1e6)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(1, 12),
    features=st.integers(1, 10),
    batch=st.integers(1, 70),
    weights=st.builds(DistanceWeights, WEIGHT, WEIGHT, WEIGHT),
    sigma=st.floats(0.0, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_distances_equal_myc_distance_bit_for_bit(
    nodes, features, batch, weights, sigma, seed
):
    # Entries span 25 decades, so a different summation order shows in the
    # last bits; a quarter of the pairs share some entries exactly.
    rng = np.random.default_rng(seed)
    layout = StateLayout(path_graph(nodes), features)
    extraction = Extraction(layout, sigma)
    shape = (batch, layout.dim)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 17, size=shape)
    b = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 17, size=shape)
    b = np.where(rng.random(shape) < 0.25, a, b)
    firsts = [InternalState(v, layout) for v in a]
    seconds = [InternalState(v, layout) for v in b]
    got = state_distances(firsts, seconds, extraction, weights)
    want = [
        myc_distance(extract(x, extraction), extract(y, extraction), weights)
        for x, y in zip(firsts, seconds)
    ]
    assert [bits(d) for d in got] == [bits(d) for d in want]
    for x, y, d in zip(firsts, seconds, got):
        assert bits(state_distances([x], [y], extraction, weights)[0]) == bits(d)


class TestStateDistances:
    def test_default_weights_and_empty_batch(self):
        layout = StateLayout(path_graph(2), 2)
        extraction = Extraction(layout)
        s = InternalState((1.0, -2.0, 0.5, 0.0), layout)
        t = InternalState((0.0, 0.0, 0.0, 0.25), layout)
        assert state_distances([s, s], [t, s], extraction) == [3.75, 0.0]
        assert state_distances([], [], extraction) == []

    def test_graph_without_nodes(self):
        layout = StateLayout(path_graph(0), 1)
        empty = InternalState(np.zeros(0), layout)
        extraction = Extraction(layout)
        network = extract(empty, extraction)
        assert state_distances([empty], [empty], extraction) == [
            myc_distance(network, network)
        ]

    def test_mismatches_raise(self, small_setup):
        layout, _, state = small_setup
        other = InternalState(np.zeros(6), StateLayout(path_graph(3), 2))
        extraction = Extraction(layout)
        with pytest.raises(ShapeError):
            state_distances([state], [state, state], extraction)
        with pytest.raises(ShapeError):
            state_distances([state], [other], extraction)
        with pytest.raises(ShapeError):
            state_distances([state], [state], Extraction(other.layout))


class TestInducedMorphism:
    def test_null_program_gives_identity(self, small_setup):
        layout, dyn, state = small_setup
        f = SpeciesFunctor("test", dyn, Extraction(layout))
        assert f.on_program(state, NULL_PROGRAM).is_identity()

    def test_functoriality_under_concatenation(self, small_setup, nprng):
        layout, dyn, _ = small_setup
        f = SpeciesFunctor("test", dyn, Extraction(layout))
        for _ in range(100):
            state = InternalState(nprng.normal(size=4), layout)
            p = Program(((float(nprng.uniform(0.1, 0.6)), tuple(nprng.normal(size=2))),))
            q = Program(((float(nprng.uniform(0.1, 0.6)), tuple(nprng.normal(size=2))),))
            joint = f.on_program(state, concatenate(p, q))
            first = f.on_program(state, p)
            second = f.on_program(evolve(state, p, dyn), q)
            assert first.target == second.source
            assert myc_distance(joint.target, second.target) < 1e-12

    def test_equivalent_programs_induce_same_morphism(self):
        layout = StateLayout(path_graph(2), 1)
        dyn = ReferenceDynamics(
            np.zeros((2, 2)),
            (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        )
        state = InternalState((1.0, 1.0), layout)
        f = SpeciesFunctor("test", dyn, Extraction(layout))
        ab = concatenate(
            Program(((0.3, (1.0, 0.0)),)), Program(((0.3, (0.0, 1.0)),))
        )
        ba = concatenate(
            Program(((0.3, (0.0, 1.0)),)), Program(((0.3, (1.0, 0.0)),))
        )
        g1 = f.on_program(state, ab)
        g2 = f.on_program(state, ba)
        assert myc_distance(g1.target, g2.target) < 1e-10
