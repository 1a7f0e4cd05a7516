"""Programs, piece-exact evolution, extraction, and induced network updates."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat import experiments, kernels
from mycocat import programs as programs_module
from mycocat.envmyc import DistanceWeights, myc_distance
from mycocat.errors import ParameterError, ShapeError
from mycocat.experiments import reference_species
from mycocat.graphs import AttributedGraph
from mycocat.laws import (
    SpeciesFunctor,
    non_causal_variant,
    perturbed_variant,
    similarity_variant,
)
from mycocat.programs import (
    Extraction,
    InternalState,
    NULL_PROGRAM,
    PieceTable,
    Program,
    ReferenceDynamics,
    StateLayout,
    _flow_arrays,
    concatenate,
    evolve,
    evolve_many,
    extract,
    flow_matrix,
    programs_equivalent_at,
    state_distances,
)

from conftest import myc_oracle


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


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Program(((1.0, ("a",)),)), "pieces"),
        (lambda: Program(((1.0, 2.0),)), "pieces"),
        (lambda: Program((1.0,)), "pieces"),
        (lambda: PieceTable([[1.0], [1.0, 2.0]], [[1.0]], [1]), "lengths"),
        (lambda: PieceTable([1.0], [["a"]], [1]), "inputs"),
        (lambda: PieceTable(["a"], [[1.0]], [1]), "lengths"),
        (lambda: PieceTable([1.0], object(), [1]), "inputs"),
    ],
    ids=[
        "program-control-not-a-number", "program-control-not-a-list", "program-piece-not-a-pair",
        "table-ragged-lengths", "table-input-not-a-number", "table-length-not-a-number",
        "table-inputs-not-a-list",
    ],
)
def test_malformed_pieces_built_in_code_are_shape_errors(build, field):
    with pytest.raises(ShapeError, match=f"^{field}: "):
        build()


@pytest.mark.parametrize(
    "pieces, shown",
    [
        (((True, (2.0,)),), "True"),
        (((1.0, ("2",)),), "'2'"),
        (((1.0, (1.0, False)),), "False"),
        (((1.0, "12"),), "'1'"),
    ],
    ids=["bool-length", "string-control", "bool-control", "string-controls"],
)
def test_program_numbers_are_read_as_the_wire_reads_them(pieces, shown):
    # float() read True as 1.0 and "2" as 2.0
    with pytest.raises(ShapeError) as exc:
        Program(pieces)
    assert str(exc.value) == f"pieces: must be a number, got {shown}"


def test_program_numbers_are_stored_as_floats():
    p = Program(((1, (np.float64(0.5), 2)),))
    assert p.pieces == ((1.0, (0.5, 2.0)),)
    assert all(type(x) is float for x in (p.pieces[0][0], *p.pieces[0][1]))


class TestReferenceDynamicsCopies:
    """The dynamics keep their own read-only copy of drift and controls."""

    def test_the_callers_arrays_stay_the_callers(self):
        drift, control = np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]])
        dyn = ReferenceDynamics(drift, (control,))
        program = Program(((1.0, (1.0,)),))
        flow = flow_matrix(dyn, program)
        drift[0, 0], control[1, 0] = 5.0, 3.0
        assert dyn.drift.tobytes() == np.zeros((2, 2)).tobytes()
        assert dyn.controls[0].tobytes() == np.array([[0.0, 1.0], [0.0, 0.0]]).tobytes()
        assert flow_matrix(dyn, program).tobytes() == flow.tobytes()

    def test_drift_and_controls_are_read_only(self):
        dyn = reference_species(n_sites=2).dynamics
        for matrix in (dyn.drift, *dyn.controls):
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0


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
    dyn = FLOW_SPECIES[name].dynamics
    p = Program(pieces)
    evolved = evolve_many(np.eye(dyn.dim), PieceTable.from_programs([p]).repeat(dyn.dim), dyn)
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
    states = rng.normal(size=(70, len(mats[0])))
    table = PieceTable.from_programs(programs)
    ref = kernels.apply_flows(system, parts, *_flow_arrays(table, dyn), states)
    got = evolve_many(states, table, dyn)
    assert got.tobytes() == ref.tobytes()
    for p in programs[:5]:
        lengths, inputs, _ = _flow_arrays(PieceTable.from_programs([p]), dyn)
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
    # piece is exponentiated; each flow batch takes one call, the functor
    # law's joint and first legs share one, and the scans read their pulse
    # generators off the dynamics, so the run makes 6
    members = []
    expm = kernels.expm

    def counted(a):
        members.append(a.size // a.shape[-1] ** 2)
        return expm(a)

    monkeypatch.setattr(kernels, "expm", counted)
    experiments.run_worked_example(experiments.WorkedExampleConfig())
    assert len(members) == 6
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
            (path_graph(3), {"e0": 1.0, "e1": -0.5}, ShapeError),
            (path_graph(2), {"e0": math.inf}, ShapeError),
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

    @pytest.mark.parametrize("sigma", [{"e0": 1.0}, True, "1.0"])
    def test_a_sigma_that_is_not_a_number_is_named(self, sigma):
        with pytest.raises(ShapeError, match="^sigma: must be a number, got "):
            Extraction(StateLayout(path_graph(2), 1), sigma)

    def test_fields_alone_define_equality_and_repr(self):
        layout = StateLayout(path_graph(2), 1)
        assert Extraction(layout, 2.0) == Extraction(layout, 2.0)
        assert Extraction(layout, 2.0) != Extraction(layout, 3.0)
        assert repr(Extraction(layout, 2.0)) == f"Extraction(layout={layout!r}, sigma=2.0)"

    def test_extract_puts_sigma_on_every_edge(self):
        layout = StateLayout(path_graph(3), 1)
        state = InternalState((0.0, 1.0, 2.0), layout)
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
    # Both equal the Python-float oracle, which shares no code with them.
    # Entries span 25 decades, so a different summation order shows in the
    # last bits; a quarter of the pairs share some entries exactly.
    rng = np.random.default_rng(seed)
    layout = StateLayout(path_graph(nodes), features)
    extraction = Extraction(layout, sigma)
    shape = (batch, layout.dim)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 17, size=shape)
    b = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 17, size=shape)
    b = np.where(rng.random(shape) < 0.25, a, b)
    got = state_distances(a, b, extraction, weights).tolist()
    networks = [
        [extract(InternalState(x, layout), extraction) for x in states] for states in (a, b)
    ]
    want = [myc_oracle(m1, m2, weights) for m1, m2 in zip(*networks)]
    assert [bits(d) for d in got] == [bits(d) for d in want]
    assert [bits(myc_distance(m1, m2, weights)) for m1, m2 in zip(*networks)] == [
        bits(d) for d in want
    ]
    for x, y, d in zip(a, b, got):
        assert bits(float(state_distances(x[None], y[None], extraction, weights)[0])) == bits(d)


class TestStateDistances:
    def test_default_weights_and_empty_batch(self):
        layout = StateLayout(path_graph(2), 2)
        extraction = Extraction(layout)
        s = (1.0, -2.0, 0.5, 0.0)
        t = (0.0, 0.0, 0.0, 0.25)
        assert state_distances([s, s], [t, s], extraction).tolist() == [3.75, 0.0]
        assert state_distances(np.zeros((0, 4)), np.zeros((0, 4)), extraction).tolist() == []

    def test_overflow_is_inf_without_a_warning(self):
        # myc_distance sums Python floats, which overflow to inf silently
        layout = StateLayout(path_graph(2), 2)
        extraction = Extraction(layout)
        weights = DistanceWeights(0.0, 1.0, 1.0)  # 0 times inf is NaN
        a = np.array([[1e308, 0.0, 0.0, 0.0], [1e308, 1e308, -1e308, 0.0]])
        b = np.array([[-1e308, 0.0, 0.0, 0.0], [0.0, 0.0, 1e308, 0.0]])
        want = [
            myc_distance(
                extract(InternalState(x, layout), extraction),
                extract(InternalState(y, layout), extraction),
                weights,
            )
            for x, y in zip(a, b)
        ]
        got = state_distances(a, b, extraction, weights)
        assert [bits(d) for d in got.tolist()] == [bits(d) for d in want]
        assert state_distances(a, b, extraction).tolist() == [math.inf, math.inf]

    def test_graph_without_nodes(self):
        layout = StateLayout(path_graph(0), 1)
        empty = InternalState(np.zeros(0), layout)
        extraction = Extraction(layout)
        network = extract(empty, extraction)
        assert state_distances(np.zeros((1, 0)), np.zeros((1, 0)), extraction).tolist() == [
            myc_distance(network, network)
        ]

    def test_mismatches_raise(self, small_setup):
        layout, _, state = small_setup
        one, other = state.vector[None], np.zeros((1, 6))
        extraction = Extraction(layout)
        with pytest.raises(ShapeError):
            state_distances(one, np.concatenate((one, one)), extraction)
        with pytest.raises(ShapeError):
            state_distances(one, other, extraction)
        with pytest.raises(ShapeError):
            state_distances(one, one, Extraction(StateLayout(path_graph(3), 2)))
        with pytest.raises(ShapeError):
            state_distances(state.vector, state.vector, extraction)


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


# ---------------------------------------------------------------------------
# Piece tables: the batch form of programs
# ---------------------------------------------------------------------------

CONTROL = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1e300]) | st.floats(
    -1e6, 1e6, allow_nan=False
)


@st.composite
def program_batches(draw, min_size=0):
    """A control width and a list of programs of that width, empty ones
    included; entries include signed zeros, subnormals and huge values."""
    width = draw(st.integers(0, 3))
    piece = st.tuples(
        st.sampled_from([5e-324, 1e-300, 1e300]) | st.floats(1e-3, 10.0),
        st.tuples(*[CONTROL] * width),
    )
    programs = draw(
        st.lists(st.lists(piece, max_size=4).map(tuple), min_size=min_size, max_size=8)
    )
    return width, [Program(pieces) for pieces in programs]


def program_bits(p: Program) -> list:
    """Every float of a program as bytes, so -0.0 differs from 0.0."""
    return [(bits(length), [bits(u) for u in control]) for length, control in p.pieces]


def table_programs(table: PieceTable) -> list:
    return [program_bits(table.program(i)) for i in range(len(table))]


def scaled_bits(p: Program, factor: float) -> list:
    """The oracle of ``scale_amplitude``: every control times ``factor``,
    one product of Python floats each, as bytes. A product that is not
    finite raises the ParameterError a program gives."""
    pieces = [(length, [factor * u for u in control]) for length, control in p.pieces]
    if not all(math.isfinite(u) for _, control in pieces for u in control):
        raise ParameterError("piece lengths and controls must be finite")
    return [(bits(length), [bits(u) for u in control]) for length, control in pieces]


SCALE_FACTOR = (
    st.sampled_from([1.1, -1.0, 0.0, -0.0, 0.5, 1e-300, 1e300, math.nan, 2, -3])
    | st.floats(-1e3, 1e3)
)


class TestPieceTable:
    @settings(max_examples=150, deadline=None)
    @given(program_batches())
    def test_round_trip(self, batch):
        _, programs = batch
        table = PieceTable.from_programs(programs)
        assert len(table) == len(programs)
        assert table_programs(table) == [program_bits(p) for p in programs]
        if programs:
            assert program_bits(table.program(-1)) == program_bits(programs[-1])
        pieces = [piece for p in programs for piece in p.pieces]
        checked = PieceTable(
            [length for length, _ in pieces],
            [control for _, control in pieces],
            [len(p.pieces) for p in programs],
        )
        for name in ("lengths", "inputs", "counts"):
            got, want = getattr(table, name), getattr(checked, name)
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
            assert not got.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(program_batches())
    def test_concatenate_and_last_pieces(self, batch):
        _, programs = batch
        half = len(programs) // 2
        ps, qs = programs[:half], programs[half:2 * half]
        joined = PieceTable.from_programs(ps).concatenate(PieceTable.from_programs(qs))
        assert table_programs(joined) == [program_bits(concatenate(p, q)) for p, q in zip(ps, qs)]
        last = PieceTable.from_programs(ps).last_pieces()
        assert table_programs(last) == [program_bits(Program(p.pieces[-1:])) for p in ps]

    def test_from_programs_reads_an_iterator_once(self):
        # it iterated twice: an iterator gave 3 pieces and no program
        programs = [Program(((1.0, (0.5,)),)), Program(((2.0, (0.1,)), (0.3, (0.2,))))]
        table = PieceTable.from_programs(p for p in programs)
        assert table_programs(table) == [program_bits(p) for p in programs]

    def test_concatenate_with_a_table_without_pieces_of_any_width(self):
        # a table without pieces may have any width, wider ones included
        one = PieceTable([0.5], [[1.0, -0.0]], [1])
        for empty in (PieceTable(np.empty(0), np.empty((0, w)), [0]) for w in (0, 2, 5)):
            for joined in (one.concatenate(empty), empty.concatenate(one)):
                assert table_programs(joined) == [program_bits(one.program(0))]
                assert joined.inputs.shape == (1, 2)

    @settings(max_examples=150, deadline=None)
    @given(program_batches(), SCALE_FACTOR)
    def test_scale_amplitude(self, batch, factor):
        _, programs = batch
        table = PieceTable.from_programs(programs)
        try:
            want = [scaled_bits(p, factor) for p in programs]
        except ParameterError as exc:
            with pytest.raises(ParameterError, match=f"^{exc}$"):
                table.scale_amplitude(factor)
        else:
            assert table_programs(table.scale_amplitude(factor)) == want

    @settings(max_examples=150, deadline=None)
    @given(program_batches(), SCALE_FACTOR)
    def test_program_scale_amplitude_is_the_per_control_product(self, batch, factor):
        _, programs = batch
        for p in programs:
            try:
                want = scaled_bits(p, factor)
            except ParameterError as exc:
                with pytest.raises(ParameterError, match=f"^{exc}$"):
                    p.scale_amplitude(factor)
            else:
                assert program_bits(p.scale_amplitude(factor)) == want

    @pytest.mark.parametrize("factor", ["2", None, True, [2.0], {"factor": 2.0}])
    def test_scale_amplitude_reads_factor(self, factor):
        # a bool is not a number: True does not scale by 1
        program = Program(((1.0, (0.5, -0.25)),))
        table = PieceTable.from_programs([program, NULL_PROGRAM])
        for scale in (table.scale_amplitude, program.scale_amplitude, NULL_PROGRAM.scale_amplitude):
            with pytest.raises(ShapeError, match="^factor: must be a number, got "):
                scale(factor)

    @settings(max_examples=60, deadline=None)
    @given(program_batches(), st.integers(0, 3), st.data())
    def test_repeat_and_take(self, batch, k, data):
        _, programs = batch
        table = PieceTable.from_programs(programs)
        assert table_programs(table.repeat(k)) == [
            program_bits(p) for p in programs for _ in range(k)
        ]
        rows = data.draw(st.lists(st.integers(0, max(len(programs) - 1, 0)), max_size=10)
                         if programs else st.just([]))
        assert table_programs(table.take(rows)) == [program_bits(programs[i]) for i in rows]

    @pytest.mark.parametrize(
        "pieces",
        [
            ((0.0, (1.0,)),),
            ((-1.0, (1.0,)),),
            ((math.nan, (1.0,)),),
            ((math.inf, (1.0,)),),
            ((1.0, (math.inf,)),),
            ((1.0, (math.nan,)),),
            ((1.0, (math.inf,)), (-1.0, (1.0,))),
            ((1.0, (1.0,)), (0.0, (math.nan,))),
        ],
    )
    def test_validation_matches_program(self, pieces):
        with pytest.raises(ParameterError) as want:
            Program(pieces)
        with pytest.raises(ParameterError, match=f"^{want.value}$"):
            PieceTable([p[0] for p in pieces], [p[1] for p in pieces], [len(pieces)])

    def test_width_errors_match_program(self):
        mixed = [Program(((1.0, (1.0,)),)), Program(((1.0, (1.0, 2.0)),))]
        with pytest.raises(ShapeError, match="all pieces must share one control width"):
            Program(mixed[0].pieces + mixed[1].pieces)
        with pytest.raises(ShapeError, match="all pieces must share one control width"):
            PieceTable.from_programs(mixed)
        with pytest.raises(ShapeError, match="^all pieces must share one control width$"):
            PieceTable([1.0, 1.0], [[1.0], [1.0, 2.0]], [2])
        a, b = (PieceTable.from_programs([p]) for p in mixed)
        with pytest.raises(ShapeError, match="different control widths"):
            concatenate(*mixed)
        with pytest.raises(ShapeError, match="different control widths"):
            a.concatenate(b)
        dyn = reference_species(n_sites=2).dynamics
        state = np.ones((1, dyn.dim))
        with pytest.raises(ShapeError, match="program has 1 control channels, dynamics has 2"):
            evolve_many(state, a, dyn)
        with pytest.raises(ShapeError, match="2 states for 1 programs"):
            evolve_many(np.ones((2, dyn.dim)), b, dyn)
        with pytest.raises(ShapeError, match="does not match state dimension 3"):
            evolve_many(np.ones((1, 3)), b, dyn)
        # an empty program fits any dynamics
        assert evolve_many(state, PieceTable.from_programs([NULL_PROGRAM]), dyn).tobytes() == (
            state.tobytes()
        )

    @pytest.mark.parametrize(
        "counts", [[1.5], [True], [math.nan], [math.inf], [1e300], np.array([0.5, 0.5])],
        ids=["fraction", "bool", "nan", "inf", "past-the-integers", "halves"],
    )
    def test_counts_that_are_not_integers_are_refused(self, counts):
        # truncating would read [1.5] as [1] and [0.5, 0.5] as [0, 0]
        lengths = [1.0] * len(counts)
        with pytest.raises(ShapeError, match=r"^piece counts must be integers, got \["):
            PieceTable(lengths, [[1.0]] * len(lengths), counts)

    def test_whole_float_counts_read_as_integers(self):
        table = PieceTable([1.0, 1.0], [[1.0]] * 2, [2.0, 0.0])
        assert table.counts.dtype == np.intp and table.counts.tolist() == [2, 0]

    def test_from_programs_does_not_check_the_pieces_again(self, monkeypatch):
        programs = [Program(((0.5, (1.0, 0.0)),)), NULL_PROGRAM, Program(((0.25, (0.0, 1.0)),) * 2)]
        calls = []
        init = PieceTable.__init__

        def counted(self, *args, **kwargs):
            calls.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PieceTable, "__init__", counted)
        assert PieceTable.from_programs(programs).inputs.shape == (3, 2)
        assert PieceTable.from_programs([]).inputs.shape == (0, 0)
        assert PieceTable.from_programs([Program(((1.0, ()),))] * 2).inputs.shape == (2, 0)
        assert calls == []

    def test_arrays_are_read_only_copies(self):
        lengths = np.array([0.5, 0.25])
        table = PieceTable(lengths, np.zeros((2, 1)), [1, 1])
        lengths[0] = 9.0
        assert table.lengths[0] == 0.5
        with pytest.raises(ValueError):
            table.inputs[0, 0] = 1.0


def test_array_evolve_many_equals_per_pair_evolve(nprng):
    # a mixed batch of 0- to 3-piece programs, over two flow chunks
    species = reference_species(n_sites=3)
    dyn, layout = species.dynamics, species.extraction.layout
    programs = [
        Program(tuple(
            (float(nprng.uniform(0.1, 1.0)), tuple(nprng.normal(size=2)))
            for _ in range(k % 4)
        ))
        for k in range(150)
    ]
    vectors = nprng.normal(size=(150, dyn.dim))
    got = evolve_many(vectors, PieceTable.from_programs(programs), dyn)
    want = [evolve(InternalState(v, layout), p, dyn).vector for v, p in zip(vectors, programs)]
    assert got.tobytes() == np.stack(want).tobytes()
    assert evolve_many(np.zeros((0, dyn.dim)), PieceTable.from_programs([]), dyn).shape == (
        0, dyn.dim
    )


@pytest.mark.parametrize("variant", ["reference", "similarity", "non-causal"])
def test_states_per_program_equal_the_repeated_table(variant, nprng):
    # a (P, k, n) call runs each program's flow once for its k states and
    # gives the bits of the (P * k, n) call on each program repeated k times
    species = reference_species(n_sites=4)
    if variant == "similarity":  # one dense 12 x 12 block
        species = similarity_variant(species, seed=3)[0]
    elif variant == "non-causal":
        species = non_causal_variant(species)
    programs = [
        Program(tuple(
            (float(nprng.uniform(0.1, 1.0)), tuple(nprng.normal(size=2)))
            for _ in range(k % 4)
        ))
        for k in range(30)
    ]
    table = PieceTable.from_programs(programs)
    vectors = nprng.normal(size=(30, 5, species.dynamics.dim))
    got = species.transform_many(vectors, table)
    want = species.transform_many(vectors.reshape(150, -1), table.repeat(5))
    assert got.shape == vectors.shape
    assert got.tobytes() == want.tobytes()


def test_states_per_program_that_do_not_fit_are_refused():
    dyn = reference_species(n_sites=2).dynamics
    table = PieceTable.from_programs([NULL_PROGRAM, Program(((1.0, (0.5, 0.0)),))])
    with pytest.raises(ShapeError, match="^3 states for 2 programs$"):
        evolve_many(np.ones((3, 4, dyn.dim)), table, dyn)
    with pytest.raises(ShapeError, match="does not match state dimension 5$"):
        evolve_many(np.ones((2, 4, 5)), table, dyn)
    with pytest.raises(ShapeError, match=r"^states must be a \(P, n\) or \(P, k, n\) array"):
        evolve_many(np.ones((2, 1, 1, dyn.dim)), table, dyn)


class TestCodeBuiltVectorsReadTheirNumbers:
    layout = StateLayout(path_graph(1), 2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda layout: InternalState(["1.5", True], layout),
             "vector[0]: must be a number, got '1.5'"),
            (lambda layout: InternalState([1.5, True], layout),
             "vector[1]: must be a number, got True"),
            (lambda layout: InternalState(np.array(["1.5", "2"]), layout),
             "vector: must be numbers, got an array of <U3"),
            (lambda layout: InternalState(np.array([True, False]), layout),
             "vector: must be numbers, got an array of bool"),
            (lambda layout: PieceTable(["1.5"], [[1.0]], [1]),
             "lengths: must be a list of numbers"),
            (lambda layout: PieceTable([1.5], [[True]], [1]),
             "inputs: must be rows of numbers"),
            (lambda layout: PieceTable(np.array([True]), [[1.0]], [1]),
             "lengths: must be numbers, got an array of bool"),
            (lambda layout: PieceTable([1.5], np.array([["1"]]), [1]),
             "inputs: must be numbers, got an array of <U1"),
            (lambda layout: PieceTable([1.5], "1", [1]),
             "inputs: must be rows of numbers"),
        ],
        ids=[
            "state-string", "state-bool", "state-string-array", "state-bool-array",
            "lengths-string", "inputs-bool", "lengths-bool-array", "inputs-string-array",
            "inputs-string",
        ],
    )
    def test_values_that_are_not_numbers_are_refused(self, build, message):
        # numpy read each of them as a float: "1.5" as 1.5, True as 1.0
        with pytest.raises(ShapeError) as exc:
            build(self.layout)
        assert str(exc.value) == message

    def test_numbers_are_kept(self):
        assert InternalState([1, np.float64(2.5)], self.layout).vector.tolist() == [1.0, 2.5]
        assert InternalState(np.array([1, 2]), self.layout).vector.dtype == np.float64
        table = PieceTable(np.array([1, 2]), [(0.5,), [np.int64(1)]], [2.0])
        assert table.lengths.tolist() == [1.0, 2.0] and table.inputs.tolist() == [[0.5], [1.0]]

    def test_float_arrays_are_not_read_per_element(self, monkeypatch):
        # the law checkers build their states and tables from float arrays
        def refuse(raw, field):
            raise AssertionError(f"{field} read per element")

        for reader in ("read_numbers", "_read_lengths", "_read_rows"):
            monkeypatch.setattr(programs_module, reader, refuse)
        InternalState(np.ones(2), self.layout)
        PieceTable(np.ones(2), np.ones((2, 3)), [1, 1])


def test_functor_check_builds_only_its_witness(monkeypatch):
    # one 100-sample check draws into arrays and builds the two witness
    # programs only; a worked-example op built 395 Programs and 724
    # InternalStates when every sample was an object
    built = {Program: 0, InternalState: 0}
    for cls in built:
        init = cls.__init__

        def counted(self, *args, cls=cls, init=init, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    from mycocat.laws import check_functor_laws

    report = check_functor_laws(reference_species(), sample_count=100, seed=1)
    assert report.passed
    assert built[Program] <= 2
    assert built[InternalState] == 0
