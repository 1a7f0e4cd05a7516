"""Programs, piece-exact evolution, extraction, and induced network updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat.envmyc import myc_distance
from mycocat.errors import ShapeError
from mycocat.graphs import AttributedGraph
from mycocat.laws import SpeciesFunctor
from mycocat.programs import (
    Extraction,
    InternalState,
    NULL_PROGRAM,
    Program,
    ReferenceDynamics,
    StateLayout,
    concatenate,
    evolve,
    extract,
    flow_matrix,
    programs_equivalent_at,
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
        with pytest.raises(ValueError):
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
