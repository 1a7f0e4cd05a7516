"""JSON round trips of every wire format.

Each test writes an object with ``to_json``, passes it through
``json.dumps``/``json.loads``, reads it back with ``from_json`` and checks
that both the object and its JSON form come back equal. Ids mix ints and
strings, so some draws hold two ids that print alike (``1`` and ``"1"``);
the formats that key a JSON object by ``str(id)`` must refuse those with
:class:`ShapeError` instead of dropping an entry.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat.envmyc import Constraints, EnvObject, MycObject, env_distance, myc_distance
from mycocat.errors import MycocatError, ParameterError, ShapeError
from mycocat.experiments import PulseTemplate
from mycocat.graphs import AttributedGraph, GraphMorphism
from mycocat.programs import InternalState, Program, ReferenceDynamics, StateLayout
from conftest import key_paths, replaced

IDS = st.one_of(st.integers(0, 3), st.sampled_from(["0", "1", "2", "3", "a"]))
FINITE = st.floats(-1e3, 1e3, allow_nan=False)
UNIT = st.floats(0.0, 1.0)


def wire(obj) -> dict:
    """``obj.to_json()`` after a trip through JSON text."""
    return json.loads(json.dumps(obj.to_json()))


def collide(ids) -> bool:
    return len({str(i) for i in ids}) < len(ids)


@st.composite
def graphs(draw, connected=False):
    """Graphs on mixed int/str ids; ``connected`` lays a path through the
    nodes first, then adds edges between random endpoints."""
    nodes = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    path = len(nodes) - 1 if connected else 0
    eids = draw(st.lists(IDS, min_size=path, max_size=path + 3, unique=True))
    endpoint = st.sampled_from(nodes)
    edges = [
        (eid, (nodes[k], nodes[k + 1]) if k < path else (draw(endpoint), draw(endpoint)))
        for k, eid in enumerate(eids)
    ]
    return AttributedGraph(tuple(nodes), tuple(edges), directed=draw(st.booleans()))


@st.composite
def programs(draw):
    width = draw(st.integers(0, 3))
    piece = st.tuples(st.floats(1e-3, 10.0), st.tuples(*[FINITE] * width))
    return Program(tuple(draw(st.lists(piece, max_size=4))))


@st.composite
def dynamics(draw):
    n = draw(st.integers(1, 4))
    matrix = st.lists(FINITE, min_size=n * n, max_size=n * n).map(
        lambda xs: np.array(xs).reshape(n, n)
    )
    return ReferenceDynamics(draw(matrix), tuple(draw(st.lists(matrix, max_size=2))))


@st.composite
def states(draw):
    layout = StateLayout(draw(graphs()), draw(st.integers(1, 3)))
    vector = draw(st.lists(FINITE, min_size=layout.dim, max_size=layout.dim))
    return InternalState(np.array(vector), layout)


@st.composite
def env_objects(draw):
    graph = draw(graphs())
    channels = draw(st.integers(1, 2))
    rho = {v: draw(st.floats(0.0, 5.0)) for v in graph.nodes}
    phi = {v: tuple(draw(UNIT) for _ in range(channels)) for v in graph.nodes}
    budget = draw(st.sampled_from([math.inf, sum(rho.values()) + 1.0]))
    chi = Constraints(phi_bounds=((0.0, 1.0),) * channels, budget=budget)
    return EnvObject(graph, rho, phi, chi)


@st.composite
def myc_objects(draw):
    graph = draw(graphs(connected=True))
    features = draw(st.integers(1, 3))
    sigma = {e: draw(st.floats(0.0, 5.0)) for e in graph.edge_ids}
    omega = {v: tuple(draw(FINITE) for _ in range(features)) for v in graph.nodes}
    return MycObject(graph, sigma, omega)


@st.composite
def morphisms(draw):
    """Inclusion of a full subgraph: a subset of the nodes and every edge
    between them."""
    target = draw(graphs())
    kept = draw(st.lists(st.sampled_from(target.nodes), unique=True))
    edges = tuple(
        (eid, (u, v)) for eid, (u, v) in target.edges if u in kept and v in kept
    )
    source = AttributedGraph(tuple(kept), edges, directed=target.directed)
    return GraphMorphism(
        source, target, {v: v for v in kept}, {eid: eid for eid, _ in edges}
    )


@settings(max_examples=60)
@given(programs())
def test_program_round_trip(p):
    back = Program.from_json(wire(p))
    assert back == p
    assert back.to_json() == p.to_json()


@settings(max_examples=60)
@given(dynamics())
def test_dynamics_round_trip(dyn):
    back = ReferenceDynamics.from_json(wire(dyn))
    assert np.array_equal(back.drift, dyn.drift)
    assert len(back.controls) == len(dyn.controls)
    assert all(np.array_equal(a, b) for a, b in zip(back.controls, dyn.controls))
    assert back.to_json() == dyn.to_json()


@settings(max_examples=60)
@given(states())
def test_state_round_trip(state):
    back = InternalState.from_json(wire(state))
    assert back.layout == state.layout
    assert np.array_equal(back.vector, state.vector)
    assert back.to_json() == state.to_json()


@settings(max_examples=60)
@given(graphs())
def test_graph_round_trip(graph):
    back = AttributedGraph.from_json(wire(graph))
    assert back == graph
    assert back.to_json() == graph.to_json()


@settings(max_examples=60)
@given(morphisms())
def test_morphism_round_trip(m):
    back = GraphMorphism.from_json(wire(m), m.source, m.target)
    assert back == m
    assert back.to_json() == m.to_json()


@settings(max_examples=60)
@given(env_objects())
def test_env_object_round_trip(env):
    if collide(env.graph.nodes):
        with pytest.raises(ShapeError, match="share the JSON key"):
            env.to_json()
        return
    back = EnvObject.from_json(wire(env))
    assert back == env
    assert back.to_json() == env.to_json()


@settings(max_examples=60)
@given(myc_objects())
def test_myc_object_round_trip(m):
    if collide(m.graph.nodes) or collide(m.graph.edge_ids):
        with pytest.raises(ShapeError, match="share the JSON key"):
            m.to_json()
        return
    back = MycObject.from_json(wire(m))
    assert back == m
    assert back.to_json() == m.to_json()


@settings(max_examples=60)
@given(st.integers(0, 5), FINITE, FINITE)
def test_pulse_round_trip(channel, amplitude, duration):
    pulse = PulseTemplate(channel, amplitude, duration)
    back = PulseTemplate.from_json(wire(pulse), "pulse")
    assert back == pulse
    assert back.to_json() == pulse.to_json()


# Well-shaped records whose values the Constraints constructor refuses; the
# reader keeps its ParameterError and puts the field prefix on it.
CONSTRUCTOR_REFUSALS = [
    ({"budget": math.nan}, "chi.budget: must be a number, got nan"),
    ({"humidity": [math.nan, 1.0]}, "chi.humidity: bounds must be numbers, got [nan, 1.0]"),
    ({"phi_bounds": [[2.0, 1.0]]}, "chi.phi_bounds[0]: empty interval [2.0, 1.0]"),
]


@pytest.mark.parametrize(
    "chi, message",
    [
        ({"humidity": "ab"}, "chi.humidity: must be a [lo, hi] pair of numbers, got 'ab'"),
        ({"temperature": [0, 40, 1]},
         "chi.temperature: must be a [lo, hi] pair of numbers, got [0, 40, 1]"),
        ({"humidity": [0, True]},
         "chi.humidity: must be a [lo, hi] pair of numbers, got [0, True]"),
        ({"phi_bounds": [[0, 1], "x"]},
         "chi.phi_bounds[1]: must be a [lo, hi] pair of numbers, got 'x'"),
        ({"phi_bounds": 3}, "chi.phi_bounds: must be a list of [lo, hi] pairs, got 3"),
        ({"budget": True}, "chi.budget: must be a number, got True"),
        ({"budget": "5"}, "chi.budget: must be a number, got '5'"),
        ([1.0], "chi: must be a JSON object, got list"),
    ] + CONSTRUCTOR_REFUSALS,
)
def test_constraints_reader_names_the_field(chi, message):
    error = ParameterError if (chi, message) in CONSTRUCTOR_REFUSALS else ShapeError
    graph = AttributedGraph(("a",), ())
    data = {**wire(EnvObject(graph, {"a": 0.0}, {"a": (0.0,)}, Constraints())), "chi": chi}
    with pytest.raises(error) as exc:
        EnvObject.from_json(data)
    assert type(exc.value) is error
    assert str(exc.value) == message
    with pytest.raises(error) as exc:
        Constraints.from_json(chi)
    assert str(exc.value) == message.removeprefix("chi.")


ENV_WIRE = {
    "nodes": ["n0", "n1"], "edges": [["e0", ["n0", "n1"]]],
    "rho": {"n0": 0.5, "n1": 0.5}, "phi": {"n0": [0.1], "n1": [0.2]},
}
MYC_WIRE = {
    "nodes": ["n0", "n1"], "edges": [["e0", ["n0", "n1"]]],
    "sigma": {"e0": 1.0}, "omega": {"n0": [0.1], "n1": [0.2]},
}


@pytest.mark.parametrize(
    "reader, data, message",
    [
        (EnvObject, {**ENV_WIRE, "rho": {"n0": True, "n1": 0.5}},
         "rho.n0: must be a number, got True"),
        (EnvObject, {**ENV_WIRE, "rho": {"n0": 0.5, "n1": "0.5"}},
         "rho.n1: must be a number, got '0.5'"),
        (EnvObject, {**ENV_WIRE, "rho": [0.5, 0.5]}, "rho: must be a JSON object, got list"),
        (EnvObject, {**ENV_WIRE, "rho": {"n0": 0.5, "n9": 0.5}},
         "rho.n9: no node has this id"),
        (EnvObject, {**ENV_WIRE, "phi": {"n0": [0.1], "n1": ["a"]}},
         "phi.n1[0]: must be a number, got 'a'"),
        (EnvObject, {**ENV_WIRE, "phi": {"n0": [False], "n1": [0.2]}},
         "phi.n0[0]: must be a number, got False"),
        (EnvObject, {**ENV_WIRE, "phi": {"n0": 0.1, "n1": [0.2]}},
         "phi.n0: must be a list of numbers, got 0.1"),
        (MycObject, {**MYC_WIRE, "sigma": {"e0": True}}, "sigma.e0: must be a number, got True"),
        (MycObject, {**MYC_WIRE, "sigma": {"e9": 1.0}}, "sigma.e9: no edge has this id"),
        (MycObject, {**MYC_WIRE, "omega": {"n0": [0.1], "n1": [None]}},
         "omega.n1[0]: must be a number, got None"),
        (MycObject, {**MYC_WIRE, "omega": {"n0": "ab", "n1": [0.2]}},
         "omega.n0: must be a list of numbers, got 'ab'"),
    ],
    ids=["rho-bool", "rho-string", "rho-not-an-object", "rho-unknown-node", "phi-string",
         "phi-bool", "phi-not-a-list", "sigma-bool", "sigma-unknown-edge", "omega-null",
         "omega-not-a-list"],
)
def test_field_readers_name_the_field(reader, data, message):
    reader.from_json(ENV_WIRE if reader is EnvObject else MYC_WIRE)  # the base reads
    with pytest.raises(ShapeError) as exc:
        reader.from_json(data)
    assert str(exc.value) == message


def test_a_nan_conductivity_on_the_wire_is_refused():
    data = {**MYC_WIRE, "sigma": json.loads('{"e0": NaN}')}
    with pytest.raises(ParameterError) as exc:
        MycObject.from_json(data)
    assert str(exc.value) == "sigma at edge 'e0' must be a finite nonnegative number, got nan"


def test_ids_that_print_alike_are_refused():
    graph = AttributedGraph((1, "1"), ((0, (1, "1")), ("0", ("1", 1))))
    env = EnvObject(graph, {1: 0.0, "1": 0.0}, {1: (0.0,), "1": (0.0,)}, Constraints())
    with pytest.raises(ShapeError, match="node ids 1 and '1' share the JSON key '1'"):
        env.to_json()
    myc = MycObject(
        AttributedGraph(("a", "b"), ((0, ("a", "b")), ("0", ("a", "b")))),
        {0: 1.0, "0": 2.0},
        {"a": (0.0,), "b": (0.0,)},
    )
    with pytest.raises(ShapeError, match="edge ids 0 and '0' share the JSON key '0'"):
        myc.to_json()


# The values of the CLI input fuzzer, with NaN as well as Infinity.
READER_FUZZ_VALUES = [None, "x", [], {}, -1, 0, math.nan, math.inf, True, [[1]]]


def at_distance_zero(distance):
    """The check that a built object is at distance exactly 0 from itself."""
    return lambda built: distance(built, built) == 0.0


def reads_back(reader):
    """The check that a built object's JSON text reads back to the same
    text (NaN prints as NaN, so a NaN entry reads back too)."""
    def check(built):
        return json.dumps(reader.from_json(wire(built)).to_json()) == json.dumps(built.to_json())
    return check


READER_FUZZ = {
    "env": (EnvObject, at_distance_zero(env_distance), ENV_WIRE),
    "env-chi": (EnvObject, at_distance_zero(env_distance), {**ENV_WIRE, "chi": {
        "humidity": [0, 1], "temperature": [0, 40], "phi_bounds": [[0, 1]], "budget": 10,
    }}),
    "myc": (MycObject, at_distance_zero(myc_distance), MYC_WIRE),
    "program": (Program, reads_back(Program), {"pieces": [[0.5, [1.0, 0.0]], [0.25, [0.0, 1.0]]]}),
    "state": (InternalState, reads_back(InternalState), {
        "vector": [0.1, 0.2], "graph": {"nodes": ["n0", "n1"], "edges": [["e0", ["n0", "n1"]]]},
        "features": 1,
    }),
    "dynamics": (ReferenceDynamics, reads_back(ReferenceDynamics), {
        "drift": [[0.0, 1.0], [-1.0, 0.0]], "controls": [[[0.0, 1.0], [0.0, 0.0]]],
    }),
}


def value_at(doc, path):
    """The value at ``path`` in ``doc``."""
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("name", READER_FUZZ)
def test_fuzzed_wire_objects_are_refused_or_sound(name):
    """Each key path of a template, set to each fuzz value in turn: the
    reader raises a MycocatError or builds a sound object (at distance
    exactly 0 from itself, or whose JSON reads back to itself). A non-object
    root is refused. An object emptied to ``{}`` lacks every key; a missing
    key stays a KeyError, which the CLI reports as such. The six templates,
    1080 reads, take ~0.02 s."""
    reader, sound, template = READER_FUZZ[name]
    bad = []
    for path in key_paths(template):
        for value in READER_FUZZ_VALUES:
            try:
                built = reader.from_json(replaced(template, path, value))
            except MycocatError:
                continue
            except KeyError:
                if value == {} and isinstance(value_at(template, path), dict):
                    continue
                raise
            if not sound(built):
                bad.append((path, value))
    assert bad == []
