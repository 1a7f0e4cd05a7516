"""Shared fixtures and seeded random generators for the test suite."""

import json
import os
import pathlib
import random

import numpy as np
import pytest
from hypothesis import settings

from mycocat.graphs import AttributedGraph, Cospan, GraphMorphism

# Every @given test draws the same examples on every run, seeded from the
# test itself, so a verdict does not depend on the draw; each test keeps
# its own max_examples. To explore other draws, run with
# ``--hypothesis-profile=default --hypothesis-seed=N``.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

# Tests that start ``python -m mycocat.cli`` in a subprocess import the
# package from this checkout, as the in-process tests do.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)


def make_random_graph(rng: random.Random, max_nodes=4, min_nodes=1, edge_prob=0.6):
    n = rng.randint(min_nodes, max_nodes)
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    eid = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((f"e{eid}", (nodes[i], nodes[j])))
                eid += 1
    # occasionally add a parallel edge to exercise multigraph support
    if edges and rng.random() < 0.3:
        _, pair = edges[rng.randrange(len(edges))]
        edges.append((f"e{eid}", pair))
    return AttributedGraph(nodes, tuple(edges))


def make_random_morphism(rng: random.Random, src: AttributedGraph, dst: AttributedGraph):
    """Random morphism src -> dst, or None when the node map dead-ends."""
    node_map = {v: rng.choice(dst.nodes) for v in src.nodes}
    edge_map = {}
    for eid, (u, v) in src.edges:
        options = dst.adjacency.get((node_map[u], node_map[v]), ())
        if not options:
            return None
        edge_map[eid] = rng.choice(options)
    return GraphMorphism(src, dst, node_map, edge_map)


def _random_mono_embedding(rng, apex, target, attempts=60):
    """Injective morphism apex -> target, or None if none is found."""
    if len(apex.nodes) > len(target.nodes):
        return None
    tnodes = list(target.nodes)
    for _ in range(attempts):
        chosen = rng.sample(tnodes, len(apex.nodes))
        node_map = dict(zip(apex.nodes, chosen))
        edge_map = {}
        used = set()
        ok = True
        for eid, (u, v) in apex.edges:
            options = [
                e
                for e in target.adjacency.get((node_map[u], node_map[v]), ())
                if e not in used
            ]
            if not options:
                ok = False
                break
            pick = rng.choice(options)
            edge_map[eid] = pick
            used.add(pick)
        if ok:
            return GraphMorphism(apex, target, node_map, edge_map)
    return None


def make_random_mono_cospan(rng: random.Random, max_nodes=4) -> Cospan:
    """Random cospan A -> B, A -> C with both legs injective."""
    while True:
        b = make_random_graph(rng, max_nodes=max_nodes)
        c = make_random_graph(rng, max_nodes=max_nodes)
        # carve the apex out of B: a node subset plus some induced edges
        k = rng.randint(1, len(b.nodes))
        picked_nodes = rng.sample(list(b.nodes), k)
        induced = [
            (eid, pair)
            for eid, pair in b.edges
            if pair[0] in picked_nodes and pair[1] in picked_nodes
        ]
        rng.shuffle(induced)
        induced = induced[: rng.randint(0, len(induced))]

        to_apex = {v: f"a{i}" for i, v in enumerate(picked_nodes)}
        apex = AttributedGraph(
            tuple(to_apex[v] for v in picked_nodes),
            tuple(
                (f"ae{i}", (to_apex[u], to_apex[v]))
                for i, (eid, (u, v)) in enumerate(induced)
            ),
        )
        left = GraphMorphism(
            apex,
            b,
            {to_apex[v]: v for v in picked_nodes},
            {f"ae{i}": eid for i, (eid, _) in enumerate(induced)},
        )
        right = _random_mono_embedding(rng, apex, c)
        if right is None:
            continue
        return Cospan(apex, left, right)


def key_paths(doc, prefix=()):
    """Every path into ``doc``: the root, each object key and list index."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from key_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from key_paths(value, prefix + (index,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


def deleted(doc, path):
    """A copy of ``doc`` without the key or list item at ``path``, a path
    other than the root."""
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return copy


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240811)


# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the run so the verdicts are visible without -s.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
