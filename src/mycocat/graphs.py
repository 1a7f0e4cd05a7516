"""Finite attributed multigraphs, their morphisms, and pushouts along monos.

The graph category used throughout the package: objects are finite
(multi)graphs with stable, opaque node and edge identifiers; morphisms are
total incidence-preserving maps. In this category monomorphisms coincide
with componentwise injective maps, and pushouts along monomorphisms exist
and are computed as a quotient of the tagged disjoint union.

All values are immutable after construction and all operations are pure,
so concurrent reads are safe.

JSON wire format (used by the CLI and test fixtures)::

    graph:    {"nodes": [id, ...], "edges": [[eid, [u, v]], ...], "directed": false}
    morphism: {"nodes": [[src_id, dst_id], ...], "edges": [[src_eid, dst_eid], ...]}

Morphism maps may equivalently be JSON objects keyed by the source ids as
strings.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import Any, Iterator, Mapping

from .errors import CompositionError, PreconditionError, Record, ShapeError
from .readers import (
    read_bool, read_id, read_key, read_list, read_map, read_object, read_tuple
)


def _id_key(x: Any) -> tuple[str, str]:
    """Deterministic sort key for opaque ids of mixed types."""
    return (type(x).__name__, repr(x))


class AttributedGraph(Record):
    """A finite multigraph with stable node and edge identifiers.

    ``nodes`` is an ordered tuple of opaque node ids; ``edges`` maps each
    edge id to its endpoint pair. Undirected by default; endpoint pairs of
    undirected edges are compared as unordered pairs. Self-loops and
    parallel edges are allowed.
    """

    def __init__(self, nodes: tuple, edges: tuple, directed: bool = False):
        nodes = tuple(nodes)
        edges = tuple((eid, (u, v)) for eid, (u, v) in edges)  # of (edge_id, (u, v))
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise ShapeError("duplicate node ids")
        eids = [eid for eid, _ in edges]
        if len(set(eids)) != len(eids):
            raise ShapeError("duplicate edge ids")
        for eid, (u, v) in edges:
            if u not in node_set or v not in node_set:
                raise ShapeError(f"edge {eid!r} has undeclared endpoint")
        vars(self).update(nodes=nodes, edges=edges, directed=directed)

    # -- lookups ---------------------------------------------------------

    @cached_property
    def node_set(self) -> frozenset:
        return frozenset(self.nodes)

    @cached_property
    def edge_ids(self) -> tuple:
        return tuple(eid for eid, _ in self.edges)

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edge_ids)

    @cached_property
    def edge_keys(self) -> tuple:
        """Edge identity for matching across graphs: id plus endpoints, the
        endpoints of an undirected edge in canonical order."""
        if self.directed:
            return self.edges
        return tuple((eid, tuple(sorted(pair, key=_id_key))) for eid, pair in self.edges)

    @cached_property
    def adjacency(self) -> dict:
        """(u, v) -> ids of the edges joining u and v, in declaration order;
        an undirected edge is listed under both orientations."""
        adj: dict = {}
        for eid, (u, v) in self.edges:
            adj.setdefault((u, v), []).append(eid)
            if not self.directed and u != v:
                adj.setdefault((v, u), []).append(eid)
        return {pair: tuple(eids) for pair, eids in adj.items()}

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph; empty graph counts
        as connected only if it has no nodes."""
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        if not self.nodes:
            return True
        adj: dict[Any, list] = {v: [] for v in self.nodes}
        for _, (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.nodes)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [[eid, [u, v]] for eid, (u, v) in self.edges],
            "directed": self.directed,
        }

    @classmethod
    def from_json(cls, data: Mapping, field: str = "") -> "AttributedGraph":
        """The graph in the wire format; a value of the wrong shape raises
        :class:`ShapeError` naming its field, prefixed by ``field``
        (``"b."`` names ``b.nodes``), as does a missing ``nodes``. Ids must
        be JSON strings, numbers, booleans or null."""
        data = read_object(data, field[:-1] or "graph")
        nodes = read_key(data, "nodes", field)
        return cls(
            nodes=read_list(nodes, f"{field}nodes", read_id, "a list of ids"),
            edges=read_list(data.get("edges", []), f"{field}edges", _read_edge),
            directed=read_bool(data.get("directed", False), f"{field}directed"),
        )


def _read_id_pair(raw, field: str) -> tuple:
    return read_tuple(raw, field, "a [from, to] pair of ids", read_id, read_id)


def _read_edge(raw, field: str) -> tuple:
    return read_tuple(raw, field, "[id, [u, v]]", read_id, _read_id_pair)


class GraphMorphism(Record):
    """A total, incidence-preserving map between attributed graphs; any
    other map raises :class:`ShapeError`."""

    def __init__(
        self,
        source: AttributedGraph,
        target: AttributedGraph,
        node_map: Mapping,
        edge_map: Mapping,
    ):
        node_map, edge_map = dict(node_map), dict(edge_map)
        if source.directed != target.directed:
            raise ShapeError("source and target disagree on directedness")
        if node_map.keys() != source.node_set:
            raise ShapeError("node map is not total on source nodes")
        tgt_nodes = target.node_set
        for v, w in node_map.items():
            if w not in tgt_nodes:
                raise ShapeError(f"node {v!r} maps outside the target")
        if edge_map.keys() != source.edge_set:
            raise ShapeError("edge map is not total on source edges")
        tgt_edges, adj = target.edge_set, target.adjacency
        for eid, (u, v) in source.edges:
            img = edge_map[eid]
            if img not in tgt_edges:
                raise ShapeError(f"edge {eid!r} maps outside the target")
            if img not in adj.get((node_map[u], node_map[v]), ()):
                raise ShapeError(f"edge {eid!r} does not preserve incidence")
        vars(self).update(source=source, target=target, node_map=node_map, edge_map=edge_map)

    def same_maps(self, other: "GraphMorphism") -> bool:
        return self.node_map == other.node_map and self.edge_map == other.edge_map

    def to_json(self) -> dict:
        return {
            "nodes": [[k, v] for k, v in self.node_map.items()],
            "edges": [[k, v] for k, v in self.edge_map.items()],
        }

    @classmethod
    def from_json(
        cls, data: Mapping, source: AttributedGraph, target: AttributedGraph, field: str = ""
    ) -> "GraphMorphism":
        """The morphism in the wire format: ``nodes`` and ``edges`` each an
        object or a list of ``[from, to]`` id pairs. A value of the wrong
        shape raises :class:`ShapeError` naming its field, prefixed by
        ``field`` (``"left."`` names ``left.nodes``), as does a missing
        key."""
        data = read_object(data, field[:-1] or "morphism")

        def as_map(key, ids, kind):
            raw, name = read_key(data, key, field), f"{field}{key}"
            if isinstance(raw, Mapping):
                return read_map(raw, name, ids, kind, read_id)
            return dict(read_list(raw, name, _read_id_pair, "a list of [from, to] id pairs"))

        nodes = as_map("nodes", source.nodes, "node")
        return cls(source, target, nodes, as_map("edges", source.edge_ids, "edge"))


class Cospan(Record):
    """Two morphisms out of a shared apex: left: A -> B, right: A -> C.
    Legs that do not start at the apex raise :class:`ShapeError`."""

    def __init__(self, apex: AttributedGraph, left: GraphMorphism, right: GraphMorphism):
        if left.source != apex or right.source != apex:
            raise ShapeError("cospan legs must start at the apex")
        vars(self).update(apex=apex, left=left, right=right)


def identity_morphism(g: AttributedGraph) -> GraphMorphism:
    return GraphMorphism(
        g, g, {v: v for v in g.nodes}, {eid: eid for eid in g.edge_ids}
    )


def compose_graph_morphisms(f: GraphMorphism, g: GraphMorphism) -> GraphMorphism:
    """Diagrammatic composite: first ``f``, then ``g``.

    Raises :class:`CompositionError` when ``f.target != g.source``.
    """
    if f.target != g.source:
        raise CompositionError("cannot compose: target of f is not source of g")
    return GraphMorphism(
        f.source,
        g.target,
        {v: g.node_map[w] for v, w in f.node_map.items()},
        {e: g.edge_map[d] for e, d in f.edge_map.items()},
    )


def is_monomorphism(f: GraphMorphism) -> bool:
    """True iff both component maps are injective.

    In this category of total incidence-preserving maps, injectivity is
    equivalent to categorical left-cancellability; the test suite checks
    the equivalence against an exhaustive enumeration oracle.
    """
    nvals = list(f.node_map.values())
    evals = list(f.edge_map.values())
    return len(set(nvals)) == len(nvals) and len(set(evals)) == len(evals)


# ---------------------------------------------------------------------------
# Pushout along monomorphisms
# ---------------------------------------------------------------------------


def _glue(b_ids, c_ids, left: Mapping, right: Mapping) -> tuple[dict, dict]:
    """Class numbers of B's and C's ids in the pushout, each dict in its
    graph's declaration order: B's ids take 0, 1, ... in :func:`_id_key`
    order, C's ids outside ``right``'s image the next numbers in the same
    order, and ``right[a]`` the number of its partner ``left[a]``."""
    number = {x: i for i, x in enumerate(sorted(b_ids, key=_id_key))}
    partner = {right[a]: left[a] for a in left}
    fresh = sorted((x for x in c_ids if x not in partner), key=_id_key)
    number_c = {x: i for i, x in enumerate(fresh, len(number))}
    return (
        {x: number[x] for x in b_ids},
        {x: number[partner[x]] if x in partner else number_c[x] for x in c_ids},
    )


def pushout_along_monos(
    c: Cospan,
) -> tuple[AttributedGraph, GraphMorphism, GraphMorphism]:
    """Glue B and C along the shared apex A.

    Computes the quotient of the tagged disjoint union of ``c.left.target``
    and ``c.right.target`` that identifies the two images of the apex, and
    returns the quotient graph together with the injections of B and C.
    Both legs are injective, so a class holds at most one member of B and
    one of C. Classes are numbered 0, 1, ... by their least tagged member
    ``(tag, _id_key(id))`` with ``"b" < "c"``: B's nodes first in sorted
    order, then C's nodes outside the apex image in sorted order, and the
    same for edges. A glued edge keeps B's endpoints. Repeated runs produce
    identical graphs.

    Raises :class:`PreconditionError` if either leg is not a monomorphism.
    """
    if not is_monomorphism(c.left) or not is_monomorphism(c.right):
        raise PreconditionError("pushout requires both cospan legs to be mono")

    b, cg = c.left.target, c.right.target
    nodes_b, nodes_c = _glue(b.nodes, cg.nodes, c.left.node_map, c.right.node_map)
    edges_b, edges_c = _glue(b.edge_ids, cg.edge_ids, c.left.edge_map, c.right.edge_map)
    pairs = {edges_b[e]: (nodes_b[u], nodes_b[v]) for e, (u, v) in b.edges}
    for e, (u, v) in cg.edges:
        pairs.setdefault(edges_c[e], (nodes_c[u], nodes_c[v]))

    result = AttributedGraph(
        tuple(range(len(nodes_b) + len(cg.nodes) - len(c.apex.nodes))),
        tuple((k, pairs[k]) for k in range(len(pairs))),
        directed=b.directed,
    )
    return (
        result,
        GraphMorphism(b, result, nodes_b, edges_b),
        GraphMorphism(cg, result, nodes_c, edges_c),
    )


# ---------------------------------------------------------------------------
# Exhaustive morphism enumeration, and the pushout decision
# ---------------------------------------------------------------------------


def _homs(g: AttributedGraph, h: AttributedGraph) -> list[tuple[tuple, tuple]]:
    """Every morphism g -> h as (node images, edge images), each a tuple in
    g's declaration order, listed in :func:`enumerate_morphisms` order.

    Node maps grow one node of g at a time, each taking h's nodes in order;
    an edge of g is checked against ``h.adjacency`` as soon as both its ends
    are placed. Each node map then takes each choice of an edge image per
    edge.
    """
    if g.directed != h.directed:
        return []
    pos = {v: i for i, v in enumerate(g.nodes)}
    adj = h.adjacency
    placed: list[list] = [[] for _ in g.nodes]  # edges whose later end is node i
    for _, (u, v) in g.edges:
        placed[max(pos[u], pos[v])].append((pos[u], pos[v]))
    maps = [()]
    for ends in placed:
        maps = [m + (w,) for m in maps for w in h.nodes]
        for a, b in ends:
            maps = [m for m in maps if (m[a], m[b]) in adj]
    homs = [(m, ()) for m in maps]
    for _, (u, v) in g.edges:
        a, b = pos[u], pos[v]
        homs = [(m, es + (t,)) for m, es in homs for t in adj[m[a], m[b]]]
    return homs


def enumerate_morphisms(
    g: AttributedGraph, h: AttributedGraph
) -> Iterator[GraphMorphism]:
    """Yield every morphism g -> h: node maps in lexicographic order (g's
    nodes in declaration order, each taking h's nodes in order), and for
    each node map its edge maps in the same lexicographic order.

    Intended for the small instances used in verification.
    """
    for nodes, edges in _homs(g, h):
        yield GraphMorphism(g, h, dict(zip(g.nodes, nodes)), dict(zip(g.edge_ids, edges)))


def are_isomorphic(g: AttributedGraph, h: AttributedGraph) -> bool:
    """Small-instance isomorphism check by exhaustive search: some bijection
    of the nodes carries g's endpoint pairs onto h's, with multiplicity."""
    if (len(g.nodes), len(g.edges), g.directed) != (len(h.nodes), len(h.edges), h.directed):
        return False
    pair = tuple if g.directed else frozenset
    target = Counter(pair(ends) for _, ends in h.edges)
    for images in itertools.permutations(h.nodes):
        f = dict(zip(g.nodes, images))
        if Counter(pair((f[u], f[v])) for _, (u, v) in g.edges) == target:
            return True
    return False


def verify_pushout_universal_property(
    c: Cospan,
    candidate: tuple[AttributedGraph, GraphMorphism, GraphMorphism],
    probe_bound: int,
) -> bool:
    """Decide whether ``candidate`` = (P, inB, inC) is a pushout of the
    mono cospan B <- A -> C, exactly, from the candidate's maps alone.

    It is one exactly when inB and inC are monomorphisms, together they hit
    every node and every edge of P, the nodes both hit are exactly the
    images of A's nodes, and the edges both hit are exactly the images of
    A's edges. Enough: the map from the glued union of
    :func:`pushout_along_monos` to P that sends a class to the common image
    of its members is well defined (the square commutes), onto (joint
    surjectivity) and one-to-one on nodes and on edges (monos, and two
    members of B and C meet only over the apex), and it preserves
    incidence both ways because every edge of P is the image of an edge of
    B or C; so P is isomorphic to the glued union under the injections.
    Necessary: graphs form an adhesive category, where monos are stable
    under pushout and a pushout along a mono is also a pullback (Lack and
    Sobociński, "Adhesive categories", 2004). The rule holds for directed
    graphs, self-loops and parallel edges alike. ``probe_bound`` is
    accepted and ignored: the decision enumerates no morphism.

    Raises :class:`PreconditionError` if either leg is not a monomorphism
    (as :func:`pushout_along_monos` does), if an injection does not land in
    P, or if the candidate square does not commute.
    """
    if not is_monomorphism(c.left) or not is_monomorphism(c.right):
        raise PreconditionError("pushout requires both cospan legs to be mono")
    obj, inj_b, inj_c = candidate
    if inj_b.target != obj or inj_c.target != obj:
        raise PreconditionError("candidate injections must land in the candidate object")
    via_b, via_c = (
        (
            [inj.node_map[leg.node_map[a]] for a in c.apex.nodes],
            [inj.edge_map[leg.edge_map[e]] for e in c.apex.edge_ids],
        )
        for leg, inj in ((c.left, inj_b), (c.right, inj_c))
    )
    if via_b != via_c:
        raise PreconditionError("candidate square does not commute")

    if not (is_monomorphism(inj_b) and is_monomorphism(inj_c)):
        return False
    (nodes_b, edges_b), (nodes_c, edges_c) = (
        (set(inj.node_map.values()), set(inj.edge_map.values())) for inj in (inj_b, inj_c)
    )
    apex_nodes, apex_edges = map(set, via_b)
    return (
        nodes_b | nodes_c == obj.node_set
        and edges_b | edges_c == obj.edge_set
        and nodes_b & nodes_c == apex_nodes
        and edges_b & edges_c == apex_edges
    )
