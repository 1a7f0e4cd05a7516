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
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping

from .errors import (
    CompositionError,
    ParameterError,
    PreconditionError,
    ResourceError,
    ShapeError,
)
from .readers import read_bool, read_id, read_list, read_map, read_object, read_tuple


def _id_key(x: Any) -> tuple[str, str]:
    """Deterministic sort key for opaque ids of mixed types."""
    return (type(x).__name__, repr(x))


@dataclass(frozen=True)
class AttributedGraph:
    """A finite multigraph with stable node and edge identifiers.

    ``nodes`` is an ordered tuple of opaque node ids; ``edges`` maps each
    edge id to its endpoint pair. Undirected by default; endpoint pairs of
    undirected edges are compared as unordered pairs. Self-loops and
    parallel edges are allowed.
    """

    nodes: tuple
    edges: tuple  # of (edge_id, (u, v))
    directed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(
            self, "edges", tuple((eid, (u, v)) for eid, (u, v) in self.edges)
        )
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ShapeError("duplicate node ids")
        eids = [eid for eid, _ in self.edges]
        if len(set(eids)) != len(eids):
            raise ShapeError("duplicate edge ids")
        for eid, (u, v) in self.edges:
            if u not in node_set or v not in node_set:
                raise ShapeError(f"edge {eid!r} has undeclared endpoint")

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

    @cached_property
    def _masks(self) -> tuple[list, list, int]:
        """Bit masks over node positions, for :func:`_node_maps`: each
        node's out-neighbours and in-neighbours (both its neighbours when
        the graph is undirected), and the nodes that carry a loop."""
        at = {v: k for k, v in enumerate(self.nodes)}
        out, into = [0] * len(self.nodes), [0] * len(self.nodes)
        for _, (u, v) in self.edges:
            out[at[u]] |= 1 << at[v]
            into[at[v]] |= 1 << at[u]
        if not self.directed:
            out = into = [o | i for o, i in zip(out, into)]
        return out, into, sum(1 << k for k, mask in enumerate(out) if mask >> k & 1)

    @cached_property
    def _links(self) -> tuple:
        """For each node, in declaration order and for :func:`_node_maps`:
        whether it carries a loop, and the pairs (j, forward) of its
        neighbours j declared before it, forward when an edge runs from j
        to it."""
        pos = {v: i for i, v in enumerate(self.nodes)}
        loops = [False] * len(self.nodes)
        links: list[dict] = [{} for _ in self.nodes]
        for _, (u, v) in self.edges:
            a, b = pos[u], pos[v]
            if a == b:
                loops[a] = True
            else:
                links[max(a, b)][min(a, b), a < b] = None
        return tuple(zip(loops, map(tuple, links)))

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
        (``"b."`` names ``b.nodes``). Ids must be JSON strings, numbers,
        booleans or null."""
        data = read_object(data, field[:-1] or "graph")
        return cls(
            nodes=read_list(data["nodes"], f"{field}nodes", read_id, "a list of ids"),
            edges=read_list(data.get("edges", []), f"{field}edges", _read_edge),
            directed=read_bool(data.get("directed", False), f"{field}directed"),
        )


def _read_id_pair(raw, field: str) -> tuple:
    return read_tuple(raw, field, "a [from, to] pair of ids", read_id, read_id)


def _read_edge(raw, field: str) -> tuple:
    return read_tuple(raw, field, "[id, [u, v]]", read_id, _read_id_pair)


@dataclass(frozen=True)
class GraphMorphism:
    """A total, incidence-preserving map between attributed graphs; any
    other map raises :class:`ShapeError`."""

    source: AttributedGraph
    target: AttributedGraph
    node_map: Mapping
    edge_map: Mapping

    def __post_init__(self):
        object.__setattr__(self, "node_map", dict(self.node_map))
        object.__setattr__(self, "edge_map", dict(self.edge_map))
        if self.source.directed != self.target.directed:
            raise ShapeError("source and target disagree on directedness")
        if self.node_map.keys() != self.source.node_set:
            raise ShapeError("node map is not total on source nodes")
        tgt_nodes = self.target.node_set
        for v, w in self.node_map.items():
            if w not in tgt_nodes:
                raise ShapeError(f"node {v!r} maps outside the target")
        if self.edge_map.keys() != self.source.edge_set:
            raise ShapeError("edge map is not total on source edges")
        tgt_edges, adj = self.target.edge_set, self.target.adjacency
        for eid, (u, v) in self.source.edges:
            img = self.edge_map[eid]
            if img not in tgt_edges:
                raise ShapeError(f"edge {eid!r} maps outside the target")
            if img not in adj.get((self.node_map[u], self.node_map[v]), ()):
                raise ShapeError(f"edge {eid!r} does not preserve incidence")

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
        ``field`` (``"left."`` names ``left.nodes``)."""
        data = read_object(data, field[:-1] or "morphism")

        def as_map(key, ids, kind):
            raw, name = data[key], f"{field}{key}"
            if isinstance(raw, Mapping):
                return read_map(raw, name, ids, kind, read_id)
            return dict(read_list(raw, name, _read_id_pair, "a list of [from, to] id pairs"))

        nodes = as_map("nodes", source.nodes, "node")
        return cls(source, target, nodes, as_map("edges", source.edge_ids, "edge"))


@dataclass(frozen=True)
class Cospan:
    """Two morphisms out of a shared apex: left: A -> B, right: A -> C.
    Legs that do not start at the apex raise :class:`ShapeError`."""

    apex: AttributedGraph
    left: GraphMorphism
    right: GraphMorphism

    def __post_init__(self):
        if self.left.source != self.apex or self.right.source != self.apex:
            raise ShapeError("cospan legs must start at the apex")


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
# Exhaustive morphism enumeration and the universal-property verifier
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, ascending."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _node_maps(g: AttributedGraph, h: AttributedGraph) -> list[tuple]:
    """Every node map g -> h that preserves adjacency, as a tuple of
    positions in ``h.nodes`` in g's declaration order, in lexicographic
    order; these are the node maps of the morphisms g -> h.

    Maps grow one node of g at a time. Node i's candidates are the set bits
    of the AND of the neighbour masks (:attr:`AttributedGraph._masks`) of
    the images of i's neighbours placed before it: for a directed graph,
    the out-mask of the image of an edge's source and the in-mask of the
    image of its target. A self-loop at i keeps only the candidates that
    carry a loop.
    """
    if g.directed != h.directed:
        return []
    out, into, looped = h._masks
    anywhere = (1 << len(h.nodes)) - 1
    maps = [()]
    for loop, links in g._links:
        masks = [looped if loop else anywhere] * len(maps)
        for j, forward in links:
            table = out if forward else into
            masks = [mask & table[m[j]] for mask, m in zip(masks, maps)]
        maps = [m + (w,) for m, mask in zip(maps, masks) for w in _bits(mask)]
    return maps


def _homs(g: AttributedGraph, h: AttributedGraph) -> list[tuple[tuple, tuple]]:
    """Every morphism g -> h as (node images, edge images), each a tuple in
    g's declaration order, listed in :func:`enumerate_morphisms` order: each
    node map of :func:`_node_maps` with each choice of an edge image per
    edge."""
    pos = {v: i for i, v in enumerate(g.nodes)}
    adj = h.adjacency
    homs = [(tuple([h.nodes[k] for k in m]), ()) for m in _node_maps(g, h)]
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


def _probe_graph(n: int, code: int) -> AttributedGraph:
    """The simple graph on nodes 0..n-1 whose edges are the pairs, in
    ``itertools.combinations`` order, at the set bits of ``code``; each edge
    id is its pair's index."""
    pairs = list(itertools.combinations(range(n), 2))
    return AttributedGraph(
        tuple(range(n)), tuple((i, pairs[i]) for i in range(len(pairs)) if code >> i & 1)
    )


@cache
def _probes(max_nodes: int) -> tuple[AttributedGraph, ...]:
    return tuple(
        _probe_graph(n, code)
        for n in range(max_nodes + 1)
        for code in range(2 ** (n * (n - 1) // 2))
    )


def probe_family(max_nodes: int) -> list[AttributedGraph]:
    """The fixed probe family: all simple undirected graphs on 0..n-1 nodes
    for every n up to ``max_nodes``. Deterministic order."""
    return list(_probes(max_nodes))


def _least_code(nbrs: tuple[int, ...]) -> int:
    """The least :func:`_probe_graph` code of a simple graph over all
    labellings of its nodes; ``nbrs[v]`` is the bit mask of v's neighbours.

    The pair (k, j), k < j, is bit k(2n - k - 1)/2 + j - k - 1: a larger
    k, then a larger j, makes a higher bit. Labels are handed out
    from n - 1 down to 0: giving label k to a node fixes the bits of the
    pairs (k, j), j > k, which are the highest bits not yet fixed. Only the
    partial labellings whose bits so far are least are extended.
    """
    n = len(nbrs)
    partial = [()]  # the nodes holding labels n - 1, n - 2, ... in turn
    for _ in range(n):
        best, kept = None, []
        for placed in partial:
            for v in range(n):
                if v in placed:
                    continue
                bits = tuple(nbrs[v] >> w & 1 for w in placed)
                if best is None or bits < best:
                    best, kept = bits, [placed + (v,)]
                elif bits == best:
                    kept.append(placed + (v,))
        partial = kept
    label = {v: n - 1 - i for i, v in enumerate(partial[0])}
    code = 0
    for u in range(n):
        for w in range(u + 1, n):
            if nbrs[u] >> w & 1:
                k, j = sorted((label[u], label[w]))
                code |= 1 << (k * (2 * n - k - 1) // 2 + j - k - 1)
    return code


@cache
def _class_codes(n: int) -> tuple[int, ...]:
    """The least code of each isomorphism class of simple graphs on n
    nodes, ascending: every class on n nodes is a class on n - 1 nodes
    with one more node joined to some subset of the others."""
    if n == 0:
        return (0,)
    pairs = list(itertools.combinations(range(n - 1), 2))
    codes = set()
    for code in _class_codes(n - 1):
        nbrs = [0] * (n - 1)
        for i, (u, w) in enumerate(pairs):
            if code >> i & 1:
                nbrs[u] |= 1 << w
                nbrs[w] |= 1 << u
        for joined in range(2 ** (n - 1)):
            grown = [m | (joined >> v & 1) << (n - 1) for v, m in enumerate(nbrs)]
            codes.add(_least_code(tuple(grown) + (joined,)))
    return tuple(sorted(codes))


@cache
def _probe_classes(max_nodes: int) -> tuple[AttributedGraph, ...]:
    """One probe per isomorphism class of :func:`probe_family`, the class's
    first member in its order; 1, 1, 2, 4, 11, 34, 156 classes on 0 to 6
    nodes."""
    return tuple(
        _probe_graph(n, code) for n in range(max_nodes + 1) for code in _class_codes(n)
    )


def _pruning_order(g: AttributedGraph) -> AttributedGraph:
    """``g`` with its nodes reordered for :func:`_node_maps`: each next node
    is the unplaced one with the most edges to the nodes already placed
    (ties: more edges in all, then declaration order), so that partial maps
    meet a neighbour mask as early as possible."""
    links: Counter = Counter()
    for _, (u, v) in g.edges:
        if u != v:
            links[u, v] += 1
            links[v, u] += 1
    degree = Counter(u for u, _ in links.elements())
    order: list = []
    left = list(g.nodes)
    while left:
        nxt = max(left, key=lambda v: (sum(links[v, w] for w in order), degree[v]))
        order.append(nxt)
        left.remove(nxt)
    return AttributedGraph(tuple(order), g.edges, g.directed)


def _composer(f: GraphMorphism, onto: AttributedGraph) -> Callable[[tuple], Any]:
    """Composition with ``f`` on node maps out of ``onto``, a graph with the
    same nodes as ``f.target``: a node tuple over ``onto`` goes to its
    entries at the positions of ``f``'s node images, in ``f.source``'s
    declaration order (one entry bare, as :func:`operator.itemgetter` gives
    it, and none as ``()``)."""
    at = {v: i for i, v in enumerate(onto.nodes)}
    positions = [at[f.node_map[v]] for v in f.source.nodes]
    return itemgetter(*positions) if positions else lambda m: ()


def verify_pushout_universal_property(
    c: Cospan,
    candidate: tuple[AttributedGraph, GraphMorphism, GraphMorphism],
    probe_bound: int,
) -> bool:
    """Exhaustively test the universal property of a candidate pushout of
    undirected graphs.

    First the candidate's maps, once: both injections must be
    monomorphisms, together they must hit every node and every edge of the
    candidate object, and the edges that both hit must be exactly the images
    of the apex's edges. Every pushout along monos has all three: it is
    isomorphic, under the injections, to the glued disjoint union of
    :func:`pushout_along_monos`; in an adhesive category such as that of
    graphs, monos are stable under pushout and a pushout along a mono is
    also a pullback (Lack and Sobociński, "Adhesive categories", 2004). The
    probes cannot see these failures: every probe is simple, with no loops
    and no parallel edges, so a morphism X -> Z is fixed by its node map,
    each edge going to the one edge that joins its endpoints' images. An
    unhit edge parallel to another, two parallel edges merged, or an edge
    of B glued to a parallel edge of C changes no hom-set into a probe, and
    an unhit node changes the counts only on probes of two or more nodes.

    Then the probes: for every probe graph Z in the fixed family up to
    ``probe_bound`` nodes and every pair (B -> Z, C -> Z) agreeing on the
    apex, there must exist exactly one mediating morphism from the
    candidate object P to Z. Since the injections are jointly surjective,
    a map out of P is fixed by its composites with them, so
    u |-> (u∘inB, u∘inC) is injective and each probe is one count:
    |hom(P, Z)| against the number of agreeing pairs. The probes decide
    which nodes are identified: a candidate that glues a node of B to a
    node of C outside the apex image passes the map checks, and a probe
    large enough to keep their images apart has a pair with no mediator.
    The counts run on node maps alone (:func:`_node_maps`), and the pairs
    are grouped by the apex's node images.

    The test is exhaustive up to isomorphism and runs on one probe per
    isomorphism class of the family (19 classes up to 4 nodes, against 76
    labelled graphs). That loses nothing: an isomorphism s: Z -> Z' gives
    bijections hom(X, Z) -> hom(X, Z'), h |-> s∘h, natural in X, so Z and
    Z' have the same number of agreeing pairs and of mediators. The node
    maps are enumerated with the nodes of B, C and the candidate object in
    a pruning order (each next node the one with the most edges to the
    nodes before it), so partial maps that break an edge are dropped early;
    the check only counts, so the order never reaches the verdict.
    ``probe_bound`` must be an int from 0 to 6.

    Raises :class:`ParameterError` for a ``probe_bound`` that is negative,
    not an int or a bool, :class:`ResourceError` for ``probe_bound > 6``
    and :class:`PreconditionError` if the cospan is directed (the probe
    graphs are undirected, so every hom-set would be empty), if B or C has
    a self-loop (no probe has a loop, so every hom-set out of that leg
    would be empty and the counts would agree for any candidate), if the
    candidate square does not commute, or, for a candidate that passes the
    map checks, if B or C has no map into any probe up to the bound. That
    last refusal has the self-loop refusal's reason: a bound below a leg's
    chromatic number leaves every hom-set out of it empty (K4 has no map
    into a probe of at most 3 nodes), so every count is 0 and a node
    identification goes unseen. It is read off the probe loop's own counts
    and costs no enumeration.
    """
    if isinstance(probe_bound, bool) or not isinstance(probe_bound, numbers.Integral):
        raise ParameterError(f"probe_bound must be an int, got {probe_bound!r}")
    if probe_bound < 0:
        raise ParameterError(f"probe_bound must be nonnegative, got {probe_bound}")
    if probe_bound > 6:
        raise ResourceError("probe_bound above 6 is not supported")
    if c.apex.directed:
        raise PreconditionError("the pushout verifier takes undirected graphs only")
    if any(u == v for g in (c.left.target, c.right.target) for _, (u, v) in g.edges):
        raise PreconditionError("the pushout verifier takes legs without self-loops only")
    obj, inj_b, inj_c = candidate
    if inj_b.target != obj or inj_c.target != obj:
        raise PreconditionError("candidate injections must land in the candidate object")
    via_b = compose_graph_morphisms(c.left, inj_b)
    via_c = compose_graph_morphisms(c.right, inj_c)
    if not via_b.same_maps(via_c):
        raise PreconditionError("candidate square does not commute")

    if not (is_monomorphism(inj_b) and is_monomorphism(inj_c)):
        return False
    edges_b, edges_c = set(inj_b.edge_map.values()), set(inj_c.edge_map.values())
    nodes_hit = set(inj_b.node_map.values()) | set(inj_c.node_map.values())
    if nodes_hit != obj.node_set or edges_b | edges_c != obj.edge_set:
        return False  # the injections are not jointly surjective
    if edges_b & edges_c != set(via_b.edge_map.values()):
        return False  # an edge outside the apex image is glued
    b, cg, p = (_pruning_order(g) for g in (c.left.target, c.right.target, obj))
    left, right = _composer(c.left, b), _composer(c.right, cg)
    reached_b = reached_c = False
    for z in _probe_classes(probe_bound):
        groups_b = Counter(map(left, _node_maps(b, z)))
        groups_c = Counter(map(right, _node_maps(cg, z)))
        reached_b, reached_c = reached_b or bool(groups_b), reached_c or bool(groups_c)
        n_pairs = sum(count * groups_c.get(key, 0) for key, count in groups_b.items())
        if len(_node_maps(p, z)) != n_pairs:  # some agreeing pair has no mediator
            return False
    if not (reached_b and reached_c):
        leg = "C" if reached_b else "B"
        raise PreconditionError(
            f"{leg} has no map into any probe of at most {probe_bound} nodes, so every"
            " count would agree for any candidate; raise probe_bound"
        )
    return True
