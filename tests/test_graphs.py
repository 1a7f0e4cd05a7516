"""Graph category: composition laws, mono detection, pushouts, universal property."""

import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat import graphs as graphs_module
from mycocat.errors import CompositionError, PreconditionError, ShapeError
from mycocat.graphs import (
    AttributedGraph,
    Cospan,
    GraphMorphism,
    are_isomorphic,
    compose_graph_morphisms,
    enumerate_morphisms,
    identity_morphism,
    is_monomorphism,
    pushout_along_monos,
    verify_pushout_universal_property,
)
from conftest import (
    make_random_graph,
    make_random_mono_cospan,
    make_random_morphism,
)


def path_graph(n, prefix="v"):
    nodes = tuple(f"{prefix}{i}" for i in range(n))
    edges = tuple(
        (f"{prefix}e{i}", (nodes[i], nodes[i + 1])) for i in range(n - 1)
    )
    return AttributedGraph(nodes, edges)


def triangle():
    return AttributedGraph(
        ("x", "y", "z"),
        (("a", ("x", "y")), ("b", ("y", "z")), ("c", ("z", "x"))),
    )


class TestGraphConstruction:
    def test_duplicate_node_rejected(self):
        with pytest.raises(ShapeError):
            AttributedGraph(("a", "a"), ())

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ShapeError):
            AttributedGraph(("a", "b"), (("e", ("a", "b")), ("e", ("b", "a"))))

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ShapeError):
            AttributedGraph(("a",), (("e", ("a", "b")),))

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"nodes": "ab"}, "nodes"),
            ({"nodes": ["a"], "directed": "no"}, "directed"),
            ({"nodes": ["a"], "edges": "e"}, "edges"),
            ({"nodes": ["a", "b"], "edges": [["e", ["a", "b"], "x"]]}, r"edges\[0\]"),
            ({"nodes": ["a", "b"], "edges": [["e", "ab"]]}, r"edges\[0\]"),
        ],
    )
    def test_wire_format_shape_names_the_field(self, data, field):
        with pytest.raises(ShapeError, match=f"^b\\.{field}: "):
            AttributedGraph.from_json(data, "b.")

    def test_json_roundtrip(self):
        g = triangle()
        assert AttributedGraph.from_json(g.to_json()) == g

    def test_connectivity(self):
        assert path_graph(4).is_connected()
        two = AttributedGraph(("a", "b"), ())
        assert not two.is_connected()


@st.composite
def small_graphs(draw, directed, prefix, max_edges):
    """Up to 4 nodes; edges may be self-loops or parallel."""
    nodes = tuple(f"{prefix}{i}" for i in range(draw(st.integers(0, 4))))
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=max_edges)
        if nodes
        else st.just([])
    )
    edges = tuple((f"{prefix}e{i}", pair) for i, pair in enumerate(pairs))
    return AttributedGraph(nodes, edges, directed)


def brute_force_homs(g, h):
    """Every incidence-preserving (node map, edge map) g -> h: all node maps,
    then for each all edge images taken in ``h.edges`` order."""
    found = []
    for images in itertools.product(h.nodes, repeat=len(g.nodes)):
        node_map = dict(zip(g.nodes, images))
        for chosen in itertools.product(h.edges, repeat=len(g.edges)):
            if all(
                pair == (node_map[u], node_map[v])
                or (not g.directed and pair == (node_map[v], node_map[u]))
                for (_, (u, v)), (_, pair) in zip(g.edges, chosen)
            ):
                found.append((node_map, {e: t for (e, _), (t, _) in zip(g.edges, chosen)}))
    return found


class TestEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans().flatmap(
            lambda directed: st.tuples(
                small_graphs(directed, "g", 3), small_graphs(directed, "h", 4)
            )
        )
    )
    def test_matches_brute_force_oracle(self, pair):
        g, h = pair
        listed = [(m.node_map, m.edge_map) for m in enumerate_morphisms(g, h)]
        assert listed == brute_force_homs(g, h)
        isomorphisms = [
            (nodes, edges)
            for nodes, edges in listed
            if len(g.nodes) == len(set(nodes.values())) == len(h.nodes)
            and len(g.edges) == len(set(edges.values())) == len(h.edges)
        ]
        assert are_isomorphic(g, h) == bool(isomorphisms)

    def test_directedness_mismatch_has_no_morphisms(self):
        g = AttributedGraph(("a",), ())
        assert list(enumerate_morphisms(g, AttributedGraph(("b",), (), True))) == []


class TestComposition:
    def test_identity_laws(self):
        g = path_graph(4)
        h = triangle()
        f = GraphMorphism(
            g,
            h,
            {"v0": "x", "v1": "y", "v2": "z", "v3": "x"},
            {"ve0": "a", "ve1": "b", "ve2": "c"},
        )
        assert compose_graph_morphisms(identity_morphism(g), f).same_maps(f)
        assert compose_graph_morphisms(f, identity_morphism(h)).same_maps(f)

    def test_domain_mismatch_raises(self):
        g, h = path_graph(2), path_graph(3)
        f = identity_morphism(g)
        k = identity_morphism(h)
        with pytest.raises(CompositionError):
            compose_graph_morphisms(f, k)

    def test_associativity_on_injections(self):
        # three injections of a 4-node path into growing paths
        p4, p5, p6, p7 = path_graph(4), path_graph(5), path_graph(6), path_graph(7)

        def inclusion(small, big):
            return GraphMorphism(
                small,
                big,
                {v: v for v in small.nodes},
                {e: e for e in small.edge_ids},
            )

        f = inclusion(p4, p5)
        g = inclusion(p5, p6)
        h = inclusion(p6, p7)
        lhs = compose_graph_morphisms(compose_graph_morphisms(f, g), h)
        rhs = compose_graph_morphisms(f, compose_graph_morphisms(g, h))
        assert lhs.same_maps(rhs)

    def test_associativity_randomized(self):
        rng = random.Random(7)
        done = 0
        while done < 25:
            a = make_random_graph(rng, max_nodes=4)
            b = make_random_graph(rng, max_nodes=4)
            c = make_random_graph(rng, max_nodes=4)
            d = make_random_graph(rng, max_nodes=4)
            f = make_random_morphism(rng, a, b)
            g = make_random_morphism(rng, b, c)
            h = make_random_morphism(rng, c, d)
            if f is None or g is None or h is None:
                continue
            lhs = compose_graph_morphisms(compose_graph_morphisms(f, g), h)
            rhs = compose_graph_morphisms(f, compose_graph_morphisms(g, h))
            assert lhs.same_maps(rhs)
            done += 1

    def test_associativity_exhaustive_on_fixed_family(self):
        # every composable triple between four small fixed graphs
        edge = AttributedGraph(("p", "q"), (("e", ("p", "q")),))
        k4 = AttributedGraph(
            ("a", "b", "c", "d"),
            tuple(
                (f"k{i}", pair)
                for i, pair in enumerate(
                    [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
                )
            ),
        )
        chain = [edge, path_graph(3), triangle(), k4]
        triples = 0
        for g1, g2, g3, g4 in zip(chain, chain[1:], chain[2:], chain[3:]):
            for f in enumerate_morphisms(g1, g2):
                for g in enumerate_morphisms(g2, g3):
                    for h in enumerate_morphisms(g3, g4):
                        lhs = compose_graph_morphisms(
                            compose_graph_morphisms(f, g), h
                        )
                        rhs = compose_graph_morphisms(
                            f, compose_graph_morphisms(g, h)
                        )
                        assert lhs.same_maps(rhs)
                        triples += 1
            for f in enumerate_morphisms(g1, g2):
                assert compose_graph_morphisms(identity_morphism(g1), f).same_maps(f)
                assert compose_graph_morphisms(f, identity_morphism(g2)).same_maps(f)
        assert triples > 0


class TestMonomorphism:
    def test_edge_into_triangle_is_mono(self):
        edge = AttributedGraph(("p", "q"), (("e", ("p", "q")),))
        f = GraphMorphism(edge, triangle(), {"p": "x", "q": "y"}, {"e": "a"})
        assert is_monomorphism(f)

    def test_collapsing_map_is_not_mono(self):
        two = AttributedGraph(("p", "q"), ())
        one = AttributedGraph(("o",), ())
        f = GraphMorphism(two, one, {"p": "o", "q": "o"}, {})
        assert not is_monomorphism(f)

    def test_matches_left_cancellation_oracle(self):
        # Exhaustive oracle: f is left-cancellable iff post-composition with f
        # is injective on hom(Z, source) for every probe Z.
        rng = random.Random(99)
        probes = probe_family(3)
        checked = 0
        while checked < 50:
            src = make_random_graph(rng, max_nodes=4)
            dst = make_random_graph(rng, max_nodes=5)
            f = make_random_morphism(rng, src, dst)
            if f is None:
                continue
            cancellable = True
            for z in probes:
                homs = list(enumerate_morphisms(z, src))
                composites = set()
                for g in homs:
                    comp = compose_graph_morphisms(g, f)
                    composites.add(
                        (
                            tuple(comp.node_map[v] for v in z.nodes),
                            tuple(comp.edge_map[e] for e in z.edge_ids),
                        )
                    )
                if len(composites) != len(homs):
                    cancellable = False
                    break
            assert is_monomorphism(f) == cancellable
            checked += 1


def star_cospan(directed=False):
    """Shared node a, B = edge a-b, C = edge a-c."""
    apex = AttributedGraph(("a",), (), directed)
    b = AttributedGraph(("a", "b"), (("eb", ("a", "b")),), directed)
    c = AttributedGraph(("a", "c"), (("ec", ("a", "c")),), directed)
    left = GraphMorphism(apex, b, {"a": "a"}, {})
    right = GraphMorphism(apex, c, {"a": "a"}, {})
    return Cospan(apex, left, right)


class TestPushout:
    def test_star_from_shared_node(self):
        obj, inj_b, inj_c = pushout_along_monos(star_cospan())
        assert len(obj.nodes) == 3
        assert len(obj.edges) == 2
        # images of the shared node coincide
        assert inj_b.node_map["a"] == inj_c.node_map["a"]
        center = inj_b.node_map["a"]
        assert sum(center in pair for _, pair in obj.edges) == 2

    def test_empty_apex_gives_disjoint_union(self):
        apex = AttributedGraph((), ())
        b = path_graph(2, "b")
        c = path_graph(3, "c")
        cospan = Cospan(
            apex,
            GraphMorphism(apex, b, {}, {}),
            GraphMorphism(apex, c, {}, {}),
        )
        obj, _, _ = pushout_along_monos(cospan)
        assert len(obj.nodes) == 5
        assert len(obj.edges) == 3

    def test_non_mono_leg_rejected(self):
        apex = AttributedGraph(("a1", "a2"), ())
        b = AttributedGraph(("b",), ())
        c = AttributedGraph(("c1", "c2"), ())
        collapse = GraphMorphism(apex, b, {"a1": "b", "a2": "b"}, {})
        embed = GraphMorphism(apex, c, {"a1": "c1", "a2": "c2"}, {})
        with pytest.raises(PreconditionError):
            pushout_along_monos(Cospan(apex, collapse, embed))

    def test_matches_union_find_oracle(self):
        # Independent oracle: quotient the tagged disjoint union with a
        # from-scratch union-find and number the classes by the documented
        # rule; the object and both injections must match exactly, in
        # declaration order as well.
        rng = random.Random(1234)
        cospans = [_mixed_mono_cospan(rng) for _ in range(400)]
        cospans += [make_random_mono_cospan(rng) for _ in range(100)]
        for cospan in cospans:
            got = pushout_along_monos(cospan)
            oracle = _union_find_pushout(cospan)
            assert got == oracle
            assert [m.to_json() for m in got] == [m.to_json() for m in oracle]
        b_graphs = [c.left.target for c in cospans]
        assert sum(g.directed for g in b_graphs) >= 50
        assert any(u == v for g in b_graphs for _, (u, v) in g.edges)
        assert any(isinstance(v, int) for g in b_graphs for v in g.nodes)
        assert any(not c.apex.nodes for c in cospans)
        assert sum(bool(c.apex.edges) for c in cospans) >= 50

    def test_symmetry_up_to_isomorphism(self):
        rng = random.Random(555)
        for _ in range(10):
            cospan = make_random_mono_cospan(rng, max_nodes=4)
            flipped = Cospan(cospan.apex, cospan.right, cospan.left)
            a, _, _ = pushout_along_monos(cospan)
            b, _, _ = pushout_along_monos(flipped)
            assert are_isomorphic(a, b)

    def test_deterministic_output(self):
        rng1 = random.Random(42)
        rng2 = random.Random(42)
        c1 = make_random_mono_cospan(rng1)
        c2 = make_random_mono_cospan(rng2)
        assert pushout_along_monos(c1)[0] == pushout_along_monos(c2)[0]


def _mixed_mono_cospan(rng):
    """Random mono cospan over mixed int and str ids, with self-loops and
    parallel edges, directed about 30% of the time and with an apex that
    may be empty. B and C draw their ids independently, so they often share
    some."""
    directed = rng.random() < 0.3

    def fresh(n):
        taken = []
        while len(taken) < n:
            x = rng.randrange(20)
            if rng.random() < 0.5:
                x = f"{rng.choice('abxy')}{x}"
            if x not in taken:
                taken.append(x)
        return taken

    b_nodes = fresh(rng.randint(0, 4))
    b_edges = [
        (e, (rng.choice(b_nodes), rng.choice(b_nodes)))
        for e in fresh(rng.randint(0, 5) if b_nodes else 0)
    ]
    picked = rng.sample(b_nodes, rng.randint(0, len(b_nodes)))
    inside = [(e, (u, v)) for e, (u, v) in b_edges if u in picked and v in picked]
    glued = rng.sample(inside, rng.randint(0, len(inside)))
    apex_of = dict(zip(picked, fresh(len(picked))))
    apex_edge_of = dict(zip([e for e, _ in glued], fresh(len(glued))))
    apex = AttributedGraph(
        tuple(apex_of.values()),
        tuple((apex_edge_of[e], (apex_of[u], apex_of[v])) for e, (u, v) in glued),
        directed,
    )
    # C holds a relabelled copy of the apex plus extras, in shuffled order;
    # an undirected copied edge may list its endpoints the other way round
    c_nodes = fresh(len(picked) + rng.randint(0, 3))
    c_of = dict(zip(apex.nodes, c_nodes))
    c_eids = fresh(len(glued) + (rng.randint(0, 3) if c_nodes else 0))
    c_edges = [
        (ce, (c_of[v], c_of[u]) if not directed and rng.random() < 0.5 else (c_of[u], c_of[v]))
        for ce, (_, (u, v)) in zip(c_eids, apex.edges)
    ]
    c_edges += [
        (ce, (rng.choice(c_nodes), rng.choice(c_nodes))) for ce in c_eids[len(glued):]
    ]
    rng.shuffle(c_nodes)
    rng.shuffle(c_edges)
    b = AttributedGraph(tuple(b_nodes), tuple(b_edges), directed)
    c = AttributedGraph(tuple(c_nodes), tuple(c_edges), directed)
    return Cospan(
        apex,
        GraphMorphism(
            apex, b, {a: v for v, a in apex_of.items()}, {a: e for e, a in apex_edge_of.items()}
        ),
        GraphMorphism(apex, c, c_of, dict(zip(apex.edge_ids, c_eids))),
    )


def _union_find_pushout(cospan):
    """Test-side oracle: a plain union-find quotient of the tagged disjoint
    union. Classes are numbered by their least tagged member, compared as
    (tag, type name, repr) with "b" < "c"; an edge takes the endpoints of
    the first member met, B before C, each graph in declaration order."""
    b, c = cospan.left.target, cospan.right.target

    def classes(b_ids, c_ids, left, right):
        parent = {m: m for m in [("b", x) for x in b_ids] + [("c", x) for x in c_ids]}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in left:
            rx, ry = find(("b", left[a])), find(("c", right[a]))
            if rx != ry:
                parent[ry] = rx
        members = {}
        for m in parent:
            members.setdefault(find(m), []).append(m)

        def least(ms):
            return min((tag, type(x).__name__, repr(x)) for tag, x in ms)

        ordered = sorted(members.values(), key=least)
        return {m: i for i, ms in enumerate(ordered) for m in ms}, len(ordered)

    node_id, n_nodes = classes(b.nodes, c.nodes, cospan.left.node_map, cospan.right.node_map)
    edge_id, _ = classes(b.edge_ids, c.edge_ids, cospan.left.edge_map, cospan.right.edge_map)
    pairs = {}
    for tag, graph in (("b", b), ("c", c)):
        for eid, (u, v) in graph.edges:
            pairs.setdefault(edge_id[tag, eid], (node_id[tag, u], node_id[tag, v]))
    obj = AttributedGraph(tuple(range(n_nodes)), tuple(sorted(pairs.items())), b.directed)

    def injection(tag, graph):
        return GraphMorphism(
            graph,
            obj,
            {v: node_id[tag, v] for v in graph.nodes},
            {e: edge_id[tag, e] for e in graph.edge_ids},
        )

    return obj, injection("b", b), injection("c", c)


def extended(candidate, nodes=(), edges=()):
    """The candidate pushout object with extra nodes and edges, and its
    injections lifted into it unchanged."""
    obj, inj_b, inj_c = candidate
    bigger = AttributedGraph(obj.nodes + nodes, obj.edges + edges, obj.directed)
    return (
        bigger,
        GraphMorphism(inj_b.source, bigger, inj_b.node_map, inj_b.edge_map),
        GraphMorphism(inj_c.source, bigger, inj_c.node_map, inj_c.edge_map),
    )


def _images(m):
    return (
        tuple(m.node_map[v] for v in m.source.nodes),
        tuple(m.edge_map[e] for e in m.source.edge_ids),
    )


def rule_failures(cospan, candidate):
    """The conditions of the pushout rule that the candidate breaks, read
    off the public maps: "mono" (an injection is not injective on nodes or
    on edges), "onto" (together they miss a node or an edge of the object),
    "nodes" and "edges" (the nodes, or the edges, that both reach are not
    the images of the apex's)."""
    obj, inj_b, inj_c = candidate
    maps = [inj_b.node_map, inj_c.node_map, inj_b.edge_map, inj_c.edge_map]
    nodes_b, nodes_c, edges_b, edges_c = (set(m.values()) for m in maps)
    apex_nodes = {inj_b.node_map[cospan.left.node_map[a]] for a in cospan.apex.nodes}
    apex_edges = {inj_b.edge_map[cospan.left.edge_map[a]] for a in cospan.apex.edge_ids}
    broken = {
        "mono": any(len(set(m.values())) != len(m) for m in maps),
        "onto": nodes_b | nodes_c != set(obj.nodes) or edges_b | edges_c != set(obj.edge_ids),
        "nodes": nodes_b & nodes_c != apex_nodes,
        "edges": edges_b & edges_c != apex_edges,
    }
    return {name for name, failed in broken.items() if failed}


def reference_maps_hold(cospan, candidate):
    """The map conditions that probe counts cannot check, since every probe
    is simple: all of the rule's but "nodes"."""
    return not rule_failures(cospan, candidate) - {"nodes"}


def over_identified(candidate):
    """The candidate with its first node reached by inB only and its first
    node reached by inC only made one node, or None when either is missing:
    the map conditions still hold, and only a probe can refuse it."""
    obj, inj_b, inj_c = candidate
    nodes_b, nodes_c = set(inj_b.node_map.values()), set(inj_c.node_map.values())
    only_b = [v for v in obj.nodes if v not in nodes_c]
    only_c = [v for v in obj.nodes if v not in nodes_b]
    if not only_b or not only_c:
        return None
    keep, drop = only_b[0], only_c[0]

    def to(v):
        return keep if v == drop else v

    merged = AttributedGraph(
        tuple(v for v in obj.nodes if v != drop),
        tuple((e, (to(u), to(w))) for e, (u, w) in obj.edges),
    )
    return (merged,) + tuple(
        GraphMorphism(inj.source, merged, {v: to(w) for v, w in inj.node_map.items()},
                      inj.edge_map)
        for inj in (inj_b, inj_c)
    )


@functools.cache
def probe_family(max_nodes):
    """The probes of :func:`reference_verifier`: every simple undirected
    graph on nodes 0..n-1 for each n up to ``max_nodes``, its edges the
    pairs, in ``itertools.combinations`` order, at the set bits of a code
    counted up from 0, each edge id its pair's index."""
    family = []
    for n in range(max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for code in range(2 ** len(pairs)):
            edges = tuple((i, pair) for i, pair in enumerate(pairs) if code >> i & 1)
            family.append(AttributedGraph(tuple(range(n)), edges))
    return tuple(family)


def reference_verifier(cospan, candidate, probe_bound):
    """The bounded universal-property check over public morphism objects:
    the map conditions of :func:`reference_maps_hold`, then for each probe
    Z, the pairs (B -> Z, C -> Z) agreeing on the apex must be the
    composites (u∘inB, u∘inC) of exactly one mediator u each. A leg with no
    map into any probe raises PreconditionError.

    A False is always right, since a pushout passes every probe. A True is
    right once the pushout's object, its parallel edges made one, is a
    probe: that probe then keeps apart every two nodes the pushout keeps
    apart. Below that it can be wrong: see
    ``test_four_node_probes_miss_a_five_node_pushout``."""
    obj, inj_b, inj_c = candidate
    if not reference_maps_hold(cospan, candidate):
        return False
    probes = probe_family(probe_bound)
    for leg in (cospan.left, cospan.right):
        if not any(list(enumerate_morphisms(leg.target, z)) for z in probes):
            raise PreconditionError("a leg has no map into any probe")
    for z in probes:
        groups = [
            Counter(
                _images(compose_graph_morphisms(leg, m))
                for m in enumerate_morphisms(leg.target, z)
            )
            for leg in (cospan.left, cospan.right)
        ]
        n_pairs = sum(count * groups[1][key] for key, count in groups[0].items())
        mediated = [
            (
                _images(compose_graph_morphisms(inj_b, u)),
                _images(compose_graph_morphisms(inj_c, u)),
            )
            for u in enumerate_morphisms(obj, z)
        ]
        if len(set(mediated)) != len(mediated) or len(mediated) != n_pairs:
            return False
    return True


def probes_decide(cospan, probe_bound):
    """Whether :func:`reference_verifier` at ``probe_bound`` is defined and
    exact on ``cospan``: undirected legs without self-loops, and a pushout
    of at most ``probe_bound`` nodes (so both legs map into a probe)."""
    legs = (cospan.left.target, cospan.right.target)
    return (
        not cospan.apex.directed
        and not any(u == v for g in legs for _, (u, v) in g.edges)
        and len(pushout_along_monos(cospan)[0].nodes) <= probe_bound
    )


def isomorphic_to_pushout(cospan, candidate):
    """Direct check: some isomorphism from :func:`pushout_along_monos`'s
    object Q onto the candidate's object P commutes with both injections.
    Q's injections jB, jC together hit all of Q, so such a map is forced,
    phi(jB(x)) = inB(x) and phi(jC(y)) = inC(y) on nodes and on edges; it
    must be well defined, one-to-one and onto, and carry each edge of Q to
    an edge of P with the images of its endpoints."""
    q, j_b, j_c = pushout_along_monos(cospan)
    obj, inj_b, inj_c = candidate
    phi_nodes, phi_edges = {}, {}
    for j, inj in ((j_b, inj_b), (j_c, inj_c)):
        for phi, j_map, inj_map in (
            (phi_nodes, j.node_map, inj.node_map),
            (phi_edges, j.edge_map, inj.edge_map),
        ):
            for x, image in j_map.items():
                if phi.setdefault(image, inj_map[x]) != inj_map[x]:
                    return False
    if len(set(phi_nodes.values())) != len(q.nodes) or set(phi_nodes.values()) != obj.node_set:
        return False
    if len(set(phi_edges.values())) != len(q.edges) or set(phi_edges.values()) != obj.edge_set:
        return False
    ends = dict(obj.edges)
    for e, (u, v) in q.edges:
        image = (phi_nodes[u], phi_nodes[v])
        if ends[phi_edges[e]] not in (image, image[::-1] if not q.directed else image):
            return False
    return True


def with_cross_parallel(cospan, rng):
    """``cospan`` with one more edge in C, parallel in the pushout to an
    edge of B outside the apex image that joins two apex images, or
    ``cospan`` when B has none."""
    b, c = cospan.left.target, cospan.right.target
    apex_of = {w: a for a, w in cospan.left.node_map.items()}
    glued = set(cospan.left.edge_map.values())
    inside = [
        (u, v) for e, (u, v) in b.edges if u in apex_of and v in apex_of and e not in glued
    ]
    if not inside:
        return cospan
    u, v = rng.choice(inside)
    ends = (cospan.right.node_map[apex_of[u]], cospan.right.node_map[apex_of[v]])
    bigger = AttributedGraph(c.nodes, c.edges + (("cross", ends),), c.directed)
    right = GraphMorphism(cospan.apex, bigger, cospan.right.node_map, cospan.right.edge_map)
    return Cospan(cospan.apex, cospan.left, right)


def quotient_candidate(cospan, rng, changes):
    """The pushout of ``cospan`` changed by ``changes``, a string: per "n"
    two nodes made one, then per "e" two edges with the same endpoints made
    one (a node or edge of B only with one of C only, where there is such a
    pair), then per "g" a fresh node and per "x" a fresh edge; every id is
    then renamed and reordered. The injections follow the changes, so the
    square still commutes."""
    obj, inj_b, inj_c = pushout_along_monos(cospan)

    def pick(pairs, inj_b_map, inj_c_map):
        only_b = set(inj_b_map.values()) - set(inj_c_map.values())
        only_c = set(inj_c_map.values()) - set(inj_b_map.values())
        cross = [(x, y) for x, y in pairs if {x, y} & only_b and {x, y} & only_c]
        return rng.choice(cross or pairs)

    node_to = {v: v for v in obj.nodes}
    for _ in range(changes.count("n")):
        kept = sorted(set(node_to.values()))
        if len(kept) > 1:
            keep, drop = pick(list(itertools.combinations(kept, 2)), inj_b.node_map, inj_c.node_map)
            node_to = {v: keep if w == drop else w for v, w in node_to.items()}

    def ends_of(pair):
        ends = (node_to[pair[0]], node_to[pair[1]])
        return ends if obj.directed else tuple(sorted(ends))

    ends = {e: ends_of(pair) for e, pair in obj.edges}
    edge_to = {e: e for e in obj.edge_ids}
    for _ in range(changes.count("e")):
        parallel = [
            (e, f) for e, f in itertools.combinations(sorted(set(edge_to.values())), 2)
            if ends[e] == ends[f]
        ]
        if parallel:
            keep, drop = pick(parallel, inj_b.edge_map, inj_c.edge_map)
            edge_to = {e: keep if f == drop else f for e, f in edge_to.items()}
    extra_nodes, extra_edges = changes.count("g"), changes.count("x")
    nodes = sorted(set(node_to.values())) + [f"new{i}" for i in range(extra_nodes)]
    edges = [(e, ends[e]) for e in sorted(set(edge_to.values()))]
    edges += [
        (f"new-e{i}", (rng.choice(nodes), rng.choice(nodes)))
        for i in range(extra_edges if nodes else 0)
    ]
    node_name = dict(zip(nodes, rng.sample(range(100, 200), len(nodes))))
    edge_name = dict(zip([e for e, _ in edges], rng.sample(range(200, 300), len(edges))))
    rng.shuffle(nodes)
    rng.shuffle(edges)
    p = AttributedGraph(
        tuple(node_name[v] for v in nodes),
        tuple((edge_name[e], (node_name[u], node_name[v])) for e, (u, v) in edges),
        obj.directed,
    )
    return (p,) + tuple(
        GraphMorphism(
            inj.source,
            p,
            {x: node_name[node_to[w]] for x, w in inj.node_map.items()},
            {x: edge_name[edge_to[f]] for x, f in inj.edge_map.items()},
        )
        for inj in (inj_b, inj_c)
    )


def padded_and_looped(looped, directed=False):
    """A star cospan whose leg ``looped`` ("b" or "c") carries a self-loop at
    its free node, with its pushout and the pushout plus an isolated node."""
    apex = AttributedGraph(("a",), (), directed)
    legs = {}
    for side in "bc":
        edges = (("e" + side, ("a", side)),)
        if side == looped:
            edges += (("loop", (side, side)),)
        legs[side] = AttributedGraph(("a", side), edges, directed)
    cospan = Cospan(
        apex,
        GraphMorphism(apex, legs["b"], {"a": "a"}, {}),
        GraphMorphism(apex, legs["c"], {"a": "a"}, {}),
    )
    candidate = pushout_along_monos(cospan)
    return cospan, candidate, extended(candidate, nodes=("ghost",))


class TestUniversalProperty:
    def test_matches_reference_verifier(self):
        # the reference refuses only what is not a pushout, and decides
        # every candidate where the pushout fits in a probe of the bound
        rng = random.Random(8080)
        verdicts = Counter()
        for i in range(30):
            cospan = make_random_mono_cospan(rng, max_nodes=4)
            candidate = pushout_along_monos(cospan)
            obj = candidate[0]
            first, last = obj.nodes[0], obj.nodes[-1]
            broken = [
                extended(candidate, nodes=("ghost",)),
                extended(candidate, edges=(("extra", (first, last)),)),
            ]
            if obj.edges:
                broken.append(extended(candidate, edges=(("twin", obj.edges[0][1]),)))
            # passes the map conditions, and only the node condition refuses it
            glued = over_identified(candidate)
            if glued is not None:
                assert reference_maps_hold(cospan, glued)
                broken.append(glued)
            # the reference walks all 76 labelled probes at bound 4: on a few
            # cospans, and on every one it decides there
            bounds = (3, 4) if i < 4 or probes_decide(cospan, 4) else (3,)
            for cand, bound in itertools.product([candidate] + broken, bounds):
                exact = verify_pushout_universal_property(cospan, cand, bound)
                assert exact is (cand is candidate)
                try:
                    reference = reference_verifier(cospan, cand, bound)
                except PreconditionError:
                    verdicts["unmapped"] += 1
                    continue
                assert reference or not exact
                if probes_decide(cospan, bound):
                    assert reference is exact
                    verdicts[bound, exact] += 1
                verdicts["glued refused"] += cand is glued and not reference
        assert verdicts[3, True] >= 4 and verdicts[3, False] >= 10
        assert verdicts[4, True] >= 4 and verdicts[4, False] >= 10
        assert verdicts["glued refused"] >= 4 and verdicts["unmapped"] >= 1

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.text("negx", max_size=3))
    def test_rule_is_isomorphism_to_the_constructed_pushout(self, seed, cross, changes):
        # directed cospans, self-loops and parallel edges included; a
        # candidate with no change is the pushout up to renaming
        rng = random.Random(seed)
        cospan = _mixed_mono_cospan(rng)
        if cross:
            cospan = with_cross_parallel(cospan, rng)
        candidate = quotient_candidate(cospan, rng, changes)
        exact = verify_pushout_universal_property(cospan, candidate, 4)
        assert exact is isomorphic_to_pushout(cospan, candidate)
        assert exact is not rule_failures(cospan, candidate)
        if not changes:
            assert exact
        if probes_decide(cospan, 4):
            assert reference_verifier(cospan, candidate, 4) is exact

    def test_rule_generator_breaks_each_condition_alone(self):
        # the property test's generator reaches, with the same verdicts,
        # directed legs, looped legs and parallel edges, pushouts and not,
        # and candidates that break exactly one of the rule's conditions, so
        # that dropping any one condition fails it
        rng = random.Random(2604)
        seen = Counter()
        kinds = ("", "n", "e", "g", "x", "ne", "nn", "ee", "gx", "nex")
        for i in range(400):
            cospan = _mixed_mono_cospan(rng)
            if i // len(kinds) % 2:
                cospan = with_cross_parallel(cospan, rng)
            candidate = quotient_candidate(cospan, rng, kinds[i % len(kinds)])
            exact = verify_pushout_universal_property(cospan, candidate, 4)
            failures = rule_failures(cospan, candidate)
            assert exact is isomorphic_to_pushout(cospan, candidate) is not failures
            legs = (cospan.left.target, cospan.right.target)
            seen["directed", exact] += cospan.apex.directed
            seen["looped", exact] += any(u == v for g in legs for _, (u, v) in g.edges)
            seen["parallel", exact] += any(
                len(ids) > 1 for g in legs for ids in g.adjacency.values()
            )
            seen["decided", exact] += probes_decide(cospan, 4)
            if len(failures) <= 1:
                seen["only", *failures] += 1
        assert len(seen) == 13 and min(seen.values()) >= 3, seen

    def test_star_pushout_passes(self):
        cospan = star_cospan()
        candidate = pushout_along_monos(cospan)
        assert verify_pushout_universal_property(cospan, candidate, 3)

    def test_spurious_node_fails(self):
        cospan = star_cospan()
        padded = extended(pushout_along_monos(cospan), nodes=("ghost",))
        assert not verify_pushout_universal_property(cospan, padded, 3)

    def test_directed_star_decided(self):
        # the decision reads maps only, so direction changes nothing
        cospan = star_cospan(directed=True)
        candidate = pushout_along_monos(cospan)
        assert verify_pushout_universal_property(cospan, candidate, 3)
        padded = extended(candidate, nodes=("ghost",))
        assert not verify_pushout_universal_property(cospan, padded, 3)

    @pytest.mark.parametrize("looped", ["b", "c"])
    def test_looped_leg_decided(self, looped):
        # no probe has a loop, so probe counts could not tell these apart
        for directed in (False, True):
            cospan, candidate, padded = padded_and_looped(looped, directed)
            assert verify_pushout_universal_property(cospan, candidate, 4)
            assert not verify_pushout_universal_property(cospan, padded, 4)

    def test_non_mono_leg_is_a_precondition_error(self):
        apex = AttributedGraph(("a1", "a2"), ())
        b = AttributedGraph(("b",), ())
        c = AttributedGraph(("c1", "c2"), ())
        cospan = Cospan(
            apex,
            GraphMorphism(apex, b, {"a1": "b", "a2": "b"}, {}),
            GraphMorphism(apex, c, {"a1": "c1", "a2": "c2"}, {}),
        )
        # the quotient of C by c1 = c2 would be its pushout
        obj = AttributedGraph(("p",), ())
        candidate = (
            obj,
            GraphMorphism(b, obj, {"b": "p"}, {}),
            GraphMorphism(c, obj, {"c1": "p", "c2": "p"}, {}),
        )
        with pytest.raises(PreconditionError, match="mono"):
            verify_pushout_universal_property(cospan, candidate, 4)

    def test_under_identified_candidate_fails(self):
        # Disjoint union without gluing the shared node: mediators are missing
        # for pairs that agree on the apex.
        cospan = star_cospan()
        b, c = cospan.left.target, cospan.right.target
        obj = AttributedGraph(
            ("ba", "bb", "ca", "cc"),
            (("eb", ("ba", "bb")), ("ec", ("ca", "cc"))),
        )
        inj_b = GraphMorphism(b, obj, {"a": "ba", "b": "bb"}, {"eb": "eb"})
        inj_c = GraphMorphism(c, obj, {"a": "ca", "c": "cc"}, {"ec": "ec"})
        with pytest.raises(PreconditionError):
            # the square does not even commute
            verify_pushout_universal_property(cospan, (obj, inj_b, inj_c), 3)

    def test_extra_node_cannot_make_up_for_over_identification(self):
        # C's free node c is glued onto the apex image and an isolated node is
        # added: on every probe Z the mediators and the agreeing pairs number
        # |Z|^2 alike, but mediators that differ only on the extra node
        # induce the same pair.
        apex = AttributedGraph(("a",), ())
        b, c = AttributedGraph(("a",), ()), AttributedGraph(("a", "c"), ())
        cospan = Cospan(
            apex, GraphMorphism(apex, b, {"a": "a"}, {}), GraphMorphism(apex, c, {"a": "a"}, {})
        )
        obj = AttributedGraph(("p", "ghost"), ())
        candidate = (
            obj,
            GraphMorphism(b, obj, {"a": "p"}, {}),
            GraphMorphism(c, obj, {"a": "p", "c": "p"}, {}),
        )
        assert not verify_pushout_universal_property(cospan, candidate, 3)
        assert not reference_verifier(cospan, candidate, 3)

    def test_empty_apex_coproduct_passes(self):
        apex = AttributedGraph((), ())
        b = path_graph(2, "b")
        c = path_graph(2, "c")
        cospan = Cospan(
            apex,
            GraphMorphism(apex, b, {}, {}),
            GraphMorphism(apex, c, {}, {}),
        )
        candidate = pushout_along_monos(cospan)
        assert verify_pushout_universal_property(cospan, candidate, 3)

    def test_probe_family_sizes(self):
        assert len(probe_family(3)) == 12  # 1 + 1 + 2 + 8
        assert len(probe_family(4)) == 76  # + 64

    @pytest.mark.parametrize("bound", [-1, 2.5, True, "3", 7, None])
    def test_probe_bound_is_ignored(self, bound):
        cospan = star_cospan()
        candidate = pushout_along_monos(cospan)
        assert verify_pushout_universal_property(cospan, candidate, bound)
        padded = extended(candidate, nodes=("ghost",))
        assert not verify_pushout_universal_property(cospan, padded, bound)

    def test_ghost_node_refused_at_every_bound(self):
        # an isolated extra node changes the counts only on probes of two or
        # more nodes; joint surjectivity refuses it
        cospan = star_cospan()
        padded = extended(pushout_along_monos(cospan), nodes=("ghost",))
        for bound in range(5):
            assert not verify_pushout_universal_property(cospan, padded, bound)

    def test_twin_edge_refused_at_every_bound(self):
        # no injection reaches the twin; every probe is simple, so a twin of
        # an edge changes no hom-set into a probe
        cospan = star_cospan()
        candidate = pushout_along_monos(cospan)
        twin = extended(candidate, edges=(("twin", candidate[0].edges[0][1]),))
        for bound in range(5):
            assert not verify_pushout_universal_property(cospan, twin, bound)

    def test_non_mono_injection_refused_at_every_bound(self):
        # inB merges B's two parallel edges into one edge, which no simple
        # probe tells from the pushout's two
        apex = AttributedGraph(("a",), ())
        b = AttributedGraph(("a", "b"), (("e1", ("a", "b")), ("e2", ("a", "b"))))
        c = AttributedGraph(("a", "c"), (("ec", ("a", "c")),))
        cospan = Cospan(
            apex, GraphMorphism(apex, b, {"a": "a"}, {}), GraphMorphism(apex, c, {"a": "a"}, {})
        )
        obj = AttributedGraph(("a", "b", "c"), (("e", ("a", "b")), ("ec", ("a", "c"))))
        candidate = (
            obj,
            GraphMorphism(b, obj, {"a": "a", "b": "b"}, {"e1": "e", "e2": "e"}),
            GraphMorphism(c, obj, {"a": "a", "c": "c"}, {"ec": "ec"}),
        )
        assert verify_pushout_universal_property(cospan, pushout_along_monos(cospan), 4)
        for bound in range(5):
            assert not verify_pushout_universal_property(cospan, candidate, bound)

    def test_cross_parallel_glue_refused_at_every_bound(self):
        # B's edge and C's edge join the two glued nodes and no apex edge
        # maps to them: the pushout keeps both, and a candidate that glues
        # them into one edge looks the same to every simple probe
        apex = AttributedGraph(("x", "y"), ())
        b = AttributedGraph(("x", "y"), (("eb", ("x", "y")),))
        c = AttributedGraph(("x", "y"), (("ec", ("y", "x")),))
        same = {"x": "x", "y": "y"}
        cospan = Cospan(apex, GraphMorphism(apex, b, same, {}), GraphMorphism(apex, c, same, {}))
        obj = AttributedGraph(("x", "y"), (("e", ("x", "y")),))
        candidate = (
            obj,
            GraphMorphism(b, obj, same, {"eb": "e"}),
            GraphMorphism(c, obj, same, {"ec": "e"}),
        )
        assert len(pushout_along_monos(cospan)[0].edges) == 2
        for bound in range(5):
            assert not verify_pushout_universal_property(cospan, candidate, bound)

    def test_k4_leg_decided_at_every_bound(self):
        # B is K4 and C a path glued to it at one node. No probe of at most 3
        # nodes receives K4, so probe counts there are all 0 = 0; the
        # decision reads the maps and needs no bound.
        apex = AttributedGraph(("a",), ())
        k4 = AttributedGraph(
            ("a", "b1", "b2", "b3"),
            tuple((f"k{i}", pair) for i, pair in
                  enumerate(itertools.combinations(("a", "b1", "b2", "b3"), 2))),
        )
        c = AttributedGraph(("a", "c"), (("ec", ("a", "c")),))
        cospan = Cospan(
            apex, GraphMorphism(apex, k4, {"a": "a"}, {}), GraphMorphism(apex, c, {"a": "a"}, {})
        )
        swapped = Cospan(apex, cospan.right, cospan.left)
        for cs in (cospan, swapped):
            candidate = pushout_along_monos(cs)
            glued = over_identified(candidate)
            assert reference_maps_hold(cs, glued)
            for bound in range(5):
                assert verify_pushout_universal_property(cs, candidate, bound)
                assert not verify_pushout_universal_property(cs, glued, bound)

    def test_four_node_probes_miss_a_five_node_pushout(self):
        # B and C are K4 glued along three nodes. Every map of K4 into a
        # probe of at most 4 nodes is a 4-colouring, and two that agree on
        # the three glued nodes give the free nodes one colour; so the
        # candidate that makes the free nodes one node passes every count
        # at bound 4, and the rule refuses it.
        def k4(prefix):
            nodes = tuple(f"{prefix}{i}" for i in range(4))
            pairs = itertools.combinations(nodes, 2)
            return AttributedGraph(nodes, tuple((f"{prefix}e{i}", p) for i, p in enumerate(pairs)))

        apex = AttributedGraph(("a0", "a1", "a2"), ())
        legs = [
            GraphMorphism(apex, k4(side), {f"a{i}": f"{side}{i}" for i in range(3)}, {})
            for side in "bc"
        ]
        cospan = Cospan(apex, *legs)
        candidate = pushout_along_monos(cospan)
        glued = over_identified(candidate)
        assert verify_pushout_universal_property(cospan, candidate, 4)
        assert not verify_pushout_universal_property(cospan, glued, 4)
        assert not isomorphic_to_pushout(cospan, glued)
        assert reference_verifier(cospan, glued, 4)

    def test_decision_enumerates_no_morphism(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the decision enumerated morphisms")

        monkeypatch.setattr(graphs_module, "_homs", refused)
        monkeypatch.setattr(graphs_module, "compose_graph_morphisms", refused)
        cospan = star_cospan()
        candidate = pushout_along_monos(cospan)
        assert verify_pushout_universal_property(cospan, candidate, 4)
        assert not verify_pushout_universal_property(cospan, over_identified(candidate), 4)
