"""Graph category: composition laws, mono detection, pushouts, universal property."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat import graphs as graphs_module
from mycocat.errors import (
    CompositionError,
    ParameterError,
    PreconditionError,
    ResourceError,
    ShapeError,
)
from mycocat.graphs import (
    AttributedGraph,
    Cospan,
    GraphMorphism,
    are_isomorphic,
    compose_graph_morphisms,
    enumerate_morphisms,
    identity_morphism,
    is_monomorphism,
    probe_family,
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

    @settings(max_examples=150, deadline=None)
    @given(
        st.booleans().flatmap(
            lambda directed: st.tuples(
                small_graphs(directed, "g", 3), small_graphs(directed, "h", 4)
            )
        )
    )
    def test_node_maps_are_the_oracle_node_maps(self, pair):
        # the distinct node maps of the oracle's morphisms, in its order, as
        # positions in h.nodes
        g, h = pair
        at = {v: k for k, v in enumerate(h.nodes)}
        node_maps = (tuple(at[m[v]] for v in g.nodes) for m, _ in brute_force_homs(g, h))
        assert graphs_module._node_maps(g, h) == list(dict.fromkeys(node_maps))

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


def reference_verifier(cospan, candidate, probe_bound):
    """The universal-property check over public morphism objects: for each
    probe Z, the pairs (B -> Z, C -> Z) agreeing on the apex must be the
    composites (u∘inB, u∘inC) of exactly one mediator u each."""
    obj, inj_b, inj_c = candidate
    for z in probe_family(probe_bound):
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


class TestUniversalProperty:
    def test_matches_reference_verifier(self):
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
            # the reference walks all 76 labelled probes at bound 4: a few
            # cospans, and every one whose legs have parallel edges, which
            # the verifier's node tuples do not tell apart
            parallel = any(
                len(ids) > 1 for leg in (cospan.left, cospan.right)
                for ids in leg.target.adjacency.values()
            )
            bounds = (3, 4) if i < 4 or parallel else (3,)
            verdicts["parallel"] += parallel
            for cand, bound in itertools.product([candidate] + broken, bounds):
                verdict = verify_pushout_universal_property(cospan, cand, bound)
                assert verdict == reference_verifier(cospan, cand, bound)
                verdicts[bound, verdict] += 1
            assert verify_pushout_universal_property(cospan, candidate, 3)
        assert verdicts[3, True] >= 30 and verdicts[3, False] >= 30
        assert verdicts[4, True] >= 4 and verdicts[4, False] >= 4
        assert verdicts["parallel"] >= 4

    def test_star_pushout_passes(self):
        cospan = star_cospan()
        candidate = pushout_along_monos(cospan)
        assert verify_pushout_universal_property(cospan, candidate, 3)

    def test_spurious_node_fails(self):
        cospan = star_cospan()
        padded = extended(pushout_along_monos(cospan), nodes=("ghost",))
        assert not verify_pushout_universal_property(cospan, padded, 3)

    def test_directed_cospan_rejected(self):
        # The probe graphs are undirected, so every hom-set out of a directed
        # graph is empty and the counts would agree for any candidate.
        cospan = star_cospan(directed=True)
        padded = extended(pushout_along_monos(cospan), nodes=("ghost",))
        with pytest.raises(PreconditionError):
            verify_pushout_universal_property(cospan, padded, 3)

    @pytest.mark.parametrize("looped", ["b", "c"])
    def test_leg_with_self_loop_rejected(self, looped):
        # No probe has a loop, so every hom-set out of a looped leg is empty
        # and the counts would agree for any candidate, padded or not.
        apex = AttributedGraph(("a",), ())
        legs = {}
        for side in "bc":
            edges = (("e" + side, ("a", side)),)
            if side == looped:
                edges += (("loop", (side, side)),)
            legs[side] = AttributedGraph(("a", side), edges)
        cospan = Cospan(
            apex,
            GraphMorphism(apex, legs["b"], {"a": "a"}, {}),
            GraphMorphism(apex, legs["c"], {"a": "a"}, {}),
        )
        candidate = pushout_along_monos(cospan)
        for cand in (candidate, extended(candidate, nodes=("ghost",))):
            with pytest.raises(PreconditionError, match="self-loops"):
                verify_pushout_universal_property(cospan, cand, 4)

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

    def test_probe_bound_capped(self):
        cospan = star_cospan()
        candidate = pushout_along_monos(cospan)
        with pytest.raises(ResourceError):
            verify_pushout_universal_property(cospan, candidate, 7)

    def test_probe_family_sizes(self):
        assert len(probe_family(3)) == 12  # 1 + 1 + 2 + 8
        assert len(probe_family(4)) == 76  # + 64

    @pytest.mark.parametrize("bound", [-1, 2.5, True, "3"])
    def test_probe_bound_must_be_a_nonnegative_int(self, bound):
        # -1 would leave no probe at all: a vacuous pass for any candidate
        cospan = star_cospan()
        padded = extended(pushout_along_monos(cospan), nodes=("ghost",))
        with pytest.raises(ParameterError, match="probe_bound"):
            verify_pushout_universal_property(cospan, padded, bound)

    def test_bounds_0_and_1_cannot_reject_an_isolated_node(self):
        # documented: an extra isolated node changes the mediator count only
        # on probes with two or more nodes
        cospan = star_cospan()
        padded = extended(pushout_along_monos(cospan), nodes=("ghost",))
        assert verify_pushout_universal_property(cospan, padded, 0)
        assert verify_pushout_universal_property(cospan, padded, 1)
        assert not verify_pushout_universal_property(cospan, padded, 2)

    def test_one_hom_enumeration_per_leg_object_and_class(self, monkeypatch):
        # three node-map sets (B, C, candidate) per probe: 3 x 19 classes at
        # bound 4, against 3 x 76 over every labelled probe
        calls = []
        node_maps = graphs_module._node_maps

        def counted(g, h):
            calls.append(h)
            return node_maps(g, h)

        monkeypatch.setattr(graphs_module, "_node_maps", counted)
        cospan = star_cospan()
        assert verify_pushout_universal_property(cospan, pushout_along_monos(cospan), 4)
        assert 0 < len(calls) <= 3 * 19


def _brute_least_code(graph):
    """The least probe code of ``graph`` over all 0..n-1 relabellings."""
    n = len(graph.nodes)
    index = {pair: i for i, pair in enumerate(itertools.combinations(range(n), 2))}
    return min(
        sum(1 << index[tuple(sorted((perm[u], perm[v])))] for _, (u, v) in graph.edges)
        for perm in itertools.permutations(range(n))
    )


class TestProbeClasses:
    def test_class_counts(self):
        # OEIS A000088: simple graphs on n unlabelled nodes
        per_n = Counter(len(z.nodes) for z in graphs_module._probe_classes(5))
        assert [per_n[n] for n in range(6)] == [1, 1, 2, 4, 11, 34]

    def test_every_probe_has_exactly_one_representative(self):
        classes = graphs_module._probe_classes(4)
        family = probe_family(4)
        for z in family:
            assert sum(are_isomorphic(z, rep) for rep in classes) == 1
        # each representative is its class's first member in family order
        for rep in classes:
            first = next(z for z in family if are_isomorphic(z, rep))
            assert first == rep

    def test_representatives_are_probes(self):
        family = set(probe_family(5))
        assert all(rep in family for rep in graphs_module._probe_classes(5))

    def test_representatives_carry_the_least_code(self):
        # at 5 nodes, against every one of the 120 relabellings
        index = {pair: i for i, pair in enumerate(itertools.combinations(range(5), 2))}
        for rep in graphs_module._probe_classes(5):
            if len(rep.nodes) == 5:
                code = sum(1 << index[pair] for _, pair in rep.edges)
                assert code == _brute_least_code(rep)

    def test_pruning_order_keeps_the_graph(self):
        rng = random.Random(14)
        for _ in range(50):
            g = make_random_graph(rng, max_nodes=6)
            ordered = graphs_module._pruning_order(g)
            assert sorted(ordered.nodes, key=repr) == sorted(g.nodes, key=repr)
            assert ordered.edges == g.edges and ordered.directed == g.directed
            # a node with no edge back to the placed ones comes next only
            # when no unplaced node has one
            for i, v in enumerate(ordered.nodes):
                placed = set(ordered.nodes[:i])

                def back(x):
                    return any(
                        u != w and x in (u, w) and {u, w} & placed for _, (u, w) in g.edges
                    )

                assert back(v) or not any(back(x) for x in ordered.nodes[i + 1:])
