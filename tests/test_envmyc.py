"""Environment/mycelium states: admissibility, composition, distance, fusion."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mycocat import envmyc
from mycocat.envmyc import (
    Constraints,
    DistanceWeights,
    EnvBatch,
    EnvObject,
    EnvMorphism,
    FieldRule,
    MycMorphism,
    MycObject,
    anastomosis,
    anastomosis_with_injections,
    apply_env_morphism,
    _BOUND_SLACK,
    compose_env_morphisms,
    compose_myc_morphisms,
    env_distance,
    identity_env_morphism,
    identity_myc_morphism,
    identity_rule,
    myc_distance,
    transport_myc,
)
from mycocat.errors import (
    CompositionError,
    ConstraintError,
    ParameterError,
    PreconditionError,
    ShapeError,
)
from mycocat.graphs import (
    AttributedGraph,
    Cospan,
    GraphMorphism,
    identity_morphism,
    verify_pushout_universal_property,
    are_isomorphic,
    pushout_along_monos,
)
from conftest import (
    env_oracle,
    make_random_graph,
    make_random_mono_cospan,
    make_random_morphism,
    myc_oracle,
)


def reference_violation(rho, phi, chi):
    """The admissibility rule as a plain loop over the mappings in their
    order: the reference that ``EnvObject`` and ``EnvBatch`` are compared
    against. A message naming the first violated bound, or None."""
    for v, r in rho.items():
        if not -_BOUND_SLACK <= r < math.inf:
            what = "negative" if r < 0 else "not a number" if math.isnan(r) else "infinite"
            return f"rho at node {v!r} is {what} ({r})"
    total = 0.0
    for r in rho.values():
        total += r
    if total > chi.budget + _BOUND_SLACK:
        return f"total resource {total} exceeds budget {chi.budget}"
    for v, vec in phi.items():
        for ch, x in enumerate(vec):
            lo, hi = chi.phi_bounds[ch]
            where = f"phi channel {ch} at node {v!r} is {x}"
            if not lo - _BOUND_SLACK <= x <= hi + _BOUND_SLACK:
                return f"{where}, outside bounds [{lo}, {hi}]"
            if not math.isfinite(x):
                return f"{where}, not a finite number"
    return None


def row_maps(graph, cells):
    """The rho and phi mappings of one batch row, in node order."""
    rho = {v: c[0] for v, c in zip(graph.nodes, cells)}
    phi = {v: tuple(c[1:]) for v, c in zip(graph.nodes, cells)}
    return rho, phi


@pytest.fixture
def violation_checks(monkeypatch):
    """The arguments of every ``_first_violation`` call, as they happen."""
    calls = []
    first_violation = envmyc._first_violation

    def counted(*args):
        calls.append(args)
        return first_violation(*args)

    monkeypatch.setattr(envmyc, "_first_violation", counted)
    return calls


def square_env(k=2, phi_hi=1.0, budget=10.0):
    g = AttributedGraph(
        ("n0", "n1", "n2", "n3"),
        (
            ("e0", ("n0", "n1")),
            ("e1", ("n1", "n2")),
            ("e2", ("n2", "n3")),
            ("e3", ("n3", "n0")),
        ),
    )
    chi = Constraints(phi_bounds=tuple((0.0, phi_hi) for _ in range(k)), budget=budget)
    rho = {v: 1.0 for v in g.nodes}
    phi = {v: (0.2,) * k for v in g.nodes}
    return EnvObject(g, rho, phi, chi)


class TestEnvObjects:
    def test_fields_must_cover_nodes(self):
        g = AttributedGraph(("a", "b"), (("e", ("a", "b")),))
        with pytest.raises(ShapeError):
            EnvObject(g, {"a": 1.0}, {"a": (0.0,), "b": (0.0,)}, Constraints())

    def test_budget_enforced_at_construction(self):
        g = AttributedGraph(("a",), ())
        with pytest.raises(ConstraintError):
            EnvObject(g, {"a": 5.0}, {"a": (0.0,)}, Constraints(budget=1.0))

    def test_admissibility_total_adds_left_to_right(self):
        # 1e16 + 2 would exceed the budget of 1e16
        rho = {"a": 1e16, "b": 1.0, "c": 1.0}
        phi = {v: (0.0,) for v in rho}
        chi = Constraints(budget=1e16)
        assert reference_violation(rho, phi, chi) is None
        EnvObject(AttributedGraph(tuple(rho), ()), rho, phi, chi)

    def test_nan_budget_is_refused(self):
        # nan < 0 is false, and no total exceeds a NaN budget
        with pytest.raises(ParameterError, match=r"^budget: must be a number, got nan$"):
            Constraints(budget=math.nan)
        with pytest.raises(ParameterError, match=r"^budget: must be a number, got nan$"):
            Constraints.from_json({"budget": math.nan})

    @pytest.mark.parametrize("kwargs, name", [
        ({"humidity": (math.nan, 1.0)}, "humidity"),
        ({"temperature": (0.0, math.nan)}, "temperature"),
        ({"phi_bounds": ((0.0, 1.0), (math.nan, 1.0))}, r"phi_bounds\[1\]"),
    ], ids=["humidity", "temperature", "phi_bounds"])
    def test_nan_interval_bound_is_refused(self, kwargs, name):
        # a NaN bound compares false, so it would admit phi -50.0
        with pytest.raises(ParameterError, match=rf"^{name}: bounds must be numbers, got \["):
            Constraints(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"budget": True}, "budget"),
        ({"budget": "5"}, "budget"),
        ({"humidity": (False, True)}, "humidity"),
        ({"humidity": (0, 1, 2)}, "humidity"),
        ({"phi_bounds": ((0, "a"),)}, "phi_bounds[0]"),
        ({"phi_bounds": (1.0,)}, "phi_bounds[0]"),
    ], ids=["bool-budget", "string-budget", "bool-bounds", "three-bounds", "string-bound",
            "number-for-a-pair"])
    def test_constraints_read_their_numbers_when_built(self, kwargs, field):
        # a bool budget or bound was stored as it was; the rest raised a
        # bare ValueError or TypeError
        with pytest.raises(ShapeError, match=rf"^{re.escape(field)}: must be a "):
            Constraints(**kwargs)

    def test_constraints_store_tuples_of_floats(self):
        chi = Constraints(humidity=[0, 1], phi_bounds=[[0, np.float64(1.0)]], budget=2)
        assert chi == Constraints(humidity=(0.0, 1.0), phi_bounds=((0.0, 1.0),), budget=2.0)
        assert type(chi.humidity) is tuple and type(chi.phi_bounds[0]) is tuple
        assert all(type(x) is float for x in (*chi.humidity, *chi.phi_bounds[0], chi.budget))

    @pytest.mark.parametrize("cells, budget, phi_hi, message", [
        # a NaN rho comes before the budget, which it would make NaN
        ([(1.0, 0.5), (math.nan, 0.5)], 2.0, 1.0, "rho at node 'b' is not a number (nan)"),
        ([(-1.0, 0.5), (math.nan, 0.5)], 2.0, 1.0, "rho at node 'a' is negative (-1.0)"),
        ([(1.0, math.nan), (1.0, 0.5)], 2.0, 1.0,
         "phi channel 0 at node 'a' is nan, outside bounds [0.0, 1.0]"),
        ([(5.0, math.nan), (1.0, 0.5)], 2.0, 1.0, "total resource 6.0 exceeds budget 2.0"),
        # an infinite value is refused under an infinite budget or bound too
        ([(1.0, 0.5), (math.inf, 0.5)], math.inf, 1.0, "rho at node 'b' is infinite (inf)"),
        ([(1.0, 0.5), (1.0, math.inf)], 2.0, math.inf,
         "phi channel 0 at node 'b' is inf, not a finite number"),
    ], ids=["nan-rho", "negative-rho-first", "nan-phi", "budget-before-phi", "infinite-rho",
            "infinite-phi"])
    def test_nan_field_value_is_a_violation(self, cells, budget, phi_hi, message):
        graph = AttributedGraph(("a", "b"), (("e", ("a", "b")),))
        chi = Constraints(phi_bounds=((0.0, phi_hi),), budget=budget)
        rho, phi = row_maps(graph, cells)
        assert reference_violation(rho, phi, chi) == message
        with pytest.raises(ConstraintError) as exc:
            EnvObject(graph, rho, phi, chi)
        assert str(exc.value) == message
        with pytest.raises(ConstraintError) as exc:
            EnvBatch(graph, chi, [[(0.5, 0.5), (0.5, 0.5)], cells])
        assert str(exc.value) == message

    def test_fields_are_stored_and_checked_in_node_order(self):
        graph = AttributedGraph(("a", "b", "c"), (("e", ("a", "b")), ("f", ("b", "c"))))
        chi = Constraints(phi_bounds=((0.0, 1.0),), budget=10.0)
        rho = {"c": -1.0, "a": 1.0, "b": -2.0}
        phi = {"b": (0.5,), "c": (0.5,), "a": (0.5,)}
        in_order = ({v: rho[v] for v in graph.nodes}, {v: phi[v] for v in graph.nodes})
        message = "rho at node 'b' is negative (-2.0)"
        assert reference_violation(*in_order, chi) == message
        assert reference_violation(rho, phi, chi) == "rho at node 'c' is negative (-1.0)"
        with pytest.raises(ConstraintError) as exc:
            EnvObject(graph, rho, phi, chi)
        assert str(exc.value) == message
        env = EnvObject(graph, {**rho, "b": 2.0, "c": 3.0}, phi, chi)
        assert list(env.rho) == list(env.phi) == list(graph.nodes)
        assert list(env.to_json()["rho"]) == ["a", "b", "c"]

    def test_json_roundtrip(self):
        e = square_env()
        assert EnvObject.from_json(e.to_json()) == e

    def test_the_checked_row_is_kept_read_only_and_is_not_a_field(self):
        graph = AttributedGraph(("a", "b", "c"), (("e", ("a", "b")),))
        chi = Constraints(phi_bounds=((0.0, 1.0), (-1.0, 1.0)), budget=10.0)
        rho = {"c": 3.0, "a": 1.0, "b": 2.0}
        phi = {"b": (0.2, -0.2), "a": (0.1, -0.1), "c": (0.3, -0.3)}
        e = EnvObject(graph, rho, phi, chi)
        expected = [(1.0, 0.1, -0.1), (2.0, 0.2, -0.2), (3.0, 0.3, -0.3)]
        assert e._row.dtype == np.float64
        assert e._row.tobytes() == np.array(expected).tobytes()
        with pytest.raises(ValueError):
            e._row[0, 0] = 5.0
        assert "_row" not in e._fields and "_row" not in repr(e)
        assert "_row" not in e.to_json()
        moved = e.replace(rho={**rho, "a": 0.5})
        assert moved != e and moved._row[0, 0] == 0.5 and e._row[0, 0] == 1.0
        assert EnvObject.from_json(e.to_json())._row.tobytes() == e._row.tobytes()
        empty = EnvObject(AttributedGraph((), ()), {}, {}, chi)
        assert empty._row.shape == (0, 3)


def per_channel_transport(e, f, kinds):
    """The per-channel dict transport: each field as its own node dict,
    summed over each fiber of the node map in node order, then, by the kind
    of its rule in ``kinds`` (rho first), left as it is, added to or
    scaled; the phi tuples rebuilt channel by channel. The oracle of
    :func:`apply_env_morphism`."""
    def moved(values, rule, kind):
        pushed = {w: 0.0 for w in f.fg.target.nodes}
        for v, x in values.items():
            pushed[f.fg.node_map[v]] += x
        if kind == "add":
            for w, d in rule.delta.items():
                pushed[w] += d
        elif kind == "rescale":
            pushed = {w: x * rule.factor for w, x in pushed.items()}
        return pushed

    rho = moved(e.rho, f.rho_rule, kinds[0])
    per_channel = [
        moved({v: vec[ch] for v, vec in e.phi.items()}, rule, kind)
        for ch, (rule, kind) in enumerate(zip(f.phi_rules, kinds[1:]))
    ]
    phi = {
        w: tuple(per_channel[ch][w] for ch in range(len(per_channel)))
        for w in f.fg.target.nodes
    }
    return rho, phi


def random_env_morphism(rng, e, fg):
    """A morphism along ``fg`` with a random rule per field: pushforward,
    a nonnegative add on random target nodes, or a rescale; and the kind
    drawn for each field, rho first."""
    kinds = []

    def rule():
        kind = rng.choice(("pushforward", "add", "rescale"))
        kinds.append(kind)
        if kind == "add":
            nodes = rng.sample(fg.target.nodes, rng.randint(0, len(fg.target.nodes)))
            return FieldRule(delta={w: rng.uniform(0.0, 0.5) for w in nodes})
        factor = rng.uniform(0.5, 1.5)  # a pushforward draws one too, and drops it
        return FieldRule(factor=factor) if kind == "rescale" else FieldRule()

    return EnvMorphism(fg, rule(), tuple(rule() for _ in range(e.chi.channels))), kinds


class TestApplyEnvMorphism:
    def test_transport_matches_the_per_channel_oracle_bit_for_bit(self):
        rng = random.Random(3201)
        done = 0
        while done < 300:
            graph = make_random_graph(rng, max_nodes=5)
            if rng.random() < 0.5:
                fg = random_quotient(rng, graph)  # merging and surjective
            else:
                fg = make_random_morphism(rng, graph, make_random_graph(rng, max_nodes=4))
                if fg is None:
                    continue
            k = rng.randint(0, 3)
            chi = Constraints(phi_bounds=((-100.0, 100.0),) * k, budget=math.inf)
            e = EnvObject(
                graph,
                {v: rng.uniform(0.0, 1.0) for v in graph.nodes},
                {v: tuple(rng.uniform(-1.0, 1.0) for _ in range(k)) for v in graph.nodes},
                chi,
            )
            f, kinds = random_env_morphism(rng, e, fg)
            out = apply_env_morphism(e, f)
            rho, phi = per_channel_transport(e, f, kinds)
            target = fg.target.nodes
            assert list(out.rho) == list(out.phi) == list(target)
            oracle = np.array([(rho[w], *phi[w]) for w in target]).reshape(len(target), 1 + k)
            assert bits(out) == oracle.tobytes()
            done += 1

    def test_identity_returns_equal_object(self):
        e = square_env()
        assert apply_env_morphism(e, identity_env_morphism(e)) == e

    def test_pointwise_add_pulse(self):
        e = square_env(k=2)
        f = EnvMorphism(
            fg=identity_morphism(e.graph),
            rho_rule=identity_rule(),
            phi_rules=(
                identity_rule(),
                FieldRule(delta={"n1": 0.5}),
            ),
        )
        out = apply_env_morphism(e, f)
        assert out.phi["n1"] == pytest.approx((0.2, 0.7))
        assert out.phi["n0"] == pytest.approx((0.2, 0.2))
        assert out.rho == e.rho

    def test_pulse_beyond_bound_raises_named_error(self):
        e = square_env(k=1, phi_hi=1.0)
        f = EnvMorphism(
            fg=identity_morphism(e.graph),
            rho_rule=identity_rule(),
            phi_rules=(FieldRule(delta={"n0": 0.9}),),
        )
        with pytest.raises(ConstraintError, match="channel 0"):
            apply_env_morphism(e, f)

    def test_admissibility_is_checked_once_per_apply(self, violation_checks):
        e = square_env(k=2)
        violation_checks.clear()
        apply_env_morphism(e, identity_env_morphism(e))
        assert len(violation_checks) == 1

    def test_pushforward_conserves_total_resource(self):
        e = square_env()
        collapse_target = AttributedGraph(("m",), ())
        fg = GraphMorphism(
            AttributedGraph(e.graph.nodes, ()),  # forget edges first
            collapse_target,
            {v: "m" for v in e.graph.nodes},
            {},
        )
        e_no_edges = EnvObject(
            AttributedGraph(e.graph.nodes, ()), e.rho, e.phi, e.chi
        )
        out = apply_env_morphism(
            e_no_edges,
            EnvMorphism(fg, identity_rule(), (identity_rule(), identity_rule())),
        )
        assert out.rho["m"] == pytest.approx(sum(e.rho.values()))

    def test_tightening_chi_applies(self):
        e = square_env(k=1)
        tighter = Constraints(phi_bounds=((0.0, 0.5),), budget=10.0)
        f = EnvMorphism(
            fg=identity_morphism(e.graph),
            rho_rule=identity_rule(),
            phi_rules=(identity_rule(),),
            chi_map=tighter,
        )
        assert apply_env_morphism(e, f).chi == tighter

    def test_loosening_chi_rejected(self):
        e = square_env(k=1)
        looser = Constraints(phi_bounds=((0.0, 2.0),), budget=10.0)
        f = EnvMorphism(
            fg=identity_morphism(e.graph),
            rho_rule=identity_rule(),
            phi_rules=(identity_rule(),),
            chi_map=looser,
        )
        with pytest.raises(ConstraintError):
            apply_env_morphism(e, f)


class TestComposeEnvMorphisms:
    def test_two_adds_sum(self):
        e = square_env(k=1)
        add = lambda d: EnvMorphism(
            identity_morphism(e.graph),
            identity_rule(),
            (FieldRule(delta={"n0": d}),),
        )
        comp = compose_env_morphisms(add(0.2), add(0.3))
        assert comp.phi_rules[0].delta["n0"] == pytest.approx(0.5)

    def test_rescale_then_inverse_is_identity_on_fields(self):
        e = square_env(k=1)
        scale = lambda c: EnvMorphism(
            identity_morphism(e.graph),
            FieldRule(factor=c),
            (identity_rule(),),
        )
        comp = compose_env_morphisms(scale(2.0), scale(0.5))
        out = apply_env_morphism(e, comp)
        assert out.rho == pytest.approx(e.rho)

    def test_mixed_add_and_rescale_compose(self):
        # in either order, the composite applied equals f then g
        e = square_env(k=1)
        add = EnvMorphism(
            identity_morphism(e.graph),
            FieldRule(delta={"n0": 0.1}),
            (identity_rule(),),
        )
        rescale = EnvMorphism(
            identity_morphism(e.graph),
            FieldRule(factor=2.0),
            (identity_rule(),),
        )
        for f, g in ((add, rescale), (rescale, add)):
            sequential = apply_env_morphism(apply_env_morphism(e, f), g)
            composed = apply_env_morphism(e, compose_env_morphisms(f, g))
            assert composed.rho == pytest.approx(sequential.rho)
            assert composed.rho != e.rho

    @staticmethod
    def bounding(e, hi):
        return EnvMorphism(
            identity_morphism(e.graph),
            identity_rule(),
            (identity_rule(),),
            chi_map=Constraints(phi_bounds=((0.0, hi),), budget=e.chi.budget),
        )

    def test_a_loosening_constraint_map_is_refused(self):
        # applying f then g raises, so no composite may apply
        e = square_env(k=1)
        f, g = self.bounding(e, 0.5), self.bounding(e, 0.8)
        with pytest.raises(ConstraintError):
            apply_env_morphism(apply_env_morphism(e, f), g)
        with pytest.raises(CompositionError, match="compose only when they are equal"):
            compose_env_morphisms(f, g)

    def test_a_tightening_constraint_map_composes(self):
        # with an equal map the composite applies exactly where f then g does
        e = square_env(k=1)
        f = self.bounding(e, 0.5)
        sequential = apply_env_morphism(apply_env_morphism(e, f), f)
        assert apply_env_morphism(e, compose_env_morphisms(f, f)) == sequential
        # a map that tightens further is a second check, which one map
        # cannot carry
        g = self.bounding(e, 0.4)
        apply_env_morphism(apply_env_morphism(e, f), g)
        with pytest.raises(CompositionError, match="compose only when they are equal"):
            compose_env_morphisms(f, g)

    def test_two_different_constraint_maps_are_refused(self):
        # f's map loosens the source's bounds, so f then g raises; a
        # composite carrying g's map alone would apply
        e = square_env(k=1, phi_hi=0.5)
        f, g = self.bounding(e, 0.8), self.bounding(e, 0.4)
        with pytest.raises(ConstraintError):
            apply_env_morphism(apply_env_morphism(e, f), g)
        with pytest.raises(CompositionError, match="compose only when they are equal"):
            compose_env_morphisms(f, g)

    @pytest.mark.parametrize("unknown", ["first", "second"])
    def test_a_delta_outside_its_target_is_refused(self, unknown):
        e = square_env(k=1)

        def add(node):
            rule = FieldRule(delta={node: 0.1})
            return EnvMorphism(identity_morphism(e.graph), rule, (identity_rule(),))

        f, g = (add("zzz"), add("n0")) if unknown == "first" else (add("n0"), add("zzz"))
        message = "^delta names unknown target node 'zzz'$"
        with pytest.raises(ParameterError, match=message):
            apply_env_morphism(e, f if unknown == "first" else g)
        with pytest.raises(ParameterError, match=message):
            compose_env_morphisms(f, g)

    def test_random_chains_match_sequential_application(self):
        # composed-then-applied equals applied-sequentially (oracle)
        rng = random.Random(31)
        e0 = square_env(k=2, phi_hi=100.0, budget=1e6)

        def random_morphism(kind):
            def mk_rule():
                pick = rng.random()
                if pick < 0.3:
                    return identity_rule()
                if kind == "add" or (kind == "mixed" and pick < 0.65):
                    return FieldRule(
                        delta={rng.choice(e0.graph.nodes): rng.uniform(-0.05, 0.2)},
                    )
                return FieldRule(factor=rng.uniform(0.5, 1.5))

            return EnvMorphism(
                identity_morphism(e0.graph),
                mk_rule(),
                (mk_rule(), mk_rule()),
            )

        for _ in range(20):
            kind = rng.choice(["add", "rescale", "mixed"])
            chain = [random_morphism(kind) for _ in range(3)]
            sequential = e0
            for f in chain:
                sequential = apply_env_morphism(sequential, f)
            left_assoc = compose_env_morphisms(
                compose_env_morphisms(chain[0], chain[1]), chain[2]
            )
            right_assoc = compose_env_morphisms(
                chain[0], compose_env_morphisms(chain[1], chain[2])
            )
            for composed in (left_assoc, right_assoc):
                via_composite = apply_env_morphism(e0, composed)
                assert via_composite.rho == pytest.approx(sequential.rho)
                for v in e0.graph.nodes:
                    assert via_composite.phi[v] == pytest.approx(sequential.phi[v])

    def test_fuzzed_outputs_always_admissible(self):
        # pulses straddling the bound either raise a named constraint error
        # or return an admissible object; nothing in between
        rng = random.Random(97)
        e0 = square_env(k=1, phi_hi=1.0, budget=10.0)
        raised = accepted = 0
        for _ in range(200):
            delta = rng.uniform(0.7, 0.9)  # initial phi is 0.2, bound 1.0
            node = rng.choice(e0.graph.nodes)
            f = EnvMorphism(
                identity_morphism(e0.graph),
                identity_rule(),
                (FieldRule(delta={node: delta}),),
            )
            try:
                out = apply_env_morphism(e0, f)
            except ConstraintError:
                raised += 1
                continue
            accepted += 1
            assert reference_violation(out.rho, out.phi, out.chi) is None
        assert raised > 0 and accepted > 0


def single_node_myc(features, name="v"):
    g = AttributedGraph((name,), ())
    return MycObject(g, {}, {name: features})


def path_myc(values, sigma=1.0):
    n = len(values)
    g = AttributedGraph(
        tuple(f"v{i}" for i in range(n)),
        tuple((f"e{i}", (f"v{i}", f"v{i+1}")) for i in range(n - 1)),
    )
    return MycObject(
        g,
        {e: sigma for e in g.edge_ids},
        {f"v{i}": values[i] for i in range(n)},
    )


@pytest.mark.parametrize("kwargs, field", [
    ({"factor": "2"}, "factor"),
    ({"factor": True}, "factor"),
    ({"factor": None}, "factor"),
    ({"delta": {"a": "x"}}, "delta.a"),
    ({"delta": {"a": 0.5, "b": False}}, "delta.b"),
], ids=["string-factor", "bool-factor", "none-factor", "string-delta", "bool-delta"])
def test_field_rule_numbers_are_read_when_built(kwargs, field):
    # a bool factor would scale by 1 and a string would raise TypeError late
    with pytest.raises(ShapeError, match=rf"^{re.escape(field)}: must be a number, got "):
        FieldRule(**kwargs)


def test_field_rule_apply_refuses_a_value_outside_the_source():
    fg = identity_morphism(AttributedGraph(("a", "b"), ()))
    with pytest.raises(ParameterError, match="^values name unknown source node 'zzz'$"):
        FieldRule().apply({"a": 1.0, "zzz": 1.0, "yyy": 2.0}, fg)


def test_field_rule_is_one_affine_rule():
    # x -> factor * f_*(x) + delta, whichever parameters are given
    fg = GraphMorphism(
        AttributedGraph(("a", "b"), ()), AttributedGraph(("m", "n"), ()),
        {"a": "m", "b": "m"}, {},
    )
    values = {"a": 1.0, "b": 2.0}
    assert FieldRule() == identity_rule() and FieldRule().delta == {}
    assert FieldRule().apply(values, fg) == {"m": 3.0, "n": 0.0}
    assert FieldRule(factor=2.0).apply(values, fg) == {"m": 6.0, "n": 0.0}
    assert FieldRule(delta={"n": 0.5}).apply(values, fg) == {"m": 3.0, "n": 0.5}
    both = FieldRule(delta={"m": 0.5}, factor=3.0)
    assert both.apply(values, fg) == {"m": 9.5, "n": 0.0}


@pytest.mark.parametrize("build, field", [
    (lambda g: EnvObject(g, {"a": "1.5"}, {"a": ()}, Constraints(phi_bounds=())), "rho.a"),
    (lambda g: EnvObject(g, {"a": True}, {"a": ()}, Constraints(phi_bounds=())), "rho.a"),
    (lambda g: EnvObject(g, {"a": "x"}, {"a": ()}, Constraints(phi_bounds=())), "rho.a"),
    (lambda g: EnvObject(g, {"a": 1.0}, {"a": ("0.5",)}, Constraints()), "phi.a[0]"),
    (lambda g: MycObject(g, {"e": True}, {"a": (0.0,)}), "sigma.e"),
    (lambda g: MycObject(g, {"e": 1.0}, {"a": ("3",)}), "omega.a[0]"),
    (lambda g: MycObject(g, {"e": 1.0}, {"a": (1.0, False)}), "omega.a[1]"),
], ids=["string-rho", "bool-rho", "word-rho", "string-phi", "bool-sigma", "string-omega",
        "bool-omega"])
def test_state_numbers_are_read_as_the_wire_reads_them(build, field):
    # a string or bool was coerced by float() (or raised a bare ValueError)
    with pytest.raises(ShapeError, match=rf"^{re.escape(field)}: must be a number, got "):
        build(AttributedGraph(("a",), (("e", ("a", "a")),)))


@pytest.mark.parametrize("build, message", [
    (lambda g: EnvObject(g, {"a": 1.0}, {"a": 0.5}, Constraints()),
     "phi.a: must be a list of numbers, got 0.5"),
    (lambda g: EnvObject(g, {"a": 1.0}, {"a": "0"}, Constraints()),
     "phi.a: must be a list of numbers, got '0'"),
    (lambda g: EnvObject(g, {"a": 1.0}, {"a": np.array([0.5])}, Constraints()),
     "phi.a: must be a list of numbers, got array([0.5])"),
    (lambda g: MycObject(g, {"e": 1.0}, {"a": 2.0}),
     "omega.a: must be a list of numbers, got 2.0"),
    (lambda g: MycObject(g, {"e": 1.0}, {"a": "12"}),
     "omega.a: must be a list of numbers, got '12'"),
    (lambda g: MycObject(g, {"e": 1.0}, {"a": np.array([2.0])}),
     "omega.a: must be a list of numbers, got array([2.])"),
], ids=["scalar-phi", "string-phi", "array-phi", "scalar-omega", "string-omega", "array-omega"])
def test_state_vectors_are_read_as_the_wire_reads_them(build, message):
    # a scalar raised a bare TypeError and a string was read character by
    # character; a vector is a list or tuple, as on the wire
    with pytest.raises(ShapeError) as exc:
        build(AttributedGraph(("a",), (("e", ("a", "a")),)))
    assert str(exc.value) == message


def test_state_numbers_keep_their_bits():
    g = AttributedGraph(("a", "b"), (("e", ("a", "b")),))
    x = np.float64(0.1) * 3
    env = EnvObject(g, {"a": x, "b": 1}, {"a": (x,), "b": (np.float32(0.5),)}, Constraints())
    net = MycObject(g, {"e": x}, {"a": (x,), "b": (2,)})
    for value in (env.rho["a"], env.phi["a"][0], net.sigma["e"], net.omega["a"][0]):
        assert type(value) is float and value == x
    assert env.rho["b"] == net.omega["b"][0] - 1.0 == 1.0 and env.phi["b"] == (0.5,)


def test_field_rule_numbers_are_floats():
    rule = FieldRule(delta={"a": 1, "b": np.float64(0.5)}, factor=2)
    assert rule.factor == 2.0 and type(rule.factor) is float
    assert rule.delta == {"a": 1.0, "b": 0.5}
    assert all(type(d) is float for d in rule.delta.values())


class TestMycDistance:
    def test_self_distance_zero(self):
        m = path_myc([(1.0, 2.0), (3.0, 4.0)])
        assert myc_distance(m, m) == 0.0

    def test_hand_computed_feature_distance(self):
        m1 = single_node_myc((1.0, 0.0, 0.0))
        m2 = single_node_myc((0.0, 1.0, 0.0))
        assert myc_distance(m1, m2) == pytest.approx(2.0)

    def test_negative_weights_rejected(self):
        m = single_node_myc((1.0,))
        with pytest.raises(ParameterError):
            myc_distance(m, m, DistanceWeights(-1.0, 1.0, 1.0))

    def test_nan_weight_rejected(self):
        with pytest.raises(ParameterError):
            DistanceWeights(1.0, float("nan"), 1.0)

    def test_infinite_weight_rejected(self):
        # inf * 0.0 is NaN: an infinite weight makes even a self-distance NaN
        with pytest.raises(ParameterError, match="distance weights must be finite"):
            DistanceWeights(1.0, math.inf, 1.0)

    def test_symmetry_random(self, nprng):
        for _ in range(50):
            vals1 = [tuple(nprng.normal(size=3)) for _ in range(3)]
            vals2 = [tuple(nprng.normal(size=3)) for _ in range(3)]
            m1, m2 = path_myc(vals1), path_myc(vals2)
            assert myc_distance(m1, m2) == pytest.approx(myc_distance(m2, m1))

    def test_triangle_inequality_random(self, nprng):
        for _ in range(100):
            ms = [
                path_myc(
                    [tuple(nprng.normal(size=2)) for _ in range(3)],
                    sigma=float(abs(nprng.normal())),
                )
                for _ in range(3)
            ]
            d01 = myc_distance(ms[0], ms[1])
            d12 = myc_distance(ms[1], ms[2])
            d02 = myc_distance(ms[0], ms[2])
            assert min(d01, d12, d02) >= 0.0
            assert d02 <= d01 + d12 + 1e-9

    def test_features_add_left_to_right(self):
        # Compensated summation (builtin sum from Python 3.12 on) would give
        # 1e16 + 2 here; every supported interpreter must give 1e16.
        m1 = single_node_myc((1e16, 1.0, 1.0))
        m2 = single_node_myc((0.0, 0.0, 0.0))
        assert myc_distance(m1, m2) == 1e16
        assert myc_distance(m2, m1) == 1e16

    def test_node_strength_adds_left_to_right(self):
        g = AttributedGraph(
            ("c", "a", "b", "d"),
            (("e0", ("c", "a")), ("e1", ("c", "b")), ("e2", ("c", "d"))),
        )
        m = MycObject(g, {"e0": 1e16, "e1": 1.0, "e2": 1.0}, {v: (0.0,) for v in g.nodes})
        assert m.node_strength("c") == 1e16

    def test_structural_mismatch_counts(self):
        m1 = path_myc([(0.0,), (0.0,)])
        m2 = single_node_myc((0.0,), name="v0")
        # one node and one edge differ (2), plus the unmatched edge's sigma (1)
        assert myc_distance(m1, m2) == pytest.approx(3.0)


def shared_node_fusion(sig_b=1.0, sig_c=1.0, omega_mid=(0.0, 0.0, 0.0)):
    a = MycObject(AttributedGraph(("a",), ()), {}, {"a": omega_mid})
    gb = AttributedGraph(("a", "b"), (("eb", ("a", "b")),))
    gc = AttributedGraph(("a", "c"), (("ec", ("a", "c")),))
    b = MycObject(gb, {"eb": sig_b}, {"a": omega_mid, "b": (1.0, 1.0, 1.0)})
    c = MycObject(gc, {"ec": sig_c}, {"a": omega_mid, "c": (2.0, 2.0, 2.0)})
    m1 = MycMorphism(a, b, GraphMorphism(a.graph, gb, {"a": "a"}, {}))
    m2 = MycMorphism(a, c, GraphMorphism(a.graph, gc, {"a": "a"}, {}))
    return a, m1, m2


class TestAnastomosis:
    def test_star_fusion_preserves_edge_weights(self):
        a, m1, m2 = shared_node_fusion(sig_b=1.0, sig_c=1.0)
        fused, into_b, into_c = anastomosis_with_injections(a, m1, m2)
        assert len(fused.graph.nodes) == 3
        assert sorted(fused.sigma.values()) == [1.0, 1.0]
        assert fused.graph.is_connected()
        assert into_b.target == fused and into_c.target == fused

    def test_identified_edge_sigma_sums(self):
        ga = AttributedGraph(("a0", "a1"), (("ae", ("a0", "a1")),))
        a = MycObject(ga, {"ae": 1.0}, {"a0": (0.0,), "a1": (0.0,)})
        gb = AttributedGraph(("a0", "a1"), (("be", ("a0", "a1")),))
        b = MycObject(gb, {"be": 2.0}, {"a0": (0.0,), "a1": (0.0,)})
        gc = AttributedGraph(("a0", "a1"), (("ce", ("a0", "a1")),))
        c = MycObject(gc, {"ce": 3.0}, {"a0": (0.0,), "a1": (0.0,)})
        m1 = MycMorphism(a, b, GraphMorphism(ga, gb, {"a0": "a0", "a1": "a1"}, {"ae": "be"}))
        m2 = MycMorphism(a, c, GraphMorphism(ga, gc, {"a0": "a0", "a1": "a1"}, {"ae": "ce"}))
        fused = anastomosis(a, m1, m2)
        assert list(fused.sigma.values()) == [pytest.approx(5.0)]

    def test_omega_weighted_mean_on_identified_nodes(self):
        # strengths: node a carries sigma 2.0 in B, 3.0 in C
        ga = AttributedGraph(("a",), ())
        a = MycObject(ga, {}, {"a": (0.0,)})
        gb = AttributedGraph(("a", "b"), (("be", ("a", "b")),))
        b = MycObject(gb, {"be": 2.0}, {"a": (1.0,), "b": (0.0,)})
        gc = AttributedGraph(("a", "c"), (("ce", ("a", "c")),))
        c = MycObject(gc, {"ce": 3.0}, {"a": (6.0,), "c": (0.0,)})
        m1 = MycMorphism(a, b, GraphMorphism(ga, gb, {"a": "a"}, {}))
        m2 = MycMorphism(a, c, GraphMorphism(ga, gc, {"a": "a"}, {}))
        fused, into_b, _ = anastomosis_with_injections(a, m1, m2)
        merged_node = into_b.graph_map.node_map["a"]
        # (2*1 + 3*6) / 5 = 4.0
        assert fused.omega[merged_node] == pytest.approx((4.0,))

    def test_zero_strength_falls_back_to_plain_mean(self):
        a, m1, m2 = shared_node_fusion(sig_b=0.0, sig_c=0.0, omega_mid=(0.0, 0.0, 0.0))
        b, c = m1.target, m2.target
        b2 = MycObject(b.graph, b.sigma, {**b.omega, "a": (1.0, 0.0, 0.0)})
        c2 = MycObject(c.graph, c.sigma, {**c.omega, "a": (3.0, 0.0, 0.0)})
        m1b = MycMorphism(a, b2, m1.graph_map)
        m2b = MycMorphism(a, c2, m2.graph_map)
        fused, into_b, _ = anastomosis_with_injections(a, m1b, m2b)
        merged = into_b.graph_map.node_map["a"]
        assert fused.omega[merged][0] == pytest.approx(2.0)

    @pytest.mark.parametrize("b_sigma, c_sigma, feature, message", [
        (1e308, 1e308, 0.0, "sigma at edge 0 must be a finite nonnegative number, got inf"),
        (1.0, 1.0, 1e308, "omega at node 0 feature 0 must be a finite number, got inf"),
    ], ids=["sigma", "omega"])
    def test_overflowing_merge_is_refused(self, b_sigma, c_sigma, feature, message):
        ga = AttributedGraph(("a0", "a1"), (("ae", ("a0", "a1")),))
        a = MycObject(ga, {"ae": 1.0}, {"a0": (0.0,), "a1": (0.0,)})

        def leg(edge, sigma):
            g = AttributedGraph(("a0", "a1"), ((edge, ("a0", "a1")),))
            target = MycObject(g, {edge: sigma}, {"a0": (feature,), "a1": (0.0,)})
            graph_map = GraphMorphism(ga, g, {"a0": "a0", "a1": "a1"}, {"ae": edge})
            return MycMorphism(a, target, graph_map)

        with pytest.raises(ParameterError) as exc:
            anastomosis(a, leg("be", b_sigma), leg("ce", c_sigma))
        assert str(exc.value) == message

    def test_non_mono_leg_rejected(self):
        ga = AttributedGraph(("a", "a2"), (("ae", ("a", "a2")),))
        a = MycObject(ga, {"ae": 1.0}, {"a": (0.0,), "a2": (0.0,)})
        gb = AttributedGraph(("x",), (("loop", ("x", "x")),))
        b = MycObject(gb, {"loop": 1.0}, {"x": (0.0,)})
        gc = AttributedGraph(("a", "a2"), (("ce", ("a", "a2")),))
        c = MycObject(gc, {"ce": 1.0}, {"a": (0.0,), "a2": (0.0,)})
        collapse = MycMorphism(a, b, GraphMorphism(ga, gb, {"a": "x", "a2": "x"}, {"ae": "loop"}))
        embed = MycMorphism(a, c, GraphMorphism(ga, gc, {"a": "a", "a2": "a2"}, {"ae": "ce"}))
        with pytest.raises(PreconditionError):
            anastomosis(a, collapse, embed)

    def test_matches_identification_class_oracle(self, rng):
        # Build random mono cospans of connected mycelial states and verify
        # merges against brute-force recomputation over identification classes.
        done = 0
        while done < 10:
            cospan = make_random_mono_cospan(rng, max_nodes=4)
            b_graph = cospan.left.target
            c_graph = cospan.right.target
            if not (b_graph.is_connected() and c_graph.is_connected()):
                continue
            if not cospan.apex.nodes:
                continue
            mk = lambda g, offset: MycObject(
                g,
                {e: float(i + offset) for i, e in enumerate(g.edge_ids)},
                {v: (float(i), float(offset)) for i, v in enumerate(g.nodes)},
            )
            a_fields = mk(cospan.apex, 1)
            b = mk(b_graph, 2)
            c = mk(c_graph, 5)
            m1 = MycMorphism(a_fields, b, cospan.left)
            m2 = MycMorphism(a_fields, c, cospan.right)
            fused, into_b, into_c = anastomosis_with_injections(a_fields, m1, m2)

            # underlying graph equals plain graph pushout
            expected_graph, _, _ = pushout_along_monos(cospan)
            assert fused.graph == expected_graph

            # brute-force merge recomputation
            for pe in fused.graph.edge_ids:
                srcs = [
                    b.sigma[e] for e in b.graph.edge_ids if into_b.graph_map.edge_map[e] == pe
                ] + [
                    c.sigma[e] for e in c.graph.edge_ids if into_c.graph_map.edge_map[e] == pe
                ]
                expected = sum(srcs) if len(srcs) > 1 else srcs[0]
                assert fused.sigma[pe] == pytest.approx(expected)
            done += 1

    def test_fused_graph_passes_universal_property(self, rng):
        done = 0
        while done < 4:
            cospan = make_random_mono_cospan(rng, max_nodes=3)
            if not cospan.apex.nodes:
                continue
            candidate = pushout_along_monos(cospan)
            assert verify_pushout_universal_property(cospan, candidate, 4)
            done += 1

    def test_symmetry_up_to_isomorphism(self):
        a, m1, m2 = shared_node_fusion(sig_b=2.0, sig_c=3.0)
        f1 = anastomosis(a, m1, m2)
        f2 = anastomosis(a, m2, m1)
        assert are_isomorphic(f1.graph, f2.graph)
        assert sorted(f1.sigma.values()) == sorted(f2.sigma.values())


class TestTransport:
    def test_merge_two_nodes_weighted(self):
        g = AttributedGraph(
            ("x", "y", "z"),
            (("e0", ("x", "y")), ("e1", ("y", "z"))),
        )
        m = MycObject(g, {"e0": 3.0, "e1": 1.0}, {"x": (4.0,), "y": (0.0,), "z": (8.0,)})
        h = AttributedGraph(
            ("xy", "z"), (("loop", ("xy", "xy")), ("e", ("xy", "z")))
        )
        gt = GraphMorphism(
            g, h, {"x": "xy", "y": "xy", "z": "z"}, {"e0": "loop", "e1": "e"}
        )
        out = transport_myc(m, gt)
        assert out.sigma["loop"] == pytest.approx(3.0)
        assert out.sigma["e"] == pytest.approx(1.0)
        # strengths: x -> 3.0, y -> 4.0 ; weighted mean (3*4 + 4*0)/7
        assert out.omega["xy"] == pytest.approx((12.0 / 7.0,))

    def test_a_map_from_another_graph_is_refused(self):
        m = path_myc([(0.0,), (1.0,)])
        other = AttributedGraph(("x",), ())
        with pytest.raises(ShapeError, match="^graph map must start at the source network$"):
            transport_myc(m, identity_morphism(other))

    def test_overflowing_conductivity_sum_is_refused(self):
        g = AttributedGraph(("x", "y"), (("e0", ("x", "y")), ("e1", ("x", "y"))))
        m = MycObject(g, {"e0": 1e308, "e1": 1e308}, {"x": (0.0,), "y": (0.0,)})
        h = AttributedGraph(("x", "y"), (("e", ("x", "y")),))
        gt = GraphMorphism(g, h, {"x": "x", "y": "y"}, {"e0": "e", "e1": "e"})
        with pytest.raises(ParameterError, match="^sigma at edge 'e' must be a finite"):
            transport_myc(m, gt)

    def test_overflowing_feature_merge_is_refused(self):
        g = AttributedGraph(("x", "y"), (("e0", ("x", "y")),))
        m = MycObject(g, {"e0": 1.0}, {"x": (1e308,), "y": (1e308,)})
        h = AttributedGraph(("xy",), (("loop", ("xy", "xy")),))
        gt = GraphMorphism(g, h, {"x": "xy", "y": "xy"}, {"e0": "loop"})
        with pytest.raises(ParameterError) as exc:
            transport_myc(m, gt)
        assert str(exc.value) == "omega at node 'xy' feature 0 must be a finite number, got inf"


# ---------------------------------------------------------------------------
# The one field merge against per-class references
# ---------------------------------------------------------------------------


def reference_strength(m, v):
    """Conductivity of the edges incident to ``v`` (a loop counted once),
    added left to right in edge declaration order."""
    return envmyc.ordered_sum(m.sigma[e] for e, (a, b) in m.graph.edges if v in (a, b))


def reference_fusion(b, c, fused_graph, inj_b, inj_c):
    """Fused ``(sigma, omega)`` class by class: each fused edge or node is
    looked up in B and in C; a pair adds its conductivities, B's first, and
    merges its features B-first by the strength-weighted mean."""
    from_b_edge = {inj_b.edge_map[e]: e for e in b.graph.edge_ids}
    from_c_edge = {inj_c.edge_map[e]: e for e in c.graph.edge_ids}
    sigma = {}
    for pe in fused_graph.edge_ids:
        eb, ec = from_b_edge.get(pe), from_c_edge.get(pe)
        if eb is not None and ec is not None:
            sigma[pe] = b.sigma[eb] + c.sigma[ec]
        else:
            sigma[pe] = b.sigma[eb] if eb is not None else c.sigma[ec]
    from_b_node = {inj_b.node_map[v]: v for v in b.graph.nodes}
    from_c_node = {inj_c.node_map[v]: v for v in c.graph.nodes}
    omega = {}
    for pv in fused_graph.nodes:
        vb, vc = from_b_node.get(pv), from_c_node.get(pv)
        if vb is not None and vc is not None:
            wb, wc = reference_strength(b, vb), reference_strength(c, vc)
            omega[pv] = envmyc._weighted_mean(b.omega[vb], c.omega[vc], wb, wc)
        else:
            omega[pv] = b.omega[vb] if vb is not None else c.omega[vc]
    return sigma, omega


def reference_transport(m, gt):
    """Transported ``(sigma, omega)`` fiber by fiber, in source declaration
    order: conductivities add, features merge pairwise by the
    strength-weighted mean."""
    sigma = {}
    for e in m.graph.edge_ids:
        img = gt.edge_map[e]
        sigma[img] = sigma[img] + m.sigma[e] if img in sigma else m.sigma[e]
    omega, strength = {}, {}
    for v in m.graph.nodes:
        img, w = gt.node_map[v], reference_strength(m, v)
        if img in omega:
            omega[img] = envmyc._weighted_mean(omega[img], m.omega[v], strength[img], w)
            strength[img] = strength[img] + w
        else:
            omega[img], strength[img] = m.omega[v], w
    return sigma, omega


def field_bits(sigma, omega):
    """Both fields with every float as its hex string, keys in order."""
    return (
        [(e, x.hex()) for e, x in sigma.items()],
        [(v, [x.hex() for x in vec]) for v, vec in omega.items()],
    )


def random_fields(rng, graph):
    """Fields on ``graph``: one network in five has only 0.0 conductivities
    (zero-strength nodes); the others mix 0.0, 1e16 and ordinary values."""
    zero = rng.random() < 0.2
    sigma = {
        e: 0.0 if zero else rng.choice((0.0, 1e16, rng.uniform(0.0, 2.0)))
        for e in graph.edge_ids
    }
    omega = {v: (rng.uniform(-1.0, 1.0), rng.choice((0.0, 1e16, -3.5))) for v in graph.nodes}
    return MycObject(graph, sigma, omega)


def looped_mono_cospan(rng):
    """A random mono cospan of connected B and C that also carries self-loops:
    some on apex nodes, glued through both legs, and some on B's and C's own
    nodes, parallel to a glued loop where they share its node."""
    while True:
        cospan = make_random_mono_cospan(rng, max_nodes=5)
        if cospan.left.target.is_connected() and cospan.right.target.is_connected():
            break
    apex_loops = tuple(
        (f"al{i}", (v, v)) for i, v in enumerate(cospan.apex.nodes) if rng.random() < 0.5
    )
    apex = AttributedGraph(cospan.apex.nodes, cospan.apex.edges + apex_loops)
    legs = []
    for leg, tag in ((cospan.left, "b"), (cospan.right, "c")):
        glued = tuple((f"{tag}{e}", (leg.node_map[v],) * 2) for e, (v, _) in apex_loops)
        own = tuple(
            (f"{tag}x{i}", (v, v)) for i, v in enumerate(leg.target.nodes) if rng.random() < 0.4
        )
        target = AttributedGraph(leg.target.nodes, leg.target.edges + glued + own)
        edge_map = {**leg.edge_map, **{e: f"{tag}{e}" for e, _ in apex_loops}}
        legs.append(GraphMorphism(apex, target, leg.node_map, edge_map))
    return Cospan(apex, *legs)


def random_quotient(rng, graph):
    """A surjective, rarely injective graph map out of ``graph``: random
    nodes glued, and half the edges between the same glued ends glued too;
    the target declares its nodes and edges in shuffled order."""
    k = rng.randint(1, len(graph.nodes))
    node_map = {v: f"q{rng.randrange(k)}" for v in graph.nodes}
    edge_map, target_edges, by_ends = {}, [], {}
    for e, (u, v) in graph.edges:
        ends = (node_map[u], node_map[v])
        earlier = by_ends.get(frozenset(ends))
        if earlier is not None and rng.random() < 0.5:
            edge_map[e] = earlier
            continue
        edge_map[e] = f"f{len(target_edges)}"
        by_ends[frozenset(ends)] = edge_map[e]
        target_edges.append((edge_map[e], ends))
    nodes = sorted(set(node_map.values()))
    rng.shuffle(nodes)
    rng.shuffle(target_edges)
    return GraphMorphism(graph, AttributedGraph(nodes, target_edges), node_map, edge_map)


class TestOneMerge:
    def test_fusion_matches_the_class_reference_bit_for_bit(self):
        rng = random.Random(2201)
        done = 0
        while done < 300:
            cospan = looped_mono_cospan(rng)
            if not cospan.apex.is_connected():  # the shared network is a MycObject too
                continue
            graphs = (cospan.apex, cospan.left.target, cospan.right.target)
            a, b, c = (random_fields(rng, g) for g in graphs)
            fused, into_b, into_c = anastomosis_with_injections(
                a, MycMorphism(a, b, cospan.left), MycMorphism(a, c, cospan.right)
            )
            graph, inj_b, inj_c = pushout_along_monos(cospan)
            assert fused.graph == graph
            assert (into_b.graph_map, into_c.graph_map) == (inj_b, inj_c)
            expected = reference_fusion(b, c, graph, inj_b, inj_c)
            assert field_bits(fused.sigma, fused.omega) == field_bits(*expected)
            for m in (b, c, fused):
                assert [m.node_strength(v).hex() for v in m.graph.nodes] == [
                    reference_strength(m, v).hex() for v in m.graph.nodes
                ]
            done += 1

    def test_transport_matches_the_fiber_reference_bit_for_bit(self):
        rng = random.Random(2202)
        glued = 0
        for _ in range(300):
            graph = looped_mono_cospan(rng).left.target
            m = random_fields(rng, graph)
            gt = random_quotient(rng, graph)
            glued += len(gt.target.nodes) < len(graph.nodes)
            out = transport_myc(m, gt)
            sigma, omega = reference_transport(m, gt)
            in_order = (
                {e: sigma[e] for e in gt.target.edge_ids},
                {v: omega[v] for v in gt.target.nodes},
            )
            assert field_bits(out.sigma, out.omega) == field_bits(*in_order)
        assert glued > 100

    def test_reordered_fields_give_the_same_distance_bits(self):
        graph = AttributedGraph(("a", "b", "c"), (("e0", ("a", "b")), ("e1", ("b", "c"))))
        sigma = {"e0": 1.0, "e1": 2.0}
        omega = {"a": (1e16,), "b": (1.0,), "c": (1.0,)}
        m = MycObject(graph, sigma, omega)
        reordered = MycObject(graph, dict(reversed(sigma.items())), dict(reversed(omega.items())))
        zero = MycObject(graph, sigma, {v: (0.0,) for v in graph.nodes})
        assert m == reordered
        assert list(reordered.sigma) == list(graph.edge_ids)
        assert list(reordered.omega) == list(graph.nodes)
        # node order c, b, a would add 1.0 + 1.0 + 1e16 = 1e16 + 2
        assert myc_distance(m, zero) == myc_distance(reordered, zero) == 1e16
        wire = m.to_json()
        wire["omega"] = dict(reversed(wire["omega"].items()))
        assert myc_distance(MycObject.from_json(wire), zero) == 1e16

    def test_first_violation_is_named_in_graph_order(self):
        graph = AttributedGraph(("a", "b"), (("e0", ("a", "b")), ("e1", ("a", "b"))))
        with pytest.raises(ParameterError) as exc:
            MycObject(graph, {"e1": -1.0, "e0": -2.0}, {"a": (0.0,), "b": (0.0,)})
        assert str(exc.value) == "sigma at edge 'e0' must be a finite nonnegative number, got -2.0"
        with pytest.raises(ParameterError) as exc:
            MycObject(graph, {"e0": 1.0, "e1": 1.0}, {"b": (math.nan,), "a": (math.inf,)})
        assert str(exc.value) == "omega at node 'a' feature 0 must be a finite number, got inf"


class TestMycObjectConductivity:
    @pytest.mark.parametrize("x", [math.nan, math.inf, -1.0])
    def test_refused(self, x):
        g = AttributedGraph(("a", "b"), (("e", ("a", "b")),))
        with pytest.raises(ParameterError) as exc:
            MycObject(g, {"e": x}, {"a": (0.0,), "b": (0.0,)})
        assert str(exc.value) == f"sigma at edge 'e' must be a finite nonnegative number, got {x}"


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_feature_is_refused(x):
    g = AttributedGraph(("a", "b"), (("e", ("a", "b")),))
    with pytest.raises(ParameterError) as exc:
        MycObject(g, {"e": 1.0}, {"a": (0.0, 0.0), "b": (0.0, x)})
    assert str(exc.value) == f"omega at node 'b' feature 1 must be a finite number, got {x}"


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
        min_size=1,
        max_size=4,
    )
)
def test_distance_identity_of_indiscernibles(features):
    m = path_myc([tuple(f) for f in features])
    assert myc_distance(m, m) == 0.0


def test_env_distance_basics():
    e1 = square_env()
    e2 = square_env()
    assert env_distance(e1, e2) == 0.0
    bumped = EnvObject(
        e1.graph,
        {**e1.rho, "n0": 1.5},
        e1.phi,
        e1.chi,
    )
    assert env_distance(e1, bumped) == pytest.approx(0.5)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_env_distances_equal_env_distance_bit_for_bit(k):
    # values over six decades on 9 to 12 nodes, so another summation order
    # moves bits; every fourth pair is one environment twice
    rng = np.random.default_rng(40 + k)
    graph = make_random_graph(random.Random(k), max_nodes=12, min_nodes=9)
    chi = Constraints(phi_bounds=((-1e3, 1e3),) * k)
    shape = (2, 20, len(graph.nodes), 1 + k)
    fields = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    fields[..., 0] = np.abs(fields[..., 0])
    fields[1, ::4] = fields[0, ::4]
    firsts, seconds = (EnvBatch(graph, chi, rows) for rows in fields)
    got = envmyc.env_distances(firsts, seconds)
    pairs = [(firsts.env(i), seconds.env(i)) for i in range(20)]
    want = np.array([env_oracle(*pair) for pair in pairs])
    assert got.tobytes() == want.tobytes()
    assert np.array([env_distance(*pair) for pair in pairs]).tobytes() == want.tobytes()
    assert got[::4].tolist() == [0.0] * 5 and (got[1::4] > 0.0).all()


def test_env_distances_overflow_to_inf_as_floats_do():
    # no numpy overflow warning: the tests turn it into an error
    g = AttributedGraph(("a", "b"), ())
    chi = Constraints(phi_bounds=((-1e308, 1e308),))
    e1, e2 = (
        EnvObject(g, {"a": 0.0, "b": 0.0}, {"a": (x,), "b": (x,)}, chi) for x in (1e308, -1e308)
    )
    got = envmyc.env_distances(EnvBatch.from_envs([e1]), EnvBatch.from_envs([e2]))
    assert got.tolist() == [env_distance(e1, e2)] == [math.inf]


def test_env_distances_need_one_graph_and_channel_count():
    e = square_env()
    other = EnvObject(AttributedGraph(("a",), ()), {"a": 0.0}, {"a": (0.0, 0.0)}, e.chi)
    fewer = square_env(k=1)
    for a, b in ((e, other), (e, fewer)):
        with pytest.raises(ParameterError, match="^environment distances need batches"):
            envmyc.env_distances(EnvBatch.from_envs([a]), EnvBatch.from_envs([b]))


def spread(rng, n):
    """``n`` signed floats over 25 decades, so another summation order
    moves the last bits."""
    return tuple(rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-8, 16) for _ in range(n))


def connected_graph(rng):
    while True:
        graph = make_random_graph(rng, max_nodes=6)
        if graph.is_connected():
            return graph


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3))
def test_env_distance_is_the_oracle_on_any_two_environments(seed, k1, k2):
    # two graphs on one id universe and channel counts apart: unmatched
    # nodes, edges and channels count their full norms
    rng = random.Random(seed)

    def env(k):
        graph = make_random_graph(rng, max_nodes=6)
        chi = Constraints(phi_bounds=((-1e17, 1e17),) * k, budget=math.inf)
        rho = {v: abs(spread(rng, 1)[0]) for v in graph.nodes}
        return EnvObject(graph, rho, {v: spread(rng, k) for v in graph.nodes}, chi)

    e1, e2 = env(k1), env(k2)
    for a, b in ((e1, e2), (e2, e1), (e1, e1)):
        assert env_distance(a, b).hex() == env_oracle(a, b).hex()
    assert env_distance(e1, e1) == 0.0


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.integers(0, 3),
    st.builds(DistanceWeights, *[st.sampled_from([0.0, 0.5, 1.0, 3.0])] * 3),
)
def test_myc_distance_is_the_oracle_on_any_two_networks(seed, f1, f2, weights):
    # unmatched nodes and edges (an edge matches by id and endpoints) and
    # feature lengths apart count their full norms
    rng = random.Random(seed)

    def network(features):
        graph = connected_graph(rng)
        sigma = {e: abs(spread(rng, 1)[0]) for e in graph.edge_ids}
        return MycObject(graph, sigma, {v: spread(rng, features) for v in graph.nodes})

    m1, m2 = network(f1), network(f2)
    for a, b in ((m1, m2), (m2, m1), (m1, m1)):
        assert myc_distance(a, b, weights).hex() == myc_oracle(a, b, weights).hex()


def test_a_channel_only_one_environment_has_counts_its_full_norm():
    g = AttributedGraph(("a",), ())
    two = EnvObject(g, {"a": 0.0}, {"a": (0.5, 0.9)}, Constraints(phi_bounds=((0.0, 1.0),) * 2))
    one = EnvObject(g, {"a": 0.0}, {"a": (0.5,)}, Constraints(phi_bounds=((0.0, 1.0),)))
    assert env_distance(two, one) == env_distance(one, two) == 0.9
    assert env_distance(two, one) == env_oracle(two, one)


def test_a_feature_only_one_network_has_counts_its_full_norm():
    longer, shorter = single_node_myc((1.0, 2.0, 3.0)), single_node_myc((1.0, 2.0))
    assert myc_distance(longer, shorter) == myc_distance(shorter, longer) == 3.0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e308])
        | st.floats(allow_nan=True),
        max_size=6,
    )
)
def test_ordered_sums_is_ordered_sum_bit_for_bit(values):
    # signed zeros included: a sum of -0.0 terms is 0.0 from a 0.0 start
    with np.errstate(over="ignore", invalid="ignore"):
        got = envmyc._ordered_sums(np.array([values, values[::-1]], dtype=np.float64))
    assert [x.hex() for x in got.tolist()] == [
        envmyc.ordered_sum(v).hex() for v in (values, values[::-1])
    ]


# ---------------------------------------------------------------------------
# Identity and composition in Myc
# ---------------------------------------------------------------------------


def random_network(rng):
    while True:
        graph = make_random_graph(rng, max_nodes=4)
        if graph.is_connected():
            break
    sigma = {e: rng.uniform(0.0, 2.0) for e in graph.edge_ids}
    omega = {v: (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for v in graph.nodes}
    return MycObject(graph, sigma, omega)


def random_assign(rng, source):
    """A morphism out of ``source`` to a random network along a random graph map."""
    while True:
        target = random_network(rng)
        graph_map = make_random_morphism(rng, source.graph, target.graph)
        if graph_map is not None:
            return MycMorphism(source, target, graph_map)


def random_chain(seed, length=3):
    rng = random.Random(seed)
    chain = [random_assign(rng, random_network(rng))]
    for _ in range(length - 1):
        chain.append(random_assign(rng, chain[-1].target))
    return chain


class TestMycCategory:
    @pytest.mark.parametrize("seed", range(20))
    def test_identity_laws(self, seed):
        (f,) = random_chain(seed, length=1)
        assert compose_myc_morphisms(identity_myc_morphism(f.source), f) == f
        assert compose_myc_morphisms(f, identity_myc_morphism(f.target)) == f
        assert identity_myc_morphism(f.source).is_identity()

    @pytest.mark.parametrize("seed", range(20))
    def test_composition_is_associative(self, seed):
        f, g, h = random_chain(seed)
        left = compose_myc_morphisms(compose_myc_morphisms(f, g), h)
        right = compose_myc_morphisms(f, compose_myc_morphisms(g, h))
        assert left == right
        assert (left.source, left.target) == (f.source, h.target)

    def test_mismatched_pair_is_refused(self):
        f, g, h = random_chain(3)
        assert f.target != h.source
        with pytest.raises(CompositionError):
            compose_myc_morphisms(f, h)


# ---------------------------------------------------------------------------
# Environment batches against the per-object path
# ---------------------------------------------------------------------------

BATCH_BOUNDS = (-1.0, 2.0)
BATCH_VALUES = st.sampled_from([
    0.0, -0.0, 0.5, 1.0, 1e300, -1e300, 5e-324, math.inf, math.nan,
    -_BOUND_SLACK, -2 * _BOUND_SLACK,
    *(b + d for b in BATCH_BOUNDS for d in (-2 * _BOUND_SLACK, -_BOUND_SLACK, 0.0,
                                            _BOUND_SLACK, 2 * _BOUND_SLACK)),
])


@st.composite
def env_rows(draw):
    """(graph, chi, rows): rows of fields, each node's rho then channels."""
    nodes = tuple(f"n{i}" for i in range(draw(st.integers(1, 4))))
    path = tuple((f"e{i}", pair) for i, pair in enumerate(zip(nodes, nodes[1:])))
    graph = AttributedGraph(nodes, path)
    k = draw(st.integers(0, 2))
    value = st.one_of(BATCH_VALUES, st.floats(-3.0, 3.0))
    rows = draw(st.lists(
        st.lists(st.tuples(*[value] * (1 + k)), min_size=len(nodes), max_size=len(nodes)),
        min_size=1, max_size=4,
    ))
    first = 0.0
    for cells in rows[0]:
        first += cells[0]
    budgets = [math.inf, 1e300, 3.0]
    if not math.isnan(first):  # a NaN budget is refused
        budgets += [abs(first), abs(first) + _BOUND_SLACK]
    budget = draw(st.sampled_from(budgets))
    chi = Constraints(phi_bounds=(BATCH_BOUNDS,) * k, budget=budget)
    return graph, chi, rows


def loop_outcome(graph, chi, rows):
    """The envs of a loop over ``EnvObject``s, or the first one's error."""
    envs = []
    for cells in rows:
        rho, phi = row_maps(graph, cells)
        try:
            envs.append(EnvObject(graph, rho, phi, chi))
        except ConstraintError as exc:
            return exc
    return envs


def bits(env):
    return np.array(
        [(env.rho[v], *env.phi[v]) for v in env.graph.nodes], dtype=np.float64
    ).tobytes()


class TestEnvBatch:
    @settings(max_examples=300, deadline=None)
    @given(env_rows())
    def test_validation_and_round_trip_match_env_objects(self, case):
        graph, chi, rows = case
        message = next(
            filter(None, (reference_violation(*row_maps(graph, c), chi) for c in rows)), None
        )
        expected = loop_outcome(graph, chi, rows)
        if message is not None:
            assert isinstance(expected, ConstraintError) and str(expected) == message
            with pytest.raises(ConstraintError) as exc:
                EnvBatch(graph, chi, rows)
            assert str(exc.value) == message
            return
        batch = EnvBatch(graph, chi, rows)
        assert batch.fields.tobytes() == np.array(rows, dtype=np.float64).tobytes()
        again = EnvBatch.from_envs(expected)
        assert again.fields.tobytes() == batch.fields.tobytes()
        for i, env in enumerate(expected):
            assert again.env(i) == env
            assert bits(again.env(i)) == bits(env)

    def test_first_violating_row_decides(self):
        graph = AttributedGraph(("a", "b"), (("e", ("a", "b")),))
        chi = Constraints(phi_bounds=((0.0, 1.0),), budget=2.0)
        rows = [
            [(1.0, 0.5), (1.0, 0.5)],
            [(1.0, 3.0), (-1.0, 0.5)],  # negative rho outranks phi
            [(-5.0, 0.5), (1.0, 0.5)],
        ]
        with pytest.raises(ConstraintError, match=r"^rho at node 'b' is negative \(-1.0\)$"):
            EnvBatch(graph, chi, rows)
        with pytest.raises(ConstraintError, match=r"^total resource 3.0 exceeds budget 2.0$"):
            EnvBatch(graph, chi, [[(1.0, 5.0), (2.0, 0.5)]])  # budget outranks phi
        with pytest.raises(ConstraintError, match=r"^phi channel 0 at node 'a' is 5.0, "):
            EnvBatch(graph, chi, [[(0.0, 5.0), (0.0, 0.5)]])

    def test_fields_are_a_read_only_copy(self):
        graph = AttributedGraph(("a",), ())
        rows = np.zeros((2, 1, 2))
        batch = EnvBatch(graph, Constraints(), rows)
        rows[0, 0, 0] = 1.0
        assert batch.fields[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            batch.fields[0, 0, 0] = 1.0
        assert batch.take([1, 1, 0]).fields.shape == (3, 1, 2)

    def test_shape_must_match_graph_and_channels(self):
        graph = AttributedGraph(("a", "b"), ())
        with pytest.raises(ShapeError):
            EnvBatch(graph, Constraints(), np.zeros((1, 2, 3)))
        with pytest.raises(ShapeError):
            EnvBatch(graph, Constraints(), np.zeros((2, 2)))

    def test_rows_of_checked_environments_are_not_checked_again(self, violation_checks):
        e = square_env()
        envs = [e, EnvObject(e.graph, {**e.rho, "n0": 2.0}, e.phi, e.chi)]
        violation_checks.clear()
        batch = EnvBatch.from_envs(envs)
        batch.take([1, 0, 1])
        assert violation_checks == []
        env = batch.env(1)  # built from the checked row, not checked again
        assert violation_checks == []
        assert env == envs[1] and bits(env) == bits(envs[1])
        assert repr(env.to_json()) == repr(envs[1].to_json())  # plain floats and lists
        assert env._row.tobytes() == envs[1]._row.tobytes()
        with pytest.raises(ValueError):
            env._row[0, 0] = 1.0  # a read-only copy of the batch's row
        assert not np.shares_memory(env._row, batch.fields)

    def test_from_envs_refuses_a_mixed_batch(self):
        e = square_env()
        other_chi = EnvObject(e.graph, e.rho, e.phi, Constraints(
            phi_bounds=e.chi.phi_bounds, budget=e.chi.budget + 1.0
        ))
        g = AttributedGraph(("a",), ())
        other_graph = EnvObject(g, {"a": 0.0}, {"a": (0.0, 0.0)}, e.chi)
        with pytest.raises(ParameterError, match="^environment 2 has other constraints"):
            EnvBatch.from_envs([e, e, other_chi, other_graph])
        with pytest.raises(ParameterError, match="^environment 1 is on another graph"):
            EnvBatch.from_envs([e, other_graph])
        with pytest.raises(ParameterError):
            EnvBatch.from_envs([])
