"""The four benchmark workloads, built from a seed through mycocat's public API.

Each workload builds its inputs once (that is part of set-up), runs one
operation per call of :meth:`op`, checks every output against an oracle
that does not share the code under test, and names the CLI command that
does the same job in a cold process.

Modules are looked up at call time (``experiments.run_worked_example``),
so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

import mycocat.experiments as experiments
import mycocat.graphs as graphs
import mycocat.laws as laws
from mycocat.envmyc import Constraints, EnvObject
from mycocat.programs import InternalState, Program

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An output disagreed with the benchmark's oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Oracles shared by the scan workloads
# ---------------------------------------------------------------------------


def commutator_prediction(species, pulse_p, pulse_q, seed: int) -> float:
    """First-order prefactor of the order asymmetry, ||[X_q, X_p] S0||_1.

    For a drift-free bilinear species a pulse on channel c with amplitude a
    and duration d has generator a*d*A_c; swapping the two pulses moves the
    state by eps^2 [X_q, X_p] S0 + O(eps^3), and the distance of the
    extracted networks is the L1 norm of that move.
    """
    controls = species.dynamics.controls
    x_p = pulse_p.amplitude * pulse_p.duration * np.asarray(controls[pulse_p.channel])
    x_q = pulse_q.amplitude * pulse_q.duration * np.asarray(controls[pulse_q.channel])
    s0 = experiments.initial_state(species.extraction.layout, seed).vector
    return float(np.abs((x_q @ x_p - x_p @ x_q) @ s0).sum())


def check_quadratic(label: str, scan: dict, prediction: float) -> None:
    """Slope 2 +- 0.1, R^2 >= 0.999, exp(intercept) equal to the prediction."""
    slope, r2, intercept = scan["slope"], scan["r_squared"], scan["intercept"]
    expect(slope is not None and abs(slope - 2.0) <= 0.1, f"{label}: slope {slope}")
    expect(r2 >= 0.999, f"{label}: R^2 {r2}")
    rel = abs(math.exp(intercept) - prediction) / prediction
    expect(rel <= 1e-9, f"{label}: prefactor {math.exp(intercept)} vs {prediction}")


def check_rows_csv(path: Path, rows: int) -> None:
    with open(path, encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    expect(table[0] == ["eps", "delta"], f"{path.name}: header {table[0]}")
    expect(len(table) == rows + 1, f"{path.name}: {len(table) - 1} rows")
    for eps, delta in table[1:]:
        float(eps), float(delta)


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# worked_example
# ---------------------------------------------------------------------------


class WorkedExample:
    """The paper's headline: run_worked_example() at the default config."""

    pool = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.config = experiments.WorkedExampleConfig(seed=seed)
        species = experiments.reference_species(
            n_sites=self.config.n_sites,
            channels=self.config.channels,
            features=self.config.features,
        )
        self.prediction = commutator_prediction(
            species, self.config.pulse_p, self.config.pulse_q, seed
        )

    def op(self, i: int):
        return experiments.run_worked_example(self.config)

    def check(self, i: int, result) -> None:
        summary = result.summary_json()
        self._check_summary(summary)

    def _check_summary(self, summary: dict) -> None:
        expect(set(summary["scans"]) == {"amplitude", "duration"}, "scan modes")
        for mode, scan in summary["scans"].items():
            check_quadratic(f"scan[{mode}]", scan, self.prediction)
        for law in summary["laws"]:
            expect(law["verdict"] == "pass", f"{law['law']}: {law['verdict']}")

    def cli_argv(self) -> list[str]:
        return ["worked-example", "--seed", str(self.seed)]

    def check_cli(self, out_dir: Path) -> None:
        self._check_summary(read_json(out_dir / "worked_example.json"))
        for mode in ("amplitude", "duration"):
            check_rows_csv(out_dir / f"order_scan_{mode}.csv", len(self.config.eps_grid))

    def cli_job(self):
        return self.op(0)


# ---------------------------------------------------------------------------
# scan_wide
# ---------------------------------------------------------------------------

WIDE_SITES = 64


class ScanWide:
    """Two 64-site amplitude scans: non-commuting, then commuting coupling."""

    pool = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        pulses = dict(
            pulse_p=experiments.PulseTemplate(channel=0),
            pulse_q=experiments.PulseTemplate(channel=1),
        )
        self.experiments = {
            kind: experiments.ExposureExperiment(
                species=experiments.reference_species(n_sites=WIDE_SITES, coupling=kind),
                scaling="amplitude",
                seed=seed,
                **pulses,
            )
            for kind in ("noncommuting", "commuting")
        }
        nc = self.experiments["noncommuting"]
        self.prediction = commutator_prediction(nc.species, nc.pulse_p, nc.pulse_q, seed)
        self.config_path = work_dir / "scan_wide.json"
        self.config_path.write_text(
            json.dumps(
                {
                    "species": {"n_sites": WIDE_SITES, "coupling": "noncommuting"},
                    "pulse_p": {"channel": 0},
                    "pulse_q": {"channel": 1},
                    "scaling": "amplitude",
                }
            ),
            encoding="utf-8",
        )

    def op(self, i: int):
        return {
            kind: experiments.run_order_asymmetry_scan(exp)
            for kind, exp in self.experiments.items()
        }

    def check(self, i: int, reports) -> None:
        check_quadratic("noncommuting", reports["noncommuting"].to_json(), self.prediction)
        commuting = reports["commuting"]
        expect(
            len(commuting.excluded) == len(commuting.rows) and commuting.slope is None,
            f"commuting: rows above the floor {commuting.rows}",
        )

    def cli_argv(self) -> list[str]:
        return ["order-scan", str(self.config_path), "--seed", str(self.seed)]

    def check_cli(self, out_dir: Path) -> None:
        check_quadratic("cli", read_json(out_dir / "order_scan.json"), self.prediction)
        check_rows_csv(out_dir / "order_scan_rows.csv", 5)

    def cli_job(self):
        return experiments.run_order_asymmetry_scan(self.experiments["noncommuting"])


# ---------------------------------------------------------------------------
# law_suite
# ---------------------------------------------------------------------------

SUITE_PATH = HERE / "laws_suite.json"


def random_pulses(species, count: int, seed: int) -> list[Program]:
    """Single-piece pulses on a random channel, the suite's program family."""
    rng = np.random.default_rng(seed)
    channels = species.dynamics.channels
    pulses = []
    for _ in range(count):
        channel = int(rng.integers(0, channels))  # drawn before the amplitude
        control = [0.0] * channels
        control[channel] = float(rng.uniform(0.05, 0.5))
        pulses.append(Program(((float(rng.uniform(0.1, 1.0)), tuple(control)),)))
    return pulses


def wide_environment(species, seed: int) -> EnvObject:
    """Environment holding the seeded initial state, with loose constraints."""
    layout = species.extraction.layout
    channels = layout.feature_count - 1
    template = EnvObject(
        layout.graph,
        {v: 1.0 for v in layout.graph.nodes},
        {v: (0.0,) * channels for v in layout.graph.nodes},
        Constraints(
            phi_bounds=tuple((-100.0, 100.0) for _ in range(channels)),
            budget=math.inf,
        ),
    )
    return laws.field_writeback(template, experiments.initial_state(layout, seed))


def suite_call(check: dict, seed: int):
    """Inputs of one suite entry, as (checker name, args, kwargs).

    Builds what ``mycocat check-laws --seed <seed>`` builds for the entry,
    except the Lipschitz pairs: the CLI jitters every slot by 0.3 times a
    normal draw, which makes some resource value negative, and so the
    environment inadmissible, for about 3% of seeds. Here the jitter is
    0.3 times a uniform draw in [-1, 1], which is always admissible.
    """
    law = check["law"]
    if law == "adjunction":
        return "check_adjunction", laws.identity_adjunction_instance(), {}
    species = experiments.reference_species(**check["species"])
    layout = species.extraction.layout
    channels = layout.feature_count - 1
    if law == "functor_laws":
        if check.get("mutant") == "non_causal":
            species = laws.non_causal_variant(species)
        kwargs = dict(sample_count=check["samples"], tol=check["tol"], seed=seed)
        return "check_functor_laws", (species,), kwargs
    if law == "naturality":
        variant = check["variant"]
        if variant == "identity":
            other, eta = species, laws.identity_transformation()
        elif variant == "similarity":
            other, eta = laws.similarity_variant(species, seed=seed + 1)
        else:
            other = laws.perturbed_variant(species, magnitude=check.get("magnitude", 0.1))
            eta = laws.identity_transformation()
        programs = random_pulses(species, check["programs"], seed + 2)
        kwargs = dict(tol=check["tol"], seed=seed)
        return "check_naturality", (species, other, eta, programs), kwargs
    if law == "lipschitz":
        rng = np.random.default_rng(seed)
        base = wide_environment(species, seed)

        def jitter():
            state = InternalState(1.0 + 0.3 * rng.uniform(-1.0, 1.0, layout.dim), layout)
            return laws.field_writeback(base, state)

        pairs = []
        for _ in range(check["pairs"]):
            first = jitter()
            pairs.append((first, jitter()))
        iota = laws.direct_embedding(layout, channels)
        kwargs = dict(bound=check["bound"], iota=iota)
        return "check_lipschitz", (species, pairs), kwargs
    if law == "compatibility":
        iota = laws.direct_embedding(layout, channels)
        scale = check.get("psi_amplitude_scale", 1.0)
        if scale == 1.0:
            psi = laws.matched_environment_evolution(species, iota)
        else:
            psi = laws.scaled_environment_evolution(species, iota, scale)
        env = wide_environment(species, seed)
        pulses = random_pulses(species, check["pulses"], seed + 3)
        kwargs = dict(tol=check["tol"])
        return "check_compatibility", (iota, psi, species, [env], pulses), kwargs
    raise ValueError(f"unknown law {law!r}")


class LawSuite:
    """The nine law checks of the sample suite, three of them expected to fail."""

    pool = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.checks = read_json(SUITE_PATH)["checks"]
        self.calls = [suite_call(check, seed) for check in self.checks]

    def op(self, i: int):
        return [getattr(laws, name)(*args, **kwargs) for name, args, kwargs in self.calls]

    def check(self, i: int, reports) -> None:
        for check, report in zip(self.checks, reports):
            want = check.get("expect", "pass")
            expect(report.verdict == want, f"{report.law}: {report.verdict}, expected {want}")

    def cli_argv(self) -> list[str]:
        # The suite's own seeds (0): with --seed the CLI's Lipschitz
        # sampling fails for some seeds (see suite_call).
        return ["check-laws", str(SUITE_PATH)]

    def check_cli(self, out_dir: Path) -> None:
        results = read_json(out_dir / "law_reports.json")["results"]
        expect(len(results) == len(self.checks), f"{len(results)} reports")
        for entry in results:
            expect(entry["as_expected"], f"{entry['report']['law']}: not as expected")

    def cli_job(self):
        return self.op(0)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

# The cospan shapes are drawn once from this fixed seed, so every workload
# seed measures the same mix of sizes; the workload seed renames and
# reorders nodes and edges, which changes ids, pushout numbering and the
# enumeration order. A mix drawn per seed made the median op time vary
# about twofold between seeds.
FUSION_MIX_SEED = 20260301
FUSION_POOL = 48
PROBE_BOUND = 4
MAX_LEG_NODES = 4


def _random_simple_graph(rng: random.Random, n: int) -> tuple[list, list]:
    nodes = list(range(n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    return nodes, edges


def _cospan_shape(rng: random.Random):
    """Two simple graphs of at most 4 nodes and an apex embedded in both."""
    nb, eb = _random_simple_graph(rng, rng.randint(1, MAX_LEG_NODES))
    nc, ec = _random_simple_graph(rng, rng.randint(1, MAX_LEG_NODES))
    k = rng.randint(1, min(len(nb), len(nc)))
    into_b = rng.sample(nb, k)
    into_c = rng.sample(nc, k)
    apex_edges = []
    for x in range(k):
        for y in range(x + 1, k):
            pb = tuple(sorted((into_b[x], into_b[y])))
            pc = tuple(sorted((into_c[x], into_c[y])))
            if pb in eb and pc in ec and rng.random() < 0.5:
                apex_edges.append((x, y, eb.index(pb), ec.index(pc)))
    return (nb, eb), (nc, ec), into_b, into_c, apex_edges


def _build_cospan(shape, rng: random.Random) -> graphs.Cospan:
    """Materialise a shape with seeded ids and seeded node and edge order."""
    (nb, eb), (nc, ec), into_b, into_c, apex_edges = shape
    taken: set[str] = set()

    def fresh(prefix: str) -> str:
        while True:
            name = f"{prefix}{rng.randrange(10**6)}"
            if name not in taken:
                taken.add(name)
                return name

    def graph(nodes, edges, prefix):
        node_id = {v: fresh(prefix) for v in nodes}
        edge_id = [fresh(prefix + "e") for _ in edges]
        order = list(nodes)
        rng.shuffle(order)
        listed = [(edge_id[i], (node_id[u], node_id[v])) for i, (u, v) in enumerate(edges)]
        rng.shuffle(listed)
        g = graphs.AttributedGraph(tuple(node_id[v] for v in order), tuple(listed))
        return g, node_id, edge_id

    b, b_node, b_edge = graph(nb, eb, "b")
    c, c_node, c_edge = graph(nc, ec, "c")
    apex_nodes = [fresh("a") for _ in into_b]
    apex_edge_ids = [fresh("ae") for _ in apex_edges]
    apex = graphs.AttributedGraph(
        tuple(apex_nodes),
        tuple(
            (eid, (apex_nodes[x], apex_nodes[y]))
            for eid, (x, y, _, _) in zip(apex_edge_ids, apex_edges)
        ),
    )
    left = graphs.GraphMorphism(
        apex,
        b,
        {a: b_node[v] for a, v in zip(apex_nodes, into_b)},
        {eid: b_edge[ib] for eid, (_, _, ib, _) in zip(apex_edge_ids, apex_edges)},
    )
    right = graphs.GraphMorphism(
        apex,
        c,
        {a: c_node[v] for a, v in zip(apex_nodes, into_c)},
        {eid: c_edge[ic] for eid, (_, _, _, ic) in zip(apex_edge_ids, apex_edges)},
    )
    return graphs.Cospan(apex, left, right)


def padded(candidate):
    """The candidate pushout plus one isolated node: never a pushout."""
    obj, inj_b, inj_c = candidate
    extra = graphs.AttributedGraph(obj.nodes + (len(obj.nodes),), obj.edges)
    return (
        extra,
        graphs.GraphMorphism(inj_b.source, extra, inj_b.node_map, inj_b.edge_map),
        graphs.GraphMorphism(inj_c.source, extra, inj_c.node_map, inj_c.edge_map),
    )


class Fusion:
    """Pushout of a mono cospan, verified exhaustively; a padded one rejected."""

    pool = FUSION_POOL

    def __init__(self, seed: int, work_dir: Path):
        mix = random.Random(FUSION_MIX_SEED)
        shapes = [_cospan_shape(mix) for _ in range(FUSION_POOL)]
        rng = random.Random(seed)
        self.cospans = [_build_cospan(shape, rng) for shape in shapes]
        self.cospan_path = work_dir / "cospan.json"
        first = self.cospans[0]
        self.cospan_path.write_text(
            json.dumps(
                {
                    "apex": first.apex.to_json(),
                    "b": first.left.target.to_json(),
                    "c": first.right.target.to_json(),
                    "left": first.left.to_json(),
                    "right": first.right.to_json(),
                }
            ),
            encoding="utf-8",
        )

    def op(self, i: int):
        cospan = self.cospans[i % FUSION_POOL]
        candidate = graphs.pushout_along_monos(cospan)
        accepted = graphs.verify_pushout_universal_property(cospan, candidate, PROBE_BOUND)
        rejected = not graphs.verify_pushout_universal_property(
            cospan, padded(candidate), PROBE_BOUND
        )
        return candidate, accepted, rejected

    def check(self, i: int, result) -> None:
        (obj, _, _), accepted, rejected = result
        cospan = self.cospans[i % FUSION_POOL]
        b, c = cospan.left.target, cospan.right.target
        # Gluing along a mono apex identifies exactly the apex's nodes and edges.
        expect(
            len(obj.nodes) == len(b.nodes) + len(c.nodes) - len(cospan.apex.nodes)
            and len(obj.edges) == len(b.edges) + len(c.edges) - len(cospan.apex.edges),
            f"cospan {i % FUSION_POOL}: pushout has the wrong size",
        )
        expect(accepted, f"cospan {i % FUSION_POOL}: pushout rejected")
        expect(rejected, f"cospan {i % FUSION_POOL}: padded candidate accepted")

    def cli_argv(self) -> list[str]:
        return ["pushout", str(self.cospan_path)]

    def check_cli(self, out_dir: Path) -> None:
        payload = read_json(out_dir / "pushout.json")
        first = self.cospans[0]
        b, c = first.left.target, first.right.target
        expect(
            len(payload["object"]["nodes"]) == len(b.nodes) + len(c.nodes) - len(first.apex.nodes),
            "cli pushout: wrong node count",
        )

    def cli_job(self):
        return graphs.pushout_along_monos(self.cospans[0])


WORKLOADS = {
    "worked_example": WorkedExample,
    "scan_wide": ScanWide,
    "law_suite": LawSuite,
    "fusion": Fusion,
}
