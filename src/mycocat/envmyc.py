"""Environmental and mycelial network states and their transformations.

An environmental state couples a substrate graph with a nonnegative
resource field, a vector-valued chemical field, and a constraint record
(interval bounds plus a total resource budget). A mycelial state couples a
connected network graph with edge conductivities and per-node feature
vectors. Admissible transformations of each kind compose, and network
fusion is computed as a pushout of the underlying graphs with explicit
merge rules for the conductivity and feature data.

A batch of environments on one graph under one constraint record is an
:class:`EnvBatch`, one (P, N, 1 + k) field array; :class:`EnvObject` is
the single-item and wire type.

Everything here is a pure value: applying or composing transformations
never mutates inputs, so concurrent reads are safe.

JSON wire formats extend the graph schema of :mod:`mycocat.graphs` with
``"rho"``, ``"phi"``, ``"chi"`` (environment) and ``"sigma"``, ``"omega"``
(mycelium) maps keyed by stringified node/edge ids.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    CompositionError,
    ConstraintError,
    NumericError,
    ParameterError,
    PreconditionError,
    ShapeError,
)
from .graphs import (
    AttributedGraph,
    Cospan,
    GraphMorphism,
    _is_number,
    _read_number,
    _read_numbers,
    _require_object,
    compose_graph_morphisms,
    identity_morphism,
    is_monomorphism,
    pushout_along_monos,
)

# Slack for floating-point comparisons against interval bounds and budgets.
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Constraints:
    """Interval bounds and a resource budget for an environmental state.

    ``phi_bounds`` holds one (lo, hi) interval per chemical channel; its
    length fixes the channel count k.
    """

    humidity: tuple[float, float] = (0.0, 1.0)
    temperature: tuple[float, float] = (0.0, 40.0)
    phi_bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    budget: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "phi_bounds", tuple(tuple(b) for b in self.phi_bounds))
        intervals = {"humidity": self.humidity, "temperature": self.temperature}
        intervals.update((f"phi_bounds[{i}]", b) for i, b in enumerate(self.phi_bounds))
        for name, (lo, hi) in intervals.items():
            # a NaN bound compares false, so every value would pass it
            if math.isnan(lo) or math.isnan(hi):
                raise ParameterError(f"{name}: bounds must be numbers, got [{lo}, {hi}]")
            if lo > hi:
                raise ParameterError(f"empty interval [{lo}, {hi}]")
        if math.isnan(self.budget):
            raise ParameterError("budget: must be a number, got nan")
        if self.budget < 0:
            raise ParameterError("budget must be nonnegative")

    @property
    def channels(self) -> int:
        return len(self.phi_bounds)

    def tightens(self, other: "Constraints") -> bool:
        """True iff every interval of self sits inside the matching one of other."""
        def inside(a, b):
            return a[0] >= b[0] - _BOUND_SLACK and a[1] <= b[1] + _BOUND_SLACK

        return (
            inside(self.humidity, other.humidity)
            and inside(self.temperature, other.temperature)
            and len(self.phi_bounds) == len(other.phi_bounds)
            and all(inside(a, b) for a, b in zip(self.phi_bounds, other.phi_bounds))
            and self.budget <= other.budget + _BOUND_SLACK
        )

    def to_json(self) -> dict:
        return {
            "humidity": list(self.humidity),
            "temperature": list(self.temperature),
            "phi_bounds": [list(b) for b in self.phi_bounds],
            "budget": self.budget,
        }

    @classmethod
    def from_json(cls, data: Mapping, field: str = "") -> "Constraints":
        """The record in the wire format: ``humidity`` and ``temperature``
        each a ``[lo, hi]`` pair of numbers, ``phi_bounds`` a list of such
        pairs and ``budget`` a number; absent keys keep the defaults. A value
        of another shape or type (a bool is not a number) raises
        :class:`ShapeError` naming its field, prefixed by ``field``
        (``"chi."`` names ``chi.budget``)."""
        _require_object(data, field, "chi")

        def interval(raw, name):
            if not (
                isinstance(raw, (list, tuple)) and len(raw) == 2 and all(map(_is_number, raw))
            ):
                raise ShapeError(f"{field}{name}: must be a [lo, hi] pair of numbers, got {raw!r}")
            return tuple(raw)

        bounds = data.get("phi_bounds", [[0.0, 1.0]])
        if not isinstance(bounds, (list, tuple)):
            raise ShapeError(
                f"{field}phi_bounds: must be a list of [lo, hi] pairs, got {bounds!r}"
            )
        budget = _read_number(data.get("budget", math.inf), f"{field}budget")
        return cls(
            humidity=interval(data.get("humidity", (0.0, 1.0)), "humidity"),
            temperature=interval(data.get("temperature", (0.0, 40.0)), "temperature"),
            phi_bounds=tuple(
                interval(b, f"phi_bounds[{i}]") for i, b in enumerate(bounds)
            ),
            budget=budget,
        )


@dataclass(frozen=True)
class EnvObject:
    """Substrate graph plus resource field, chemical field, and constraints."""

    graph: AttributedGraph
    rho: Mapping  # node -> float >= 0
    phi: Mapping  # node -> tuple of channel values
    chi: Constraints

    def __post_init__(self):
        object.__setattr__(self, "rho", {v: float(x) for v, x in self.rho.items()})
        object.__setattr__(
            self, "phi", {v: tuple(float(x) for x in vec) for v, vec in self.phi.items()}
        )
        nodes = self.graph.node_set
        if set(self.rho) != nodes or set(self.phi) != nodes:
            raise ShapeError("rho and phi must be defined on exactly the graph nodes")
        k = self.chi.channels
        for v, vec in self.phi.items():
            if len(vec) != k:
                raise ShapeError(f"phi at {v!r} has {len(vec)} channels, expected {k}")
        violation = check_admissibility(self.rho, self.phi, self.chi)
        if violation:
            raise ConstraintError(violation)

    def to_json(self) -> dict:
        nodes = _json_keys(self.graph.nodes, "node")
        return {
            **self.graph.to_json(),
            "rho": {key: self.rho[v] for key, v in nodes.items()},
            "phi": {key: list(self.phi[v]) for key, v in nodes.items()},
            "chi": self.chi.to_json(),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "EnvObject":
        """The environment in the wire format; a ``rho`` value that is not a
        number or a ``phi`` value that is not a list of numbers (a bool is
        not a number) raises :class:`ShapeError` naming it (``rho.n0``,
        ``phi.n1[0]``)."""
        graph = AttributedGraph.from_json(data)
        nodes = {str(v): v for v in graph.nodes}
        return cls(
            graph=graph,
            rho=_read_map(data, "rho", nodes, "node", _read_number),
            phi=_read_map(data, "phi", nodes, "node", _read_numbers),
            chi=Constraints.from_json(data.get("chi", {}), "chi."),
        )


def _read_map(data: Mapping, name: str, ids: Mapping, kind: str, read: Callable) -> dict:
    """``data[name]``, a JSON object keyed by ``str(id)`` (``ids`` maps key
    to id), with each value read by ``read(value, field)``. A value that is
    not an object or a key that names no ``kind`` raises :class:`ShapeError`
    naming the field (``rho``, ``rho.n0``)."""
    raw = data[name]
    _require_object(raw, name + ".", name)
    out = {}
    for key, value in raw.items():
        if key not in ids:
            raise ShapeError(f"{name}.{key}: no {kind} has this id")
        out[ids[key]] = read(value, f"{name}.{key}")
    return out


def _json_keys(ids: Sequence, kind: str) -> dict:
    """JSON object key -> id, in declaration order. The key is ``str(id)``,
    so two ids that print alike (``1`` and ``"1"``) raise :class:`ShapeError`
    rather than share a key."""
    keys: dict = {}
    for i in ids:
        first = keys.setdefault(str(i), i)
        if first is not i:
            raise ShapeError(f"{kind} ids {first!r} and {i!r} share the JSON key {str(i)!r}")
    return keys


def _rho_violation(v, r: float) -> str:
    what = "not a number" if math.isnan(r) else "negative"
    return f"rho at node {v!r} is {what} ({r})"


def check_admissibility(rho: Mapping, phi: Mapping, chi: Constraints) -> str | None:
    """Return a message naming the first violated bound, or None if admissible.
    A NaN rho or phi value violates its bound."""
    for v, r in rho.items():
        if not r >= -_BOUND_SLACK:
            return _rho_violation(v, r)
    total = ordered_sum(rho.values())
    if total > chi.budget + _BOUND_SLACK:
        return f"total resource {total} exceeds budget {chi.budget}"
    for v, vec in phi.items():
        for ch, x in enumerate(vec):
            lo, hi = chi.phi_bounds[ch]
            if not lo - _BOUND_SLACK <= x <= hi + _BOUND_SLACK:
                return (
                    f"phi channel {ch} at node {v!r} is {x}, "
                    f"outside bounds [{lo}, {hi}]"
                )
    return None


@dataclass(frozen=True, eq=False)
class EnvBatch:
    """P environments on one graph under one constraint record: the batch
    form of :class:`EnvObject`.

    ``fields`` (P, N, 1 + k) holds environment i's fields at row i, node by
    node in the graph's declaration order: rho, then the k chemical
    channels. It is a read-only copy, validated once with the errors of a
    loop of :func:`check_admissibility` over the rows, each keyed in node
    declaration order: the first violating row decides the message, and
    within it negative rho by node, then the budget (the row's rho added
    left to right, as :func:`ordered_sum` does), then phi by node and
    channel. A batch that only selects rows of a checked batch (``take``)
    is not checked again.
    """

    graph: AttributedGraph
    chi: Constraints
    fields: np.ndarray

    def __post_init__(self):
        fields = np.array(self.fields, dtype=np.float64)
        nodes, k = len(self.graph.nodes), self.chi.channels
        if fields.ndim != 3 or fields.shape[1:] != (nodes, 1 + k):
            raise ShapeError(
                f"environment fields of shape {fields.shape} do not match "
                f"{nodes} nodes with 1 + {k} fields each"
            )
        violation = _first_violation(fields, self.graph.nodes, self.chi)
        if violation:
            raise ConstraintError(violation)
        self._freeze(fields)

    def _freeze(self, fields: np.ndarray) -> None:
        fields.setflags(write=False)
        object.__setattr__(self, "fields", fields)

    @classmethod
    def from_envs(cls, envs: Sequence[EnvObject]) -> "EnvBatch":
        """The batch of ``envs``, in order. They must share one graph and
        one constraint record; the first that does not raises
        :class:`ParameterError` naming its index, as does an empty list."""
        envs = list(envs)
        if not envs:
            raise ParameterError("an environment batch needs at least one environment")
        first = envs[0]
        for i, env in enumerate(envs):
            if env.graph != first.graph:
                raise ParameterError(f"environment {i} is on another graph than environment 0")
            if env.chi != first.chi:
                raise ParameterError(
                    f"environment {i} has other constraints than environment 0"
                )
        nodes = first.graph.nodes
        fields = np.array(
            [[(env.rho[v], *env.phi[v]) for v in nodes] for env in envs], dtype=np.float64
        )
        shape = (len(envs), len(nodes), 1 + first.chi.channels)
        return cls(first.graph, first.chi, fields.reshape(shape))

    def __len__(self) -> int:
        return len(self.fields)

    def take(self, rows) -> "EnvBatch":
        """The environments at ``rows``, in that order; a row may repeat."""
        batch = object.__new__(EnvBatch)
        object.__setattr__(batch, "graph", self.graph)
        object.__setattr__(batch, "chi", self.chi)
        batch._freeze(self.fields[np.asarray(rows, dtype=np.intp)])
        return batch

    def env(self, i: int) -> EnvObject:
        """Environment ``i`` as an :class:`EnvObject`, for a witness or the
        wire."""
        rows = self.fields[i].tolist()
        nodes = self.graph.nodes
        return EnvObject(
            self.graph,
            {v: row[0] for v, row in zip(nodes, rows)},
            {v: tuple(row[1:]) for v, row in zip(nodes, rows)},
            self.chi,
        )


def _first_violation(fields: np.ndarray, nodes: Sequence, chi: Constraints) -> str | None:
    """:func:`check_admissibility`'s message for the first inadmissible row
    of the (P, N, 1 + k) ``fields``, or None."""
    rho, phi = fields[:, :, 0], fields[:, :, 1:]
    negative = ~(rho >= -_BOUND_SLACK)  # NaN included
    # a leading 0.0 column makes the running total ordered_sum's, bit for
    # bit; an overflow gives inf and inf - inf NaN, silently, as floats do
    with np.errstate(over="ignore", invalid="ignore"):
        start = np.zeros((len(rho), 1))
        totals = np.add.accumulate(np.concatenate((start, rho), axis=1), axis=1)[:, -1]
    over = totals > chi.budget + _BOUND_SLACK
    lo = np.array([b[0] for b in chi.phi_bounds], dtype=np.float64)
    hi = np.array([b[1] for b in chi.phi_bounds], dtype=np.float64)
    outside = ~((phi >= lo - _BOUND_SLACK) & (phi <= hi + _BOUND_SLACK))
    bad = negative.any(axis=1) | over | outside.any(axis=(1, 2))
    if not bad.any():
        return None
    i = int(bad.argmax())
    if negative[i].any():
        node = int(negative[i].argmax())
        return _rho_violation(nodes[node], float(rho[i, node]))
    if over[i]:
        return f"total resource {float(totals[i])} exceeds budget {chi.budget}"
    node, ch = divmod(int(outside[i].argmax()), chi.channels)
    lo_ch, hi_ch = chi.phi_bounds[ch]
    return (
        f"phi channel {ch} at node {nodes[node]!r} is {float(phi[i, node, ch])}, "
        f"outside bounds [{lo_ch}, {hi_ch}]"
    )


# ---------------------------------------------------------------------------
# Field transformation rules
# ---------------------------------------------------------------------------

PUSHFORWARD = "pushforward"
POINTWISE_ADD = "pointwise_add"
RESCALE = "rescale"


@dataclass(frozen=True)
class FieldRule:
    """How a scalar field transports along a graph map.

    - ``pushforward``: sum the field over each fiber (conserves the total).
    - ``pointwise_add``: pushforward, then add ``delta`` on target nodes.
    - ``rescale``: pushforward, then multiply by ``factor``.
    """

    tag: str
    delta: Mapping | None = None  # target node -> increment
    factor: float = 1.0

    def __post_init__(self):
        if self.tag not in (PUSHFORWARD, POINTWISE_ADD, RESCALE):
            raise ParameterError(f"unknown field rule {self.tag!r}")
        if self.delta is not None:
            object.__setattr__(self, "delta", dict(self.delta))

    def apply(self, values: Mapping, fg: GraphMorphism) -> dict:
        pushed = {w: 0.0 for w in fg.target.nodes}
        for v, x in values.items():
            pushed[fg.node_map[v]] += x
        if self.tag == POINTWISE_ADD:
            for w, d in (self.delta or {}).items():
                if w not in pushed:
                    raise ParameterError(f"delta names unknown target node {w!r}")
                pushed[w] += d
        elif self.tag == RESCALE:
            pushed = {w: x * self.factor for w, x in pushed.items()}
        return pushed

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.delta is not None:
            out["delta"] = {str(k): v for k, v in self.delta.items()}
        if self.tag == RESCALE:
            out["factor"] = self.factor
        return out


def identity_rule() -> FieldRule:
    return FieldRule(PUSHFORWARD)


def _compose_rules(first: FieldRule, second: FieldRule, second_fg: GraphMorphism) -> FieldRule:
    """Rule equal to applying ``first`` along its map, then ``second`` along
    ``second_fg``. Pushforward composes with everything; add and rescale
    compose with themselves; mixing add with rescale is rejected."""
    tags = {first.tag, second.tag}
    if tags <= {PUSHFORWARD}:
        return FieldRule(PUSHFORWARD)
    if tags <= {PUSHFORWARD, POINTWISE_ADD}:
        pushed_delta: dict = {w: 0.0 for w in second_fg.target.nodes}
        for v, d in (first.delta or {}).items():
            pushed_delta[second_fg.node_map[v]] += d
        for w, d in (second.delta or {}).items():
            pushed_delta[w] += d
        delta = {w: d for w, d in pushed_delta.items() if d != 0.0}
        return FieldRule(POINTWISE_ADD, delta=delta)
    if tags <= {PUSHFORWARD, RESCALE}:
        return FieldRule(RESCALE, factor=first.factor * second.factor)
    raise CompositionError(
        f"cannot compose field rules {first.tag!r} and {second.tag!r}"
    )


@dataclass(frozen=True)
class EnvMorphism:
    """Admissible transformation of environmental states.

    Carries the underlying graph map, one rule for the resource field, one
    rule per chemical channel, and the constraint map (``None`` keeps the
    source constraints, otherwise the target constraints must tighten
    them). Admissibility of the transported fields is checked when the
    morphism is applied.
    """

    fg: GraphMorphism
    rho_rule: FieldRule
    phi_rules: tuple[FieldRule, ...]
    chi_map: Constraints | None = None  # None = identity

    def __post_init__(self):
        object.__setattr__(self, "phi_rules", tuple(self.phi_rules))


def identity_env_morphism(e: EnvObject) -> EnvMorphism:
    return EnvMorphism(
        fg=identity_morphism(e.graph),
        rho_rule=identity_rule(),
        phi_rules=tuple(identity_rule() for _ in range(e.chi.channels)),
    )


def apply_env_morphism(e: EnvObject, f: EnvMorphism) -> EnvObject:
    """Transport an environmental state along a morphism.

    Raises :class:`ConstraintError` naming the violated bound when the
    transported fields are inadmissible for the target constraints, and
    :class:`CompositionError` when the graph map does not start at ``e``.
    """
    if f.fg.source != e.graph:
        raise CompositionError("morphism does not start at this environment")
    if len(f.phi_rules) != e.chi.channels:
        raise ParameterError(
            f"{len(f.phi_rules)} phi rules for {e.chi.channels} channels"
        )
    new_rho = f.rho_rule.apply(e.rho, f.fg)
    per_channel = [
        rule.apply({v: vec[ch] for v, vec in e.phi.items()}, f.fg)
        for ch, rule in enumerate(f.phi_rules)
    ]
    new_phi = {
        w: tuple(per_channel[ch][w] for ch in range(len(per_channel)))
        for w in f.fg.target.nodes
    }
    if f.chi_map is None:
        new_chi = e.chi
    else:
        if not f.chi_map.tightens(e.chi):
            raise ConstraintError("constraint map must tighten the source intervals")
        new_chi = f.chi_map
    violation = check_admissibility(new_rho, new_phi, new_chi)
    if violation:
        raise ConstraintError(violation)
    return EnvObject(f.fg.target, new_rho, new_phi, new_chi)


def compose_env_morphisms(f: EnvMorphism, g: EnvMorphism) -> EnvMorphism:
    """Diagrammatic composite: first ``f``, then ``g``.

    Field rules compose componentwise (adds sum after transport, rescales
    multiply); mixing an add with a rescale raises
    :class:`CompositionError`, as does a graph-map mismatch.
    """
    fg = compose_graph_morphisms(f.fg, g.fg)
    if len(f.phi_rules) != len(g.phi_rules):
        raise CompositionError("channel counts differ")
    if f.chi_map is None and g.chi_map is None:
        chi_map = None
    else:
        chi_map = g.chi_map if g.chi_map is not None else f.chi_map
    return EnvMorphism(
        fg=fg,
        rho_rule=_compose_rules(f.rho_rule, g.rho_rule, g.fg),
        phi_rules=tuple(
            _compose_rules(a, b, g.fg) for a, b in zip(f.phi_rules, g.phi_rules)
        ),
        chi_map=chi_map,
    )


def ordered_sum(values) -> float:
    """Sum of floats, left to right. Builtin ``sum`` of floats is
    compensated from Python 3.12 on, so it would give other last bits on
    other interpreters."""
    total = 0.0
    for x in values:
        total += x
    return total


def _abs_sum(values) -> float:
    return ordered_sum(map(abs, values))


def _ordered_l1(first: Mapping, second: Mapping) -> float:
    """L1 distance between two maps of vectors; a missing vector counts as
    zeros. Sums over the ids of ``first`` in insertion order, then the ids
    only ``second`` has, so the float sum never follows hash order; each
    vector's entries add left to right before joining the total."""
    total = 0.0
    for key, x in first.items():
        y = second.get(key)
        total += _abs_sum(x if y is None else map(operator.sub, x, y))
    for key, y in second.items():
        if key not in first:
            total += _abs_sum(y)
    return total


def env_distance(
    e1: EnvObject, e2: EnvObject, weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> float:
    """Weighted L1 distance between environmental states on a shared id universe.

    Components: resource field, chemical field (summed over channels), and
    the node/edge symmetric-difference count. Unmatched nodes contribute
    their full field norms. Constraint records are not compared.
    """
    w_rho, w_phi, w_struct = weights
    if not all(w >= 0 for w in weights):
        raise ParameterError(f"weights must be nonnegative numbers, got {tuple(weights)}")
    if math.inf in weights:
        raise ParameterError(f"weights must be finite, got {tuple(weights)}")
    d_rho = _ordered_l1(
        {v: (x,) for v, x in e1.rho.items()}, {v: (x,) for v, x in e2.rho.items()}
    )
    d_phi = _ordered_l1(e1.phi, e2.phi)
    struct = len(e1.graph.node_set ^ e2.graph.node_set) + len(
        set(e1.graph.edge_keys) ^ set(e2.graph.edge_keys)
    )
    return w_rho * d_rho + w_phi * d_phi + w_struct * struct


# ---------------------------------------------------------------------------
# Mycelial states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MycObject:
    """Connected network with edge conductivities and node feature vectors."""

    graph: AttributedGraph
    sigma: Mapping  # edge -> float >= 0
    omega: Mapping  # node -> tuple of feature values

    def __post_init__(self):
        object.__setattr__(self, "sigma", {e: float(x) for e, x in self.sigma.items()})
        object.__setattr__(
            self, "omega", {v: tuple(float(x) for x in vec) for v, vec in self.omega.items()}
        )
        if not self.graph.is_connected():
            raise ShapeError("mycelial network must be connected")
        if set(self.sigma) != set(self.graph.edge_ids):
            raise ShapeError("sigma must be defined on exactly the graph edges")
        if set(self.omega) != self.graph.node_set:
            raise ShapeError("omega must be defined on exactly the graph nodes")
        for e, x in self.sigma.items():
            if x < 0:
                raise ParameterError(f"sigma at edge {e!r} is negative")
        lengths = {len(v) for v in self.omega.values()}
        if len(lengths) > 1:
            raise ShapeError("omega feature vectors must share one length")

    @property
    def feature_count(self) -> int:
        return len(next(iter(self.omega.values()))) if self.omega else 0

    def node_strength(self, v) -> float:
        """Total conductivity of edges incident to v (loops counted once)."""
        return ordered_sum(self.sigma[e] for e in self.graph.incident_edges(v))

    def to_json(self) -> dict:
        edges = _json_keys(self.graph.edge_ids, "edge")
        nodes = _json_keys(self.graph.nodes, "node")
        return {
            **self.graph.to_json(),
            "sigma": {key: self.sigma[e] for key, e in edges.items()},
            "omega": {key: list(self.omega[v]) for key, v in nodes.items()},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MycObject":
        """The network in the wire format; a ``sigma`` value that is not a
        number or an ``omega`` value that is not a list of numbers (a bool is
        not a number) raises :class:`ShapeError` naming it (``sigma.e0``,
        ``omega.n1[0]``)."""
        graph = AttributedGraph.from_json(data)
        edges = {str(e): e for e in graph.edge_ids}
        nodes = {str(v): v for v in graph.nodes}
        return cls(
            graph=graph,
            sigma=_read_map(data, "sigma", edges, "edge", _read_number),
            omega=_read_map(data, "omega", nodes, "node", _read_numbers),
        )


@dataclass(frozen=True)
class DistanceWeights:
    omega: float = 1.0
    sigma: float = 1.0
    structure: float = 1.0

    def __post_init__(self):
        weights = (self.omega, self.sigma, self.structure)
        if not all(w >= 0 for w in weights):
            raise ParameterError(f"distance weights must be nonnegative numbers, got {weights}")
        # an infinite weight times a zero component is NaN: every distance
        # that weight touches would read NaN
        if math.inf in weights:
            raise ParameterError(f"distance weights must be finite, got {weights}")


def myc_distance(
    m1: MycObject, m2: MycObject, weights: DistanceWeights | Sequence[float] = DistanceWeights()
) -> float:
    """Weighted L1 distance between mycelial states over a shared id universe.

    Feature vectors are compared on matched nodes, conductivities on
    matched edges (same id and endpoints); unmatched elements contribute
    their full norms plus a symmetric-difference count. This is a metric
    on states over a fixed id universe.
    """
    if not isinstance(weights, DistanceWeights):
        weights = DistanceWeights(*weights)
    sigma1 = {k: (m1.sigma[k[0]],) for k in m1.graph.edge_keys}
    sigma2 = {k: (m2.sigma[k[0]],) for k in m2.graph.edge_keys}
    d_omega = _ordered_l1(m1.omega, m2.omega)
    d_sigma = _ordered_l1(sigma1, sigma2)
    struct = len(m1.graph.node_set ^ m2.graph.node_set) + len(
        sigma1.keys() ^ sigma2.keys()
    )
    return weights.omega * d_omega + weights.sigma * d_sigma + weights.structure * struct


# ---------------------------------------------------------------------------
# Mycelial morphisms and fusion
# ---------------------------------------------------------------------------

MERGE_RULES: dict[str, Callable[[float, float, float, float], float]] = {
    "sum": lambda a, b, wa, wb: a + b,
    "max": lambda a, b, wa, wb: max(a, b),
    "mean": lambda a, b, wa, wb: 0.5 * (a + b),
    "weighted_mean": lambda a, b, wa, wb: (
        (wa * a + wb * b) / (wa + wb) if wa + wb > 0 else 0.5 * (a + b)
    ),
}


def _merge_vectors(rule, va, vb, wa, wb):
    return tuple(rule(a, b, wa, wb) for a, b in zip(va, vb))


@dataclass(frozen=True)
class MycMorphism:
    """Structure-compatible update between mycelial states.

    ``kind`` records how the target fields relate to the source:

    - ``"embed"``: the graph map identifies a substructure; fields are
      owned by the target (used for fusion legs).
    - ``"assign"``: the target fields are explicit data (used for induced
      state updates, where the graph map is the identity).
    - ``"transport"``: the target is the source coarse-grained under
      ``sigma_rule`` / ``omega_rule``; construction recomputes the
      transport and rejects mismatching targets.
    """

    source: MycObject
    target: MycObject
    graph_map: GraphMorphism
    kind: str = "assign"
    sigma_rule: str = "sum"
    omega_rule: str = "weighted_mean"

    def __post_init__(self):
        if self.graph_map.source != self.source.graph:
            raise ShapeError("graph map must start at the source network")
        if self.graph_map.target != self.target.graph:
            raise ShapeError("graph map must end at the target network")
        if self.kind not in ("embed", "assign", "transport"):
            raise ParameterError(f"unknown morphism kind {self.kind!r}")
        if self.kind == "transport":
            recomputed = transport_myc(
                self.source, self.graph_map, self.sigma_rule, self.omega_rule
            )
            if recomputed.sigma != self.target.sigma or recomputed.omega != self.target.omega:
                raise ShapeError("target fields do not match the transported source")

    def is_identity(self, tol: float = 0.0) -> bool:
        if self.source.graph != self.target.graph:
            return False
        return myc_distance(self.source, self.target) <= tol


def identity_myc_morphism(m: MycObject) -> MycMorphism:
    return MycMorphism(m, m, identity_morphism(m.graph), kind="assign")


def compose_myc_morphisms(f: MycMorphism, g: MycMorphism) -> MycMorphism:
    """Diagrammatic composite; the result carries explicit target fields."""
    if f.target != g.source:
        raise CompositionError("cannot compose: target of f is not source of g")
    return MycMorphism(
        f.source,
        g.target,
        compose_graph_morphisms(f.graph_map, g.graph_map),
        kind="assign",
    )


def transport_myc(
    m: MycObject, gt: GraphMorphism, sigma_rule: str = "sum", omega_rule: str = "weighted_mean"
) -> MycObject:
    """Coarse-grain a mycelial state along a graph map.

    Fibers of the node map merge feature vectors under ``omega_rule``
    (pairwise, in source declaration order); fibers of the edge map merge
    conductivities under ``sigma_rule``.
    """
    s_rule = MERGE_RULES[sigma_rule]
    o_rule = MERGE_RULES[omega_rule]
    sigma: dict = {}
    for e in m.graph.edge_ids:
        img = gt.edge_map[e]
        if img in sigma:
            sigma[img] = s_rule(sigma[img], m.sigma[e], 1.0, 1.0)
        else:
            sigma[img] = m.sigma[e]
    omega: dict = {}
    strength: dict = {}
    for v in m.graph.nodes:
        img = gt.node_map[v]
        w = m.node_strength(v)
        if img in omega:
            omega[img] = _merge_vectors(o_rule, omega[img], m.omega[v], strength[img], w)
            strength[img] = strength[img] + w
        else:
            omega[img] = m.omega[v]
            strength[img] = w
    return MycObject(gt.target, sigma, omega)


def anastomosis(
    a: MycObject,
    m1: MycMorphism,
    m2: MycMorphism,
    sigma_rule: str = "sum",
    omega_rule: str = "weighted_mean",
) -> MycObject:
    """Fuse two networks along a shared substructure.

    ``m1`` and ``m2`` embed ``a`` into the two networks; both graph maps
    must be monomorphisms. The underlying graph of the result is the
    pushout of the graph cospan. On identified edges the conductivities
    merge under ``sigma_rule`` (default: parallel conductances add); on
    identified nodes the feature vectors merge under ``omega_rule``
    (default: mean weighted by each node's total incident conductivity,
    falling back to the plain mean when both totals are zero).

    Raises :class:`PreconditionError` for non-mono legs and
    :class:`NumericError` if a merge produces a non-finite value. Use
    :func:`anastomosis_with_injections` when the inclusion morphisms of
    the two fused networks are needed as well.
    """
    fused, _, _ = anastomosis_with_injections(a, m1, m2, sigma_rule, omega_rule)
    return fused


def anastomosis_with_injections(
    a: MycObject,
    m1: MycMorphism,
    m2: MycMorphism,
    sigma_rule: str = "sum",
    omega_rule: str = "weighted_mean",
) -> tuple[MycObject, MycMorphism, MycMorphism]:
    """As :func:`anastomosis`, returning the two inclusion morphisms too."""
    if m1.source != a or m2.source != a:
        raise PreconditionError("both legs must start at the shared substructure")
    if not is_monomorphism(m1.graph_map) or not is_monomorphism(m2.graph_map):
        raise PreconditionError("anastomosis requires mono legs")
    if sigma_rule not in MERGE_RULES or omega_rule not in MERGE_RULES:
        raise ParameterError("unknown merge rule")
    b, c = m1.target, m2.target

    cospan = Cospan(a.graph, m1.graph_map, m2.graph_map)
    fused_graph, inj_b, inj_c = pushout_along_monos(cospan)

    s_rule = MERGE_RULES[sigma_rule]
    o_rule = MERGE_RULES[omega_rule]

    from_b_edge = {inj_b.edge_map[e]: e for e in b.graph.edge_ids}
    from_c_edge = {inj_c.edge_map[e]: e for e in c.graph.edge_ids}
    sigma: dict = {}
    for pe in fused_graph.edge_ids:
        eb, ec = from_b_edge.get(pe), from_c_edge.get(pe)
        if eb is not None and ec is not None:
            sigma[pe] = s_rule(b.sigma[eb], c.sigma[ec], 1.0, 1.0)
        elif eb is not None:
            sigma[pe] = b.sigma[eb]
        else:
            sigma[pe] = c.sigma[ec]

    from_b_node = {inj_b.node_map[v]: v for v in b.graph.nodes}
    from_c_node = {inj_c.node_map[v]: v for v in c.graph.nodes}
    omega: dict = {}
    for pv in fused_graph.nodes:
        vb, vc = from_b_node.get(pv), from_c_node.get(pv)
        if vb is not None and vc is not None:
            wb, wc = b.node_strength(vb), c.node_strength(vc)
            omega[pv] = _merge_vectors(o_rule, b.omega[vb], c.omega[vc], wb, wc)
        elif vb is not None:
            omega[pv] = b.omega[vb]
        else:
            omega[pv] = c.omega[vc]

    for vec in omega.values():
        if any(not math.isfinite(x) for x in vec):
            raise NumericError("omega merge produced a non-finite value")
    for x in sigma.values():
        if not math.isfinite(x):
            raise NumericError("sigma merge produced a non-finite value")

    fused = MycObject(fused_graph, sigma, omega)
    into_b = MycMorphism(b, fused, inj_b, kind="embed")
    into_c = MycMorphism(c, fused, inj_c, kind="embed")
    return fused, into_b, into_c
