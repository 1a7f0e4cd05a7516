"""Environmental and mycelial network states and their transformations.

An environmental state couples a substrate graph with a nonnegative
resource field, a vector-valued chemical field, and a constraint record
(interval bounds plus a total resource budget). A mycelial state couples a
connected network graph with edge conductivities and per-node feature
vectors. Admissible transformations of each kind compose, and network
fusion is computed as a pushout of the underlying graphs: identified
conductivities add and identified feature vectors take the
strength-weighted mean.

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
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CompositionError,
    ConstraintError,
    ParameterError,
    PreconditionError,
    Record,
    ShapeError,
)
from .graphs import (
    AttributedGraph,
    Cospan,
    GraphMorphism,
    compose_graph_morphisms,
    identity_morphism,
    is_monomorphism,
    pushout_along_monos,
)
from .readers import (
    read_key, read_list, read_map, read_number, read_numbers, read_object, read_tuple
)

# Slack for floating-point comparisons against interval bounds and budgets.
_BOUND_SLACK = 1e-9


def _read_interval(raw, field: str) -> tuple[float, float]:
    return read_tuple(raw, field, "a [lo, hi] pair of numbers", read_number, read_number)


class Constraints(Record):
    """Interval bounds and a resource budget for an environmental state.

    ``phi_bounds`` holds one (lo, hi) interval per chemical channel; its
    length fixes the channel count k.

    Every number is read as :meth:`from_json` reads it: an interval that is
    not a pair of numbers, a ``phi_bounds`` that is not a list of them, or a
    ``budget`` that is not a number (a bool is not a number) raises
    :class:`ShapeError` naming it (``humidity``, ``phi_bounds[0]``,
    ``budget``), and intervals are stored as tuples of floats. A NaN bound or
    budget, an empty interval and a negative budget raise
    :class:`ParameterError` naming the field.
    """

    def __init__(
        self,
        humidity: tuple[float, float] = (0.0, 1.0),
        temperature: tuple[float, float] = (0.0, 40.0),
        phi_bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0),),
        budget: float = math.inf,
    ):
        humidity = _read_interval(humidity, "humidity")
        temperature = _read_interval(temperature, "temperature")
        phi_bounds = read_list(phi_bounds, "phi_bounds", _read_interval, "a list of [lo, hi] pairs")
        budget = read_number(budget, "budget")
        intervals = {"humidity": humidity, "temperature": temperature}
        intervals.update((f"phi_bounds[{i}]", b) for i, b in enumerate(phi_bounds))
        for name, (lo, hi) in intervals.items():
            # a NaN bound compares false, so every value would pass it
            if math.isnan(lo) or math.isnan(hi):
                raise ParameterError(f"{name}: bounds must be numbers, got [{lo}, {hi}]")
            if lo > hi:
                raise ParameterError(f"{name}: empty interval [{lo}, {hi}]")
        if math.isnan(budget):
            raise ParameterError("budget: must be a number, got nan")
        if budget < 0:
            raise ParameterError(f"budget: must be nonnegative, got {budget}")
        vars(self).update(
            humidity=humidity, temperature=temperature, phi_bounds=phi_bounds, budget=budget
        )

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
        pairs and ``budget`` a number; absent keys keep the defaults, and
        any other key raises :class:`ShapeError` naming it (``chi.budjet:
        unknown key``). The constructor reads the values: its
        :class:`ShapeError` or :class:`ParameterError` is raised with the
        field it names prefixed by ``field`` (``"chi."`` names
        ``chi.budget``)."""
        data = read_object(data, field[:-1] or "chi")
        for key in data:
            if key not in cls._fields:
                raise ShapeError(f"{field}{key}: unknown key")
        try:
            return cls(**data)
        except (ShapeError, ParameterError) as exc:  # the message starts with the field
            raise type(exc)(f"{field}{exc}") from exc


class EnvObject(Record):
    """Substrate graph plus resource field, chemical field, and constraints;
    ``rho`` and ``phi`` are kept in node declaration order and must be
    admissible (see :func:`_first_violation`). Each value is read as
    :meth:`from_json` reads it: a ``rho`` value as a number and a ``phi``
    vector as a list or tuple of numbers. A value that is not a number (a
    string, a bool) raises :class:`ShapeError` naming ``rho.<node>`` or
    ``phi.<node>[i]``, and a vector that is not a list or tuple (a number,
    a string, a numpy array) one naming ``phi.<node>``.

    The fields are checked as one (N, 1 + k) float64 row, node by node: rho,
    then the k chemical channels. The environment keeps that row, read-only,
    as the plain attribute ``_row``: an :class:`EnvBatch` stacks it and
    :func:`apply_env_morphism` transports its columns. Equality, ``repr``,
    ``replace`` and the wire do not see it."""

    def __init__(
        self,
        graph: AttributedGraph,
        rho: Mapping,  # node -> float >= 0
        phi: Mapping,  # node -> tuple of channel values
        chi: Constraints,
    ):
        nodes = graph.nodes
        if set(rho) != graph.node_set or set(phi) != graph.node_set:
            raise ShapeError("rho and phi must be defined on exactly the graph nodes")
        # node declaration order, the order of a batch's fields and the wire
        rho = {v: read_number(rho[v], f"rho.{v}") for v in nodes}
        phi = {v: read_numbers(phi[v], f"phi.{v}") for v in nodes}
        k = chi.channels
        for v, vec in phi.items():
            if len(vec) != k:
                raise ShapeError(f"phi at {v!r} has {len(vec)} channels, expected {k}")
        row = np.array([(rho[v], *phi[v]) for v in nodes], dtype=np.float64).reshape(-1, 1 + k)
        violation = _first_violation(row[None], nodes, chi)
        if violation:
            raise ConstraintError(violation)
        row.setflags(write=False)
        vars(self).update(graph=graph, rho=rho, phi=phi, chi=chi, _row=row)

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
        ``phi.n1[0]``), as does a missing key."""
        graph = AttributedGraph.from_json(data)
        return cls(
            graph=graph,
            rho=read_map(read_key(data, "rho"), "rho", graph.nodes, "node", read_number),
            phi=read_map(read_key(data, "phi"), "phi", graph.nodes, "node", read_numbers),
            chi=Constraints.from_json(data.get("chi", {}), "chi."),
        )


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


class EnvBatch(Record):
    """P environments on one graph under one constraint record: the batch
    form of :class:`EnvObject`.

    ``fields`` (P, N, 1 + k) holds environment i's fields at row i, node by
    node in the graph's declaration order: rho, then the k chemical
    channels. It is a read-only copy, validated once by the admissibility
    rule of :class:`EnvObject` (see :func:`_first_violation`): the first
    violating row decides the message. A batch of rows of checked
    environments or batches (``from_envs``, ``take``) is not checked again.
    """

    __eq__ = object.__eq__  # one batch equals only itself
    __hash__ = object.__hash__

    def __init__(self, graph: AttributedGraph, chi: Constraints, fields: np.ndarray):
        fields = np.array(fields, dtype=np.float64)
        nodes, k = len(graph.nodes), chi.channels
        if fields.ndim != 3 or fields.shape[1:] != (nodes, 1 + k):
            raise ShapeError(
                f"environment fields of shape {fields.shape} do not match "
                f"{nodes} nodes with 1 + {k} fields each"
            )
        violation = _first_violation(fields, graph.nodes, chi)
        if violation:
            raise ConstraintError(violation)
        self._store(graph, chi, fields)

    def _store(self, graph, chi, fields: np.ndarray) -> None:
        fields.setflags(write=False)
        vars(self).update(graph=graph, chi=chi, fields=fields)

    @classmethod
    def from_envs(cls, envs: Sequence[EnvObject]) -> "EnvBatch":
        """The batch of ``envs``, in order: their checked rows, stacked and
        not checked again. They must share one graph and one constraint
        record; the first that does not raises :class:`ParameterError` naming
        its index, as does an empty list."""
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
        return cls._selected(first.graph, first.chi, np.stack([env._row for env in envs]))

    @classmethod
    def _selected(cls, graph, chi, fields: np.ndarray) -> "EnvBatch":
        """A batch of new ``fields`` rows taken from checked environments, unchecked."""
        batch = object.__new__(cls)
        batch._store(graph, chi, fields)
        return batch

    def __len__(self) -> int:
        return len(self.fields)

    def take(self, rows) -> "EnvBatch":
        """The environments at ``rows``, in that order; a row may repeat."""
        return EnvBatch._selected(
            self.graph, self.chi, self.fields[np.asarray(rows, dtype=np.intp)]
        )

    def env(self, i: int) -> EnvObject:
        """Environment ``i`` as an :class:`EnvObject`, for a witness or the
        wire. It is built from the batch's row, which was checked with the
        batch, so no value is read or checked again: rho and phi are that
        row's floats, and ``_row`` is a read-only copy of it."""
        row = self.fields[i].copy()
        row.setflags(write=False)
        rows = row.tolist()
        nodes = self.graph.nodes
        env = object.__new__(EnvObject)
        vars(env).update(
            graph=self.graph,
            rho={v: values[0] for v, values in zip(nodes, rows)},
            phi={v: tuple(values[1:]) for v, values in zip(nodes, rows)},
            chi=self.chi,
            _row=row,
        )
        return env


def _first_violation(fields: np.ndarray, nodes: Sequence, chi: Constraints) -> str | None:
    """The admissibility rule: the message naming the first violation in
    the first inadmissible row of the (P, N, 1 + k) ``fields``, or None.
    Within a row: rho by node (negative, NaN or infinite), then the budget
    (rho added left to right, as :func:`ordered_sum` does), then phi by node
    and channel (outside its bounds, NaN or infinite); each bound allows
    ``_BOUND_SLACK``."""
    rho, phi = fields[:, :, 0], fields[:, :, 1:]
    bad_rho = ~((rho >= -_BOUND_SLACK) & (rho < math.inf))  # NaN included
    # the running total is ordered_sum's, bit for bit; an overflow gives
    # inf and inf - inf NaN, silently, as floats do
    with np.errstate(over="ignore", invalid="ignore"):
        totals = _ordered_sums(rho)
    over = totals > chi.budget + _BOUND_SLACK
    lo = np.array([b[0] for b in chi.phi_bounds], dtype=np.float64)
    hi = np.array([b[1] for b in chi.phi_bounds], dtype=np.float64)
    inside = (phi >= lo - _BOUND_SLACK) & (phi <= hi + _BOUND_SLACK)
    bad_phi = ~(inside & (np.abs(phi) < math.inf))
    bad = bad_rho.any(axis=1) | over | bad_phi.any(axis=(1, 2))
    if not bad.any():
        return None
    i = int(bad.argmax())
    if bad_rho[i].any():
        node = int(bad_rho[i].argmax())
        r = float(rho[i, node])
        what = "negative" if r < 0 else "not a number" if math.isnan(r) else "infinite"
        return f"rho at node {nodes[node]!r} is {what} ({r})"
    if over[i]:
        return f"total resource {float(totals[i])} exceeds budget {chi.budget}"
    node, ch = divmod(int(bad_phi[i].argmax()), chi.channels)
    lo_ch, hi_ch = chi.phi_bounds[ch]
    where = f"phi channel {ch} at node {nodes[node]!r} is {float(phi[i, node, ch])}"
    if inside[i, node, ch]:  # infinite, inside an infinite bound
        return f"{where}, not a finite number"
    return f"{where}, outside bounds [{lo_ch}, {hi_ch}]"


# ---------------------------------------------------------------------------
# Field transformation rules
# ---------------------------------------------------------------------------

class FieldRule(Record):
    """How a scalar field transports along a graph map: the affine rule
    x -> factor * f_*(x) + delta.

    :meth:`apply` sums the field over each fiber of the node map (the
    pushforward f_*, which conserves the total), multiplies every pushed
    value by ``factor``, then adds ``delta`` on the target nodes it names.
    ``FieldRule()`` is the pushforward, ``FieldRule(delta=...)`` an add and
    ``FieldRule(factor=...)`` a rescale; any two rules compose (see
    :func:`_compose_rules`). A factor of 1.0 and an empty delta change no
    bit of the pushed values.

    ``factor`` and each ``delta`` value are read as numbers when the rule is
    built; one that is not (a string, a bool) raises :class:`ShapeError`
    naming ``factor`` or ``delta.<node>``. ``delta`` is stored as a dict,
    empty when none is given.
    """

    def __init__(
        self,
        delta: Mapping | None = None,  # target node -> increment
        factor: float = 1.0,
    ):
        factor = read_number(factor, "factor")
        delta = {w: read_number(d, f"delta.{w}") for w, d in dict(delta or {}).items()}
        vars(self).update(delta=delta, factor=factor)

    def apply(self, values: Mapping, fg: GraphMorphism) -> dict:
        """``values`` (source node -> number) moved along ``fg``. A value
        keyed by a node outside ``fg``'s source, or a delta naming a node
        outside its target, raises :class:`ParameterError` naming the
        first."""
        node_map = fg.node_map
        if not values.keys() <= node_map.keys():
            unknown = next(v for v in values if v not in node_map)
            raise ParameterError(f"values name unknown source node {unknown!r}")
        pushed = {w: 0.0 for w in fg.target.nodes}
        for v, x in values.items():
            pushed[node_map[v]] += x
        pushed = {w: x * self.factor for w, x in pushed.items()}
        for w, d in self.delta.items():
            if w not in pushed:
                raise ParameterError(f"delta names unknown target node {w!r}")
            pushed[w] += d
        return pushed


def identity_rule() -> FieldRule:
    return FieldRule()


def _compose_rules(first: FieldRule, second: FieldRule, second_fg: GraphMorphism) -> FieldRule:
    """Rule equal to applying ``first`` along its map, then ``second`` along
    ``second_fg``, up to float rounding: factor f1 * f2 and delta
    f2 * P2(d1) + d2, the first delta moved through ``second``, with its
    zero entries dropped. A first delta naming a node outside its map's
    target raises the :class:`ParameterError` that applying its rule would,
    as a second one does from :meth:`FieldRule.apply`."""
    for v in first.delta:
        if v not in second_fg.node_map:
            raise ParameterError(f"delta names unknown target node {v!r}")
    pushed = second.apply(first.delta, second_fg)
    return FieldRule(
        delta={w: d for w, d in pushed.items() if d != 0.0}, factor=first.factor * second.factor
    )


class EnvMorphism(Record):
    """Admissible transformation of environmental states.

    Carries the underlying graph map, one rule for the resource field, one
    rule per chemical channel, and the constraint map (``None`` keeps the
    source constraints, otherwise the target constraints must tighten
    them). Admissibility of the transported fields is checked when the
    morphism is applied.
    """

    def __init__(
        self,
        fg: GraphMorphism,
        rho_rule: FieldRule,
        phi_rules: tuple[FieldRule, ...],
        chi_map: Constraints | None = None,  # None = identity
    ):
        vars(self).update(fg=fg, rho_rule=rho_rule, phi_rules=tuple(phi_rules), chi_map=chi_map)


def identity_env_morphism(e: EnvObject) -> EnvMorphism:
    return EnvMorphism(
        fg=identity_morphism(e.graph),
        rho_rule=identity_rule(),
        phi_rules=tuple(identity_rule() for _ in range(e.chi.channels)),
    )


def apply_env_morphism(e: EnvObject, f: EnvMorphism) -> EnvObject:
    """Transport an environmental state along a morphism.

    Each column of ``e``'s checked row (rho, then each chemical channel)
    moves through its own rule's :meth:`FieldRule.apply`. Raises
    :class:`ConstraintError` naming the violated bound when the transported
    fields are inadmissible for the target constraints,
    :class:`CompositionError` when the graph map does not start at ``e``, and
    :class:`ParameterError` for a phi rule count other than the channel
    count or a delta naming a node outside the target.
    """
    if f.fg.source != e.graph:
        raise CompositionError("morphism does not start at this environment")
    if len(f.phi_rules) != e.chi.channels:
        raise ParameterError(
            f"{len(f.phi_rules)} phi rules for {e.chi.channels} channels"
        )
    new_rho, *channels = (
        rule.apply(dict(zip(e.graph.nodes, column)), f.fg)
        for rule, column in zip((f.rho_rule, *f.phi_rules), e._row.T.tolist())
    )
    new_phi = {w: tuple(channel[w] for channel in channels) for w in f.fg.target.nodes}
    if f.chi_map is None:
        new_chi = e.chi
    else:
        if not f.chi_map.tightens(e.chi):
            raise ConstraintError("constraint map must tighten the source intervals")
        new_chi = f.chi_map
    return EnvObject(f.fg.target, new_rho, new_phi, new_chi)


def compose_env_morphisms(f: EnvMorphism, g: EnvMorphism) -> EnvMorphism:
    """Diagrammatic composite: first ``f``, then ``g``.

    Field rules compose componentwise, any two of them (see
    :func:`_compose_rules`). A graph-map mismatch or different channel
    counts raise :class:`CompositionError`. A delta naming a node outside
    its map's target raises :class:`ParameterError`, as applying its
    morphism would.

    The composite's constraint map is ``g``'s, or ``f``'s when ``g`` has
    none. When both have one, they must be equal, or
    :class:`CompositionError` is raised: one map cannot carry both checks,
    so the composite would apply where ``f`` then ``g`` raises
    :class:`ConstraintError`. A composite checks its source's constraints
    against its map and its result's fields against them; it does not
    re-check the fields of the intermediate environment that ``f`` alone
    would produce.
    """
    fg = compose_graph_morphisms(f.fg, g.fg)
    if len(f.phi_rules) != len(g.phi_rules):
        raise CompositionError("channel counts differ")
    if f.chi_map is not None and g.chi_map is not None and g.chi_map != f.chi_map:
        raise CompositionError("two constraint maps compose only when they are equal")
    return EnvMorphism(
        fg=fg,
        rho_rule=_compose_rules(f.rho_rule, g.rho_rule, g.fg),
        phi_rules=tuple(
            _compose_rules(a, b, g.fg) for a, b in zip(f.phi_rules, g.phi_rules)
        ),
        chi_map=g.chi_map if g.chi_map is not None else f.chi_map,
    )


def ordered_sum(values) -> float:
    """Sum of floats, left to right. Builtin ``sum`` of floats is
    compensated from Python 3.12 on, so it would give other last bits on
    other interpreters."""
    total = 0.0
    for x in values:
        total += x
    return total


def _ordered_sums(values: np.ndarray) -> np.ndarray:
    """:func:`ordered_sum` along the last axis, bit for bit: ``cumsum`` adds
    one term at a time, left to right, and the closing ``0.0 +`` makes a
    sum of -0.0 terms 0.0, as a total that starts from 0.0 does; 0.0 for an
    empty axis."""
    if not values.shape[-1]:
        return np.zeros(values.shape[:-1])
    return 0.0 + values.cumsum(-1)[..., -1]


def _l1_distances(firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
    """The L1 distance of every pair of (K, w) blocks of two (..., K, w)
    arrays, as one (...) array: each row's |gaps| added left to right from
    column 0, then the K row totals by :func:`_ordered_sums`, so the bits
    of :func:`ordered_sum` over the same terms. An overflow gives inf,
    silently, as Python floats do, under the caller's ``np.errstate``."""
    gaps = np.abs(firsts - seconds)
    rows = gaps[..., 0] if gaps.shape[-1] else np.zeros(gaps.shape[:-1])
    for column in range(1, gaps.shape[-1]):
        rows = rows + gaps[..., column]
    return _ordered_sums(rows)


def _map_l1(first: Mapping, second: Mapping) -> float:
    """The L1 distance of two maps of vectors, by :func:`_l1_distances` on
    one key list: the keys of ``first`` in order, then the keys only
    ``second`` has. A missing vector, and the missing tail of a shorter
    one, are zeros, so an unmatched node, edge, channel or feature counts
    its full norm."""
    keys = [*first, *(key for key in second if key not in first)]
    width = max(map(len, [*first.values(), *second.values()]), default=0)
    pad = (0.0,) * width
    rows = [[(*vectors.get(key, ()), *pad)[:width] for key in keys] for vectors in (first, second)]
    with np.errstate(over="ignore"):  # an overflow gives inf, as floats do
        return float(_l1_distances(*np.array(rows).reshape(2, len(keys), width)))


def env_distance(e1: EnvObject, e2: EnvObject) -> float:
    """L1 distance between environmental states on a shared id universe.

    The sum of three components, each of weight 1: resource field, chemical
    field (summed over channels), and the node/edge symmetric-difference
    count. Unmatched nodes count their full field norms, and a channel
    only one environment has counts its full norm. Constraint records are
    not compared.
    """
    d_rho = _map_l1(*({v: (x,) for v, x in e.rho.items()} for e in (e1, e2)))
    struct = len(e1.graph.node_set ^ e2.graph.node_set) + len(
        set(e1.graph.edge_keys) ^ set(e2.graph.edge_keys)
    )
    return d_rho + _map_l1(e1.phi, e2.phi) + struct


def env_distances(firsts: EnvBatch, seconds: EnvBatch) -> np.ndarray:
    """:func:`env_distance` of every pair (``firsts`` row i, ``seconds`` row
    i), as one (P,) array, by the same kernel: on one graph the structural
    count is 0, and the resource distance adds to the chemical one. Two
    batches on different graphs or with different channel counts raise
    :class:`ParameterError`."""
    if firsts.graph != seconds.graph or firsts.chi.channels != seconds.chi.channels:
        raise ParameterError("environment distances need batches on one graph and channel count")
    one, two = firsts.fields, seconds.fields
    with np.errstate(over="ignore"):  # an overflow gives inf, as floats do
        return _l1_distances(one[..., :1], two[..., :1]) + _l1_distances(one[..., 1:], two[..., 1:])


# ---------------------------------------------------------------------------
# Mycelial states
# ---------------------------------------------------------------------------


class MycObject(Record):
    """Connected network with edge conductivities and node feature vectors,
    kept in graph declaration order. Each value is read as
    :meth:`from_json` reads it: a ``sigma`` value as a number and an
    ``omega`` vector as a list or tuple of numbers. A value that is not a
    number (a string, a bool) raises :class:`ShapeError` naming
    ``sigma.<edge>`` or ``omega.<node>[i]``, and a vector that is not a list
    or tuple (a number, a string, a numpy array) one naming ``omega.<node>``.
    The first conductivity that is not finite and nonnegative, or feature
    that is not finite, raises :class:`ParameterError` naming it."""

    def __init__(
        self,
        graph: AttributedGraph,
        sigma: Mapping,  # edge -> float >= 0
        omega: Mapping,  # node -> tuple of feature values
    ):
        if not graph.is_connected():
            raise ShapeError("mycelial network must be connected")
        if set(sigma) != set(graph.edge_ids):
            raise ShapeError("sigma must be defined on exactly the graph edges")
        if set(omega) != graph.node_set:
            raise ShapeError("omega must be defined on exactly the graph nodes")
        # declaration order, the order of the wire and of every distance sum
        sigma = {e: read_number(sigma[e], f"sigma.{e}") for e in graph.edge_ids}
        omega = {v: read_numbers(omega[v], f"omega.{v}") for v in graph.nodes}
        for e, x in sigma.items():
            if not 0.0 <= x < math.inf:
                raise ParameterError(
                    f"sigma at edge {e!r} must be a finite nonnegative number, got {x}"
                )
        lengths = {len(v) for v in omega.values()}
        if len(lengths) > 1:
            raise ShapeError("omega feature vectors must share one length")
        for v, vec in omega.items():
            for i, x in enumerate(vec):
                if not math.isfinite(x):
                    raise ParameterError(
                        f"omega at node {v!r} feature {i} must be a finite number, got {x}"
                    )
        vars(self).update(graph=graph, sigma=sigma, omega=omega)

    @property
    def feature_count(self) -> int:
        return len(next(iter(self.omega.values()))) if self.omega else 0

    def _strengths(self) -> dict:
        """Node -> total conductivity of its incident edges (loops counted
        once), each total added in edge declaration order."""
        strengths = {v: 0.0 for v in self.graph.nodes}
        for e, (u, v) in self.graph.edges:
            x = self.sigma[e]
            strengths[u] += x
            if v != u:
                strengths[v] += x
        return strengths

    def node_strength(self, v) -> float:
        """Total conductivity of edges incident to v (loops counted once)."""
        return self._strengths()[v]

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
        ``omega.n1[0]``), as does a missing key."""
        graph = AttributedGraph.from_json(data)
        return cls(
            graph=graph,
            sigma=read_map(read_key(data, "sigma"), "sigma", graph.edge_ids, "edge", read_number),
            omega=read_map(read_key(data, "omega"), "omega", graph.nodes, "node", read_numbers),
        )


class DistanceWeights(Record):
    """Weights of the feature (``omega``), conductivity (``sigma``) and
    structure terms of :func:`myc_distance`. Each is read as a number; one
    that is not (a string, a bool) raises :class:`ShapeError` naming it."""

    def __init__(self, omega: float = 1.0, sigma: float = 1.0, structure: float = 1.0):
        weights = tuple(map(read_number, (omega, sigma, structure), self._fields))
        if not all(w >= 0 for w in weights):
            raise ParameterError(f"distance weights must be nonnegative numbers, got {weights}")
        # an infinite weight times a zero component is NaN: every distance
        # that weight touches would read NaN
        if math.inf in weights:
            raise ParameterError(f"distance weights must be finite, got {weights}")
        vars(self).update(zip(self._fields, weights))


def myc_distance(
    m1: MycObject, m2: MycObject, weights: DistanceWeights = DistanceWeights()
) -> float:
    """Weighted L1 distance between mycelial states over a shared id universe.

    Feature vectors are compared on matched nodes, conductivities on
    matched edges (same id and endpoints); unmatched elements contribute
    their full norms plus a symmetric-difference count. This is a metric
    on states over a fixed id universe.
    """
    sigma1 = {k: (m1.sigma[k[0]],) for k in m1.graph.edge_keys}
    sigma2 = {k: (m2.sigma[k[0]],) for k in m2.graph.edge_keys}
    d_omega = _map_l1(m1.omega, m2.omega)
    d_sigma = _map_l1(sigma1, sigma2)
    struct = len(m1.graph.node_set ^ m2.graph.node_set) + len(
        sigma1.keys() ^ sigma2.keys()
    )
    return weights.omega * d_omega + weights.sigma * d_sigma + weights.structure * struct


# ---------------------------------------------------------------------------
# Mycelial morphisms and fusion
# ---------------------------------------------------------------------------


def _weighted_mean(va, vb, wa: float, wb: float) -> tuple:
    """Two feature vectors merged entrywise, weighted by their nodes'
    strengths ``wa`` and ``wb``; the plain mean when both are zero."""
    if wa + wb > 0:
        return tuple((wa * a + wb * b) / (wa + wb) for a, b in zip(va, vb))
    return tuple(0.5 * (a + b) for a, b in zip(va, vb))


class MycMorphism(Record):
    """Structure-compatible update between mycelial states: a graph map
    between the two networks' graphs, with the target fields as explicit
    data (a fusion leg's, an induced state update's, a composite's)."""

    def __init__(self, source: MycObject, target: MycObject, graph_map: GraphMorphism):
        if graph_map.source != source.graph:
            raise ShapeError("graph map must start at the source network")
        if graph_map.target != target.graph:
            raise ShapeError("graph map must end at the target network")
        vars(self).update(source=source, target=target, graph_map=graph_map)

    def is_identity(self, tol: float = 0.0) -> bool:
        if self.source.graph != self.target.graph:
            return False
        return myc_distance(self.source, self.target) <= tol


def identity_myc_morphism(m: MycObject) -> MycMorphism:
    return MycMorphism(m, m, identity_morphism(m.graph))


def compose_myc_morphisms(f: MycMorphism, g: MycMorphism) -> MycMorphism:
    """Diagrammatic composite; the result carries explicit target fields."""
    if f.target != g.source:
        raise CompositionError("cannot compose: target of f is not source of g")
    return MycMorphism(f.source, g.target, compose_graph_morphisms(f.graph_map, g.graph_map))


def _merged(
    target: AttributedGraph, legs: Sequence[tuple[MycObject, GraphMorphism]]
) -> MycObject:
    """The network on ``target`` holding the fields of each leg, a (network,
    graph map into ``target``) pair, merged along its map: in one fiber
    conductivities add and feature vectors take the strength-weighted mean,
    pairwise in leg order and then in each network's declaration order."""
    sigma: dict = {}
    omega: dict = {}
    strength: dict = {}  # target node -> strength merged into it so far
    for m, gt in legs:
        for e in m.graph.edge_ids:
            img = gt.edge_map[e]
            sigma[img] = sigma[img] + m.sigma[e] if img in sigma else m.sigma[e]
        strengths = m._strengths()
        for v in m.graph.nodes:
            img, w = gt.node_map[v], strengths[v]
            if img in omega:
                omega[img] = _weighted_mean(omega[img], m.omega[v], strength[img], w)
                strength[img] = strength[img] + w
            else:
                omega[img], strength[img] = m.omega[v], w
    return MycObject(target, sigma, omega)


def transport_myc(m: MycObject, gt: GraphMorphism) -> MycObject:
    """Coarse-grain a mycelial state along a graph map by the merge of
    :func:`anastomosis`: fibers of the edge map add their conductivities;
    fibers of the node map merge feature vectors by the strength-weighted
    mean, pairwise in source declaration order. A map that does not start at
    ``m``'s graph raises :class:`ShapeError`, as :class:`MycMorphism` does;
    a merge that overflows raises :class:`MycObject`'s
    :class:`ParameterError` naming it.
    """
    if gt.source != m.graph:
        raise ShapeError("graph map must start at the source network")
    return _merged(gt.target, [(m, gt)])


def anastomosis(a: MycObject, m1: MycMorphism, m2: MycMorphism) -> MycObject:
    """Fuse two networks along a shared substructure.

    ``m1`` and ``m2`` embed ``a`` into the two networks; both graph maps
    must be monomorphisms. The underlying graph of the result is the
    pushout of the graph cospan; the two networks' fields merge along the
    pushout injections. On identified edges the conductivities add, as
    parallel conductances do; on identified nodes the feature vectors take
    the mean weighted by each node's total incident conductivity, falling
    back to the plain mean when both totals are zero.

    Raises :class:`PreconditionError` for non-mono legs, and
    :class:`MycObject`'s :class:`ParameterError` naming the fused edge or
    node if a merge overflows, as :func:`transport_myc` does. Use
    :func:`anastomosis_with_injections` when the inclusion morphisms of
    the two fused networks are needed as well.
    """
    fused, _, _ = anastomosis_with_injections(a, m1, m2)
    return fused


def anastomosis_with_injections(
    a: MycObject, m1: MycMorphism, m2: MycMorphism
) -> tuple[MycObject, MycMorphism, MycMorphism]:
    """As :func:`anastomosis`, returning the two inclusion morphisms too."""
    if m1.source != a or m2.source != a:
        raise PreconditionError("both legs must start at the shared substructure")
    if not is_monomorphism(m1.graph_map) or not is_monomorphism(m2.graph_map):
        raise PreconditionError("anastomosis requires mono legs")
    b, c = m1.target, m2.target
    fused_graph, inj_b, inj_c = pushout_along_monos(Cospan(a.graph, m1.graph_map, m2.graph_map))
    fused = _merged(fused_graph, [(b, inj_b), (c, inj_c)])
    return fused, MycMorphism(b, fused, inj_b), MycMorphism(c, fused, inj_c)
