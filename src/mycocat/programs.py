"""Control programs, the reference bilinear dynamics, and state extraction.

A program is a piecewise-constant control signal: an ordered list of
(length, control-vector) pieces. Programs concatenate sequentially, and
the null program (no pieces) is the unit. The reference transition system
evolves a state vector S by dS/dt = (A0 + sum_i u_i A_i) S, integrated
piece-exactly with matrix exponentials, so concatenation corresponds to
multiplying piece flows and causality holds to machine precision.

A batch of programs is a :class:`PieceTable` and a batch of states one
(P, n) array, or a (P, k, n) array when each program runs from k states;
``Program`` and ``InternalState`` are the single-item and wire types.

States carry a layout tying vector indices to (node, feature) slots of a
fixed observation graph; ``extract`` reads the state out as a mycelial
network object with one configured conductivity on every edge.

All values are immutable after construction; evolution is deterministic
and side-effect free.

JSON wire formats::

    program:  {"pieces": [[length, [u1, ..., uc]], ...]}
    dynamics: {"drift": [[...], ...], "controls": [[[...], ...], ...]}
    state:    {"vector": [...], "graph": {...}, "features": m}
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .envmyc import DistanceWeights, MycObject, _l1_distances, ordered_sum
from .errors import NumericError, ParameterError, Record, ShapeError
from .graphs import AttributedGraph
from .readers import (
    read_integer,
    read_key,
    read_list,
    read_matrix,
    read_number,
    read_numbers,
    read_object,
    read_tuple,
)


class Program(Record):
    """Piecewise-constant control signal; the empty tuple is the null program.

    Each length and control is read as a number, as :meth:`from_json` reads
    it: a piece that is not a (length, controls) pair, or holds a value that
    is not a number (a string, a bool), raises :class:`ShapeError` naming
    ``pieces``."""

    def __init__(self, pieces: tuple[tuple[float, tuple[float, ...]], ...] = ()):
        try:
            pieces = tuple(
                (read_number(length, "pieces"), tuple(read_number(u, "pieces") for u in control))
                for length, control in pieces
            )
        except (TypeError, ValueError):
            raise ShapeError(
                "pieces: each piece must be (length, (u1, ..., uc)) with numbers"
            ) from None
        widths = {len(control) for _, control in pieces}
        if len(widths) > 1:
            raise ShapeError("all pieces must share one control width")
        for length, control in pieces:
            if not length > 0:
                raise ParameterError("piece lengths must be strictly positive")
            if not (math.isfinite(length) and all(map(math.isfinite, control))):
                raise ParameterError("piece lengths and controls must be finite")
        vars(self).update(pieces=pieces)

    @property
    def duration(self) -> float:
        return ordered_sum(length for length, _ in self.pieces)

    @property
    def channels(self) -> int:
        return len(self.pieces[0][1]) if self.pieces else 0

    def control_at(self, tau: float) -> tuple[float, ...]:
        """Control in effect at time tau; boundaries belong to the earlier piece."""
        if not self.pieces:
            raise ParameterError("the null program has no controls")
        if tau < 0 or tau > self.duration + 1e-12:
            raise ParameterError(f"time {tau} outside [0, {self.duration}]")
        upto = 0.0
        for length, control in self.pieces:
            upto += length
            if tau <= upto:
                return control
        return self.pieces[-1][1]

    def scale_amplitude(self, factor: float) -> "Program":
        """Every control times ``factor``: :meth:`PieceTable.scale_amplitude`
        of a one-program table."""
        return PieceTable.from_programs([self]).scale_amplitude(factor).program(0)

    def to_json(self) -> dict:
        return {"pieces": [[length, list(control)] for length, control in self.pieces]}

    @classmethod
    def from_json(cls, data: Mapping) -> "Program":
        """The program in the wire format, a JSON object; ``pieces`` must be
        a list of ``[length, [u1, ..., uc]]`` entries of numbers (not bools),
        and a piece of another shape raises :class:`ShapeError` naming it
        (``pieces[0]``), as does a missing ``pieces``."""
        data = read_object(data, "program")
        return cls(read_list(read_key(data, "pieces"), "pieces", _read_piece))


def _read_piece(raw, field: str) -> tuple:
    return read_tuple(
        raw, field, "[length, [u1, ..., uc]] with numbers", read_number, read_numbers
    )


NULL_PROGRAM = Program()


def concatenate(p: Program, q: Program) -> Program:
    """Run p first, then q; durations add and the piece lists chain."""
    if p.pieces and q.pieces and p.channels != q.channels:
        raise ShapeError("cannot concatenate programs with different control widths")
    return Program(p.pieces + q.pieces)


def _float_array(raw, field: str, read) -> np.ndarray:
    """``raw`` as a new float64 array: an integer or float array as it is,
    with no per-element read, and anything else as ``read(raw, field)``
    reads it. An array of another dtype (strings, bools, objects) raises
    :class:`ShapeError` naming ``field``."""
    if isinstance(raw, np.ndarray):
        if raw.dtype.kind not in "iuf":
            raise ShapeError(f"{field}: must be numbers, got an array of {raw.dtype}")
        return raw.astype(np.float64)
    return np.array(read(raw, field), dtype=np.float64)


def _read_lengths(raw, field: str) -> tuple:
    try:
        return read_numbers(raw, field)
    except ShapeError:
        raise ShapeError(f"{field}: must be a list of numbers") from None


def _read_rows(raw, field: str) -> tuple:
    try:
        rows = read_list(raw, field, read_numbers)
    except ShapeError:
        raise ShapeError(f"{field}: must be rows of numbers") from None
    if len({len(row) for row in rows}) > 1:
        raise ShapeError("all pieces must share one control width")
    return rows


class PieceTable(Record):
    """The pieces of P programs listed back to back: ``lengths`` (K,),
    ``inputs`` (K, c) and ``counts`` (P,), program i owning the next
    ``counts[i]`` pieces. The batch form of :class:`Program`, validated once
    with the same errors: one control width, and each piece's length
    strictly positive and its length and controls finite; each count must
    be an integer (3.0 reads as 3; a bool, a fraction or an infinity is
    refused). ``lengths`` is an integer or float array or a list of
    numbers, ``inputs`` an integer or float array or a list of rows of
    numbers, as :func:`~mycocat.readers.read_numbers` reads them (a bool or
    a string is not a number); anything else raises :class:`ShapeError`
    saying the field must be numbers. The arrays are read-only copies;
    every operation returns a new table, and one that only selects pieces
    of checked programs or tables is not checked again.
    """

    __eq__ = object.__eq__  # one table equals only itself
    __hash__ = object.__hash__

    def __init__(self, lengths: np.ndarray, inputs: np.ndarray, counts: np.ndarray):
        lengths = _float_array(lengths, "lengths", _read_lengths)
        inputs = _float_array(inputs, "inputs", _read_rows)
        counts = np.asarray(counts)
        if counts.size and counts.dtype.kind not in "iu":  # 3.0 reads as 3
            with np.errstate(invalid="ignore"):  # a count past the integers is not whole
                whole = counts.dtype.kind == "f" and (counts.astype(np.intp) == counts).all()
            if not whole:
                raise ShapeError(f"piece counts must be integers, got {counts.tolist()}")
        counts = counts.astype(np.intp)
        if inputs.size == 0 and inputs.ndim < 2:
            inputs = inputs.reshape(0, 0)
        if lengths.ndim != 1 or counts.ndim != 1:
            raise ShapeError("piece lengths and counts must be one-dimensional")
        if inputs.ndim != 2:
            raise ShapeError("all pieces must share one control width")
        if len(inputs) != len(lengths) or counts.sum() != len(lengths) or (counts < 0).any():
            raise ShapeError(
                f"{len(lengths)} lengths, {len(inputs)} control rows and "
                f"piece counts {counts.sum()} do not agree"
            )
        ok = (lengths > 0) & (lengths < math.inf) & np.isfinite(inputs).all(axis=1)
        if not ok.all():
            # the first bad piece decides, as in Program
            if not lengths[ok.argmin()] > 0:
                raise ParameterError("piece lengths must be strictly positive")
            raise ParameterError("piece lengths and controls must be finite")
        self._store(lengths, inputs, counts)

    def _store(self, lengths, inputs, counts):
        for value in (lengths, inputs, counts):
            value.setflags(write=False)
        vars(self).update(lengths=lengths, inputs=inputs, counts=counts)

    @classmethod
    def _selected(cls, lengths, inputs, counts) -> "PieceTable":
        """A table of new arrays taken from checked programs or tables, unchecked."""
        table = object.__new__(cls)
        table._store(lengths, inputs, counts)
        return table

    @classmethod
    def _stacked(cls, tables: Sequence["PieceTable"]) -> "PieceTable":
        """The programs of checked ``tables`` of one control width, one
        table after another, unchecked; a table without pieces may have any
        width."""
        width = max((t.channels for t in tables if len(t.lengths)), default=0)
        return cls._selected(
            np.concatenate([t.lengths for t in tables]),
            np.concatenate([t.inputs.reshape(len(t.lengths), width) for t in tables]),
            np.concatenate([t.counts for t in tables]),
        )

    @classmethod
    def from_programs(cls, programs: Iterable[Program]) -> "PieceTable":
        """The table of ``programs``, in order, read once, so an iterator
        gives the table of its items. :class:`Program` has checked each
        piece, so only the shared control width is checked here."""
        programs = list(programs)
        pieces = [piece for p in programs for piece in p.pieces]
        widths = {len(control) for _, control in pieces}
        if len(widths) > 1:
            raise ShapeError("all pieces must share one control width")
        inputs = np.array([control for _, control in pieces], dtype=np.float64)
        return cls._selected(
            np.array([length for length, _ in pieces], dtype=np.float64),
            inputs.reshape(len(pieces), max(widths, default=0)),
            np.array([len(p.pieces) for p in programs], dtype=np.intp),
        )

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def channels(self) -> int:
        return self.inputs.shape[1]

    def program(self, i: int) -> Program:
        """Program ``i`` as a :class:`Program`, for a witness or the wire."""
        i = range(len(self))[i]
        start = int(self.counts[:i].sum())
        own = slice(start, start + int(self.counts[i]))
        return Program(
            tuple(zip(self.lengths[own].tolist(), map(tuple, self.inputs[own].tolist())))
        )

    def take(self, rows) -> "PieceTable":
        """The programs at ``rows``, in that order; a row may repeat."""
        rows = np.asarray(rows, dtype=np.intp)
        counts = self.counts[rows]
        shift = (np.cumsum(self.counts) - self.counts)[rows] - (np.cumsum(counts) - counts)
        pieces = np.arange(counts.sum()) + np.repeat(shift, counts)
        return PieceTable._selected(self.lengths[pieces], self.inputs[pieces], counts)

    def repeat(self, k: int) -> "PieceTable":
        """Each program ``k`` times in a row."""
        return self.take(np.repeat(np.arange(len(self)), k))

    def concatenate(self, other: "PieceTable") -> "PieceTable":
        """Row i runs this table's program i, then ``other``'s: the row-wise
        :func:`concatenate`."""
        if len(self) != len(other):
            raise ShapeError(f"cannot concatenate {len(self)} programs with {len(other)}")
        if len(self.lengths) and len(other.lengths) and self.channels != other.channels:
            raise ShapeError("cannot concatenate programs with different control widths")
        # a stable sort by row keeps each row's pieces of this table first
        both = PieceTable._stacked([self, other])
        rows = np.repeat(np.tile(np.arange(len(self)), 2), both.counts)
        order = np.argsort(rows, kind="stable")
        return self._selected(both.lengths[order], both.inputs[order], self.counts + other.counts)

    def last_pieces(self) -> "PieceTable":
        """Each program's last piece; an empty program stays empty."""
        last = np.cumsum(self.counts)[self.counts > 0] - 1
        return PieceTable._selected(
            self.lengths[last], self.inputs[last], np.minimum(self.counts, 1)
        )

    def scale_amplitude(self, factor: float) -> "PieceTable":
        """Every control times ``factor``, one float64 product each.
        ``factor`` is read by :func:`read_number`: a value that is not a
        number (None, a bool, a string) raises :class:`ShapeError` naming it.
        A product that is not finite raises :class:`ParameterError`, as the
        table refuses it."""
        factor = read_number(factor, "factor")
        with np.errstate(over="ignore", invalid="ignore"):
            inputs = factor * self.inputs
        return PieceTable(self.lengths, inputs, self.counts)


class StateLayout(Record):
    """Assignment of vector indices to (node, feature) slots.

    Index order is node-major in the declaration order of the observation
    graph: index = node_position * feature_count + feature_index.
    ``feature_count`` is read as an integer (3.0 reads as 3); one that is
    not (a string, a bool, a fraction) raises :class:`ShapeError`.
    """

    def __init__(self, graph: AttributedGraph, feature_count: int):
        feature_count = read_integer(feature_count, "feature_count")
        if feature_count < 1:
            raise ParameterError("feature_count must be positive")
        vars(self).update(graph=graph, feature_count=feature_count)

    @property
    def dim(self) -> int:
        return len(self.graph.nodes) * self.feature_count

    def slots(self) -> list[tuple]:
        """The (node, feature) pair for every vector index, in order."""
        return [
            (v, f)
            for v in self.graph.nodes
            for f in range(self.feature_count)
        ]

    def node_rows(self, vector: np.ndarray) -> list[tuple[float, ...]]:
        """The feature tuple of every node, in declaration order."""
        return [tuple(row) for row in vector.reshape(-1, self.feature_count).tolist()]


class InternalState(Record):
    """State vector together with its observation layout.

    ``vector`` is an integer or float array or a list of numbers, as
    :meth:`from_json` reads it (a bool or a string is not a number);
    anything else raises :class:`ShapeError` naming ``vector``."""

    __eq__ = object.__eq__  # one state equals only itself
    __hash__ = object.__hash__

    def __init__(self, vector: np.ndarray, layout: StateLayout):
        vec = _float_array(vector, "vector", read_numbers)
        if vec.ndim != 1:
            raise ShapeError("state vector must be one-dimensional")
        if vec.shape[0] != layout.dim:
            raise ShapeError(
                f"state vector has {vec.shape[0]} entries, layout expects {layout.dim}"
            )
        vec.setflags(write=False)
        vars(self).update(vector=vec, layout=layout)

    def to_json(self) -> dict:
        return {
            "vector": [float(x) for x in self.vector],
            "graph": self.layout.graph.to_json(),
            "features": self.layout.feature_count,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "InternalState":
        """The state in the wire format, a JSON object; a ``features`` value
        that is not an integer (a bool, a fraction, an infinity) or a
        ``vector`` that is not a list of numbers (a bool is not a number)
        raises :class:`ShapeError` naming the field (``vector[0]``), as does
        a missing key (``graph.nodes``)."""
        data = read_object(data, "state")
        features = read_integer(read_key(data, "features"), "features")
        layout = StateLayout(AttributedGraph.from_json(read_key(data, "graph"), "graph."), features)
        return cls(read_key(data, "vector"), layout)


class ReferenceDynamics(Record):
    """Bilinear control system dS/dt = (drift + sum_i u_i controls_i) S,
    evolved piece-exactly (never discretized).

    The inputs are copied once, into one read-only (1 + c, n, n) float64
    stack; ``drift`` and ``controls`` are views of its slices, so changing
    the caller's arrays changes neither them nor a flow.

    Every generator lies inside the union sparsity pattern of drift and
    controls, so flows are computed blockwise on that pattern's connected
    components (see :func:`mycocat.kernels.blocks`), and once for each
    class of components with equal drift and control entries (see
    :func:`mycocat.kernels.block_classes`)."""

    __eq__ = object.__eq__  # one dynamics equals only itself
    __hash__ = object.__hash__

    def __init__(self, drift: np.ndarray, controls: tuple[np.ndarray, ...]):
        drift = np.asarray(drift, dtype=np.float64)
        if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
            raise ShapeError("drift must be a square matrix")
        controls = tuple(np.asarray(c, dtype=np.float64) for c in controls)
        if any(c.shape != drift.shape for c in controls):
            raise ShapeError("control matrices must match the drift shape")
        mats = np.array((drift, *controls))
        if not np.isfinite(mats).all():
            raise NumericError("dynamics matrices must be finite")
        mats.setflags(write=False)
        # Derived once per dynamics for flow_matrix and evolve_many: plain
        # attributes, not fields, so equality, repr and the JSON form see
        # only the matrices.
        parts = kernels.blocks((mats != 0).any(axis=0))
        system, parts = kernels.block_classes(kernels.gather(mats, parts), parts)
        system.setflags(write=False)
        vars(self).update(drift=mats[0], controls=tuple(mats[1:]), _blocks=parts, _system=system)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def channels(self) -> int:
        return len(self.controls)

    def to_json(self) -> dict:
        return {
            "drift": [[float(x) for x in row] for row in self.drift],
            "controls": [
                [[float(x) for x in row] for row in c] for c in self.controls
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ReferenceDynamics":
        """The dynamics in the wire format, a JSON object; a ``drift`` or
        ``controls[i]`` that is not a list of equally long rows of numbers
        (not bools) raises :class:`ShapeError` naming it (``drift[0][1]``,
        ``controls[1][0][1]``), as does a ``controls`` value that is not a
        list, and a missing key."""
        data = read_object(data, "dynamics")
        controls = read_list(read_key(data, "controls"), "controls", read_matrix)
        return cls(drift=read_matrix(read_key(data, "drift"), "drift"), controls=controls)


def _flow_arrays(table: PieceTable, dyn: ReferenceDynamics):
    """``(lengths, inputs, counts)`` of :func:`mycocat.kernels.apply_flows`
    for ``table``; a control width other than ``dyn``'s is a ShapeError."""
    if len(table.lengths) and table.channels != dyn.channels:
        raise ShapeError(
            f"program has {table.channels} control channels, dynamics has {dyn.channels}"
        )
    return table.lengths, table.inputs.reshape(len(table.lengths), dyn.channels), table.counts


def flow_matrix(dyn: ReferenceDynamics, p: Program) -> np.ndarray:
    """Total flow of a program: the ordered product of piece exponentials."""
    lengths, inputs, _ = _flow_arrays(PieceTable.from_programs([p]), dyn)
    return kernels.piecewise_flow(dyn._system, dyn._blocks, lengths, inputs)


def evolve_many(
    vectors: np.ndarray, table: PieceTable, dyn: ReferenceDynamics
) -> np.ndarray:
    """Run program i of ``table`` from row i of ``vectors`` for every i,
    piece-exactly: from one state when ``vectors`` is (P, n), from each of
    its k states when it is (P, k, n). Returns the evolved vectors in the
    shape given.

    Each program's flow is computed once, however many states it runs
    from, and consecutive programs share one matrix-exponential call while
    their piece stack fits in :data:`mycocat.kernels.FLOW_BYTES`, so every
    batch of the shipped workloads takes one call (see
    :func:`mycocat.kernels.apply_flows`). Each result depends on its own
    state and program only: it has the same bits as :func:`evolve` of that
    pair, so the (P, k, n) call equals the (P * k, n) call on
    ``table.repeat(k)``. States that are not (P, n) or (P, k, n), a row
    count other than P or a width other than the dynamics' dimension raise
    :class:`ShapeError`; a non-finite result is a :class:`NumericError`.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim not in (2, 3):
        raise ShapeError(
            f"states must be a (P, n) or (P, k, n) array, got shape {vectors.shape}"
        )
    if len(vectors) != len(table):
        raise ShapeError(f"{len(vectors)} states for {len(table)} programs")
    if dyn.dim != vectors.shape[-1]:
        raise ShapeError(
            f"dynamics dimension {dyn.dim} does not match state dimension {vectors.shape[-1]}"
        )
    # a flow that overflows is refused below, not warned about by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernels.apply_flows(dyn._system, dyn._blocks, *_flow_arrays(table, dyn), vectors)
    if not np.isfinite(out).all():
        raise NumericError("evolution produced non-finite state entries")
    return out


def evolve(state: InternalState, p: Program, dyn: ReferenceDynamics) -> InternalState:
    """Run a program from a state, piece-exactly: :func:`evolve_many` of one
    pair.

    Satisfies causality by construction: evolving the concatenation of two
    programs equals evolving them in sequence, up to float associativity.
    """
    moved = evolve_many(state.vector[None], PieceTable.from_programs([p]), dyn)
    return InternalState(moved[0], state.layout)


def programs_equivalent_at(
    state: InternalState,
    p: Program,
    q: Program,
    dyn: ReferenceDynamics,
    tol: float = 1e-9,
) -> bool:
    """Sup-norm comparison of the two evolved states at one start state."""
    if tol < 0:
        raise ParameterError("tolerance must be nonnegative")
    sp, sq = evolve_many(
        np.stack([state.vector, state.vector]), PieceTable.from_programs([p, q]), dyn
    )
    return float(np.max(np.abs(sp - sq))) <= tol


class Extraction(Record):
    """Measurement pipeline: read node features off the observation graph.

    ``sigma`` is the one conductivity of every edge of the extracted
    network. The network invariants are checked once, here: a connected
    graph and a finite, nonnegative number for ``sigma``; a value that is
    not a number (a bool, a string, a mapping) raises :class:`ShapeError`
    naming ``sigma``.
    """

    def __init__(self, layout: StateLayout, sigma: float = 1.0):
        graph, sigma = layout.graph, read_number(sigma, "sigma")
        if not graph.is_connected():
            raise ShapeError("mycelial network must be connected")
        if not 0.0 <= sigma < math.inf:
            raise ParameterError(f"sigma must be a finite nonnegative number, got {sigma}")
        # _edge_sigma is a plain attribute, not a field: equality and repr
        # see only sigma.
        vars(self).update(
            layout=layout, sigma=sigma, _edge_sigma=dict.fromkeys(graph.edge_ids, sigma)
        )


def extract(state: InternalState, extraction: Extraction) -> MycObject:
    """Read a state out as a mycelial network object.

    Raises :class:`ShapeError` when the state layout disagrees with the
    extraction's observation graph.
    """
    if state.layout != extraction.layout:
        raise ShapeError("state layout does not match the extraction layout")
    layout = state.layout
    omega = dict(zip(layout.graph.nodes, layout.node_rows(state.vector)))
    return MycObject(layout.graph, extraction._edge_sigma, omega)


def state_distances(
    firsts: np.ndarray,
    seconds: np.ndarray,
    extraction: Extraction,
    weights: DistanceWeights = DistanceWeights(),
) -> np.ndarray:
    """``myc_distance(extract(a), extract(b), weights)`` of every pair of
    rows ``(firsts[i], seconds[i])`` of two (P, n) state arrays in the
    layout of ``extraction``, bit for bit, without building networks.

    Both read-outs share the graph and conductivities of ``extraction``, so
    only ``weights.omega`` times the feature L1 distance is left, summed by
    ``myc_distance``'s kernel on the (P, N, m) node rows: each node's
    features left to right, then the nodes in order. Rows are independent,
    so the batch does not change a result. Returns the (P,) distances.
    Raises :class:`ShapeError` on unequal row counts or a row width other
    than the layout's dimension.
    """
    firsts = np.asarray(firsts, dtype=np.float64)
    seconds = np.asarray(seconds, dtype=np.float64)
    if len(firsts) != len(seconds):
        raise ShapeError(f"{len(firsts)} first states for {len(seconds)} second states")
    layout = extraction.layout
    for vectors in (firsts, seconds):
        if vectors.ndim != 2 or vectors.shape[1] != layout.dim:
            raise ShapeError(
                f"states of shape {vectors.shape} do not match the extraction "
                f"layout of dimension {layout.dim}"
            )
    shape = (len(firsts), len(layout.graph.nodes), layout.feature_count)
    # an overflow gives inf, and inf times 0 NaN, silently, as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        totals = _l1_distances(firsts.reshape(shape), seconds.reshape(shape))
        return weights.omega * totals + weights.sigma * 0.0 + weights.structure * 0
