"""Control programs, the reference bilinear dynamics, and state extraction.

A program is a piecewise-constant control signal: an ordered list of
(length, control-vector) pieces. Programs concatenate sequentially, and
the null program (no pieces) is the unit. The reference transition system
evolves a state vector S by dS/dt = (A0 + sum_i u_i A_i) S, integrated
piece-exactly with matrix exponentials, so concatenation corresponds to
multiplying piece flows and causality holds to machine precision.

States carry a layout tying vector indices to (node, feature) slots of a
fixed observation graph; ``extract`` reads the state out as a mycelial
network object with configured constant edge conductivities.

All values are immutable after construction; evolution is deterministic
and side-effect free.

JSON wire formats::

    program:  {"pieces": [[length, [u1, ..., uc]], ...]}
    dynamics: {"drift": [[...], ...], "controls": [[[...], ...], ...]}
    state:    {"vector": [...], "graph": {...}, "features": m}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .envmyc import MycObject
from .errors import NumericError, ShapeError
from .graphs import AttributedGraph


@dataclass(frozen=True)
class Program:
    """Piecewise-constant control signal; the empty tuple is the null program."""

    pieces: tuple[tuple[float, tuple[float, ...]], ...] = ()

    def __post_init__(self):
        pieces = tuple(
            (float(length), tuple(float(u) for u in control))
            for length, control in self.pieces
        )
        object.__setattr__(self, "pieces", pieces)
        widths = {len(control) for _, control in pieces}
        if len(widths) > 1:
            raise ValueError("all pieces must share one control width")
        for length, _ in pieces:
            if not length > 0:
                raise ValueError("piece lengths must be strictly positive")

    @property
    def duration(self) -> float:
        return sum(length for length, _ in self.pieces)

    @property
    def channels(self) -> int:
        return len(self.pieces[0][1]) if self.pieces else 0

    def control_at(self, tau: float) -> tuple[float, ...]:
        """Control in effect at time tau; boundaries belong to the earlier piece."""
        if not self.pieces:
            raise ValueError("the null program has no controls")
        if tau < 0 or tau > self.duration + 1e-12:
            raise ValueError(f"time {tau} outside [0, {self.duration}]")
        upto = 0.0
        for length, control in self.pieces:
            upto += length
            if tau <= upto:
                return control
        return self.pieces[-1][1]

    def scale_amplitude(self, factor: float) -> "Program":
        return Program(
            tuple(
                (length, tuple(factor * u for u in control))
                for length, control in self.pieces
            )
        )

    def to_json(self) -> dict:
        return {"pieces": [[length, list(control)] for length, control in self.pieces]}

    @classmethod
    def from_json(cls, data: Mapping) -> "Program":
        return cls(
            tuple((length, tuple(control)) for length, control in data["pieces"])
        )


NULL_PROGRAM = Program()


def concatenate(p: Program, q: Program) -> Program:
    """Run p first, then q; durations add and the piece lists chain."""
    if p.pieces and q.pieces and p.channels != q.channels:
        raise ShapeError("cannot concatenate programs with different control widths")
    return Program(p.pieces + q.pieces)


@dataclass(frozen=True)
class StateLayout:
    """Assignment of vector indices to (node, feature) slots.

    Index order is node-major in the declaration order of the observation
    graph: index = node_position * feature_count + feature_index.
    """

    graph: AttributedGraph
    feature_count: int

    def __post_init__(self):
        if self.feature_count < 1:
            raise ValueError("feature_count must be positive")

    @property
    def dim(self) -> int:
        return len(self.graph.nodes) * self.feature_count

    def index(self, node, feature: int) -> int:
        return self.graph.nodes.index(node) * self.feature_count + feature

    def slots(self) -> list[tuple]:
        """The (node, feature) pair for every vector index, in order."""
        return [
            (v, f)
            for v in self.graph.nodes
            for f in range(self.feature_count)
        ]

    def node_features(self, vector: np.ndarray, node) -> tuple[float, ...]:
        start = self.graph.nodes.index(node) * self.feature_count
        return tuple(float(x) for x in vector[start : start + self.feature_count])


@dataclass(frozen=True)
class InternalState:
    """State vector together with its observation layout."""

    vector: np.ndarray
    layout: StateLayout

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1:
            raise ShapeError("state vector must be one-dimensional")
        if vec.shape[0] != self.layout.dim:
            raise ShapeError(
                f"state vector has {vec.shape[0]} entries, layout expects {self.layout.dim}"
            )
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    def to_json(self) -> dict:
        return {
            "vector": [float(x) for x in self.vector],
            "graph": self.layout.graph.to_json(),
            "features": self.layout.feature_count,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "InternalState":
        layout = StateLayout(
            AttributedGraph.from_json(data["graph"]), int(data["features"])
        )
        return cls(np.asarray(data["vector"], dtype=np.float64), layout)


@dataclass(frozen=True)
class ReferenceDynamics:
    """Bilinear control system dS/dt = (drift + sum_i u_i controls_i) S,
    evolved piece-exactly (never discretized).

    Every generator lies inside the union sparsity pattern of drift and
    controls, so flows are computed blockwise on that pattern's connected
    components (see :func:`mycocat.kernels.blocks`)."""

    drift: np.ndarray
    controls: tuple[np.ndarray, ...]

    def __post_init__(self):
        drift = np.asarray(self.drift, dtype=np.float64)
        if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
            raise ShapeError("drift must be a square matrix")
        controls = tuple(np.asarray(c, dtype=np.float64) for c in self.controls)
        for c in controls:
            if c.shape != drift.shape:
                raise ShapeError("control matrices must match the drift shape")
        if not np.isfinite(drift).all() or any(
            not np.isfinite(c).all() for c in controls
        ):
            raise NumericError("dynamics matrices must be finite")
        drift = drift.copy()
        drift.setflags(write=False)
        frozen = []
        for c in controls:
            c = c.copy()
            c.setflags(write=False)
            frozen.append(c)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "controls", tuple(frozen))
        # Derived once per dynamics for flow_matrix; plain attributes, not
        # fields, so equality, repr and the JSON form see only the matrices.
        stacked = np.stack(frozen) if frozen else np.zeros((0,) + drift.shape)
        stacked.setflags(write=False)
        object.__setattr__(self, "_stacked_controls", stacked)
        object.__setattr__(
            self,
            "_blocks",
            kernels.blocks((drift != 0) | (stacked != 0).any(axis=0)),
        )

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def channels(self) -> int:
        return len(self.controls)

    def generator(self, control: Sequence[float]) -> np.ndarray:
        """drift + sum_i u_i controls_i for one constant control vector."""
        if len(control) != self.channels:
            raise ShapeError(
                f"control has {len(control)} entries, dynamics has {self.channels} channels"
            )
        gen = self.drift.copy()
        for u, mat in zip(control, self.controls):
            if u != 0.0:
                gen = gen + u * mat
        return gen

    def to_json(self) -> dict:
        return {
            "drift": [[float(x) for x in row] for row in self.drift],
            "controls": [
                [[float(x) for x in row] for row in c] for c in self.controls
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ReferenceDynamics":
        return cls(
            drift=np.asarray(data["drift"], dtype=np.float64),
            controls=tuple(
                np.asarray(c, dtype=np.float64) for c in data["controls"]
            ),
        )


def flow_matrix(dyn: ReferenceDynamics, p: Program) -> np.ndarray:
    """Total flow of a program: the ordered product of piece exponentials."""
    if not p.pieces:
        return np.eye(dyn.dim)
    if p.channels != dyn.channels:
        raise ShapeError(
            f"program has {p.channels} control channels, dynamics has {dyn.channels}"
        )
    lengths = np.array([length for length, _ in p.pieces], dtype=np.float64)
    inputs = np.array([control for _, control in p.pieces], dtype=np.float64)
    return kernels.piecewise_flow(
        dyn.drift, dyn._stacked_controls, lengths, inputs, dyn._blocks
    )


def evolve(state: InternalState, p: Program, dyn: ReferenceDynamics) -> InternalState:
    """Run a program from a state, piece-exactly.

    Satisfies causality by construction: evolving the concatenation of two
    programs equals evolving them in sequence, up to float associativity.
    """
    if dyn.dim != state.layout.dim:
        raise ShapeError(
            f"dynamics dimension {dyn.dim} does not match state dimension {state.layout.dim}"
        )
    out = flow_matrix(dyn, p) @ state.vector
    if not np.isfinite(out).all():
        raise NumericError("evolution produced non-finite state entries")
    return InternalState(out, state.layout)


def programs_equivalent_at(
    state: InternalState,
    p: Program,
    q: Program,
    dyn: ReferenceDynamics,
    tol: float = 1e-9,
) -> bool:
    """Sup-norm comparison of the two evolved states at one start state."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    sp = evolve(state, p, dyn)
    sq = evolve(state, q, dyn)
    return float(np.max(np.abs(sp.vector - sq.vector))) <= tol


@dataclass(frozen=True)
class Extraction:
    """Measurement pipeline: read node features off the observation graph.

    ``sigma`` gives the constant edge conductivities of the extracted
    network, either one shared float or a per-edge mapping.
    """

    layout: StateLayout
    sigma: float | Mapping = 1.0

    def edge_sigma(self) -> dict:
        if isinstance(self.sigma, Mapping):
            return dict(self.sigma)
        return {e: float(self.sigma) for e in self.layout.graph.edge_ids}


def extract(state: InternalState, extraction: Extraction) -> MycObject:
    """Read a state out as a mycelial network object.

    Raises :class:`ShapeError` when the state layout disagrees with the
    extraction's observation graph.
    """
    if state.layout != extraction.layout:
        raise ShapeError("state layout does not match the extraction layout")
    layout = state.layout
    omega = {
        v: layout.node_features(state.vector, v) for v in layout.graph.nodes
    }
    return MycObject(layout.graph, extraction.edge_sigma(), omega)
