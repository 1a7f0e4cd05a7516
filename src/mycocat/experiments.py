"""Exposure experiments: order-asymmetry scans, scaling fits, worked example.

The central experiment compares the two orderings of a pulse pair at a
series of exposure scales eps. For each eps the two concatenations are
run from the same initial state, the extracted networks are compared with
the configured distance, and the resulting (eps, delta) rows are fitted
by least squares in log-log coordinates. Non-commuting pulse pairs
produce slope 2; commuting pairs collapse to the measurement floor or to
slope 3 and above.

Everything is a deterministic function of (configuration, seed): rerunning
with the same inputs reproduces reports byte for byte.
"""

from __future__ import annotations

import inspect
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import kernels
# No name of liealg is used here. perfbench's span tracer wraps liealg's
# functions by looking the module up in sys.modules, so it stays loaded
# wherever the benchmark's workloads import this module.
from . import liealg  # noqa: F401
from .envmyc import (
    Constraints,
    DistanceWeights,
    EnvBatch,
    EnvObject,
    EnvMorphism,
    FieldRule,
    apply_env_morphism,
    identity_rule,
)
from .errors import (
    ConfigError, InsufficientDataError, NumericError, ParameterError, Record, ShapeError
)
from .graphs import AttributedGraph, identity_morphism
from .laws import (
    LawReport,
    SpeciesFunctor,
    check_compatibility,
    check_functor_laws,
    direct_embedding,
    matched_environment_evolution,
)
from .programs import (
    Extraction,
    InternalState,
    PieceTable,
    Program,
    ReferenceDynamics,
    StateLayout,
    state_distances,
)
from .readers import (
    _require_counts,
    _require_finite,
    _require_nonnegative,
    _require_positive,
    read_count,
    read_integer,
    read_key,
    read_like,
    read_number,
    read_numbers,
    read_object,
    read_string,
    read_wire,
)

# Rows at or below this delta are treated as exact commutation and are
# excluded from slope fits.
DELTA_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Reference constructions
# ---------------------------------------------------------------------------


def electrode_array(n_sites: int) -> AttributedGraph:
    """Linear observation array: sites in a row, joined by links.
    ``n_sites`` is read by :func:`read_count`: a value that is not an
    integer (a fraction, a string, a bool) raises :class:`ShapeError`, a
    negative one :class:`ParameterError`."""
    nodes = tuple(f"site{i}" for i in range(read_count(n_sites, "n_sites")))
    edges = tuple(
        (f"link{i}", (nodes[i], nodes[i + 1])) for i in range(len(nodes) - 1)
    )
    return AttributedGraph(nodes, edges)


def coupling_matrices(
    layout: StateLayout, channels: int, kind: str = "noncommuting"
) -> tuple[np.ndarray, ...]:
    """Per-node control matrices acting on the first two feature slots.

    ``noncommuting``: channel 0 moves feature-1 mass into feature 0 and
    channel 1 the reverse (a nilpotent pair with constant commutator), so
    pulse order matters at second order. ``commuting``: each channel
    decays its own feature slot (diagonal matrices, zero commutator).
    The channels are the slices of one (channels, n, n) array; each channel
    is set at every site by one indexed assignment.
    """
    m = layout.feature_count
    _check_coupling(kind, m)
    base = np.arange(0, layout.dim, m)  # each site's first slot
    mats = np.zeros((channels, layout.dim, layout.dim))
    for ch, a in enumerate(mats):
        # the (row, column) offsets from each site's first slot that channel ch sets
        row, col = (ch % m, ch % m) if kind == "commuting" else [(0, 1), (1, 0)][ch % 2]
        a[base + row, base + col] = 1.0
    return tuple(mats)


def _check_coupling(kind: str, features: int, where: str = "") -> None:
    """Refuse a coupling kind :func:`coupling_matrices` does not build, or
    fewer than 2 features per site; ``where`` prefixes the field."""
    if kind not in ("noncommuting", "commuting"):
        raise ConfigError(f"{where}coupling: unknown coupling kind {kind!r}")
    if features < 2:
        raise ConfigError(f"{where}features: coupling needs at least 2 features per site")


# The most memory the dynamics of a reference species may take: the one
# (1 + channels, n, n) float64 stack of drift and controls that
# ReferenceDynamics keeps, n being n_sites * features.
MAX_DYNAMICS_BYTES = 64 << 20


def _check_dynamics_size(values: Mapping, names: Sequence[str], where: str = "") -> None:
    """Refuse a reference species whose dense dynamics would take more than
    :data:`MAX_DYNAMICS_BYTES`, naming the largest of its fields ``names``,
    before anything is built; ``where`` prefixes the field."""
    dim = values["n_sites"] * values["features"]
    if 8 * (1 + values["channels"]) * dim * dim > MAX_DYNAMICS_BYTES:
        name = max(names, key=values.__getitem__)
        raise ConfigError(
            f"{where}{name}: too large, the species' dynamics would take more than "
            f"{MAX_DYNAMICS_BYTES >> 20} MiB"
        )


def reference_species(
    n_sites: int = 8,
    channels: int = 2,
    features: int = 3,
    sigma: float = 1.0,
    coupling: str = "noncommuting",
    label: str = "reference",
) -> SpeciesFunctor:
    """Drift-free bilinear species over a linear electrode array.
    ``n_sites``, ``channels`` and ``features`` are read as integers (3.0
    reads as 3; :class:`ShapeError` naming the one that is not); any of
    them below 1 raises :class:`ParameterError` naming it, as the config
    path refuses it: a species without controls has no pulse to run.
    ``coupling`` is read as a string (:class:`ShapeError` naming it when it
    is not one); an unknown kind raises :class:`ConfigError`."""
    coupling = read_string(coupling, "coupling")
    n_sites = read_integer(n_sites, "n_sites")
    channels = read_integer(channels, "channels")
    features = read_integer(features, "features")
    for name, size in (("n_sites", n_sites), ("channels", channels), ("features", features)):
        if size < 1:
            raise ParameterError(f"{name}: must be positive, got {size}")
    layout = StateLayout(electrode_array(n_sites), features)
    dyn = ReferenceDynamics(
        np.zeros((layout.dim, layout.dim)),
        coupling_matrices(layout, channels, coupling),
    )
    return SpeciesFunctor(label, dyn, Extraction(layout, sigma))


def _defaults(call) -> dict:
    """Parameter name -> default of a function's or record class's
    signature, in order; ``inspect.Parameter.empty`` where there is none."""
    return {name: param.default for name, param in inspect.signature(call).parameters.items()}


# The compact species form of a config and the species fields of
# WorkedExampleConfig both default to these keyword defaults.
_SPECIES_DEFAULTS = _defaults(reference_species)


def initial_state(layout: StateLayout, seed: int) -> InternalState:
    """Unit-level state with a small seeded perturbation per slot (0.01
    times a standard normal), so the extracted features are nondegenerate.
    ``seed`` is read as a nonnegative integer (see :func:`read_count`), so
    None does not draw fresh entropy."""
    rng = np.random.default_rng(read_count(seed, "seed"))
    return InternalState(1.0 + 0.01 * rng.standard_normal(layout.dim), layout)


class PulseTemplate(Record):
    """Single-channel pulse: which channel, at what base amplitude/duration.
    The channel is read as an integer and the amplitude and duration as
    numbers; a value that is not one (a string, a bool) raises
    :class:`ShapeError` naming its field, and a NaN or infinite amplitude
    or duration :class:`ParameterError` naming it. Accepted here and
    refused later: a channel outside the species' channels, by
    :class:`ExposureExperiment` or :class:`WorkedExampleConfig`, and a
    duration that is not positive, by the piece table of the pulse. A
    negative amplitude is accepted: it is a reversed pulse.

    :meth:`pieces` gives the scaled pulse at a vector of eps as arrays, the
    form the scan builds its piece table from; :meth:`program` is the same
    pulse at one eps as a :class:`Program`."""

    def __init__(self, channel: int, amplitude: float = 1.0, duration: float = 1.0):
        channel = read_integer(channel, "channel")
        amplitude, duration = read_number(amplitude, "amplitude"), read_number(duration, "duration")
        for name, value in (("amplitude", amplitude), ("duration", duration)):
            if not math.isfinite(value):
                raise ParameterError(f"{name}: must be finite, got {value}")
        vars(self).update(channel=channel, amplitude=amplitude, duration=duration)

    # a product that overflows is refused by the piece table built from it
    @np.errstate(over="ignore")
    def pieces(self, eps, scaling: str, channels: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, inputs)``, (E,) and (E, channels): the one piece of
        the scaled pulse at each of the E values of ``eps``, unchecked.
        ``amplitude`` scaling multiplies the control by eps, ``duration``
        scaling the length; each is one float64 product, the bits of the
        same product of Python floats."""
        if scaling not in ("amplitude", "duration"):
            raise ConfigError(f"unknown scaling mode {scaling!r}")
        eps = np.asarray(eps, dtype=np.float64)
        unit = np.ones_like(eps)  # x * 1.0 is x: the unscaled quantity keeps its bits
        amplitude, duration = (eps, unit) if scaling == "amplitude" else (unit, eps)
        inputs = np.zeros((len(eps), channels))
        inputs[:, self.channel] = self.amplitude * amplitude
        return self.duration * duration, inputs

    def program(self, eps: float, scaling: str, channels: int) -> Program:
        """The scaled pulse at one ``eps``: :meth:`pieces` of ``[eps]``."""
        return Program(tuple(zip(*self.pieces([eps], scaling, channels))))

    def to_json(self) -> dict:
        return {
            "channel": self.channel,
            "amplitude": self.amplitude,
            "duration": self.duration,
        }

    @classmethod
    def from_json(cls, data: Mapping, path: str) -> "PulseTemplate":
        """Pulse from ``{"channel": c, "amplitude": a, "duration": d}``;
        only the channel is required. ``path`` names the block in errors."""
        defaults = {**_defaults(cls), "channel": 0}
        kwargs = _config_kwargs(data, defaults, path + ".")
        if "channel" not in kwargs:
            raise ConfigError(f"{path}.channel: missing key")
        _require_finite({**defaults, **kwargs}, ("amplitude", "duration"), path + ".")
        return cls(**kwargs)


def _check_pulse_channels(config, channels: int) -> None:
    """Reject pulse templates on a channel the species does not have."""
    for name in ("pulse_p", "pulse_q"):
        channel = getattr(config, name).channel
        if not 0 <= channel < channels:
            raise ConfigError(f"{name}.channel: {channel} is outside [0, {channels})")


def _distance_weights(values: Sequence[float]) -> DistanceWeights:
    """Distance weights from exactly three nonnegative numbers,
    (omega, sigma, structure)."""
    if len(values) != 3:
        raise ConfigError(
            f"weights: need 3 numbers (omega, sigma, structure), got {len(values)}"
        )
    try:
        return DistanceWeights(*values)
    except ParameterError as exc:
        raise ConfigError(f"weights: {exc}") from exc


def _config_kwargs(data: Mapping, defaults: Mapping, where: str = "") -> dict:
    """Keyword arguments read from a JSON config object.

    ``data`` must be a JSON object and every key must name an entry of
    ``defaults``; anything else raises :class:`ConfigError` with its field
    path. Each value is read as the kind of its default: pulses, distance
    weights, programs and species by their own readers, anything else by
    :func:`~mycocat.readers.read_like`. Absent keys are left out, so the
    callee's own defaults apply.
    """
    try:
        kwargs = {}
        for key, raw in read_object(data, where[:-1] or "config").items():
            path = where + key
            if key not in defaults:
                raise ConfigError(f"{path}: unknown configuration field")
            default = defaults[key]
            if isinstance(default, PulseTemplate):
                kwargs[key] = PulseTemplate.from_json(raw, path)
            elif isinstance(default, DistanceWeights):
                kwargs[key] = _distance_weights(read_numbers(raw, path))
            elif isinstance(default, Program):
                kwargs[key] = read_wire(read_object(raw, path), path, Program.from_json)
            elif isinstance(default, SpeciesFunctor):
                kwargs[key] = species_from_config(raw, path)
            else:
                kwargs[key] = read_like(raw, path, default)
        return kwargs
    except ShapeError as exc:  # a reader's refusal names its field
        raise ConfigError(str(exc)) from exc


# The keys of an explicit species block and the kinds of their values.
_EXPLICIT_SPECIES = {"dynamics": {}, "graph": {}, "features": 1, "label": "", "sigma": 0.0}


def species_from_config(data: Mapping, path: str) -> SpeciesFunctor:
    """Species from the config block at ``path`` (``species``,
    ``checks[0].species``), which prefixes every error: either explicit
    dynamics matrices or the compact reference form, whose keys are the
    keyword arguments of :func:`reference_species`."""
    where = path + "."
    if isinstance(data, Mapping) and "dynamics" in data:
        values = _config_kwargs(data, _EXPLICIT_SPECIES, where)
        return read_wire(values, path, lambda block: _explicit_species(block, where))
    values = {**_SPECIES_DEFAULTS, **_config_kwargs(data, _SPECIES_DEFAULTS, where)}
    sizes = ("n_sites", "channels", "features")
    _require_positive(values, sizes, where)
    _check_dynamics_size(values, sizes, where)
    _require_nonnegative(values, ("sigma",), where)
    _check_coupling(values["coupling"], values["features"], where)
    return reference_species(**values)


def _explicit_species(values: Mapping, where: str) -> SpeciesFunctor:
    dyn = ReferenceDynamics.from_json(values["dynamics"])
    graph = AttributedGraph.from_json(read_key(values, "graph"), "graph.")
    layout = StateLayout(graph, read_key(values, "features"))
    if layout.dim != dyn.dim:
        raise ConfigError(
            f"{where}dynamics: dimension {dyn.dim} does not match layout {layout.dim}"
        )
    extraction = Extraction(layout, values.get("sigma", 1.0))
    return SpeciesFunctor(values.get("label", "configured"), dyn, extraction)


def random_pulses(species: SpeciesFunctor, count: int, seed: int) -> PieceTable:
    """The :class:`PieceTable` of ``count`` seeded single-piece pulses, each
    on a random channel at an amplitude in [0.05, 0.5), for a length in
    [0.1, 1.0). Each quantity is drawn in one call over all pulses, in this
    order: the channels, the amplitudes, then the lengths; with no channel
    only the lengths are drawn. ``count`` and ``seed`` are read as
    nonnegative integers (see :func:`read_count`)."""
    count, seed = read_count(count, "count"), read_count(seed, "seed")
    rng = np.random.default_rng(seed)
    channels = species.dynamics.channels
    controls = np.zeros((count, channels))
    if channels:
        picked = rng.integers(0, channels, count)
        controls[np.arange(count), picked] = rng.uniform(0.05, 0.5, count)
    lengths = rng.uniform(0.1, 1.0, count)
    return PieceTable(lengths, controls, np.ones(count, dtype=np.intp))


def wide_environment(species: SpeciesFunctor, seed: int) -> EnvObject:
    """Environment holding the seeded initial state under loose constraints
    (fields within +-100, unlimited budget): the state's node rows, feature
    0 as rho and the rest as the chemical channels, read as a one-row
    :class:`EnvBatch`."""
    layout = species.extraction.layout
    m = layout.feature_count
    chi = Constraints(phi_bounds=((-100.0, 100.0),) * (m - 1), budget=math.inf)
    fields = initial_state(layout, seed).vector.reshape(1, -1, m)
    return EnvBatch(layout.graph, chi, fields).env(0)


# ---------------------------------------------------------------------------
# Log-log slope fits
# ---------------------------------------------------------------------------


class FitResult(NamedTuple):
    slope: float
    intercept: float  # natural log of the prefactor
    r_squared: float


def fit_loglog_slope(rows: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of log(delta) against log(eps).

    Every eps must be finite and positive and every delta finite; raises
    :class:`ParameterError` otherwise. Rows with delta at or below zero are
    not used; the fit requires at least 3 used rows at 2 or more distinct
    eps, and raises :class:`InsufficientDataError` otherwise. The intercept
    is the natural log of the power-law prefactor.
    """
    for eps, delta in rows:
        if not 0.0 < eps < math.inf:
            raise ParameterError(f"log-log fit needs finite positive eps, got {eps}")
        if not math.isfinite(delta):
            raise ParameterError(f"log-log fit needs finite deltas, got {delta}")
    usable = [(eps, delta) for eps, delta in rows if delta > 0]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"log-log fit needs at least 3 positive rows, got {len(usable)}"
        )
    x = np.log([eps for eps, _ in usable])
    distinct = len(set(x.tolist()))  # a zero spread in x leaves the slope undefined
    if distinct < 2:
        raise InsufficientDataError(f"log-log fit needs at least 2 distinct eps, got {distinct}")
    y = np.log([delta for _, delta in usable])
    n = len(x)
    x_mean, y_mean = x.mean(), y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    sxy = float(((x - x_mean) * (y - y_mean)).sum())
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * x + intercept)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r_squared)


# ---------------------------------------------------------------------------
# Order-asymmetry scans
# ---------------------------------------------------------------------------


class ExposureExperiment(Record):
    """A two-pulse order-asymmetry scan over a grid of exposure scales.
    ``eps_grid`` is read as a list of numbers and ``seed`` as an integer;
    a value that is not one (a string, a bool) raises :class:`ShapeError`
    naming it."""

    def __init__(
        self,
        species: SpeciesFunctor,
        pulse_p: PulseTemplate = PulseTemplate(channel=0),
        pulse_q: PulseTemplate = PulseTemplate(channel=1),
        eps_grid: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01),
        scaling: str = "amplitude",
        weights: DistanceWeights = DistanceWeights(),
        seed: int = 12345,
    ):
        grid = read_numbers(eps_grid, "eps_grid")
        vars(self).update(
            species=species, pulse_p=pulse_p, pulse_q=pulse_q, eps_grid=grid,
            scaling=scaling, weights=weights, seed=read_integer(seed, "seed"),
        )
        if len(grid) < 4:
            raise ConfigError("eps_grid: need at least 4 points")
        for eps in grid:
            if not math.isfinite(eps):
                raise ConfigError(f"eps_grid: entries must be finite, got {eps}")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("eps_grid: must be strictly decreasing")
        if any(e <= 0 for e in grid):
            raise ConfigError("eps_grid: entries must be positive")
        if grid[0] / grid[-1] < 10.0:
            raise ConfigError("eps_grid: must span at least one decade")
        if self.scaling not in ("amplitude", "duration"):
            raise ConfigError(f"scaling: unknown mode {self.scaling!r}")
        _require_nonnegative(vars(self), ("seed",))
        _check_pulse_channels(self, self.species.dynamics.channels)

    @classmethod
    def from_json(cls, data: Mapping) -> "ExposureExperiment":
        """Experiment from an ``order-scan`` config, read and checked whole.
        Absent keys take the constructor's defaults, and ``species`` the
        reference species; a ``--seed`` replaces the seed of the result."""
        defaults = {**_defaults(cls), "species": reference_species()}
        return cls(**{**defaults, **_config_kwargs(data, defaults)})


# WorkedExampleConfig's pulses, grid and seed default to the scan's.
_EXPERIMENT_DEFAULTS = _defaults(ExposureExperiment)


class AsymmetryReport(Record):
    """Scan rows, the fitted scaling law, and the generator-level diagnostic.

    ``commutator_norm`` is the Frobenius norm of [X_p, X_q], the commutator
    of the two pulse generators read off the dynamics (duration times the
    drift plus amplitude times the pulse's control), over the whole state
    space: 4.0 on the reference pair. It is taken on the block classes of
    the dynamics, each class's sum of squares counted once per block of
    that class, so no n x n matrix is built for it. It is not the fitted
    prefactor exp(intercept), 16.026 on the same pair, which to leading
    order is the weighted feature L1 norm of [X_p, X_q] applied to the start
    state.
    """

    def __init__(
        self,
        rows: tuple[tuple[float, float], ...],
        excluded: tuple[float, ...],  # eps values at or below the delta floor
        slope: float | None,
        intercept: float | None,
        r_squared: float | None,
        commutator_norm: float,
        verdict: str,
        scaling: str,
        weights: tuple[float, float, float],
        seed: int,
    ):
        vars(self).update(
            rows=rows, excluded=excluded, slope=slope, intercept=intercept,
            r_squared=r_squared, commutator_norm=commutator_norm, verdict=verdict,
            scaling=scaling, weights=weights, seed=seed,
        )

    def to_json(self) -> dict:
        return {
            "rows": [[eps, delta] for eps, delta in self.rows],
            "excluded_eps": list(self.excluded),
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "commutator_norm": self.commutator_norm,
            "verdict": self.verdict,
            "scaling": self.scaling,
            "distance_weights": list(self.weights),
            "seed": self.seed,
        }


def _scan_verdict(slope: float | None, any_positive: bool) -> str:
    if slope is None:
        return (
            "commuting: order asymmetry at the measurement floor"
            if not any_positive
            else "inconclusive: too few usable rows"
        )
    if 1.9 <= slope <= 2.1:
        return "quadratic"
    if slope >= 2.8:
        return "cubic-or-higher"
    return "inconclusive"


def run_order_asymmetry_scan(exp: ExposureExperiment) -> AsymmetryReport:
    """Measure the order asymmetry of the pulse pair across the eps grid.

    For each eps, both orderings of the scaled pulses are run from the
    same seeded initial state and the extracted networks are compared;
    both orderings at every eps run in one ``transform_many`` call, on one
    checked piece table built from the two pulses' :meth:`PulseTemplate.pieces`
    arrays: row i runs p then q at eps i, row grid + i q then p, so a pulse
    that is not finite or not of positive duration at some eps raises
    :class:`ParameterError` as a :class:`Program` of it would.
    Rows at the delta floor are flagged and excluded from the fit. The
    report also carries the norm of the commutator of the two pulse
    generators, the generator-level diagnostic of the same effect. Each is
    read off the dynamics by the routine that builds the rows' piece
    generators, so no flow is exponentiated or logged for it, and the
    commutator is formed and normed per block class, weighted by the number
    of blocks in each class, so nothing n x n is built. Raises NumericError
    when the commutator overflows float64.
    """
    species = exp.species
    dyn = species.dynamics
    channels = dyn.channels
    state = initial_state(species.extraction.layout, exp.seed)

    # row i runs p then q at eps i, row grid + i q then p: the first pieces
    # are p's then q's, the second pieces q's then p's
    grid = len(exp.eps_grid)
    p, q = (
        pulse.pieces(exp.eps_grid, exp.scaling, channels) for pulse in (exp.pulse_p, exp.pulse_q)
    )
    lengths, inputs = (
        np.stack((np.concatenate((a, b)), np.concatenate((b, a))), axis=1) for a, b in zip(p, q)
    )
    orderings = PieceTable(lengths.ravel(), inputs.reshape(-1, channels), np.full(2 * grid, 2))
    finals = species.transform_many(np.tile(state.vector, (2 * grid, 1)), orderings)
    deltas = state_distances(
        finals[:grid], finals[grid:], species.extraction, exp.weights
    )
    rows = list(zip(exp.eps_grid, deltas.tolist()))

    excluded = tuple(eps for eps, delta in rows if delta <= DELTA_FLOOR)
    usable = [(eps, delta) for eps, delta in rows if delta > DELTA_FLOOR]
    if len(usable) >= 3:
        fit = fit_loglog_slope(usable)
        slope, intercept, r_squared = fit.slope, fit.intercept, fit.r_squared
    else:
        slope = intercept = r_squared = None

    # a unit-duration pulse's generator is duration * (drift + amplitude *
    # A_ch), on the block classes of the dynamics; the commutator stays on
    # the classes, each class's sum of squares counted once per block, on
    # entries scaled by a power of two, which is exact and keeps it finite
    units = [pulse.pieces([1.0], "duration", channels) for pulse in (exp.pulse_p, exp.pulse_q)]
    with np.errstate(over="ignore", invalid="ignore"):
        x_p, x_q = kernels._generators(dyn._system, *map(np.concatenate, zip(*units)))
        comm = x_p @ x_q - x_q @ x_p
        scale = np.frexp(np.abs(comm).max(initial=0.0))[1]  # no block: no entry
        squares = np.square(np.ldexp(comm, -scale)).sum(axis=(1, 2))
        comm_norm = float(np.ldexp(np.sqrt(np.bincount(dyn._blocks.kind) @ squares), scale))
    if not math.isfinite(comm_norm):
        raise NumericError("commutator of the pulse generators overflows float64")

    return AsymmetryReport(
        rows=tuple(rows),
        excluded=excluded,
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        commutator_norm=comm_norm,
        verdict=_scan_verdict(slope, bool(usable)),
        scaling=exp.scaling,
        weights=(exp.weights.omega, exp.weights.sigma, exp.weights.structure),
        seed=exp.seed,
    )


# ---------------------------------------------------------------------------
# The worked two-pulse example
# ---------------------------------------------------------------------------


class WorkedExampleConfig(Record):
    """Configuration of the two-pulse protocol on a linear electrode array.

    Each size and count (``n_sites``, ``channels``, ``functor_samples``,
    ``compat_pulses``) and ``seed`` is read as an integer (3.0 reads as 3);
    one that is not (a string, a bool, a fraction) raises
    :class:`ShapeError` naming it."""

    @property
    def features(self) -> int:
        """Features per site: the resource and one field per channel, all of
        which the direct embedding reads."""
        return self.channels + 1

    def __init__(
        self,
        n_sites: int = _SPECIES_DEFAULTS["n_sites"],
        channels: int = _SPECIES_DEFAULTS["channels"],
        sigma: float = _SPECIES_DEFAULTS["sigma"],
        coupling: str = _SPECIES_DEFAULTS["coupling"],
        pulse_p: PulseTemplate = _EXPERIMENT_DEFAULTS["pulse_p"],
        pulse_q: PulseTemplate = _EXPERIMENT_DEFAULTS["pulse_q"],
        eps_grid: tuple[float, ...] = _EXPERIMENT_DEFAULTS["eps_grid"],
        scaling_modes: tuple[str, ...] = ("amplitude", "duration"),
        weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
        seed: int = _EXPERIMENT_DEFAULTS["seed"],
        functor_samples: int = 100,
        functor_tol: float = 1e-10,
        compat_pulses: int = 50,
        compat_tol: float = 1e-8,
    ):
        vars(self).update(
            n_sites=read_integer(n_sites, "n_sites"), channels=read_integer(channels, "channels"),
            sigma=sigma, coupling=coupling, pulse_p=pulse_p, pulse_q=pulse_q, eps_grid=eps_grid,
            scaling_modes=scaling_modes, weights=weights, seed=read_integer(seed, "seed"),
            functor_samples=read_integer(functor_samples, "functor_samples"),
            functor_tol=functor_tol, compat_pulses=read_integer(compat_pulses, "compat_pulses"),
            compat_tol=compat_tol,
        )
        _require_positive(vars(self), ("n_sites", "channels"))
        _require_counts(vars(self), ("functor_samples", "compat_pulses"))
        _check_dynamics_size({**vars(self), "features": self.features}, ("n_sites", "channels"))
        _check_coupling(self.coupling, self.features)
        _check_pulse_channels(self, self.channels)
        _require_nonnegative(vars(self), ("sigma", "seed", "functor_tol", "compat_tol"))
        _distance_weights(self.weights)
        if not self.scaling_modes:
            raise ConfigError("scaling_modes: must name at least one mode")
        for mode in self.scaling_modes:
            if mode not in ("amplitude", "duration"):
                raise ConfigError(f"scaling_modes: unknown mode {mode!r}")

    @classmethod
    def from_json(cls, data: Mapping) -> "WorkedExampleConfig":
        """Config from JSON: unknown keys are rejected, absent keys keep
        the class defaults."""
        return cls(**_config_kwargs(data, _defaults(cls)))


class WorkedExampleResult(Record):
    """Everything the two-pulse protocol produces, ready for serialization."""

    def __init__(
        self,
        config: WorkedExampleConfig,
        env_initial: EnvObject,
        env_after_a: EnvObject,
        env_after_b: EnvObject,
        env_after_ab: EnvObject,
        scans: Mapping[str, AsymmetryReport],
        law_reports: tuple[LawReport, ...],
    ):
        vars(self).update(
            config=config, env_initial=env_initial, env_after_a=env_after_a,
            env_after_b=env_after_b, env_after_ab=env_after_ab, scans=scans,
            law_reports=law_reports,
        )

    def summary_json(self) -> dict:
        return {
            "config": {
                "n_sites": self.config.n_sites,
                "channels": self.config.channels,
                "features": self.config.features,
                "coupling": self.config.coupling,
                "eps_grid": list(self.config.eps_grid),
                "scaling_modes": list(self.config.scaling_modes),
                "distance_weights": list(self.config.weights),
                "seed": self.config.seed,
                "pulse_p": self.config.pulse_p.to_json(),
                "pulse_q": self.config.pulse_q.to_json(),
            },
            "scans": {mode: report.to_json() for mode, report in self.scans.items()},
            "laws": [r.to_json() for r in self.law_reports],
            "environments": {
                "initial": self.env_initial.to_json(),
                "after_pulse_a": self.env_after_a.to_json(),
                "after_pulse_b": self.env_after_b.to_json(),
                "after_a_then_b": self.env_after_ab.to_json(),
            },
        }


def _demo_environment(config: WorkedExampleConfig) -> tuple[EnvObject, EnvMorphism, EnvMorphism]:
    """Substrate state and the two exposure morphisms acting on it."""
    graph = electrode_array(config.n_sites)
    chi = Constraints(
        phi_bounds=tuple((0.0, 1.0) for _ in range(config.channels)),
        budget=2.0 * config.n_sites,
    )
    env = EnvObject(
        graph,
        {v: 1.0 for v in graph.nodes},
        {v: (0.0,) * config.channels for v in graph.nodes},
        chi,
    )

    def pulse_morphism(channel: int, site_index: int) -> EnvMorphism:
        site = graph.nodes[site_index]
        rules = [identity_rule() for _ in range(config.channels)]
        rules[channel] = FieldRule(delta={site: 0.5})
        return EnvMorphism(
            fg=identity_morphism(graph),
            rho_rule=identity_rule(),
            phi_rules=tuple(rules),
        )

    f_a = pulse_morphism(config.pulse_p.channel, 0)
    f_b = pulse_morphism(config.pulse_q.channel, config.n_sites // 2)
    return env, f_a, f_b


def run_worked_example(config: WorkedExampleConfig | None = None) -> WorkedExampleResult:
    """Run the full two-pulse protocol.

    Builds the substrate environment and its two exposure morphisms, runs
    the order-asymmetry scan in the configured scaling modes, and runs the
    functor-law and compatibility checks on the same species.
    Deterministic given (config, seed).
    """
    config = config or WorkedExampleConfig()

    species = reference_species(
        n_sites=config.n_sites,
        channels=config.channels,
        features=config.features,
        sigma=config.sigma,
        coupling=config.coupling,
    )

    weights = DistanceWeights(*config.weights)
    env, f_a, f_b = _demo_environment(config)
    env_a = apply_env_morphism(env, f_a)
    env_b = apply_env_morphism(env, f_b)
    env_ab = apply_env_morphism(env_a, f_b)

    scans = {}
    for mode in config.scaling_modes:
        scans[mode] = run_order_asymmetry_scan(
            ExposureExperiment(
                species=species,
                pulse_p=config.pulse_p,
                pulse_q=config.pulse_q,
                eps_grid=config.eps_grid,
                scaling=mode,
                weights=weights,
                seed=config.seed,
            )
        )

    functor_report = check_functor_laws(
        species,
        sample_count=config.functor_samples,
        tol=config.functor_tol,
        seed=config.seed,
    )

    iota = direct_embedding(species.extraction.layout, config.channels)
    psi = matched_environment_evolution(species, iota)
    compat_env = wide_environment(species, config.seed)
    pulses = random_pulses(species, config.compat_pulses, config.seed + 1)
    compat_report = check_compatibility(
        iota,
        psi,
        species,
        [compat_env],
        pulses,
        tol=config.compat_tol,
        weights=weights,
    )

    return WorkedExampleResult(
        config=config,
        env_initial=env,
        env_after_a=env_a,
        env_after_b=env_b,
        env_after_ab=env_ab,
        scans=scans,
        law_reports=(functor_report, compat_report),
    )
