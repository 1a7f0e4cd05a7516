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
from dataclasses import dataclass, fields
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .envmyc import (
    Constraints,
    DistanceWeights,
    EnvObject,
    EnvMorphism,
    FieldRule,
    POINTWISE_ADD,
    apply_env_morphism,
    identity_rule,
    myc_distance,
)
from .errors import ConfigError, InsufficientDataError
from .graphs import AttributedGraph, identity_morphism
from .laws import (
    LawReport,
    SpeciesFunctor,
    check_compatibility,
    check_functor_laws,
    direct_embedding,
    field_writeback,
    matched_environment_evolution,
)
from .liealg import commutator, estimate_generator
from .programs import (
    Extraction,
    InternalState,
    Program,
    ReferenceDynamics,
    StateLayout,
    concatenate,
)

# Rows at or below this delta are treated as exact commutation and are
# excluded from slope fits.
DELTA_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Reference constructions
# ---------------------------------------------------------------------------


def electrode_array(n_sites: int) -> AttributedGraph:
    """Linear observation array: sites in a row, joined by links."""
    nodes = tuple(f"site{i}" for i in range(n_sites))
    edges = tuple(
        (f"link{i}", (nodes[i], nodes[i + 1])) for i in range(n_sites - 1)
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
    """
    if layout.feature_count < 2:
        raise ConfigError("coupling needs at least 2 features per site")
    n = layout.dim
    m = layout.feature_count
    mats = []
    for ch in range(channels):
        a = np.zeros((n, n))
        for i in range(len(layout.graph.nodes)):
            base = i * m
            if kind == "noncommuting":
                if ch % 2 == 0:
                    a[base, base + 1] = 1.0
                else:
                    a[base + 1, base] = 1.0
            elif kind == "commuting":
                a[base + ch % m, base + ch % m] = 1.0
            else:
                raise ConfigError(f"unknown coupling kind {kind!r}")
        mats.append(a)
    return tuple(mats)


def reference_species(
    n_sites: int = 8,
    channels: int = 2,
    features: int = 3,
    sigma: float = 1.0,
    coupling: str = "noncommuting",
    label: str = "reference",
) -> SpeciesFunctor:
    """Drift-free bilinear species over a linear electrode array."""
    layout = StateLayout(electrode_array(n_sites), features)
    dyn = ReferenceDynamics(
        np.zeros((layout.dim, layout.dim)),
        coupling_matrices(layout, channels, coupling),
    )
    return SpeciesFunctor(label, dyn, Extraction(layout, sigma))


def initial_state(
    layout: StateLayout, seed: int, base: float = 1.0, jitter: float = 0.01
) -> InternalState:
    """Unit-level state with a small seeded perturbation per slot, so the
    extracted features are nondegenerate."""
    rng = np.random.default_rng(seed)
    return InternalState(base + jitter * rng.standard_normal(layout.dim), layout)


@dataclass(frozen=True)
class PulseTemplate:
    """Single-channel pulse: which channel, at what base amplitude/duration."""

    channel: int
    amplitude: float = 1.0
    duration: float = 1.0

    def program(self, eps: float, scaling: str, channels: int) -> Program:
        """Scaled pulse. ``amplitude`` scaling multiplies the control by
        eps; ``duration`` scaling multiplies the length by eps."""
        control = [0.0] * channels
        if scaling == "amplitude":
            control[self.channel] = self.amplitude * eps
            return Program(((self.duration, tuple(control)),))
        if scaling == "duration":
            control[self.channel] = self.amplitude
            return Program(((self.duration * eps, tuple(control)),))
        raise ConfigError(f"unknown scaling mode {scaling!r}")

    def generator_family(self, channels: int):
        """Duration-scaled family eps -> pulse, whose flow is exp(eps*X)."""
        return lambda eps: self.program(eps, "duration", channels)

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
        try:
            for key in data:
                if key not in ("channel", "amplitude", "duration"):
                    raise ConfigError(f"{path}.{key}: unknown configuration field")
            return cls(
                channel=int(data["channel"]),
                amplitude=float(data.get("amplitude", cls.amplitude)),
                duration=float(data.get("duration", cls.duration)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def _check_pulse_channels(config, channels: int) -> None:
    """Reject pulse templates on a channel the species does not have."""
    for name in ("pulse_p", "pulse_q"):
        channel = getattr(config, name).channel
        if not 0 <= channel < channels:
            raise ConfigError(f"{name}.channel: {channel} is outside [0, {channels})")


def _config_kwargs(data: Mapping, defaults: Mapping, where: str = "") -> dict:
    """Keyword arguments read from a JSON config object.

    Every key must name an entry of ``defaults``; an unknown key raises
    :class:`ConfigError` with its field path. Each value is coerced to the
    type of its default: pulses through :meth:`PulseTemplate.from_json`,
    distance weights from a positional list, tuples element-wise, anything
    else by calling the type. Absent keys are left out, so the callee's
    own defaults apply.
    """
    kwargs = {}
    for key, raw in data.items():
        path = where + key
        if key not in defaults:
            raise ConfigError(f"{path}: unknown configuration field")
        default = defaults[key]
        try:
            if isinstance(default, PulseTemplate):
                kwargs[key] = PulseTemplate.from_json(raw, path)
            elif isinstance(default, DistanceWeights):
                kwargs[key] = DistanceWeights(*raw)
            elif isinstance(default, tuple):
                kwargs[key] = tuple(type(default[0])(x) for x in raw)
            else:
                kwargs[key] = type(default)(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return kwargs


def species_from_config(data: Mapping) -> SpeciesFunctor:
    """Species from a config block: either explicit dynamics matrices or the
    compact reference form, whose keys are the keyword arguments of
    :func:`reference_species`."""
    if "dynamics" in data:
        for key in data:
            if key not in ("dynamics", "graph", "features", "label", "sigma"):
                raise ConfigError(f"species.{key}: unknown configuration field")
        try:
            dyn = ReferenceDynamics.from_json(data["dynamics"])
            layout = StateLayout(
                AttributedGraph.from_json(data["graph"]), int(data["features"])
            )
        except KeyError as exc:
            raise ConfigError(f"species: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"species: {exc}") from exc
        if layout.dim != dyn.dim:
            raise ConfigError(
                f"dynamics: dimension {dyn.dim} does not match layout {layout.dim}"
            )
        return SpeciesFunctor(
            str(data.get("label", "configured")),
            dyn,
            Extraction(layout, data.get("sigma", 1.0)),
        )
    defaults = {
        name: param.default
        for name, param in inspect.signature(reference_species).parameters.items()
    }
    return reference_species(**_config_kwargs(data, defaults, "species."))


def random_pulses(species: SpeciesFunctor, count: int, seed: int) -> list[Program]:
    """Seeded single-piece pulses: a random channel (drawn first) at an
    amplitude in [0.05, 0.5), for a length in [0.1, 1.0)."""
    rng = np.random.default_rng(seed)
    channels = species.dynamics.channels
    pulses = []
    for _ in range(count):
        control = [0.0] * channels
        if channels:
            channel = int(rng.integers(0, channels))
            control[channel] = float(rng.uniform(0.05, 0.5))
        pulses.append(Program(((float(rng.uniform(0.1, 1.0)), tuple(control)),)))
    return pulses


def wide_environment(species: SpeciesFunctor, seed: int) -> EnvObject:
    """Environment holding the seeded initial state under loose constraints
    (fields within +-100, unlimited budget)."""
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
    return field_writeback(template, initial_state(layout, seed))


# ---------------------------------------------------------------------------
# Log-log slope fits
# ---------------------------------------------------------------------------


class FitResult(NamedTuple):
    slope: float
    intercept: float  # natural log of the prefactor
    r_squared: float


def fit_loglog_slope(rows: Sequence[tuple[float, float]]) -> FitResult:
    """Ordinary least squares of log(delta) against log(eps).

    Requires at least 3 rows with positive delta; raises
    :class:`InsufficientDataError` otherwise. The intercept is the natural
    log of the power-law prefactor.
    """
    usable = [(eps, delta) for eps, delta in rows if delta > 0]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"log-log fit needs at least 3 positive rows, got {len(usable)}"
        )
    x = np.log([eps for eps, _ in usable])
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


@dataclass(frozen=True)
class ExposureExperiment:
    """A two-pulse order-asymmetry scan over a grid of exposure scales."""

    species: SpeciesFunctor
    pulse_p: PulseTemplate = PulseTemplate(channel=0)
    pulse_q: PulseTemplate = PulseTemplate(channel=1)
    eps_grid: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01)
    scaling: str = "amplitude"
    weights: DistanceWeights = DistanceWeights()
    seed: int = 12345

    def __post_init__(self):
        grid = tuple(float(e) for e in self.eps_grid)
        object.__setattr__(self, "eps_grid", grid)
        if len(grid) < 4:
            raise ConfigError("eps_grid: need at least 4 points")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("eps_grid: must be strictly decreasing")
        if grid[0] / grid[-1] < 10.0:
            raise ConfigError("eps_grid: must span at least one decade")
        if any(e <= 0 for e in grid):
            raise ConfigError("eps_grid: entries must be positive")
        if self.scaling not in ("amplitude", "duration"):
            raise ConfigError(f"scaling: unknown mode {self.scaling!r}")
        _check_pulse_channels(self, self.species.dynamics.channels)

    @classmethod
    def from_json(
        cls, data: Mapping, seed_override: int | None = None
    ) -> "ExposureExperiment":
        """Experiment from an ``order-scan`` config. Absent keys take the
        dataclass defaults; ``seed_override``, when given, replaces the seed."""
        data = dict(data)
        species = species_from_config(data.pop("species", {}))
        defaults = {f.name: f.default for f in fields(cls)}
        kwargs = _config_kwargs(data, defaults)
        if seed_override is not None:
            kwargs["seed"] = seed_override
        return cls(species=species, **kwargs)


@dataclass(frozen=True)
class AsymmetryReport:
    """Scan rows, the fitted scaling law, and the generator-level diagnostic."""

    rows: tuple[tuple[float, float], ...]
    excluded: tuple[float, ...]  # eps values at or below the delta floor
    slope: float | None
    intercept: float | None
    r_squared: float | None
    commutator_norm: float
    verdict: str
    scaling: str
    weights: tuple[float, float, float]
    seed: int

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
    same seeded initial state and the extracted networks are compared.
    Rows at the delta floor are flagged and excluded from the fit. The
    report also carries the norm of the commutator of the two estimated
    pulse generators, the generator-level diagnostic of the same effect.
    """
    species = exp.species
    dyn = species.dynamics
    channels = dyn.channels
    state = initial_state(species.extraction.layout, exp.seed)

    rows = []
    for eps in exp.eps_grid:
        p = exp.pulse_p.program(eps, exp.scaling, channels)
        q = exp.pulse_q.program(eps, exp.scaling, channels)
        p_then_q = species.on_object(species.transform(state, concatenate(p, q)))
        q_then_p = species.on_object(species.transform(state, concatenate(q, p)))
        delta = myc_distance(p_then_q, q_then_p, exp.weights)
        rows.append((eps, float(delta)))

    excluded = tuple(eps for eps, delta in rows if delta <= DELTA_FLOOR)
    usable = [(eps, delta) for eps, delta in rows if delta > DELTA_FLOOR]
    if len(usable) >= 3:
        fit = fit_loglog_slope(usable)
        slope, intercept, r_squared = fit.slope, fit.intercept, fit.r_squared
    else:
        slope = intercept = r_squared = None

    gen_eps = 0.1
    x_p = estimate_generator(
        exp.pulse_p.generator_family(channels), dyn, gen_eps
    )
    x_q = estimate_generator(
        exp.pulse_q.generator_family(channels), dyn, gen_eps
    )
    comm_norm = float(np.linalg.norm(commutator(x_p, x_q), "fro"))

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


@dataclass(frozen=True)
class WorkedExampleConfig:
    """Configuration of the two-pulse protocol on a linear electrode array."""

    n_sites: int = 8
    channels: int = 2
    features: int = 3
    sigma: float = 1.0
    coupling: str = "noncommuting"
    pulse_p: PulseTemplate = ExposureExperiment.pulse_p
    pulse_q: PulseTemplate = ExposureExperiment.pulse_q
    eps_grid: tuple[float, ...] = ExposureExperiment.eps_grid
    scaling_modes: tuple[str, ...] = ("amplitude", "duration")
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int = ExposureExperiment.seed
    functor_samples: int = 100
    functor_tol: float = 1e-10
    compat_pulses: int = 50
    compat_tol: float = 1e-8

    def __post_init__(self):
        _check_pulse_channels(self, self.channels)

    @classmethod
    def from_json(cls, data: Mapping) -> "WorkedExampleConfig":
        """Config from JSON: unknown keys are rejected, absent keys keep
        the class defaults."""
        defaults = {f.name: f.default for f in fields(cls)}
        return cls(**_config_kwargs(data, defaults))


@dataclass(frozen=True)
class WorkedExampleResult:
    """Everything the two-pulse protocol produces, ready for serialization."""

    config: WorkedExampleConfig
    env_initial: EnvObject
    env_after_a: EnvObject
    env_after_b: EnvObject
    env_after_ab: EnvObject
    scans: Mapping[str, AsymmetryReport]
    law_reports: tuple[LawReport, ...]

    @property
    def all_laws_pass(self) -> bool:
        return all(r.passed for r in self.law_reports)

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
        rules[channel] = FieldRule(POINTWISE_ADD, delta={site: 0.5})
        return EnvMorphism(
            fg=identity_morphism(graph),
            rho_rule=identity_rule(),
            phi_rules=tuple(rules),
        )

    f_a = pulse_morphism(config.pulse_p.channel, 0)
    f_b = pulse_morphism(config.pulse_q.channel, config.n_sites // 2)
    return env, f_a, f_b


def run_worked_example(
    config: WorkedExampleConfig | None = None,
    scaling: str | None = None,
) -> WorkedExampleResult:
    """Run the full two-pulse protocol.

    Builds the substrate environment and its two exposure morphisms, runs
    the order-asymmetry scan in the configured scaling modes (or just the
    one requested), and runs the functor-law and compatibility checks on
    the same species. Deterministic given (config, seed).
    """
    config = config or WorkedExampleConfig()
    modes = (scaling,) if scaling else config.scaling_modes
    for mode in modes:
        if mode not in ("amplitude", "duration"):
            raise ConfigError(f"scaling_modes: unknown mode {mode!r}")

    species = reference_species(
        n_sites=config.n_sites,
        channels=config.channels,
        features=config.features,
        sigma=config.sigma,
        coupling=config.coupling,
    )

    env, f_a, f_b = _demo_environment(config)
    env_a = apply_env_morphism(env, f_a)
    env_b = apply_env_morphism(env, f_b)
    env_ab = apply_env_morphism(env_a, f_b)

    scans = {}
    for mode in modes:
        scans[mode] = run_order_asymmetry_scan(
            ExposureExperiment(
                species=species,
                pulse_p=config.pulse_p,
                pulse_q=config.pulse_q,
                eps_grid=config.eps_grid,
                scaling=mode,
                weights=DistanceWeights(*config.weights),
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
        weights=DistanceWeights(*config.weights),
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
