"""Checks on values read from configs, suite entries and command-line flags.

Each check takes a mapping and the names of the values to check in it;
``where`` prefixes each name in the :class:`ConfigError` it raises
(``"species."`` names ``species.n_sites``). The module imports no numpy,
so the command line can validate its flags before it loads the numerical
modules.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .errors import ConfigError


def _require_positive(values: Mapping, names: Sequence[str], where: str = "") -> None:
    """Reject a size or count below 1; ``where`` prefixes the key in errors."""
    for name in names:
        if values[name] < 1:
            raise ConfigError(f"{where}{name}: must be positive, got {values[name]}")


def _require_nonnegative(values: Mapping, names: Sequence[str], where: str = "") -> None:
    """Reject a negative, NaN or infinite seed, tolerance, bound or
    conductivity (``sigma``): every residual passes an infinite tolerance
    or bound, and an infinite conductivity makes every network distance
    NaN. ``where`` prefixes the key in errors."""
    for name in names:
        value = values[name]
        if not value >= 0:
            kind = "a nonnegative number" if isinstance(value, float) else "nonnegative"
            raise ConfigError(f"{where}{name}: must be {kind}, got {value}")
        if value == math.inf:
            raise ConfigError(f"{where}{name}: must be finite, got {value}")


def _require_finite(values: Mapping, names: Sequence[str], where: str = "") -> None:
    """Reject a NaN or infinite scale, amplitude or duration, which would
    only surface as a non-finite flow. ``where`` prefixes the key in errors."""
    for name in names:
        if not math.isfinite(values[name]):
            raise ConfigError(f"{where}{name}: must be finite, got {values[name]}")


def _coerce(kind: type, raw):
    """``kind(raw)``, refusing to truncate a non-integral float to an int."""
    if kind is int and isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"must be an integer, got {raw}")
    return kind(raw)
