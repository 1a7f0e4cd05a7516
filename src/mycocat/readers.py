"""What each kind of JSON value is: the one reader of every input.

Each reader takes a raw value and ``field``, its name in the input
(``b.nodes[0]``, ``checks[0].tol``), and returns the value or raises one
:class:`ShapeError` naming the field; :func:`read_key` names a missing key
by its full path (``graph.nodes: missing key``). A number is an int or a
float, not a bool or a string; an integer is a number without a fraction
(3.0 reads as 3); an id is a string, a number, a bool or null. A refused
value is shown by its repr, a list or an object by its type name. Configs
report these refusals as :class:`ConfigError`.

The ``_require_*`` checks take values already read and the names to check;
``where`` prefixes each name (``"species."`` names ``species.n_sites``).

The module imports no numpy, so the command line can read its inputs and
validate its flags before it loads the numerical modules.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConfigError, NumericError, ParameterError, ShapeError


def _refused(field: str, kind: str, raw) -> ShapeError:
    shown = type(raw).__name__ if isinstance(raw, (list, tuple, Mapping)) else repr(raw)
    return ShapeError(f"{field}: must be {kind}, got {shown}")


def read_number(raw, field: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        raise _refused(field, "a number", raw)
    try:
        return float(raw)
    except OverflowError:  # an integer literal past the float range
        raise _refused(field, "a number in the float range", raw) from None


def read_integer(raw, field: str) -> int:
    integral = isinstance(raw, numbers.Integral) or isinstance(raw, float) and raw.is_integer()
    if isinstance(raw, bool) or not integral:
        raise _refused(field, "an integer", raw)
    return int(raw)


def _of_type(types, kind: str) -> Callable:
    """The reader of a value that is one of ``types``, returned as it is."""
    def read(raw, field: str):
        if not isinstance(raw, types):
            raise _refused(field, kind, raw)
        return raw
    return read


read_object = _of_type(Mapping, "a JSON object")


def read_key(data: Mapping, key: str, where: str = ""):
    """``data[key]`` of an object already read; a missing key raises
    :class:`ShapeError` naming it, prefixed by ``where`` (``"b."`` names
    ``b.nodes``)."""
    if key not in data:
        raise ShapeError(f"{where}{key}: missing key")
    return data[key]
read_string = _of_type(str, "a string")
read_bool = _of_type(bool, "true or false")
read_id = _of_type((str, numbers.Real, type(None)), "an id")


def read_list(raw, field: str, read: Callable, kind: str = "a list") -> tuple:
    """The items of a list, each read by ``read(item, field[i])``; ``kind``
    says what the list holds when ``raw`` is not a list."""
    if not isinstance(raw, (list, tuple)):
        raise _refused(field, kind, raw)
    return tuple(read(item, f"{field}[{i}]") for i, item in enumerate(raw))


def read_numbers(raw, field: str) -> tuple[float, ...]:
    return read_list(raw, field, read_number, "a list of numbers")


def read_tuple(raw, field: str, kind: str, *reads: Callable) -> tuple:
    """A short list of fixed shape, such as ``[lo, hi]``: one item per
    reader in ``reads``, item ``i`` read by ``reads[i]``. A value of another
    length, or with an item its reader refuses, is refused whole as not
    ``kind``, shown by its repr."""
    if isinstance(raw, (list, tuple)) and len(raw) == len(reads):
        try:
            return tuple(read(item, field) for read, item in zip(reads, raw))
        except ShapeError:
            pass
    raise ShapeError(f"{field}: must be {kind}, got {raw!r}")


def read_matrix(raw, field: str) -> tuple[tuple[float, ...], ...]:
    """A list of equally long number rows."""
    rows = read_list(raw, field, read_numbers)
    if len({len(row) for row in rows}) > 1:
        lengths = [len(row) for row in rows]
        raise ShapeError(f"{field}: rows must be equally long, got lengths {lengths}")
    return rows


def read_map(raw, field: str, ids: Iterable, kind: str, read: Callable) -> dict:
    """A JSON object keyed by ``str(id)`` for the ``ids`` of a graph's nodes
    or edges (``kind``), as ``{id: read(value, field.key)}``; a key that
    names no id is refused."""
    keys = {str(i): i for i in ids}
    out = {}
    for key, value in read_object(raw, field).items():
        if key not in keys:
            raise ShapeError(f"{field}.{key}: no {kind} has this id")
        out[keys[key]] = read(value, f"{field}.{key}")
    return out


_BY_TYPE = {int: read_integer, float: read_number, str: read_string, dict: read_object}


def read_like(raw, field: str, default):
    """``raw`` read as the kind of value ``default`` is: an int, a float, a
    string or an object; a tuple default reads a list of its first item's
    kind."""
    if isinstance(default, tuple):
        return read_list(raw, field, lambda item, name: read_like(item, name, default[0]))
    return _BY_TYPE[type(default)](raw, field)


def read_wire(data, field: str, build: Callable):
    """``build(data)`` for a wire format held at ``field``: an input file, or
    a program or species block in a config. A value the format refuses, a
    missing key among them, raises :class:`ConfigError` after ``field: ``."""
    try:
        return build(data)
    except (ShapeError, ParameterError, NumericError) as exc:
        raise ConfigError(f"{field}: {exc}") from exc


# The most samples, programs, pairs or pulses one config may ask for. A
# count is a Python loop or an array length, and an integral float such as
# 1e308 reads as a 309-digit int.
MAX_SAMPLES = 10_000


def _brief(value) -> str:
    """``value`` as an error names it: an int of 13 or more digits to six
    significant digits (``-1e+308``), rounded exactly, so an int past the
    float range does not overflow; any other value as ``str`` gives it."""
    if isinstance(value, int) and abs(value) >= 10**12:
        from decimal import Context  # only on this error path

        return f"{Context(prec=6).create_decimal(value).normalize():g}"
    return str(value)


def _require_positive(values: Mapping, names: Sequence[str], where: str = "") -> None:
    """Reject a size or count below 1; ``where`` prefixes the key in errors."""
    for name in names:
        if values[name] < 1:
            raise ConfigError(f"{where}{name}: must be positive, got {_brief(values[name])}")


def _require_counts(values: Mapping, names: Sequence[str], where: str = "") -> None:
    """Reject a sample count below 1 or above :data:`MAX_SAMPLES`; ``where``
    prefixes the key in errors."""
    _require_positive(values, names, where)
    for name in names:
        if values[name] > MAX_SAMPLES:
            raise ConfigError(f"{where}{name}: must be at most {MAX_SAMPLES}")


def _require_nonnegative(values: Mapping, names: Sequence[str], where: str = "") -> None:
    """Reject a negative, NaN or infinite seed, tolerance, bound or
    conductivity (``sigma``): every residual passes an infinite tolerance
    or bound, and an infinite conductivity makes every network distance
    NaN. ``where`` prefixes the key in errors."""
    for name in names:
        value = values[name]
        if not value >= 0:
            kind = "a nonnegative number" if isinstance(value, float) else "nonnegative"
            raise ConfigError(f"{where}{name}: must be {kind}, got {_brief(value)}")
        if value == math.inf:
            raise ConfigError(f"{where}{name}: must be finite, got {value}")


def _require_finite(values: Mapping, names: Sequence[str], where: str = "") -> None:
    """Reject a NaN or infinite scale, amplitude or duration, which would
    only surface as a non-finite flow. ``where`` prefixes the key in errors."""
    for name in names:
        if not math.isfinite(values[name]):
            raise ConfigError(f"{where}{name}: must be finite, got {values[name]}")
