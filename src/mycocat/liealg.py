"""Matrix Lie machinery: exp, log, commutators, and composition expansions.

Generators are plain square float64 arrays (units: 1/time). The flow of a
small exposure with generator X at scale eps is exp(eps*X); composing two
exposures multiplies their flows, and the generator of the composite is
recovered by the matrix logarithm. The truncated composition expansion
expresses that composite generator in nested commutators; its order-2 term
is what makes order asymmetry quadratic in eps.

Composition convention, fixed project-wide: in ``bch_truncated(x, y, ...)``
and ``effective_mixture_generator(x, y, ...)``, ``x`` generates the
exposure applied FIRST in time, so the composite flow is
exp(eps*y) @ exp(eps*x) and the expansion reads

    eps*(x + y) + eps^2/2 [y, x] + eps^3/12 ([y,[y,x]] + [x,[x,y]]) + ...

All functions are pure; matrices are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import DomainError, NumericError, ParameterError, ShapeError
from .programs import Program, ReferenceDynamics, flow_matrix


def _check_square(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError(f"{name} has non-finite entries")
    return x


def matrix_exp(x: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t*x) by Pade scaling-and-squaring (see :mod:`mycocat.kernels`)."""
    x = _check_square(x, "generator")
    return kernels.expm(t * x)


def matrix_log(m: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm.

    Raises :class:`DomainError` when the principal branch is undefined:
    singular input or a real eigenvalue on the closed negative axis.

    The log is taken blockwise on the connected components of the sparsity
    pattern of ``m`` (exact, since the log of a block diagonal matrix is
    block diagonal on the same blocks). The blocks are padded with the
    identity, whose log is zero and whose eigenvalue 1 never changes the
    domain check; the union of the block spectra is the spectrum of ``m``.
    """
    m = _check_square(m)
    parts = kernels.blocks(m != 0)
    stack = kernels.gather(m, parts, fill=1.0)
    eigs = np.linalg.eigvals(stack)
    scale = max(float(np.max(np.abs(eigs))), 1.0)
    if np.any((eigs.real <= 0) & (np.abs(eigs.imag) <= 1e-12 * scale)):
        raise DomainError(
            "matrix log undefined: eigenvalue on the nonpositive real axis"
        )
    try:
        logs = kernels.logm(stack)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    return kernels.scatter(logs, parts)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] = x @ y - y @ x."""
    x = _check_square(x, "x")
    y = _check_square(y, "y")
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    return x @ y - y @ x


@dataclass(frozen=True)
class BchResult:
    """Truncated composition expansion, with each order kept separately."""

    order: int
    value: np.ndarray
    terms: tuple[tuple[int, np.ndarray], ...]


def bch_truncated(x: np.ndarray, y: np.ndarray, eps: float, order: int) -> BchResult:
    """Truncated expansion of log(exp(eps*y) @ exp(eps*x)), x first in time.

    Supported orders: 1, 2, 3. The terms are, in order,
    eps*(x + y), eps^2/2 [y, x], and eps^3/12 ([y,[y,x]] + [x,[x,y]]).
    """
    if order not in (1, 2, 3):
        raise ParameterError(f"unsupported truncation order {order}")
    x = _check_square(x, "x")
    y = _check_square(y, "y")
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    terms = [(1, eps * (x + y))]
    if order >= 2:
        terms.append((2, (eps**2 / 2.0) * commutator(y, x)))
    if order >= 3:
        terms.append(
            (
                3,
                (eps**3 / 12.0)
                * (commutator(y, commutator(y, x)) + commutator(x, commutator(x, y))),
            )
        )
    value = terms[0][1]
    for _, t in terms[1:]:
        value = value + t
    return BchResult(order=order, value=value, terms=tuple(terms))


def effective_mixture_generator(x: np.ndarray, y: np.ndarray, eps: float) -> np.ndarray:
    """Exact generator of the composed exposure: log(exp(eps*y) @ exp(eps*x)).

    This is the full series that :func:`bch_truncated` approximates; domain
    errors from the logarithm propagate.
    """
    return matrix_log(matrix_exp(y, eps) @ matrix_exp(x, eps))


def estimate_generator(
    p_family: Callable[[float], Program],
    dyn: ReferenceDynamics,
    eps: float,
) -> np.ndarray:
    """Infinitesimal generator of a pulse family from its flow at scale eps.

    ``p_family(eps)`` must be a single-piece pulse whose flow scales as
    exp(eps*X); for the bilinear reference dynamics with constant control
    u over duration eps*d this recovers d*(drift + sum u_i controls_i)
    exactly, up to log/exp roundoff.
    """
    program = p_family(eps)
    if len(program.pieces) != 1:
        raise ParameterError("generator estimation expects a single-piece pulse")
    return matrix_log(flow_matrix(dyn, program)) / eps
