"""Dense float64 matrix kernels: exponential, logarithm, piecewise flows.

These are the hot inner loops of the package: every law check and every
point of an exposure scan evaluates a handful of matrix exponentials or
logarithms. The implementations are written in plain numpy and compiled
with numba's ``@njit`` when it is importable; set the environment variable
``MYCOCAT_DISABLE_NUMBA=1`` before import to force the pure-numpy path.
The uncompiled functions stay available as ``expm_numpy`` / ``logm_numpy``
so the two paths can be compared against each other.

Algorithms:

- ``expm``: Pade(13) approximant with scaling and squaring; the input is
  halved until its Frobenius norm is below the degree-13 threshold.
- ``logm``: inverse scaling and squaring; Denman-Beavers square roots
  bring the matrix within 0.25 of the identity, then an alternating
  Taylor series of log(I + E) is summed and scaled back.

Domain validation (finiteness, principal-branch eigenvalue checks) lives
in :mod:`mycocat.liealg`; the kernels assume well-formed input.
"""

import os

import numpy as np

# Frobenius-norm threshold for the degree-13 Pade approximant.
_THETA_13 = 5.371920351148152

_PADE_13 = np.array(
    [
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ]
)


def expm_numpy(a):
    """exp(a) for a square float64 matrix, Pade(13) scaling-and-squaring."""
    n = a.shape[0]
    ident = np.eye(n)
    norm = np.sqrt(np.sum(a * a))
    squarings = 0
    if norm > _THETA_13:
        squarings = int(np.ceil(np.log2(norm / _THETA_13)))
    scaled = a / (2.0 ** squarings)

    b = _PADE_13
    a2 = scaled @ scaled
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = scaled @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    r = np.ascontiguousarray(np.linalg.solve(v - u, v + u))
    for _ in range(squarings):
        r = np.ascontiguousarray(r @ r)
    return r


def logm_numpy(m):
    """Principal log of a square float64 matrix near the identity component.

    Repeated Denman-Beavers square roots pull the argument into the
    convergence ball ||M - I|| <= 0.25, where the alternating series of
    log(I + E) is summed; the result is scaled back by the number of
    square roots taken. Raises ValueError if either iteration stalls
    (callers pre-validate the spectrum, so this indicates inputs far
    outside the supported domain).
    """
    n = m.shape[0]
    ident = np.eye(n)
    r = m.copy()
    scalings = 0
    while np.sqrt(np.sum((r - ident) * (r - ident))) > 0.25:
        if scalings >= 60:
            raise ValueError("matrix log: square-root scaling did not converge")
        # one Denman-Beavers sqrt: y -> sqrt(r)
        y = r.copy()
        z = np.eye(n)
        converged = False
        for _ in range(60):
            y_next = 0.5 * (y + np.linalg.inv(z))
            z_next = 0.5 * (z + np.linalg.inv(y))
            delta = np.sqrt(np.sum((y_next - y) * (y_next - y)))
            y = y_next
            z = z_next
            if delta <= 1e-15 * np.sqrt(np.sum(y * y)):
                converged = True
                break
        if not converged:
            raise ValueError("matrix log: Denman-Beavers iteration did not converge")
        r = y
        scalings += 1

    e = r - ident
    term = e.copy()
    total = e.copy()
    sign = -1.0
    for k in range(2, 120):
        term = term @ e
        total = total + (sign / k) * term
        sign = -sign
        if np.sqrt(np.sum(term * term)) < 1e-18:
            break
    return total * (2.0 ** scalings)


NUMBA_ENABLED = False
_env_disabled = os.environ.get("MYCOCAT_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)

if not _env_disabled:
    try:
        from numba import njit
    except ImportError:
        njit = None
    if njit is not None:
        expm = njit(cache=True)(expm_numpy)
        logm = njit(cache=True)(logm_numpy)
        NUMBA_ENABLED = True

if not NUMBA_ENABLED:
    expm = expm_numpy
    logm = logm_numpy


def piecewise_flow(drift, controls, lengths, inputs):
    """Flow matrix of a piecewise-constant bilinear control system.

    Multiplies, in time order, exp(length_j * (drift + sum_i u_ji * controls_i)).
    ``controls`` has shape (c, n, n); ``inputs`` has shape (k, c); ``lengths``
    has shape (k,). The per-piece exponential dominates the cost and runs
    through the active ``expm`` kernel.
    """
    n = drift.shape[0]
    flow = np.eye(n)
    for j in range(lengths.shape[0]):
        gen = drift.copy()
        for i in range(controls.shape[0]):
            u = inputs[j, i]
            if u != 0.0:
                gen = gen + u * controls[i]
        flow = expm(lengths[j] * gen) @ flow
    return flow
