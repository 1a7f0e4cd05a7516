"""Float64 matrix kernels on block stacks: exponential, logarithm, flows.

These are the hot inner loops of the package: every law check and every
point of an exposure scan evaluates matrix exponentials or logarithms.
The kernels are plain numpy and work on stacks: ``expm`` and ``logm``
accept one square matrix or a ``(..., s, s)`` stack and treat every
member independently, with one broadcast call per numpy operation.

Block structure: the generators of a bilinear species are usually block
diagonal after a permutation (the reference species couples the features
of one site and nothing else). ``blocks`` finds those blocks as the
connected components of a sparsity pattern. A matrix function of a block
diagonal matrix is block diagonal on the same blocks, so ``gather`` cuts
the blocks out into one zero-padded stack, the kernel runs once on the
stack, and ``scatter`` writes the result back. The split is exact; a dense
matrix is a single block.

Algorithms:

- ``expm``: Pade approximant of degree m in {3, 5, 7, 9, 13}, the lowest
  degree whose threshold theta_m bounds the largest Frobenius norm in the
  stack (Higham 2005, "The scaling and squaring method for the matrix
  exponential revisited"). Only above theta_13 is the stack halved, until
  that norm is below theta_13, and squared back.
- ``logm``: inverse scaling and squaring; Denman-Beavers square roots
  bring each matrix within 0.25 of the identity, then an alternating
  Taylor series of log(I + E) is summed and scaled back. Each member of a
  stack takes its own number of square roots and series terms.
- ``piecewise_flow``: every piece and every block of one flow goes through
  a single ``expm`` call; the pieces are then multiplied in time order.

Domain validation (finiteness, principal-branch eigenvalue checks) lives
in :mod:`mycocat.liealg`; the kernels assume well-formed input.
"""

from typing import NamedTuple

import numpy as np

# The kernels are numpy only; reports record this flag as the kernel path.
NUMBA_ENABLED = False

# Frobenius-norm thresholds theta_m of the degree-m Pade approximants.
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 5.371920351148152

# Pade numerator coefficients b_0..b_m by degree.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    ),
}


def _fro(a):
    """Frobenius norm of each matrix of a stack."""
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


def expm(a):
    """exp of a square float64 matrix or of each matrix of a (..., s, s) stack.

    The Pade degree and the squaring count follow the largest Frobenius
    norm in the stack, so one call runs one sequence of broadcast products
    and one batched solve.
    """
    ident = np.eye(a.shape[-1])
    norm = float(_fro(a).max(initial=0.0))
    squarings = 0
    degree = 13
    for m, theta in _THETA:
        if norm <= theta:
            degree = m
            break
    else:
        if norm > _THETA_13:
            squarings = int(np.ceil(np.log2(norm / _THETA_13)))
    scaled = a / (2.0 ** squarings) if squarings else a

    b = _PADE[degree]
    a2 = scaled @ scaled
    if degree == 13:
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
    else:
        # even powers I, A^2, ..., A^(m-1); u = A * odd part, v = even part
        powers = [ident, a2]
        while len(powers) < (degree + 1) // 2:
            powers.append(powers[-1] @ a2)
        odd = b[degree] * powers[-1]
        even = b[degree - 1] * powers[-1]
        for j in range(len(powers) - 2, -1, -1):
            odd = odd + b[2 * j + 1] * powers[j]
            even = even + b[2 * j] * powers[j]
        u = scaled @ odd
        v = even
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _sqrt_db(r):
    """Principal square root of each matrix of a stack (Denman-Beavers).

    A member stops iterating once its step falls below 1e-15 of its norm.
    Raises ValueError if any member has not converged after 60 steps.
    """
    out = np.empty_like(r)
    live = np.arange(len(r))  # members of out still iterating, in y and z
    y = r
    z = np.broadcast_to(np.eye(r.shape[-1]), r.shape)
    for _ in range(60):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        going = _fro(y_next - y) > 1e-15 * _fro(y_next)
        if not going.all():
            out[live[~going]] = y_next[~going]
            live, y_next, z_next = live[going], y_next[going], z_next[going]
            if not live.size:
                return out
        y, z = y_next, z_next
    raise ValueError("matrix log: Denman-Beavers iteration did not converge")


def logm(m):
    """Principal log of a square float64 matrix, or of each matrix of a
    (..., s, s) stack, near the identity component.

    Repeated Denman-Beavers square roots pull each argument into the
    convergence ball ||M - I|| <= 0.25, where the alternating series of
    log(I + E) is summed; each result is scaled back by the number of
    square roots its own matrix took. Raises ValueError if either
    iteration stalls for any member (callers pre-validate the spectrum,
    so this indicates inputs far outside the supported domain).
    """
    shape = m.shape
    s = shape[-1]
    ident = np.eye(s)
    r = np.array(m, dtype=np.float64).reshape(-1, s, s)
    scalings = np.zeros(len(r))
    todo = np.flatnonzero(_fro(r - ident) > 0.25)
    while todo.size:
        if scalings[todo].max() >= 60:
            raise ValueError("matrix log: square-root scaling did not converge")
        r[todo] = _sqrt_db(r[todo])
        scalings[todo] += 1
        todo = todo[_fro(r[todo] - ident) > 0.25]

    # each member stops summing after its first term below 1e-18
    logs = np.empty_like(r)
    live = np.arange(len(r))  # members of logs still summing, in e and total
    e = r - ident
    term = e
    total = e
    sign = -1.0
    for k in range(2, 120):
        term = term @ e
        total = total + (sign / k) * term
        sign = -sign
        going = _fro(term) >= 1e-18
        if not going.all():
            logs[live[~going]] = total[~going]
            live, e, term, total = live[going], e[going], term[going], total[going]
            if not live.size:
                break
    else:
        logs[live] = total
    return (logs * (2.0 ** scalings)[:, None, None]).reshape(shape)


class Blocks(NamedTuple):
    """Diagonal blocks of an n x n matrix after a permutation.

    ``index`` has one row per block listing its indices in increasing
    order, padded with -1 up to the largest block size. ``flat`` holds the
    position row * n + col of every entry of the padded blocks and ``mask``
    marks the entries that are not padding; both have shape
    (blocks, size, size) and are computed once, so gathering and
    scattering cost a few numpy calls.
    """

    index: np.ndarray
    flat: np.ndarray
    mask: np.ndarray
    n: int


def blocks(pattern):
    """Connected components of the symmetric closure of a square boolean
    pattern, as :class:`Blocks`.

    Components are ordered by their smallest index and need not be
    contiguous. When padding every component to the largest one would cost
    more cubic work than one dense block, the single component
    ``[0, ..., n-1]`` is returned.
    """
    sym = pattern | pattern.T
    n = sym.shape[0]
    # min-label propagation with pointer jumping; at the fixed point every
    # node carries the smallest index of its component
    labels = np.arange(n)
    while True:
        new = np.minimum(labels, np.where(sym, labels, n).min(axis=1, initial=n))
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    roots, first, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    size = int(sizes.max(initial=0))
    if len(roots) * size**3 > n**3:
        index = np.arange(n)[None, :]
    else:
        comp = np.repeat(np.arange(len(roots)), sizes)
        index = np.full((len(roots), size), -1)
        index[comp, np.arange(n) - first[comp]] = order
    valid = index >= 0
    return Blocks(
        index,
        index[:, :, None] * n + index[:, None, :],
        valid[:, :, None] & valid[:, None, :],
        n,
    )


def gather(m, parts, fill=0.0):
    """Stack of the diagonal blocks of ``m`` (see :class:`Blocks`): shape
    (..., blocks, size, size) for ``m`` of shape (..., n, n). Padding rows
    and columns are zero except the padded diagonal, which holds ``fill``."""
    n = parts.n
    stack = np.where(parts.mask, m.reshape(m.shape[:-2] + (n * n,))[..., parts.flat], 0.0)
    if fill:
        comp, pos = np.nonzero(parts.index < 0)
        stack[..., comp, pos, pos] = fill
    return stack


def scatter(stack, parts):
    """n x n matrix holding each block of a (blocks, size, size) stack at
    its indices; padding is dropped and every entry outside the blocks is
    zero."""
    out = np.zeros(parts.n * parts.n)
    out[parts.flat[parts.mask]] = stack[parts.mask]
    return out.reshape(parts.n, parts.n)


def piecewise_flow(drift, controls, lengths, inputs, parts=None):
    """Flow matrix of a piecewise-constant bilinear control system.

    Multiplies, in time order, exp(length_j * (drift + sum_i u_ji * controls_i)).
    ``controls`` has shape (c, n, n); ``inputs`` has shape (k, c); ``lengths``
    has shape (k,). ``parts`` holds the blocks of the union sparsity pattern
    of drift and controls (see :func:`blocks`); it is computed here when not
    given. All k pieces on all blocks go through one ``expm`` call.
    """
    k = len(lengths)
    if not k:
        return np.eye(drift.shape[0])
    system = np.concatenate((drift[None], controls))
    if parts is None:
        parts = blocks((system != 0).any(axis=0))
    stack = gather(system, parts)
    # piece j: length_j * (1 * drift + sum_i u_ji * controls_i)
    coeffs = lengths[:, None] * np.concatenate((np.ones((k, 1)), inputs), axis=1)
    gens = (coeffs @ stack.reshape(len(stack), -1)).reshape((k,) + stack.shape[1:])
    pieces = expm(gens)
    flow = pieces[0]
    for piece in pieces[1:]:
        flow = piece @ flow
    return scatter(flow, parts)
