"""Float64 matrix kernels on block stacks: exponential, logarithm, flows.

These are the hot inner loops of the package: every law check and every
point of an exposure scan evaluates matrix exponentials. The kernels are
plain numpy and work on stacks: ``expm`` and ``logm`` accept one square
matrix or a ``(..., s, s)`` stack and treat every member independently;
``expm`` makes one broadcast call per numpy operation, ``logm`` takes the
members one at a time.

Block structure: the generators of a bilinear species are usually block
diagonal after a permutation (the reference species couples the features
of one site and nothing else). ``blocks`` finds those blocks as the
connected components of a sparsity pattern. A slot with no entry in its
row or its column, the diagonal included, is static: every generator
leaves it fixed, so it is in no block and every flow is the identity
there (the reference species couples only the first two features of each
site, so each site's third slot is static). A matrix function of a block
diagonal matrix is block diagonal on the same blocks, so ``gather`` cuts
the blocks out into one zero-padded stack, the kernel runs once on the
stack, and ``scatter`` writes the result back. The split is exact; a dense
matrix is a single block, and the logarithm, which must see a zero row,
takes its blocks on the pattern with its diagonal, so it has no static
slot. Blocks often repeat (the reference species couples every site
alike: 8 blocks, 1 class), so ``block_classes`` keeps one slice per
distinct block and maps each block to it; the flow kernels exponentiate
and multiply each class once.

Algorithms:

- ``expm``: a 1 x 1 member takes ``np.exp`` of its entry at any norm. A
  2 x 2 member A with Frobenius norm up to theta_13 takes the closed form
  e^m (c I + s (A - m I)), m being its half trace and c and s the cosh and
  sinh terms of the square root of the discriminant (Bernstein and So
  1993, "Some explicit formulas for the matrix exponential"); a 2 x 2
  stack is split once into four contiguous entry planes, on which the
  norm test and the closed form run. A triangular
  2 x 2 member above theta_13 takes the closed form of its divided
  difference at any norm, so a stiff flow such as [[-s, s], [0, 0]] loses
  nothing to squaring (Al-Mohy and Higham 2009, section 2). Every other
  member takes the Pade approximant of degree 13 (Higham 2005, "The
  scaling and squaring method for the matrix exponential revisited"),
  with its own squaring count: none at Frobenius norm up to theta_13,
  and above it the count of Al-Mohy and Higham 2009, which halves by the
  member's powers rather than its norm, so a triangular nilpotent member
  is not squared hundreds of times. No member's path or count depends on
  another's, so every member of a stack equals its single-matrix call bit
  for bit, and a flow's bits do not depend on what shares its call. A
  finite member whose result would overflow is refused with DomainError,
  without a numpy warning.
- ``logm``: inverse scaling and squaring (Cheng, Higham, Kenney and Laub
  2001, "Approximating the logarithm of a matrix to specified accuracy");
  Denman-Beavers square roots bring a matrix within 0.25 of the identity,
  then an alternating Taylor series of log(I + E) is summed and scaled
  back. A stack is taken one member at a time, so each member equals its
  single-matrix call bit for bit. A stack with a member whose sum of
  squares of M - I overflows is refused with DomainError before any
  square root.
- Flows: one routine, ``_block_flows``, computes the class flows of P
  programs whose pieces are listed back to back: every piece of every
  block class goes through a single ``expm`` call, then each program's
  pieces are multiplied in time order (a batch of one-piece programs
  takes no product: its piece stack is its flows). It has two callers.
  ``apply_flows`` runs it once on the whole batch when its piece stack
  fits in ``FLOW_BYTES`` (every flow batch of the shipped workloads does),
  and otherwise on runs of consecutive programs that fit. It applies each
  block's class flow, indexed by ``Blocks.kind``, directly to the block
  sub-vectors of each of the program's k states (the law checks and the
  scans' rows): one take from the states gathers them, with the index
  ``Blocks`` carries and a zero column only when a block is padded, and
  one take puts the active slots back, so each program's flow is computed
  once however many states it moves and a static slot keeps its bits.
  The matvec on a block of size s, ``column_matvec``, is s elementwise
  column updates, summed in column order with each product rounded on its
  own; the similarity variant's comparison map in :mod:`mycocat.laws`
  runs it too. It calls no BLAS, so its bits do not depend on the kernel
  BLAS dispatches; the product loop, ``expm`` and ``logm`` still use
  BLAS. ``piecewise_flow`` runs it on one program and scatters the flow to
  n x n, with 1.0 on each static slot's diagonal (``programs.flow_matrix``,
  which ``liealg.estimate_generator`` logs).
  The order-asymmetry scan's commutator diagnostic takes no flow: it
  reads its two pulse generators from ``_generators``, the routine that
  builds every piece's generator for ``_block_flows``.

Domain validation (finiteness, principal-branch eigenvalue checks) lives
in :mod:`mycocat.liealg`; beyond ``expm``'s refusal of a non-finite
member, the kernels assume well-formed input.
"""

import bisect
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# The kernels are numpy only; no output records this flag, only perfbench reads it.
NUMBA_ENABLED = False

# Frobenius-norm threshold of the degree-13 Pade approximant; a member
# above it is halved by :func:`_far_squarings` and squared back.
_THETA_13 = 5.371920351148152

# log2 |c_27|, the leading coefficient of the degree-13 Pade approximant's
# error series exp(x) - r_13(x) = c_27 x^27 + ...
_LOG2_PADE_13_ERROR = math.log2(
    math.factorial(13) ** 2 / (math.factorial(26) * math.factorial(27))
)

# Pade numerator coefficients b_0..b_13, scaled by 2^-56 so that b_0 < 1.
# A power-of-two scale of both u and v leaves solve(v - u, v + u) bit for
# bit as it is, and keeps u = a @ (... + b_1 I) finite for a member that
# takes no squaring however large its entries: a square-zero member has
# all powers 0, so its count is 0 at any norm.
_PADE_13 = tuple(
    math.ldexp(b, -56)
    for b in (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    )
)

# Bytes of the piece stack of one expm call of :func:`apply_flows`: pieces x
# classes x size^2 x 8. The approximant's temporaries are about a dozen such
# stacks; 1 MiB holds about 64 three-piece programs on a dense 24 x 24
# species, and every flow batch of the shipped workloads (at most 60 kB).
FLOW_BYTES = 2**20


def _fro(a):
    """Frobenius norm of each matrix of a stack."""
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


def _far_squarings(a):
    """Squaring count of each member of a stack of finite matrices above
    theta_13 (Al-Mohy and Higham 2009, "A new scaling and squaring algorithm
    for the matrix exponential", Algorithm 5.1).

    The count first brings max(||a^2||^(1/2), ||a^3||^(1/3)) below theta_13;
    that bound is at most the norm, zero when a^2 = 0, and bounds the Pade
    error as well (Theorem 4.2). It then halves further until
    |c_27| * || |a_s|^27 ||_1 / ||a_s||_1 is below the unit roundoff 2^-53,
    a_s being the halved member (the paper's ell term): where |a|^27 is far
    above |a^27|, as for a dense nilpotent, few halvings would leave the
    Pade denominator ill-conditioned. Everything is computed from a scaled
    by a power of two to entries of at most 1, and || |a|^27 ||_1 is carried
    as a base-2 logarithm, so nothing overflows.
    """
    e = np.frexp(np.abs(a).max(axis=(-2, -1)))[1]
    b = np.ldexp(a, -e[:, None, None])
    b2 = b @ b
    bound = np.maximum(np.sqrt(_fro(b2)), np.cbrt(_fro(b2 @ b)))
    mag = np.abs(b)
    row = mag.sum(axis=-2, keepdims=True)  # 1^T |b|, renormalised each step
    log_one = np.log2(row.max(axis=(-2, -1)))
    log_27 = np.zeros(len(b))
    for _ in range(26):
        k = np.frexp(row.max(axis=(-2, -1)))[1]
        row = np.ldexp(row, -k[:, None, None]) @ mag
        log_27 += k
    with np.errstate(divide="ignore"):  # log 0 where |b|^27 = 0 or a^2 = 0
        log_27 += np.log2(row.max(axis=(-2, -1)))
        s = np.ceil(np.log2(bound / _THETA_13) + e)
    ell = np.ceil((_LOG2_PADE_13_ERROR + 53 + log_27 - log_one) / 26 + e)
    return np.maximum(np.maximum(s, ell), 0).astype(int)


def _expm_2x2(x, b, c, d):
    """exp of each member of a stack of 2 x 2 matrices given as its four
    entry planes, each a contiguous (k,) array; returns the (k, 2, 2) stack.

    For A = [[x, b], [c, d]] with half trace m, N = A - m I is
    [[h, b], [c, -h]] with h = (x - d) / 2, and N @ N = D I for the
    discriminant D = h^2 + b c, so exp(A) is
    e^m (cosh sqrt(D) I + sinh sqrt(D) / sqrt(D) N) for D >= 0, with cos
    and sin of sqrt(-D) for D < 0, and the second factor exactly 1 at
    D = 0. N is built from h so that its trace is exactly 0. When every
    discriminant has one sign, only that trig family is computed.
    """
    m = 0.5 * (x + d)
    h = 0.5 * (x - d)
    disc = h * h + b * c
    root = np.sqrt(np.abs(disc))
    grows = disc >= 0
    if grows.all():
        cos, sin = np.cosh(root), np.sinh(root)
    elif not grows.any():
        cos, sin = np.cos(root), np.sin(root)
    else:
        cos = np.where(grows, np.cosh(root), np.cos(root))
        sin = np.where(grows, np.sinh(root), np.sin(root))
    q = np.divide(sin, root, out=np.ones_like(root), where=root > 0)
    e = np.exp(m)
    qh = q * h
    out = np.empty((len(x), 2, 2))
    np.multiply(e, qh + cos, out=out[:, 0, 0])
    np.multiply(e, q * b, out=out[:, 0, 1])
    np.multiply(e, q * c, out=out[:, 1, 0])
    np.multiply(e, cos - qh, out=out[:, 1, 1])
    return out


def _expm_triangular_2x2(a):
    """exp of each member of a (k, 2, 2) stack of triangular members, whose
    b or c is 0, at any norm.

    For A = [[a, b], [c, d]] with b c = 0, exp(A) is
    [[e^a, b δ], [c δ, e^d]] with δ the divided difference
    (e^a - e^d) / (a - d). δ is that quotient where |a - d| > 2, and
    e^((a + d) / 2) sinh(h) / h with h = (a - d) / 2 otherwise, where the
    quotient would cancel; sinh(h) / h is 1 at h = 0 (Al-Mohy and Higham
    2009, "A new scaling and squaring algorithm for the matrix exponential",
    section 2). No squaring is taken, so a stiff member such as
    [[-s, s], [0, 0]] is exact to a few ulps however large s is.
    """
    x, y = a[:, 0, 0], a[:, 1, 1]
    ex, ey = np.exp(x), np.exp(y)
    gap = x - y
    h = 0.5 * gap
    apart = np.abs(gap) > 2
    delta = np.where(
        apart,
        (ex - ey) / np.where(apart, gap, 1.0),
        np.exp(0.5 * (x + y)) * np.divide(np.sinh(h), h, out=np.ones_like(h), where=h != 0),
    )
    r = np.empty_like(a)
    r[:, 0, 0] = ex
    r[:, 1, 1] = ey
    r[:, 0, 1] = a[:, 0, 1] * delta
    r[:, 1, 0] = a[:, 1, 0] * delta
    return r


def _pade_13(a, squarings):
    """Degree-13 Pade approximant of each member of a (k, s, s) stack,
    halved ``squarings`` times and squared back."""
    ident = np.eye(a.shape[-1])
    scaled = a * np.ldexp(1.0, -squarings)[:, None, None]
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
    r = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max(initial=0)):
        live = squarings > k
        r[live] = r[live] @ r[live]
    return r


# A finite member can still overflow: past the largest float when its
# exponential does, or inside the approximant when a member with entries
# above ~1e154 takes few squarings because its products cancel. expm checks
# its result instead of letting numpy warn.
@np.errstate(over="ignore", invalid="ignore")
def expm(a):
    """exp of a square float64 matrix or of each matrix of a (..., s, s) stack.

    Each member takes its own path, so it equals the single-matrix call bit
    for bit whatever else shares the stack. A 1 x 1 member takes ``np.exp``,
    which is correctly rounded, at any norm. A 2 x 2 member whose Frobenius
    norm is at most theta_13 takes the closed form of :func:`_expm_2x2`, a
    dozen elementwise operations on the four contiguous entry planes that a
    2 x 2 stack is split into once; the norm test runs on the planes too,
    its squares summed in :func:`_fro`'s order. A triangular 2 x 2
    member above theta_13 takes the closed form of
    :func:`_expm_triangular_2x2`, which needs no squaring. Every other
    member takes the degree-13 Pade approximant and its own squaring count:
    one sequence of broadcast products, one batched solve, and a squaring
    loop masked to the members still squaring.

    A Pade member whose Frobenius norm is at most theta_13 is not squared.
    One above it takes :func:`_far_squarings`, which halves by the member's
    powers rather than its norm: each squaring doubles the approximant's
    roundoff, and the norm of a nilpotent member can ask for hundreds of
    squarings that its powers do not need. Raises DomainError for a member
    with a non-finite entry, and for a finite member whose result would not
    be finite; no numpy warning is raised.
    """
    shape = a.shape
    s = shape[-1]
    a = a.reshape(-1, s, s)
    if s == 2:
        planes = np.ascontiguousarray(a.reshape(-1, 4).T)
        squares = planes * planes
        # _fro's sum, entry by entry in row-major order
        far = ~(np.sqrt(((squares[0] + squares[1]) + squares[2]) + squares[3]) <= _THETA_13)
    else:
        far = ~(_fro(a) <= _THETA_13)  # overflow and NaN included
    if far.any() and not np.isfinite(a[far]).all():
        raise DomainError("matrix exponential needs finite entries")
    if s == 1:
        r = np.exp(a)
    elif s == 2 and not far.any():
        r = _expm_2x2(*planes)
    elif s == 2:
        r = np.empty(a.shape)
        r[~far] = _expm_2x2(*planes[:, ~far])
        triangular = far & ((a[:, 0, 1] == 0) | (a[:, 1, 0] == 0))
        r[triangular] = _expm_triangular_2x2(a[triangular])
        far &= ~triangular
        r[far] = _pade_13(a[far], _far_squarings(a[far]))
    else:
        squarings = np.zeros(len(a), dtype=int)
        if far.any():
            squarings[far] = _far_squarings(a[far])
        r = _pade_13(a, squarings)
    if not np.isfinite(r).all():
        raise DomainError("matrix exponential overflows float64")
    return r.reshape(shape)


def _sqrt_db(r):
    """Principal square root of a matrix (Denman-Beavers), stopping once a
    step falls below 1e-15 of the iterate's norm.

    Raises DomainError if an iterate is singular or the iteration has not
    converged after 60 steps.
    """
    y = r
    z = np.eye(len(r))
    for _ in range(60):
        try:
            y_next = 0.5 * (y + np.linalg.inv(z))
            z_next = 0.5 * (z + np.linalg.inv(y))
        except np.linalg.LinAlgError as exc:
            raise DomainError("matrix log: Denman-Beavers iterate is singular") from exc
        if not _fro(y_next - y) > 1e-15 * _fro(y_next):
            return y_next
        y, z = y_next, z_next
    raise DomainError("matrix log: Denman-Beavers iteration did not converge")


def logm(m):
    """Principal log of a square float64 matrix, or of each matrix of a
    (..., s, s) stack, near the identity component.

    Each member is taken on its own, so it equals its single-matrix call
    bit for bit. Repeated Denman-Beavers square roots pull the matrix into
    the convergence ball ||M - I|| <= 0.25, where the alternating series of
    log(I + E) is summed up to its first term below 1e-18; the result is
    scaled back by the number of square roots taken. Raises DomainError,
    before any square root, if the sum of squares of M - I overflows for
    any member, and if either iteration stalls (callers pre-validate the
    spectrum, so this indicates inputs far outside the supported domain).
    """
    shape = m.shape
    s = shape[-1]
    ident = np.eye(s)
    r = np.array(m, dtype=np.float64).reshape(-1, s, s)
    with np.errstate(over="ignore"):
        dist = _fro(r - ident)
    if not np.isfinite(dist).all():
        raise DomainError("matrix log: ||M - I|| overflows float64")
    logs = np.empty_like(r)
    for i, a in enumerate(r):
        roots = 0
        while _fro(a - ident) > 0.25:
            if roots == 60:
                raise DomainError("matrix log: square-root scaling did not converge")
            a = _sqrt_db(a)
            roots += 1
        e = a - ident
        term = total = e
        sign = -1.0
        for k in range(2, 120):
            term = term @ e
            total = total + (sign / k) * term
            sign = -sign
            if not _fro(term) >= 1e-18:
                break
        logs[i] = total * 2.0**roots
    return logs.reshape(shape)


class Blocks(NamedTuple):
    """Diagonal blocks of an n x n matrix after a permutation, on its active
    slots.

    A slot is static when its row and its column hold no entry, the
    diagonal included; it is in no block, and every other slot is active,
    listed in increasing order by ``active``. ``index`` has one row per
    block listing its indices in increasing order, padded with -1 up to
    the largest block size; with no active slot it is (0, 0). ``flat``
    holds the position row * n + col of every entry of the padded blocks
    and ``mask`` marks the entries that are not padding; both have shape
    (blocks, size, size) and are computed once, so gathering and
    scattering cost a few numpy calls. The vector forms are computed once
    too: ``take`` is ``index`` with each padding entry pointing at n, so
    one take from a vector with a zero appended gives its zero-padded
    block sub-vectors, and ``place`` gives each active slot, in the order
    of ``active``, its position in the flattened (blocks, size) stack, so
    one take puts them back.

    ``kind`` gives each block its class: blocks of one class have the same
    flows, so the flow kernels compute one flow per class and index it back
    by ``kind``. :func:`blocks` puts every block in a class of its own;
    :func:`block_classes` merges blocks whose system slices are equal.
    """

    index: np.ndarray
    flat: np.ndarray
    mask: np.ndarray
    take: np.ndarray
    place: np.ndarray
    n: int
    kind: np.ndarray
    active: np.ndarray


def blocks(pattern):
    """Connected components of the symmetric closure of a square boolean
    pattern, on its active slots, as :class:`Blocks`.

    A slot whose row and column of the closure are empty, the diagonal
    included, is static and in no component: a generator with that pattern
    leaves it fixed, so its flow there is the identity. A pattern with no
    active slot gives no block. Components are ordered by their smallest
    index and need not be contiguous. When padding every component to the
    largest one would cost more cubic work than one dense block of the
    active slots, that single component is returned.
    """
    sym = pattern | pattern.T
    n = sym.shape[0]
    active = np.flatnonzero(sym.any(axis=1))
    sym = sym[np.ix_(active, active)]
    m = len(active)
    # min-label propagation with pointer jumping; at the fixed point every
    # active slot carries the smallest position of its component
    labels = np.arange(m)
    while True:
        new = np.minimum(labels, np.where(sym, labels, m).min(axis=1, initial=m))
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    roots, first, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    size = int(sizes.max(initial=0))
    if len(roots) * size**3 > m**3:
        index = active[None, :]
    else:
        comp = np.repeat(np.arange(len(roots)), sizes)
        index = np.full((len(roots), size), -1)
        index[comp, np.arange(m) - first[comp]] = active[order]
    valid = index >= 0
    place = np.empty(n, dtype=int)
    place[index[valid]] = np.flatnonzero(valid)
    return Blocks(
        index,
        index[:, :, None] * n + index[:, None, :],
        valid[:, :, None] & valid[:, None, :],
        np.where(valid, index, n),
        place[active],
        n,
        np.arange(len(index)),
        active,
    )


def block_classes(system, parts):
    """``(classes, parts)``: the distinct block slices of a (1 + c, blocks,
    size, size) ``system`` gathered on ``parts``, in order of first
    appearance, and ``parts`` with ``kind`` mapping each block to its slice.

    Two blocks share a class only when their slices have the same bytes, so
    a 0.0 and a -0.0 entry keep them apart; a class's flow then has the bits
    of each of its blocks' flows, since ``expm`` and the product loop treat
    every member alone.
    """
    first = {}
    kind = np.array(
        [first.setdefault(system[:, b].tobytes(), len(first)) for b in range(system.shape[1])],
        dtype=int,
    )
    return system[:, np.unique(kind, return_index=True)[1]], parts._replace(kind=kind)


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
    zero, the static slots' diagonal included."""
    out = np.zeros(parts.n * parts.n)
    out[parts.flat[parts.mask]] = stack[parts.mask]
    return out.reshape(parts.n, parts.n)


def _generators(system, lengths, inputs):
    """(k, classes, size, size) piece generators
    length_j * (drift + sum_i u_ji * controls_i) from the (1 + c, classes,
    size, size) stack of drift and controls. The sum runs elementwise in
    channel order on the flat (1 + c, classes * size^2) layout, so each
    piece's bits do not depend on the other pieces."""
    flat = system.reshape(len(system), -1)
    gens = lengths[:, None] * flat[0]
    for i, control in enumerate(flat[1:]):
        gens += (lengths * inputs[:, i])[:, None] * control
    return gens.reshape((len(lengths),) + system.shape[1:])


def _block_flows(system, lengths, inputs, counts):
    """(P, classes, size, size) flows of P programs of at least one piece,
    listed back to back as in :func:`apply_flows`: one ``expm`` call over
    every piece of every block class, then each program's pieces multiplied
    in time order. When every program has one piece, the piece stack is
    the flows, as it is."""
    pieces = expm(_generators(system, lengths, inputs))
    if len(pieces) == len(counts):
        return pieces
    offset = np.cumsum(counts) - counts
    flows = pieces[offset]
    for t in range(1, counts.max()):
        more = np.flatnonzero(counts > t)
        flows[more] = pieces[offset[more] + t] @ flows[more]
    return flows


def piecewise_flow(system, parts, lengths, inputs):
    """n x n flow of one program, the time-ordered product of
    exp(length_j * (drift + sum_i u_ji * controls_i)): :func:`apply_flows`'s
    arguments for a single program, scattered to n x n, with 1.0 on the
    diagonal of each static slot. A program without pieces, or a dynamics
    without an active slot, has the identity flow.
    """
    if not len(lengths) or not len(parts.index):
        return np.eye(parts.n)
    flows = _block_flows(system, lengths, inputs, np.array([len(lengths)]))[0]
    out = scatter(flows[parts.kind], parts)
    static = np.setdiff1d(np.arange(parts.n), parts.active)
    out[static, static] = 1.0
    return out


def column_matvec(matrices, vectors):
    """``matrices @ vectors[..., None]`` without BLAS, broadcast over the
    leading axes: y = M[..., :, 0] x_0, then y += M[..., :, j] x_j for
    j = 1 ... s - 1, each product rounded on its own and summed in column
    order. Each row's bits are those of its own one-row call, whatever
    shares the batch and whichever kernel BLAS would dispatch."""
    out = matrices[..., 0] * vectors[..., 0, None]
    for j in range(1, vectors.shape[-1]):
        out += matrices[..., j] * vectors[..., j, None]
    return out


def apply_flows(system, parts, lengths, inputs, counts, vectors):
    """Evolve the states of each of P programs by its piecewise flow.

    ``system`` holds the drift and controls on each block class of
    ``parts``: shape (1 + c, classes, size, size), either the gather on
    ``parts`` (one class per block) or its :func:`block_classes`. The
    programs' pieces are listed back to back: ``lengths`` has shape (K,),
    ``inputs`` (K, c), and ``counts`` (P,) says how many consecutive pieces
    belong to each program. ``vectors`` is (P, n), one state per program, or
    (P, k, n), k states per program; (P, n) runs as (P, 1, n). Returns the
    evolved vectors in the shape given; a program without pieces leaves its
    states as they are, and every program leaves the entries of the static
    slots of ``parts`` as they are, bit for bit.

    Each program's class flows are computed once, whatever its k, indexed
    by ``Blocks.kind`` and applied to each of its states' block
    sub-vectors; nothing is scattered to n x n. The sub-vectors are one
    take from the states, with a zero column appended only when a block is
    padded; only the active slots are written back, and a run of every
    program reads and writes the states through views. The matvec is
    :func:`column_matvec`: for a block of size s it is s elementwise
    column updates, each product rounded on its own and summed in column
    order, so its bits do not depend on which BLAS kernel the CPU picks.
    Runs of consecutive programs share one :func:`_block_flows` call, which
    exponentiates each class once; a run holds as many programs as keep
    its piece stack (pieces x classes x size^2 x 8 bytes) within
    :data:`FLOW_BYTES`, and at least one, and when every piece fits, the
    whole table is one run. Each row depends on its own program and vector
    only, so a batch of one gives the same bits as any batch holding it.
    """
    out = np.array(vectors, dtype=np.float64)
    if not len(parts.index):  # no active slot: every flow is the identity
        return out
    states = out if out.ndim == 3 else out[:, None]  # a view: writes land in out
    rows = np.flatnonzero(counts)  # a program without pieces leaves its states
    edges = [0, *counts[rows].cumsum().tolist()]  # rows[j] owns pieces edges[j]:edges[j + 1]
    limit = FLOW_BYTES // (8 * system[0].size)  # pieces per call
    padded = parts.index.size > len(parts.active)
    static = len(parts.active) < parts.n
    whole = slice(None)
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, bisect.bisect_right(edges, edges[lo] + limit) - 1)
        # a run of every program reads and writes the states through views
        run = rows[lo:hi] if hi - lo < len(states) else whole
        own = slice(edges[lo], edges[hi])
        flows = _block_flows(system, lengths[own], inputs[own], counts[run]).take(parts.kind, 1)
        picked = states[run]
        if padded:
            picked = np.concatenate((picked, np.zeros(picked.shape[:-1] + (1,))), axis=-1)
        # take, unlike fancy indexing, leaves the operands and the product
        # contiguous, so the reshape below copies nothing
        blocked = picked.take(parts.take, axis=-1)
        moved = column_matvec(flows[:, None], blocked)
        moved = moved.reshape(blocked.shape[:-2] + (-1,)).take(parts.place, axis=-1)
        if not static:
            states[run] = moved
        else:  # the static slots keep their bits
            picked = picked[..., :parts.n]
            picked[..., parts.active] = moved
            if padded or run is not whole:  # picked is a copy, not a view of states
                states[run] = picked
        lo = hi
    return out
