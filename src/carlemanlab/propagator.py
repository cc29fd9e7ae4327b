"""Truncated-Taylor time stepping for the linearised system.

One step applies ``p_K(dt A) = sum_{l=0}^{K} (dt A)^l / l!``, so the
per-step defect is of order ``(|A| dt)**(K+1) / (K+1)!``.  In general the
series costs K matvecs per step (:func:`taylor_step`).  When F1 is diagonal
(a periodic problem in its Fourier form, :func:`carlemanlab.pde.fourier_form`)
the level blocks of the symmetric operator are diagonal and its couplings
nilpotent, so the same polynomial stays sparse; :func:`evolve` precomputes it
by Horner's rule on a counted pattern (:func:`taylor_matrix`) whenever it
fits the size limit, and a step is then one matvec.  When every coupling
path already fits in that matrix ``P`` (no path longer than K), its powers
keep its sparsity, so the steps between two records are folded into one
precomputed ``P**every`` (:func:`matrix_power`, within a memory limit) and a
record interval is one matvec.  The route follows from this structure and
the size limits alone, with no cost model; the series remains where it is
the only route.  Only the coordinates the lift can reach
(:meth:`CarlemanMatrix.reach`) are stepped; :class:`EvolveResult` carries
their basis, the reach's size and the operator's entries.  Vectors carry
their true magnitudes end to end; quantum-style normalisation only appears
in the measurement-probability formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .carleman import CarlemanMatrix, SymmetricBasis, ranges
from .errors import NumericFailure, ValidationError
from .limits import KRON_MAX_SIZE
from .nonlinear_ode import max_stable_gamma

#: ``evolve`` raises :class:`NumericFailure` when ``|y|`` exceeds this times ``|y0|``
BLOWUP_FACTOR = 1e6

#: pattern entries per row block of :func:`taylor_matrix`'s count and fill
_PATTERN_PER_BLOCK = 1 << 14

#: entries flushed at once by :func:`_flush`
_FLUSH_CHUNK = 1 << 12

#: the smallest normal float64; the one-matvec step flushes entries below it to zero
_TINY = np.finfo(float).tiny


def taylor_step(
    apply_A: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    dt: float,
    K: int,
) -> np.ndarray:
    """Advance ``y`` by one step of the order-K truncated exponential series."""
    if K < 1:
        raise ValidationError(f"Taylor order must be >= 1, got {K}")
    term = y.copy()
    acc = y.copy()
    for ell in range(1, K + 1):
        term = apply_A(term)
        term *= dt / ell
        acc += term
    if not np.all(np.isfinite(acc)):
        raise NumericFailure("non-finite intermediate in Taylor step")
    return acc


def taylor_matrix(op: sp.csr_matrix, dt: float, K: int) -> sp.csr_matrix | None:
    """``P = sum_{l<=K} (dt op)^l / l!`` for an upper-triangular ``op``, or None.

    None when ``P`` would store more than ``KRON_MAX_SIZE`` entries.

    ``op`` must keep its columns sorted and store every row's diagonal entry
    first, as :meth:`CarlemanMatrix.to_symmetric` does when F1 is diagonal.
    ``P`` stores the pattern of ``(I + op)**K``: the pairs joined by at most
    K entries of ``op``.  A first pass counts that pattern, block of rows by
    block of rows as boolean sparse products (:func:`_block_pattern`),
    keeping each block's columns, which are ``P``'s ``indices``, and returns
    None before any value is allocated when it is over.  A second pass fills
    each block's rows ``E`` by Horner's rule,
    ``G <- E + (G op) dt / l`` for ``l = K .. 1`` from ``G = E``, flushing
    entries below the smallest normal float to zero after each product
    (:func:`_plus_unit` adds ``E``); the values land on the block's pattern,
    so ``P`` keeps every path's entry, an exact zero included, and its
    powers never store more entries.  Each block of either pass holds about
    ``_PATTERN_PER_BLOCK`` entries of the pattern, so every product stays
    within a few times that many.
    """
    if K < 1:
        raise ValidationError(f"Taylor order must be >= 1, got {K}")
    dim = op.shape[0]
    ptr, cols = op.indptr, op.indices
    if (
        np.any(ptr[1:] == ptr[:-1])
        or not op.has_sorted_indices
        or not np.array_equal(cols[ptr[:-1]], np.arange(dim))
    ):
        raise ValidationError("the Taylor matrix needs each row's diagonal stored first")
    links = sp.csr_matrix((np.ones(op.nnz, dtype=bool), cols, ptr), shape=op.shape)
    # a row's pattern holds at most its paths of at most K off-diagonal entries
    # (float32 is plenty) and at most dim columns, which sizes the blocks; the
    # sums over each row's columns are gathered a block of rows at a time
    row_blocks = ranges(np.diff(ptr), _PATTERN_PER_BLOCK)
    paths = np.ones(dim, dtype=np.float32)
    for _ in range(K):
        longer = np.empty_like(paths)
        for a, b in row_blocks:
            lo, hi = ptr[a], ptr[b]
            longer[a:b] = 1.0 + np.add.reduceat(paths[cols[lo:hi]], ptr[a:b] - lo) - paths[a:b]
        if np.array_equal(longer, paths):
            break
        paths = longer
    blocks = ranges(np.minimum(paths, dim), _PATTERN_PER_BLOCK)
    del paths, longer
    # each block's pattern, its rows of P's ``indices`` and ``indptr``, is kept
    # from the count, and released as soon as it is copied into P
    nnz, patterns = 0, []
    for a, b in blocks:
        pattern = _block_pattern(links, a, b, K)
        nnz += pattern.nnz
        # nnz <= KRON_MAX_SIZE < 2**31, so int32 indices and indptr cannot overflow
        if nnz > KRON_MAX_SIZE:
            return None
        patterns.append((pattern.indptr, pattern.indices))
    indices = np.empty(nnz, dtype=np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    patterns.reverse()
    for a, b in blocks:
        block_ptr, block_cols = patterns.pop()
        indices[indptr[a] : indptr[a] + block_cols.size] = block_cols
        indptr[a + 1 : b + 1] = indptr[a] + block_ptr[1:]
    del links
    data = np.zeros(nnz)
    # the fill's blocks hold about _PATTERN_PER_BLOCK entries of the pattern
    for a, b in ranges(np.diff(indptr), _PATTERN_PER_BLOCK):
        G = _unit_rows(a, b, dim, float)
        for ell in range(K, 0, -1):
            G = G @ op
            G.data *= dt / ell
            _flush(G.data)
            G = _plus_unit(G, a)
        G.sort_indices()
        lo, hi = indptr[a], indptr[b]
        where = _row_keys(indptr[a : b + 1] - lo, indices[lo:hi], dim)
        data[lo + np.searchsorted(where, _row_keys(G.indptr, G.indices, dim))] = G.data
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


def _unit_rows(a: int, b: int, dim: int, dtype) -> sp.csr_matrix:
    """Rows ``a..b-1`` of the ``dim x dim`` identity."""
    return sp.csr_matrix(
        (np.ones(b - a, dtype=dtype), np.arange(a, b), np.arange(b - a + 1)), shape=(b - a, dim)
    )


def _plus_unit(G: sp.csr_matrix, a: int) -> sp.csr_matrix:
    """``G`` plus rows ``a..`` of the identity, in place when every row stores its diagonal entry.

    A row of ``G @ op`` lacks it only where the product sums to zero, as
    where ``op``'s diagonal entry is zero; then the sum is a sparse one.
    """
    rows = np.repeat(np.arange(a, a + G.shape[0], dtype=np.int32), np.diff(G.indptr))
    diagonal = G.indices == rows
    if np.count_nonzero(diagonal) < G.shape[0]:
        return _unit_rows(a, a + G.shape[0], G.shape[1], float) + G
    G.data[diagonal] += 1.0
    return G


def _row_keys(indptr: np.ndarray, indices: np.ndarray, dim: int) -> np.ndarray:
    """``row * dim + column`` of each stored entry of a canonical block of rows, ascending."""
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    return rows * dim + indices


def _block_pattern(links: sp.csr_matrix, a: int, b: int, K: int) -> sp.csr_matrix:
    """Rows ``a..b-1`` of the boolean pattern of ``links**K``, sorted.

    ``links`` is the pattern of ``op`` with its diagonal, so each row holds
    the columns reached along at most K entries of ``op``.
    """
    pattern = _unit_rows(a, b, links.shape[0], bool)
    for _ in range(K):
        longer = pattern @ links
        if longer.nnz == pattern.nnz:
            break
        pattern = longer
    pattern.sort_indices()
    return pattern


def _flush(values: np.ndarray) -> np.ndarray:
    """``values`` with the entries below the smallest normal float set to zero, in place.

    In chunks, so the scratch stays small next to a matrix's entries.
    """
    for start in range(0, values.size, _FLUSH_CHUNK):
        part = values[start : start + _FLUSH_CHUNK]
        part[np.abs(part) < _TINY] = 0.0
    return values


def _product(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    c = a @ b
    _flush(c.data)
    c.eliminate_zeros()
    return c


def matrix_power(P: sp.csr_matrix, e: int) -> sp.csr_matrix | None:
    """``P**e`` (``e >= 1``) by repeated squaring, flushing subnormal entries after each product.

    Takes ``e.bit_length() + e.bit_count() - 2`` sparse products.  For a
    :func:`taylor_matrix` whose pattern holds every coupling path, each
    product stores no more entries than ``P``, and besides ``P`` the fold
    holds at most three such matrices at once: the power so far, the current
    square and the product being formed.  None, before any product, when
    those three could store more than ``KRON_MAX_SIZE`` entries.
    """
    if e < 1:
        raise ValidationError(f"matrix power must be >= 1, got {e}")
    if e > 1 and 3 * P.nnz > KRON_MAX_SIZE:
        return None
    power, square = None, P
    while True:
        if e & 1:
            power = square if power is None else _product(power, square)
        e >>= 1
        if not e:
            return power
        square = _product(square, square)


def taylor_step_defect_bound(norm_A: float, dt: float, K: int, y_norm: float = 1.0) -> float:
    """Leading term ``(|A| dt)**(K+1) / (K+1)! |y|`` of the one-step series truncation error.

    It bounds the error only together with the rest of the tail
    (:func:`taylor_tail`); the benchmark's evolve check keeps this term
    until that check is revised (ROADMAP item 8).
    """
    return (norm_A * dt) ** (K + 1) / math.factorial(K + 1) * y_norm


def taylor_tail(x: float, K: int) -> float:
    """Upper bound ``x**(K+1) / (K+1)! / (1 - x/(K+2))`` on ``sum_{l>K} x**l / l!``.

    Each term past the first is at most ``x/(K+2)`` times the one before, so
    the tail is below the geometric sum; ``inf`` where ``x >= K + 2``.
    """
    if x >= K + 2:
        return math.inf
    return math.prod(x / ell for ell in range(1, K + 2)) / (1.0 - x / (K + 2))


def weighted_norm_bound(op: sp.csr_matrix, weights: np.ndarray) -> float:
    """``sqrt(|B|_1 |B|_inf)`` of ``B = W**(1/2) op W**(-1/2)``, ``W = diag(weights)``.

    An upper bound on ``|B|_2``, the 2-norm of ``op`` in the orbit-weighted
    norm of :class:`SymmetricBasis`, from the row and column sums of
    ``|B|``.  Each block of about ``_PATTERN_PER_BLOCK`` entries adds to
    them in turn, so besides the column sums the scratch stays small next
    to ``op``.
    """
    ptr = op.indptr
    row_max, columns = 0.0, np.zeros(op.shape[1])
    for a, b in ranges(np.diff(ptr), _PATTERN_PER_BLOCK):
        lo, hi = ptr[a], ptr[b]
        rows = np.repeat(np.arange(b - a), np.diff(ptr[a : b + 1]))
        cols = op.indices[lo:hi]
        entries = np.abs(op.data[lo:hi]) * np.sqrt(weights[a:b][rows] / weights[cols])
        row_max = max(row_max, float(np.bincount(rows, entries, minlength=b - a).max()))
        columns += np.bincount(cols, entries, minlength=op.shape[1])
    return math.sqrt(row_max * float(columns.max()))


@dataclass
class PropagationConfig:
    """Stepping knobs; leave ``dt`` unset for the auto rule.

    The auto rule keeps the per-step Taylor argument at most one,
    ``dt = 1 / |A|``, clamped to at least ``T / 10**6`` steps-wise, so
    factorial decay dominates the series tail; :func:`evolve` passes the
    norm bound of the operator it steps as ``|A|``.  ``record_every`` unset records
    about a thousand snapshots.  K stays below 170, where ``(K+1)!`` leaves the float range.
    """

    taylor_order: int = 10
    dt: float | None = None
    strict_stability: bool = True
    record_every: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.taylor_order < 170:
            raise ValidationError(f"Taylor order must be in 1..169, got {self.taylor_order}")
        if self.record_every is not None and self.record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {self.record_every}")
        # refused here, before evolve builds the operator that sizes the auto step
        if self.dt is not None and not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")

    def resolve_steps(self, T: float, norm_bound: float) -> tuple[float, int]:
        if T == 0:
            return 0.0, 0
        if self.dt is not None:
            dt = float(self.dt)
            steps = max(1, round(T / dt))
        else:
            dt = min(1.0 / norm_bound if norm_bound > 0 else T, T)
            dt = max(dt, T / 1e6)
            steps = math.ceil(T / dt)
            dt = T / steps
        if abs(dt * steps - T) > 1e-12 * max(abs(T), 1.0):
            raise ValidationError(
                f"dt * steps = {dt * steps} does not reproduce T = {T} to 1e-12"
            )
        return dt, steps


@dataclass
class EvolveResult:
    """Trajectory records from :func:`evolve`.

    ``step_norms`` holds the norm of every state the run computes, from
    ``y0`` on: one per Taylor step, or one per record when the steps between
    records are folded into one matrix (``stepping == "taylor_matrix"`` with
    ``matvecs`` below ``n_steps``), where it equals ``y_norms``.  Snapshot
    arrays are thinned to the recording grid.  ``stepping`` names the route,
    ``"series"`` (K matvecs of the operator per step) or ``"taylor_matrix"``;
    ``matvecs`` counts the applications of the matrix stepped, the operator,
    ``P`` or its folded power.  ``basis`` is the :class:`SymmetricBasis` of
    the coordinates stepped (the reach, :meth:`CarlemanMatrix.reach`) and
    ``operator_entries`` the entries of the operator on them; ``y_final`` is
    in ``basis``'s coordinates, and ``basis.expand`` gives its flat layout.
    ``block1`` holds level 1 on all ``n`` entries.  ``step_norm`` is the
    bound on the stepped operator's 2-norm that sizes the auto step, and
    ``time_error_certificate`` an upper bound on the flat 2-norm of the
    difference between every recorded state and the exact exponential of
    that operator applied to ``y0``, rounding aside (:func:`evolve`).
    """

    times: np.ndarray
    block1: np.ndarray
    block1_share: np.ndarray
    y_norms: np.ndarray
    step_norms: np.ndarray
    y_final: np.ndarray
    dt: float
    n_steps: int
    stability_bound: float
    stepping: str
    matvecs: int
    basis: SymmetricBasis
    operator_entries: int
    step_norm: float
    time_error_certificate: float


def evolve(mat: CarlemanMatrix, config: PropagationConfig) -> EvolveResult:
    """Taylor steps of the lifted ``u_in / gamma`` over the problem's ``[0, T]``, with guards.

    The lift of a state is symmetric under permutations of tensor factors and
    the operator keeps it so.  The steps therefore run on the symmetric
    operator (:meth:`CarlemanMatrix.to_symmetric`), one coordinate per sorted
    multi-index, from :meth:`SymmetricBasis.lift`, with norms taken in the
    orbit-weighted norm, which equals the 2-norm of the flat state.  Only the
    coordinates the lift can reach are stepped (:meth:`CarlemanMatrix.reach`:
    with F1 diagonal, those coupled to the support of ``u_in``; otherwise
    all); the others stay exactly zero.  A zero ``u_in``, whose lift reaches
    no coordinate, is refused first.  A problem whose symmetric operator
    would store more than ``KRON_MAX_SIZE`` entries is rejected before the
    operator, the basis or the state is allocated.

    The route follows from the operator's structure and the size limits.
    When F1 is diagonal (:attr:`CarlemanMatrix.f1_is_diagonal`) and there is
    a step to take, the steps use the precomputed series ``P`` of
    :func:`taylor_matrix`, whose entries are counted before it is allocated,
    unless it would store more than ``KRON_MAX_SIZE`` entries.  When ``P``
    holds every coupling path (``(N-1) // (M-1) <= K``) and records are more
    than one step apart and at most ``n_steps``, each full record interval
    is one matvec with ``P**every`` (:func:`matrix_power`, unless its memory
    gate refuses) and a final short interval takes single steps of ``P``;
    otherwise each step is one matvec with ``P``.  Entries that fall below
    the smallest normal float are flushed to zero from the matrices and
    after each matvec (stiff modes decay through the subnormal range, where
    arithmetic is slow).  Without ``P``, a step takes the series' K matvecs
    of the operator.  Every state the run computes is checked: a non-finite
    one raises :class:`NumericFailure`, as does a norm beyond
    ``BLOWUP_FACTOR`` times the initial one.

    The auto step is sized from ``step_norm``, the smaller of
    :meth:`CarlemanMatrix.spectral_norm_bound` and the
    :func:`weighted_norm_bound` of the operator stepped, which is far below
    the whole problem's bound when the reach holds few of its stiff modes.
    At ``x = step_norm dt`` each step's error is at most
    ``tail = taylor_tail(x, K)`` times the norm of the state it starts from,
    and the time-error certificate sums those terms over the steps.  Each
    norm comes from ``step_norms``; inside a folded interval the ``i``-th
    state's is bounded by ``g**i`` times the record's, where
    ``g = exp(max(bound, 0) dt) + tail`` bounds the norm of one step's
    matrix, and each interval's terms are summed in closed form.  The
    Gershgorin bound bounds the operator's log-norm, so when it is at most
    zero the exponential does not grow the earlier errors, ``g = 1 + tail``,
    and the sum is the certificate; above zero (with ``strict_stability``
    off) the sum carries the factor ``exp(bound T)``.
    """
    if not np.any(mat.rescaled.u_in_scaled):
        raise ValidationError("initial state is zero: its lift reaches no coordinate")
    bound = mat.gershgorin_max_eig_bound()
    if config.strict_stability and bound > 0:
        base = mat.rescaled.base
        limit = f", gamma_max = {max_stable_gamma(base)}" if base.lambda0 < 0 else ""
        raise ValidationError(
            f"stability check failed: Gershgorin bound {bound} > 0 at gamma = {mat.gamma}"
            f"{limit} (set numerics \"gamma\": \"gamma_max\" or pass --strict-stability false)"
        )
    keys = mat.reach()
    op = mat.to_symmetric(keys)
    basis = SymmetricBasis(mat.n, mat.N, keys)
    step_norm = min(mat.spectral_norm_bound(), weighted_norm_bound(op, basis.weights))
    T = mat.rescaled.base.T
    dt, n_steps = config.resolve_steps(T, step_norm)
    every = int(config.record_every or max(1, n_steps // 1000))
    K = config.taylor_order
    tail = taylor_tail(step_norm * dt, K)
    # g - 1, for g a bound on the norm of one step's matrix: e^(dt A)'s plus the tail
    excess = (math.expm1(max(bound, 0.0) * dt) if bound * dt < 709.0 else math.inf) + tail

    P = taylor_matrix(op, dt, K) if mat.f1_is_diagonal and n_steps > 0 else None
    Q = None
    if P is not None and 1 < every <= n_steps and (mat.N - 1) // (mat.M - 1) <= K:
        Q = matrix_power(P, every)
    stride = every if Q is not None else 1
    y = basis.lift(mat.rescaled.u_in_scaled)
    norm0 = basis.norm(y)
    times = [0.0]
    block1 = [basis.first_level(y)]
    share1 = [float(block1[0] @ block1[0]) / norm0**2]
    norms = [norm0]
    step_norms = [norm0]

    step = matvecs = 0
    defect = 0.0
    while step < n_steps:
        take = min(stride, n_steps - step)
        # the interval's steps start from states of norm at most g**i |y_record|
        defect += tail * step_norms[-1] * _geometric_sum(excess, take)
        if P is None:
            y = taylor_step(lambda v: op @ v, y, dt, K)
            matvecs += K
        elif take == every and Q is not None:
            y = _flush(Q @ y)
            matvecs += 1
        else:
            for _ in range(take):
                y = _flush(P @ y)
            matvecs += take
        step += take
        norm = basis.norm(y)
        if not math.isfinite(norm):
            raise NumericFailure(f"non-finite state at step {step}")
        step_norms.append(norm)
        if norm > BLOWUP_FACTOR * max(norm0, 1e-300):
            raise NumericFailure(
                f"blow-up detected at step {step}: |y| = {norm} "
                f"exceeds {BLOWUP_FACTOR} x |y0|"
            )
        if step % every == 0 or step == n_steps:
            # n_steps * dt may round past T (3 * 0.1 > 0.3)
            times.append(min(step * dt, T))
            block1.append(basis.first_level(y))
            share1.append(float(block1[-1] @ block1[-1]) / norm**2)
            norms.append(norm)

    return EvolveResult(
        times=np.array(times),
        block1=np.array(block1),
        block1_share=np.array(share1),
        y_norms=np.array(norms),
        step_norms=np.array(step_norms),
        y_final=y,
        dt=dt,
        n_steps=n_steps,
        stability_bound=bound,
        stepping="series" if P is None else "taylor_matrix",
        matvecs=matvecs,
        basis=basis,
        operator_entries=op.nnz,
        step_norm=step_norm,
        time_error_certificate=(
            defect * _exp_or_inf(max(bound, 0.0) * T) if math.isfinite(excess) else math.inf
        ),
    )


def _exp_or_inf(x: float) -> float:
    """``exp(x)``, or ``inf`` where it would leave the float range."""
    return math.exp(x) if x < 709.0 else math.inf


def _geometric_sum(excess: float, count: int) -> float:
    """``sum_{i < count} (1 + excess)**i``, or ``inf`` where it would leave the float range."""
    if excess == 0.0:
        return float(count)
    power = count * math.log1p(excess)
    return math.expm1(power) / excess if power < 709.0 else math.inf


def success_probability(u_norm: float, gamma: float, N: int) -> float:
    """Probability of measuring the solution level of the lifted state.

    Equals ``(1 - r^2) / (1 - r^(2N))`` for ``r = u_norm / gamma``, evaluated
    through the geometric sum so the removable point ``r = 1`` comes out as
    exactly ``1/N``.  For ``gamma >= u_norm`` the value is at least ``1/N``.
    """
    if gamma <= 0:
        raise ValidationError(f"scaling factor must be positive, got {gamma}")
    if u_norm < 0:
        raise ValidationError("norms are non-negative")
    if N < 1:
        raise ValidationError(f"truncation order must be >= 1, got {N}")
    r = u_norm / gamma
    powers = r ** (2.0 * np.arange(N))
    return float(1.0 / powers.sum())
