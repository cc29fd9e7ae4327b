"""Truncated-Taylor time stepping for the linearised system.

One step applies ``p_K(dt A) = sum_{l=0}^{K} (dt A)^l / l!``, so the
per-step defect is of order ``(|A| dt)**(K+1) / (K+1)!``.  In general the
series costs K matvecs per step (:func:`taylor_step`).  When F1 is diagonal
(a periodic problem in its Fourier form, :func:`carlemanlab.pde.fourier_form`)
the level blocks of the symmetric operator are diagonal and its couplings
nilpotent, so the same polynomial stays sparse; :func:`evolve` precomputes it
(:func:`taylor_matrix`) when enough steps repay the build, and a step is then
one matvec.  When every coupling path already fits in that matrix ``P`` (no
path longer than K), its powers keep its sparsity, so the steps between two
records are folded into one precomputed ``P**every`` (:func:`matrix_power`)
and a record interval is one matvec.  Vectors carry their true magnitudes
end to end; quantum-style normalisation only appears in the
measurement-probability formulas.
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

#: ``evolve`` raises :class:`NumericFailure` when ``|y|`` exceeds this times ``|y0|``
BLOWUP_FACTOR = 1e6

#: paths per row block of the :func:`taylor_matrix` walk, and paths extended at once
_PATHS_PER_BLOCK = 1 << 13
_PATHS_PER_STEP = 1 << 11

#: building one entry of the Taylor matrix takes about as long as a matvec
#: spends on this many stored entries: the P route broke even at about 65
#: steps on the Fourier form of the demo grid and 60 on the d = 2, m = 8
#: grid, 375 and 365 by the rule of :func:`_stepper` (2-core Xeon VM, one
#: BLAS thread, best of 3 evolves)
BUILD_COST = 375

#: one sparse product of two matrices with ``P``'s sparsity takes about as long
#: as this many matvecs of ``P``: 18.2 on the Fourier form of the demo grid
#: and 18.0 on the d = 2, m = 8 grid (2-core Xeon VM, one BLAS thread, best
#: of 3 products against best of 20 matvecs)
PRODUCT_COST = 18

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


def taylor_matrix(
    op: sp.csr_matrix, dt: float, K: int, max_entries: int = KRON_MAX_SIZE
) -> sp.csr_matrix | None:
    """``P = sum_{l<=K} (dt op)^l / l!`` for an upper-triangular ``op``, or None.

    None when ``P`` would store more than ``max_entries`` entries (at most
    ``KRON_MAX_SIZE``).

    ``op`` must keep its columns sorted and store every row's diagonal entry
    first, as :meth:`CarlemanMatrix.to_symmetric` does when F1 is diagonal.
    Split ``dt op`` into its diagonal ``x`` and strictly upper part ``V``.
    Entry ``(I, J)`` of ``P`` sums, over the paths ``I = I_0 -> ... -> I_q = J``
    along entries of ``V``, the product of those entries times the divided
    difference of the Taylor polynomial on the diagonal entries the path
    visits, ``sum_{r <= K-q} h_r(x_{I_0}, ..., x_{I_q}) / (q+r)!`` (``h_r`` is
    the complete homogeneous symmetric polynomial of degree ``r``, built one
    node at a time by ``h_r <- h_r + x h_(r-1)``).  Summed coefficient by
    coefficient, it needs no care where diagonal entries coincide, and paths
    longer than ``K`` add nothing.

    Rows are walked in blocks of about ``_PATHS_PER_BLOCK`` paths, and paths
    are extended ``_PATHS_PER_STEP`` at a time, so the walk's memory stays
    small next to the operator and ``P``.  A first walk counts the entries,
    stopping once they pass ``max_entries``, before a second walk writes
    them once.
    """
    if K < 1:
        raise ValidationError(f"Taylor order must be >= 1, got {K}")
    dim = op.shape[0]
    ptr, cols, vals = op.indptr, op.indices, op.data
    if (
        np.any(ptr[1:] == ptr[:-1])
        or not op.has_sorted_indices
        or not np.array_equal(cols[ptr[:-1]], np.arange(dim))
    ):
        raise ValidationError("the Taylor matrix needs each row's diagonal stored first")
    coef = np.cumprod(np.concatenate([[1.0], 1.0 / np.arange(1, K + 1)]))
    # paths of length <= K leaving each row, to size the blocks (float32 is plenty)
    paths = np.ones(dim, dtype=np.float32)
    for _ in range(K):
        longer = 1.0 + np.add.reduceat(paths[cols], ptr[:-1]) - paths
        if np.array_equal(longer, paths):
            break
        paths = longer
    blocks = ranges(paths, _PATHS_PER_BLOCK)
    del paths, longer

    def walk(a: int, b: int, values: bool):
        """Key ``(I - a) dim + J`` of each path from rows ``a..b-1``, and its term if ``values``."""
        rows = np.arange(a, b)
        keys = [(rows - a) * dim + rows]
        terms, H, weight = [], None, None
        if values:
            H = (dt * vals[ptr[rows]]) ** np.arange(K + 1)[:, None]
            weight = np.ones(rows.size)
            terms.append(coef @ H)
        frontier = [(1, rows, rows, weight, H)]
        while frontier:
            q, origin, node, weight, H = frontier.pop()
            per = ptr[node + 1] - ptr[node] - 1
            for lo, hi in ranges(per, _PATHS_PER_STEP):
                count = per[lo:hi]
                total = int(count.sum())
                if total == 0:
                    continue
                # the off-diagonal entries of each parent's row, one path each
                at = np.repeat(ptr[node[lo:hi]] + 1 - (np.cumsum(count) - count), count)
                at += np.arange(total)
                child, source = cols[at], np.repeat(origin[lo:hi], count)
                keys.append((source - a) * dim + child)
                if values:
                    w = np.repeat(weight[lo:hi], count) * (dt * vals[at])
                    h = np.repeat(H[: K - q + 1, lo:hi], count, axis=1)
                    z = dt * vals[ptr[child]]
                    for r in range(1, K - q + 1):
                        h[r] += z * h[r - 1]
                    terms.append(w * (coef[q:] @ h))
                further = ptr[child + 1] - ptr[child] > 1
                if q < K and further.any():
                    frontier.append((
                        q + 1, source[further], child[further],
                        w[further] if values else None, h[:, further] if values else None,
                    ))
        if values:
            return np.concatenate(keys), np.concatenate(terms)
        return np.concatenate(keys)

    nnz = 0
    for a, b in blocks:
        keys = np.sort(walk(a, b, False))
        nnz += 1 + np.count_nonzero(keys[1:] != keys[:-1])
        # nnz <= KRON_MAX_SIZE < 2**31, so int32 indices and indptr cannot overflow
        if nnz > min(max_entries, KRON_MAX_SIZE):
            return None
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    pos = 0
    for a, b in blocks:
        keys, terms = walk(a, b, True)
        keys, inverse = np.unique(keys, return_inverse=True)
        stop = pos + keys.size
        indices[pos:stop] = keys % dim
        data[pos:stop] = np.bincount(inverse, weights=terms, minlength=keys.size)
        indptr[a + 1 : b + 1] = pos + np.cumsum(np.bincount(keys // dim, minlength=b - a))
        pos = stop
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


def _flush(values: np.ndarray) -> np.ndarray:
    """``values`` with the entries below the smallest normal float set to zero, in place."""
    values[np.abs(values) < _TINY] = 0.0
    return values


def _product(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    c = a @ b
    _flush(c.data)
    c.eliminate_zeros()
    return c


def matrix_power(P: sp.csr_matrix, e: int) -> sp.csr_matrix:
    """``P**e`` (``e >= 1``) by repeated squaring, flushing subnormal entries after each product.

    Takes ``e.bit_length() + e.bit_count() - 2`` sparse products.  For a
    :func:`taylor_matrix` whose pattern holds every coupling path, each
    product stores no more entries than ``P``.
    """
    if e < 1:
        raise ValidationError(f"matrix power must be >= 1, got {e}")
    power, square = None, P
    while True:
        if e & 1:
            power = square if power is None else _product(power, square)
        e >>= 1
        if not e:
            return power
        square = _product(square, square)


def taylor_step_defect_bound(norm_A: float, dt: float, K: int, y_norm: float = 1.0) -> float:
    """Leading bound on the one-step series truncation error."""
    return (norm_A * dt) ** (K + 1) / math.factorial(K + 1) * y_norm


@dataclass
class PropagationConfig:
    """Stepping knobs; leave ``dt`` and ``n_steps`` unset for the auto rule.

    The auto rule keeps the per-step Taylor argument at most one,
    ``dt = 1 / |A|_bound``, clamped to at least ``T / 10**6`` steps-wise, so
    factorial decay dominates the series tail.  ``record_every`` unset records
    about a thousand snapshots.
    """

    total_time: float
    taylor_order: int = 10
    dt: float | None = None
    n_steps: int | None = None
    strict_stability: bool = True
    record_every: int | None = None

    def __post_init__(self) -> None:
        if self.taylor_order < 1:
            raise ValidationError(f"Taylor order must be >= 1, got {self.taylor_order}")
        if self.record_every is not None and self.record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {self.record_every}")

    def resolve_steps(self, norm_bound: float) -> tuple[float, int]:
        T = self.total_time
        if T < 0:
            raise ValidationError("total_time must be non-negative")
        if T == 0:
            return 0.0, 0
        if self.dt is not None and self.n_steps is not None:
            dt, steps = float(self.dt), int(self.n_steps)
        elif self.dt is not None:
            dt = float(self.dt)
            steps = max(1, round(T / dt))
        elif self.n_steps is not None:
            steps = int(self.n_steps)
            dt = T / steps
        else:
            dt = min(1.0 / norm_bound if norm_bound > 0 else T, T)
            dt = max(dt, T / 1e6)
            steps = math.ceil(T / dt)
            dt = T / steps
        if steps < 1 or dt <= 0:
            raise ValidationError(f"invalid stepping: dt={dt}, steps={steps}")
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
    ``P`` or its folded power.  ``y_final`` is in the coordinates of
    :class:`SymmetricBasis`; ``SymmetricBasis(n, N).expand`` gives its flat layout.
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


def evolve(mat: CarlemanMatrix, config: PropagationConfig) -> EvolveResult:
    """Taylor steps of the lifted ``u_in / gamma`` over ``[0, T]``, with guards.

    The lift of a state is symmetric under permutations of tensor factors and
    the operator keeps it so.  The steps therefore run on the symmetric
    operator (:meth:`CarlemanMatrix.to_symmetric`), one coordinate per sorted
    multi-index, from :meth:`SymmetricBasis.lift`, with norms taken in the
    orbit-weighted norm, which equals the 2-norm of the flat state.  A problem
    whose symmetric operator would store more than ``KRON_MAX_SIZE`` entries
    is rejected before the operator, the basis or the state is allocated.

    When F1 is diagonal (:attr:`CarlemanMatrix.f1_is_diagonal`) and the
    matvecs saved repay the build (:func:`_stepper`), the steps use the
    precomputed series ``P`` of :func:`taylor_matrix`, whose entries are
    counted before it is allocated.  When ``P`` holds every coupling path
    (``(N-1) // (M-1) <= K``) and records are more than one step apart, each
    full record interval is one matvec with ``P**every``
    (:func:`matrix_power`) and a final short interval takes single steps of
    ``P``; otherwise each step is one matvec with ``P``.  Entries that fall
    below the smallest normal float are flushed to zero from the matrices
    and after each matvec (stiff modes decay through the subnormal range,
    where arithmetic is slow).  Otherwise, or when ``P`` would store more
    than ``KRON_MAX_SIZE`` entries, a step takes the series' K matvecs.
    Every state the run computes is checked: a non-finite one raises
    :class:`NumericFailure`, as does a norm beyond ``BLOWUP_FACTOR`` times
    the initial one.
    """
    bound = mat.gershgorin_max_eig_bound()
    if config.strict_stability and bound > 0:
        raise ValidationError(
            f"stability check failed: Gershgorin bound {bound} > 0 "
            "(raise gamma_max or disable strict_stability)"
        )
    dt, n_steps = config.resolve_steps(mat.spectral_norm_bound())
    every = int(config.record_every or max(1, n_steps // 1000))

    stepping, stride, advance = _stepper(mat, dt, config.taylor_order, n_steps, every)
    basis = SymmetricBasis(mat.n, mat.N)
    y = basis.lift(mat.rescaled.u_in_scaled)
    n1 = mat.n
    norm0 = basis.norm(y)
    times = [0.0]
    block1 = [y[:n1].copy()]
    share1 = [float(y[:n1] @ y[:n1]) / norm0**2]
    norms = [norm0]
    step_norms = [norm0]

    step = matvecs = 0
    while step < n_steps:
        take = min(stride, n_steps - step)
        y, used = advance(y, take)
        step += take
        matvecs += used
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
            times.append(step * dt)
            block1.append(y[:n1].copy())
            share1.append(float(y[:n1] @ y[:n1]) / norm**2)
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
        stepping=stepping,
        matvecs=matvecs,
    )


def _stepper(
    mat: CarlemanMatrix, dt: float, K: int, n_steps: int, every: int
) -> tuple[str, int, Callable[[np.ndarray, int], tuple[np.ndarray, int]]]:
    """The route's name, its stride in steps, and ``advance(y, steps) -> (y, matvecs)``.

    The series takes ``n_steps * K`` matvecs of the operator's ``nnz(op)``
    entries.  With F1 diagonal, :func:`taylor_matrix` is built when its route
    costs less: the build (``BUILD_COST`` matvecs of ``P``), the products of
    the fold (``PRODUCT_COST`` each) and the matvecs it takes, which are the
    records plus the final short interval's steps when the steps between
    records are folded, and ``n_steps`` otherwise.  So ``P`` is capped at
    ``n_steps K nnz(op)`` over that count of matvecs.  The fold needs ``P``'s
    pattern closed under products, which holds when no coupling path is
    longer than K, and is taken when its products cost less than the matvecs
    it saves.
    """
    op = mat.to_symmetric()
    if mat.f1_is_diagonal:
        products = every.bit_length() + every.bit_count() - 2
        applies = n_steps // every + n_steps % every
        fold = (
            every > 1
            and (mat.N - 1) // (mat.M - 1) <= K
            and products * PRODUCT_COST + applies < n_steps
        )
        cost = BUILD_COST + (products * PRODUCT_COST + applies if fold else n_steps)
        P = taylor_matrix(op, dt, K, max_entries=n_steps * K * op.nnz // cost)
        if P is not None:
            Q = matrix_power(P, every) if fold else P

            def advance(y: np.ndarray, steps: int) -> tuple[np.ndarray, int]:
                if fold and steps == every:
                    return _flush(Q @ y), 1
                for _ in range(steps):
                    y = _flush(P @ y)
                return y, steps

            return "taylor_matrix", every if fold else 1, advance

    def series(y: np.ndarray, steps: int) -> tuple[np.ndarray, int]:
        return taylor_step(lambda v: op @ v, y, dt, K), K

    return "series", 1, series


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
