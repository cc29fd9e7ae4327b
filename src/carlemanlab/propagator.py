"""Truncated-Taylor time stepping for the linearised system.

One step applies ``sum_{l=0}^{K} (dt A)^l / l!`` through repeated matvecs, so
the per-step defect is of order ``(|A| dt)**(K+1) / (K+1)!``.  Vectors carry
their true magnitudes end to end; quantum-style normalisation only appears in
the measurement-probability formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .carleman import CarlemanMatrix, SymmetricBasis
from .errors import NumericFailure, ValidationError

#: ``evolve`` raises :class:`NumericFailure` when ``|y|`` exceeds this times ``|y0|``
BLOWUP_FACTOR = 1e6


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

    ``step_norms`` holds the full per-step norm history; snapshot arrays are
    thinned to the recording grid.  ``y_final`` is in the coordinates of
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


def evolve(mat: CarlemanMatrix, config: PropagationConfig) -> EvolveResult:
    """Taylor steps of the lifted ``u_in / gamma`` over ``[0, T]``, with guards.

    The lift of a state is symmetric under permutations of tensor factors and
    the operator keeps it so.  The steps therefore run on the symmetric
    operator (:meth:`CarlemanMatrix.to_symmetric`), one coordinate per sorted
    multi-index, from :meth:`SymmetricBasis.lift`, with norms taken in the
    orbit-weighted norm, which equals the 2-norm of the flat state.  A problem
    whose symmetric operator would store more than ``KRON_MAX_SIZE`` entries
    is rejected before the operator, the basis or the state is allocated.
    """
    bound = mat.gershgorin_max_eig_bound()
    if config.strict_stability and bound > 0:
        raise ValidationError(
            f"stability check failed: Gershgorin bound {bound} > 0 "
            "(raise gamma_max or disable strict_stability)"
        )
    dt, n_steps = config.resolve_steps(mat.spectral_norm_bound())
    every = config.record_every or max(1, n_steps // 1000)

    sym_op = mat.to_symmetric()
    apply_A = lambda v: sym_op @ v  # noqa: E731
    basis = SymmetricBasis(mat.n, mat.N)
    y = basis.lift(mat.rescaled.u_in_scaled)
    n1 = mat.n
    norm0 = basis.norm(y)
    times = [0.0]
    block1 = [y[:n1].copy()]
    share1 = [float(y[:n1] @ y[:n1]) / norm0**2]
    norms = [norm0]
    step_norms = [norm0]

    for step in range(1, n_steps + 1):
        y = taylor_step(apply_A, y, dt, config.taylor_order)
        norm = basis.norm(y)
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
    )


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
