"""Leading-order quantum-resource accounting for the linearised solver.

Everything here is classical bookkeeping: subnormalisation values, amplitude
amplification factors, and oracle call counts, all evaluated with unit
constants and natural logs clamped at 1.  Comparisons against earlier
formulas are ratio-based so the suppressed constants cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .carleman import lambda_value
from .errors import ValidationError
from .nonlinear_ode import (
    NonlinearODE,
    max_stable_gamma,
    r_ratio,
    reference_solve,
)
from .pde import ReactionDiffusionProblem, discretize
from .stencil import stencil_coefficients


def _log_factor(x: float) -> float:
    """Natural log clamped to 1 so asymptotic counts stay positive."""
    return max(1.0, math.log(x)) if x > 0 else 1.0


@dataclass
class CostEstimate:
    """Leading-order counts for one solver configuration."""

    R: float
    N: int
    gamma: float
    lambda_carleman: float
    amplification: float
    calls_block_encoding: float
    calls_state_prep: float
    extra_gates: float
    u_in_norm: float
    u_T_norm: float
    assumptions: list[str] = field(default_factory=list)


def amplification_factor(
    u_in_norm: float,
    u_T_norm: float,
    gamma: float,
    N: int,
    M: int,
    R: float | None = None,
) -> float:
    """Amplitude-amplification rounds to land on the solution level at time T.

    General form ``sqrt(sum_{l=0}^{N-1} r^(2l)) * |u_in| / |u(T)|`` with
    ``r = |u_in| / gamma``, continuous through ``r = 1`` where it equals
    ``sqrt(N) |u_in| / |u(T)|``.  When ``gamma`` is exactly the stability
    limit ``gamma_max`` the specialised closed form
    ``|u_in| / (|u(T)| sqrt(1 - R^(2/(M-1))))`` is returned instead.
    """
    if gamma <= 0:
        raise ValidationError(f"scaling factor must be positive, got {gamma}")
    if u_T_norm <= 0:
        raise ValidationError("final-time norm must be positive")
    if N < 1:
        raise ValidationError(f"truncation order must be >= 1, got {N}")
    ratio = u_in_norm / u_T_norm
    if R is not None and 0 < R < 1:
        gamma_max = u_in_norm / R ** (1.0 / (M - 1))
        if abs(gamma - gamma_max) <= 1e-12 * gamma_max:
            return ratio / math.sqrt(1.0 - R ** (2.0 / (M - 1)))
    r = u_in_norm / gamma
    if r <= 1:
        return math.sqrt(float((r ** (2.0 * np.arange(N))).sum())) * ratio
    # r^(N-1) sqrt(sum_l r^(-2l)), in logs: the sum of r^(2l) overflows long before the factor
    tail = float((r ** (-2.0 * np.arange(N))).sum())
    try:
        return math.exp((N - 1) * math.log(r) + 0.5 * math.log(tail) + math.log(ratio))
    except OverflowError:
        return math.inf


def ode_cost_estimate(
    ode: NonlinearODE,
    gamma: float,
    N: int,
    eps: float,
    pde: Optional[ReactionDiffusionProblem] = None,
    u_T_norm: Optional[float] = None,
) -> CostEstimate:
    """Call counts for solving one nonlinear ODE instance at truncation order
    ``N`` to error ``eps`` by its horizon ``T``.

    ``pde`` is the problem ``ode`` discretises, if any, as :func:`~carlemanlab.cli.resolve_problem`
    pairs them; it sets ``lam_f1`` (:func:`_lambda_f1`), and ``lam_fm`` is ``|FM|``.
    The block-encoding count scales as ``amp * lambda * T * log(N/eps) *
    log(N lam_f1 T / eps)``, state preparation carries one extra factor of N
    in place of the last log, and the gate overhead adds ``N M log n`` on top
    of a squared log.
    """
    R = r_ratio(ode)  # refuses lambda0 >= 0, so F1 is nonzero and lam_f1 > 0
    if R >= 1:
        raise ValidationError(f"cost model requires R < 1, got {R}")
    T = ode.T
    lam_f1 = _lambda_f1(ode, pde)
    lam_carleman = lambda_value(N, ode.M, gamma, lam_f1, ode.fm_norm)
    u_in_norm = float(np.linalg.norm(ode.u_in))
    assumptions = ["leading-order: unit constants, natural logs clamped at 1"]
    if u_T_norm is None:
        traj = reference_solve(ode, t_eval=np.array([0.0, T]))
        u_T_norm = float(np.linalg.norm(traj.u[-1]))
        assumptions.append("u(T) norm measured by the reference integrator")
    else:
        assumptions.append("u(T) norm supplied by caller")
    amp = amplification_factor(u_in_norm, u_T_norm, gamma, N, ode.M, R=R)
    log_n_eps = _log_factor(N / eps)
    log_time = _log_factor(N * lam_f1 * T / eps)
    base = amp * lam_carleman * T
    calls_block = base * log_n_eps * log_time
    calls_prep = base * N * log_n_eps
    gates = base * N * ode.M * log_n_eps * log_time**2 * _log_factor(float(ode.n))
    return CostEstimate(
        R=R,
        N=N,
        gamma=gamma,
        lambda_carleman=lam_carleman,
        amplification=amp,
        calls_block_encoding=calls_block,
        calls_state_prep=calls_prep,
        extra_gates=gates,
        u_in_norm=u_in_norm,
        u_T_norm=u_T_norm,
        assumptions=assumptions,
    )


def pde_lambda_f1(pde: ReactionDiffusionProblem) -> float:
    """Subnormalisation of the shift-expansion block encoding of ``F1``.

    ``|c| + d D m^2 (|a_0| + sum_j |a_j|)``: one unit-coefficient term per
    shift power plus the identity.
    """
    table = stencil_coefficients(pde.k)
    return abs(pde.c) + pde.d * pde.diffusion * pde.m**2 * float(table.one_sided_abs_sum)


def _lambda_f1(ode: NonlinearODE, pde: Optional[ReactionDiffusionProblem]) -> float:
    """The shift-expansion encoding's ``lam_f1`` when ``pde`` is given, else ``|F1|``."""
    return ode.f1_norm if pde is None else pde_lambda_f1(pde)


def pde_cost_estimate(
    pde: ReactionDiffusionProblem,
    N: int,
    eps: float,
    u_T_norm: Optional[float] = None,
) -> CostEstimate:
    """Cost of the discretised reaction-diffusion solve at order ``N`` and ``gamma = gamma_max``."""
    ode = discretize(pde)
    est = ode_cost_estimate(ode, max_stable_gamma(ode), N, eps, pde, u_T_norm=u_T_norm)
    est.assumptions.append("gamma set to the stability limit gamma_max")
    return est


# ---------------------------------------------------------------------------
# prior-work evaluators
# ---------------------------------------------------------------------------

@dataclass
class PriorWorkRow:
    name: str
    calls: float
    flags: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def prior_work_comparison(
    estimate: CostEstimate,
    ode: NonlinearODE,
    eps: float,
    pde: Optional[ReactionDiffusionProblem] = None,
) -> list[PriorWorkRow]:
    """Evaluate earlier complexity formulas next to the present ``estimate`` of ``ode``.

    ``T``, ``|FM|``, ``M``, ``n`` and the decay ``|lambda0|`` come from ``ode``;
    ``pde`` is the problem ``ode`` discretises, if any, as :func:`~carlemanlab.cli.resolve_problem`
    pairs them, and sets ``lam_f1``, ``D``, ``d`` and the stencil width ``2k+1``
    (else ``|F1|``, 1, 1 and 3).  The first row is ``estimate``'s own
    block-encoding count; the others take its ``N``, ``|u_in|`` and ``|u(T)|``.
    Poly-log factors are instantiated with exponent 1 and unit constants, and
    the Euler-based formula's history-state norm with 1.
    The state-norm power ``|u_in|^(2N)`` in the Euler-based formula is
    surfaced explicitly; the order selector of the Taylor-based prior work
    divides by ``log(1/|u_in|)`` and is flagged as undefined at
    ``|u_in| = 1`` (and for ``|u_in| > 1``).  A formula giving fewer than one
    call is floored at 1 and flagged.
    """
    u_in_norm, u_T_norm, N = estimate.u_in_norm, estimate.u_T_norm, estimate.N
    T, fm_norm, M, n, decay = ode.T, ode.fm_norm, ode.M, ode.n, abs(ode.lambda0)
    lam_f1 = _lambda_f1(ode, pde)
    diffusion, d, sparsity = (1.0, 1, 3) if pde is None else (pde.diffusion, pde.d, 2 * pde.k + 1)
    rows = [PriorWorkRow(name="this_work", calls=estimate.calls_block_encoding)]

    exp_factor = u_in_norm ** (2 * N)
    polylog = _log_factor(decay * diffusion * d * M * n ** (1.0 / d) * N * sparsity * T / eps)
    an_calls = (
        (1.0 / eps)
        * sparsity
        * T**2
        * diffusion**2
        * d**2
        * n ** (4.0 / d)
        * N**3
        * exp_factor
        * polylog
    )
    an_flags = [f"state-norm power |u_in|^(2N) = {exp_factor:.6g}"]
    if u_in_norm <= 1.0:
        an_flags.append("|u_in| <= 1: the exponential factor is benign in this regime")
    rows.append(
        PriorWorkRow(
            name="euler_carleman",
            calls=an_calls,
            flags=an_flags,
            detail={"exp_factor": exp_factor, "polylog": polylog},
        )
    )

    krovi_flags: list[str] = []
    if u_in_norm == 1.0:
        n_prior = float("inf")
        krovi_flags.append("order selector divides by log(1/|u_in|) = 0: N is infinite")
    elif u_in_norm > 1.0:
        n_prior = float("inf")
        krovi_flags.append("order selector undefined for |u_in| > 1")
    else:
        num = 2.0 * math.log(T * fm_norm / (eps * u_T_norm)) if T * fm_norm > 0 else 0.0
        n_prior = max(1.0, math.ceil(num / math.log(1.0 / u_in_norm)))
    if math.isinf(n_prior):
        krovi_calls = float("inf")
    else:
        krovi_calls = (
            (u_in_norm / u_T_norm)
            * lam_f1
            * T
            * n_prior
            * n_prior
            * _log_factor(1.0 / eps)
            * _log_factor(T * n_prior * lam_f1)
        )
    rows.append(
        PriorWorkRow(
            name="taylor_carleman_prior",
            calls=krovi_calls,
            flags=krovi_flags,
            detail={"N_prior": n_prior},
        )
    )
    for row in rows[1:]:
        if row.calls < 1.0:
            row.flags.append(f"calls floored at 1 from {row.calls:.6g}")
            row.calls = 1.0
    return rows
