"""Truncation-error bounds for the linearised dynamics.

The tightening factor ``f_{j,k,M}`` has one production route,
:func:`f_closed`: the paper's alternating sum written as a regularized
incomplete beta function, which is exact to rounding in relative terms at
every ``tau`` and depth.  :func:`f_quadrature` integrates the defining
nested-integral recurrence instead and is kept as its independent oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
from scipy.special import betainc, betaincc

from .errors import ValidationError
from .nonlinear_ode import NonlinearODE, dop853_samples, max_stable_gamma, r_ratio
from .pde import ReactionDiffusionProblem, max_norm_rate

#: largest tower depth ``k`` for the quadrature route.  The route does not
#: recurse: :func:`dop853_samples` steps one k-dimensional linear ODE from
#: each sample to the next, so memory is O(k) and the step count follows the
#: largest rate ``j + (k-1)(M-1)`` times tau.  On a 2-core Xeon VM a 101-point
#: curve took 32-92 ms at k = 100 for tau <= 10 and tau <= 100 (M = 2, 4),
#: 1.3-3.4 times k = 20 at the same tau; the guard stops depths where one
#: curve would take seconds.
_MAX_QUAD_DEPTH = 100


def _validate_fjk(j: int, k: int, M: int) -> None:
    if j < 1 or k < 1 or M < 2:
        raise ValidationError(f"need j >= 1, k >= 1, M >= 2; got j={j}, k={k}, M={M}")


def f_closed(j: int, k: int, M: int, tau: float | np.ndarray) -> float | np.ndarray:
    """Error factor ``f_{j,k,M}(tau)``; monotone in ``tau``, saturating at 1.

    The paper's sum ``1 - (M-1) Gamma(k + a) / ((k-1)! Gamma(a))
    sum_l (-1)^l C(k-1, l) exp(-(l(M-1)+j) tau) / (l(M-1)+j)``, ``a = j/(M-1)``,
    is the distribution function of a sum of independent exponential times
    with rates ``j + l(M-1)``, l < k: the law of ``-log`` of a ``Beta(a, k)``
    variable in units of ``M-1``.  So with ``s = (M-1) tau``
    ``f = I_{1-e^-s}(k, a) = 1 - I_{e^-s}(a, k)`` (DLMF 8.17), evaluated
    without cancellation; each branch takes the argument that is at most 1/2.
    """
    _validate_fjk(j, k, M)
    taus = np.asarray(tau, dtype=float)
    if not np.all(taus >= 0):
        raise ValidationError("tau must be non-negative")
    s = (M - 1) * taus
    a = j / (M - 1)
    vals = np.where(
        s <= math.log(2.0), betainc(k, a, -np.expm1(-s)), betaincc(a, k, np.exp(-s))
    )
    return vals if vals.ndim else float(vals)


def f_quadrature(j: int, k: int, M: int, tau: float | np.ndarray) -> float | np.ndarray:
    """Error factor via the nested-integral recurrence, integrated adaptively.

    The recurrence ``f_{j,k} (tau) = j int_0^tau exp(-j (tau - s))
    f_{j+M-1, k-1}(s) ds`` with base ``1 - exp(-j tau)`` is the derivative
    relation ``f_k' = j_k (f_{k-1} - f_k)`` for the whole tower, stepped to each
    ``tau`` in sorted order by :func:`dop853_samples` (rtol 1e-12, atol 1e-13):
    repeated or unsorted ``tau`` are fine, a non-finite one is refused.
    Independent of the closed form; within 1e-12 of it for tau <= 50, k <= 40.
    """
    _validate_fjk(j, k, M)
    if k > _MAX_QUAD_DEPTH:
        raise ValidationError(f"quadrature depth {k} exceeds guard {_MAX_QUAD_DEPTH}")
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if not np.all((taus >= 0) & np.isfinite(taus)):
        raise ValidationError("tau must be finite and non-negative")
    base_rate = j + (k - 1) * (M - 1)
    if k == 1:
        vals = 1.0 - np.exp(-base_rate * taus)
        return vals if np.ndim(tau) else float(vals[0])

    # level kappa carries f at index j + (k - kappa)(M - 1)
    rates = np.array([j + (k - kappa) * (M - 1) for kappa in range(1, k + 1)], dtype=float)

    def tower(f: np.ndarray) -> np.ndarray:
        prev = np.concatenate(([1.0], f[:-1]))
        return rates * (prev - f)

    order = np.argsort(taus)
    vals = np.empty_like(taus)
    vals[order] = dop853_samples(tower, np.zeros(k), taus[order], 1e-12, 1e-13)[:, -1]
    return vals if np.ndim(tau) else float(vals[0])


# ---------------------------------------------------------------------------
# index bookkeeping
# ---------------------------------------------------------------------------

def omega_set(N: int, M: int, k: int) -> range:
    """Levels sharing exponent ``k``: ``{N - k(M-1) + 1, ..., N - (k-1)(M-1)}``."""
    return range(N - k * (M - 1) + 1, N - (k - 1) * (M - 1) + 1)


def omega_index(N: int, M: int, j: int) -> int:
    """Exponent ``k`` with ``j`` in the k-th level set."""
    if not 1 <= j <= N:
        raise ValidationError(f"level {j} outside 1..{N}")
    k = math.ceil((N - j + 1) / (M - 1))
    assert j in omega_set(N, M, k), (N, M, j, k)
    return k


# ---------------------------------------------------------------------------
# error bounds
# ---------------------------------------------------------------------------

def global_error_bound(ode: NonlinearODE, N: int, t: float | np.ndarray) -> float | np.ndarray:
    """Bound on the norm of the whole stacked error vector at ``gamma = |u_in|``.

    ``(M-1) |FM| |u_in|^(M-1) (1 - exp(N (lambda0 + |u_in|^(M-1) |FM|) t))
    / |lambda0 + |u_in|^(M-1) |FM||``: the bound is stated for that rescaling
    only, and its exponent argument is negative whenever it applies.
    """
    lam, fm, M = ode.lambda0, ode.fm_norm, ode.M
    unorm = float(np.linalg.norm(ode.u_in))
    if lam >= 0:
        raise ValidationError(f"not dissipative: lambda0 = {lam} >= 0")
    if abs(lam) <= unorm ** (M - 1) * fm:
        raise ValidationError(
            "bound requires |lambda0| > |u_in|^(M-1) |FM| (nonlinearity too strong)"
        )
    decay = lam + unorm ** (M - 1) * fm
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("time must be non-negative")
    vals = (M - 1) * fm * unorm ** (M - 1) * (1.0 - np.exp(N * decay * t)) / abs(decay)
    return vals if vals.ndim else float(vals)


def component_error_bound(
    ode: NonlinearODE,
    N: int,
    j: int,
    t: float | np.ndarray,
    gamma: float | None = None,
) -> float | np.ndarray:
    """Per-level truncation bound ``(|u_in|/gamma)^j R^k f_{j,k,M}(|lambda0| t)``.

    ``k`` is the level-set exponent for ``j``; at ``j = 1`` this is the
    end-to-end bound on the extracted solution.  ``gamma`` defaults to
    ``|u_in|`` and must be positive and finite; the value of the bound is scale-invariant apart from the
    explicit ``(|u_in|/gamma)^j`` prefactor.
    """
    R = r_ratio(ode)  # refuses lambda0 >= 0
    if R >= 1:
        raise ValidationError(f"bound requires R < 1, got R = {R}")
    k = omega_index(N, ode.M, j)
    unorm = float(np.linalg.norm(ode.u_in))
    gamma = unorm if gamma is None else gamma
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValidationError(f"scaling factor must be positive and finite, got {gamma}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("time must be non-negative")
    return _level_bound(j, k, ode.M, abs(ode.lambda0), t, (unorm / gamma) ** j, R)


def _level_bound(
    j: int, k: int, M: int, decay: float, t: np.ndarray, scale: float, rate: float
) -> float | np.ndarray:
    """``scale rate^k f_{j,k,M}(decay t)``, the product of both per-level bounds.  With
    ``rate > 0`` each value at ``t > 0`` that underflows (0.0 claims no error, a subnormal
    one too little) is raised to ``sys.float_info.min * max(1, scale)``: every factor is
    positive there and each but ``scale`` at most 1, so the floor still bounds."""
    vals = scale * rate**k * np.asarray(f_closed(j, k, M, decay * t))
    if rate > 0:
        low = (t > 0) & (vals < sys.float_info.min)
        vals = np.where(low, sys.float_info.min * max(1.0, scale), vals)
    return vals if vals.ndim else float(vals)


def required_carleman_order(R: float, M: int, eps: float) -> int:
    """Truncation order making the dominant factor ``R^(ceil(N/(M-1)))`` <= eps.

    ``N = (M-1) ceil(log(1/eps) / log(1/R)) - (M-2)``, clamped to the minimum
    admissible order ``M + 1``.
    """
    if not 0 < R < 1:
        raise ValidationError(f"not dissipative enough: requires 0 < R < 1, got {R}")
    if not 0 < eps < 1:
        raise ValidationError(f"target error must be in (0, 1), got {eps}")
    if M < 2:
        raise ValidationError(f"nonlinearity order must be >= 2, got {M}")
    # 40-digit logs: a float quotient has no digits left below the integer
    # part once R is near 1, and 1/eps overflows for subnormal eps
    with localcontext() as ctx:
        ctx.prec = 40
        ratio = Decimal(float(eps)).ln() / Decimal(float(R)).ln()
    nearest = round(ratio)
    if abs(ratio - nearest) < Decimal("1e-9"):
        ratio = Decimal(nearest)
    N = (M - 1) * math.ceil(ratio) - (M - 2)
    return max(N, M + 1)


def refined_carleman_order(
    R: float, M: int, eps: float, lam0: float, T: float
) -> int:
    """Smallest order whose exact factor ``R^k f_{1,k,M}(|lambda0| T)`` meets eps.

    Never larger than the closed-form order, since the scan includes it.
    """
    closed = required_carleman_order(R, M, eps)
    if lam0 >= 0:
        raise ValidationError(f"not dissipative: lambda0 = {lam0} >= 0")
    if T < 0:
        raise ValidationError("horizon must be non-negative")
    tau = abs(lam0) * T
    for N in range(M + 1, closed):
        k = omega_index(N, M, 1)
        if R**k * f_closed(1, k, M, tau) <= eps:
            return N
    return closed


def maxnorm_error_bound(
    pde: ReactionDiffusionProblem,
    N: int,
    j: int,
    t: float | np.ndarray,
    g_value: float,
) -> float | np.ndarray:
    """Max-norm variant of the per-level bound for discretised diffusion.

    ``G^(d j) ((|b| / |c|) |u_in|_max^(M-1) G^(d M))^k f_{j,k,M}(|c| t)``
    with ``G`` the semigroup infinity-norm peak.  Heuristic: it presumes the
    max-norm of the solution does not grow, which high-order stencils only
    approximately satisfy, so this value is reported but never hard-asserted.
    Returns ``inf`` when the bracketed base reaches 1 (no convergence in N).
    """
    if pde.c >= 0:
        raise ValidationError(f"decay coefficient must be negative, got {pde.c}")
    if g_value < 1.0:
        raise ValidationError(f"semigroup peak must be >= 1, got {g_value}")
    M, d = pde.M, pde.d
    k = omega_index(N, M, j)
    bracket = max_norm_rate(pde) / abs(pde.c) * g_value ** (d * M)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("time must be non-negative")
    if bracket >= 1.0:
        vals = np.full(t.shape, np.inf)
        return vals if vals.ndim else float("inf")
    return _level_bound(j, k, M, abs(pde.c), t, g_value ** (d * j), bracket)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Everything the truncation analysis says about one problem instance."""

    R: float
    lam0: float
    gamma: float
    N: int
    times: np.ndarray
    eta_bounds: dict[int, np.ndarray]
    stability: dict[str, bool]
    required_N: int
    refined_N: int

    def as_dict(self) -> dict:
        return {
            "R": self.R,
            "lambda0": self.lam0,
            "gamma": self.gamma,
            "N": self.N,
            "times": self.times.tolist(),
            "eta_bounds": {str(j): v.tolist() for j, v in self.eta_bounds.items()},
            "stability": self.stability,
            "required_N": self.required_N,
            "refined_N": self.refined_N,
        }


def make_bound_report(ode: NonlinearODE, eps: float, gamma: float, N: int) -> BoundReport:
    """Assemble verdicts at ``gamma``, the orders required for ``eps``, and
    per-level bound curves on ``linspace(0, T, 101)`` at order ``N``."""
    lam = ode.lambda0
    R = r_ratio(ode)
    gamma_max = max_stable_gamma(ode)
    required = required_carleman_order(R, ode.M, eps)
    refined = refined_carleman_order(R, ode.M, eps, lam, ode.T)
    times = np.linspace(0.0, ode.T, 101)
    eta = {
        j: np.asarray(component_error_bound(ode, N, j, times, gamma=gamma))
        for j in range(1, N + 1)
    }
    stability = {
        "dissipative": lam < 0,
        "contractive_nonlinearity": R < 1,
        "gamma_within_stable_range": gamma <= gamma_max,
    }
    return BoundReport(
        R=R,
        lam0=lam,
        gamma=gamma,
        N=int(N),
        times=times,
        eta_bounds=eta,
        stability=stability,
        required_N=required,
        refined_N=refined,
    )
