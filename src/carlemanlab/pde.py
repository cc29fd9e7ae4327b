"""Reaction-diffusion problems ``u_t = D Lap u + c u + b u^M`` on ``[0,1]^d``.

Discretisation maps the PDE onto a :class:`~carlemanlab.nonlinear_ode.NonlinearODE`
with a Kronecker-sum diffusion operator and a one-sparse nonlinearity that
selects the diagonal monomials ``u_i^M``.  The module also evaluates every
stability criterion the pipeline depends on, the semi-discrete spatial error
bound, and the grid size needed for a target accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .limits import DENSE_F1_MAX_N
from .nonlinear_ode import NonlinearODE, max_stable_gamma, r_ratio
from .stencil import build_laplacian_dd, stencil_coefficients

InitialCondition = Union[Callable[[np.ndarray], np.ndarray], np.ndarray]


@dataclass
class ReactionDiffusionProblem:
    """Problem data on the periodic unit box with ``m`` points per axis.

    ``initial`` is either a callable evaluated on an ``(n, d)`` array of grid
    coordinates or a tabulated array of ``n = m**d`` values in row-major
    order.
    """

    diffusion: float
    c: float
    b: float
    M: int
    d: int
    m: int
    k: int
    initial: InitialCondition
    T: float = 1.0

    def __post_init__(self) -> None:
        if self.diffusion < 0:
            raise ValidationError(f"diffusion coefficient must be >= 0, got {self.diffusion}")
        if self.M < 2:
            raise ValidationError(f"nonlinearity order must be >= 2, got {self.M}")
        if self.d < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.d}")
        if self.T < 0:
            raise ValidationError("horizon must be non-negative")

    @property
    def n(self) -> int:
        return self.m**self.d

    def grid(self) -> np.ndarray:
        """Row-major grid coordinates, shape ``(n, d)``, spacing ``1/m``."""
        axes = [np.arange(self.m) / self.m] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([ax.reshape(-1) for ax in mesh], axis=1)

    def initial_grid(self) -> np.ndarray:
        if callable(self.initial):
            vals = np.asarray(self.initial(self.grid()), dtype=float).reshape(self.n)
        else:
            vals = np.asarray(self.initial, dtype=float).reshape(self.n)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("initial condition contains non-finite values")
        return vals

    def initial_max_norm(self) -> float:
        """Max-norm over grid samples (a discrete stand-in for the continuum sup)."""
        return float(np.abs(self.initial_grid()).max())


@dataclass(frozen=True)
class DiscretisationErrorInputs:
    """Derivative data entering the spatial error bound.

    ``derivative_bound`` is the summed supremum of the (2k+1)-st directional
    derivatives of the solution; supply it or estimate it from the initial
    condition with :func:`estimate_derivative_bound`.
    """

    derivative_bound: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.derivative_bound) or self.derivative_bound < 0:
            raise ValidationError(
                f"derivative bound must be finite and non-negative, got {self.derivative_bound}"
            )


# ---------------------------------------------------------------------------
# discretisation
# ---------------------------------------------------------------------------

def one_sparse_nonlinearity(n: int, M: int, b: float) -> sp.csr_matrix:
    """Selector of the diagonal monomials: entry ``b`` at column ``i (n^M-1)/(n-1)``."""
    rows = np.arange(n, dtype=np.int64)
    if n == 1:
        cols = np.zeros(1, dtype=np.int64)
    else:
        stride = (n**M - 1) // (n - 1)
        cols = rows * stride
    data = np.full(n, float(b))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n**M))


def discretize(pde: ReactionDiffusionProblem) -> NonlinearODE:
    """Sample the initial data and assemble ``F1 = D L_{k,d} + c I`` and ``FM``."""
    lap = build_laplacian_dd(pde.k, pde.d, pde.m, bc="periodic")
    n = pde.n
    if n <= DENSE_F1_MAX_N:
        F1 = pde.diffusion * lap.dense() + pde.c * np.eye(n)
    else:
        F1 = (pde.diffusion * lap.sparse() + pde.c * sp.identity(n, format="csr")).tocsr()
    FM = one_sparse_nonlinearity(n, pde.M, pde.b)
    return NonlinearODE(n=n, M=pde.M, F1=F1, FM=FM, u_in=pde.initial_grid(), T=pde.T)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Four verdicts with their numeric margins.

    * ``pde_max_norm``: max-norm criterion of the continuum problem,
      ``|u_in|_max^(M-1) b / |c| < 1``.
    * ``ode_two_norm``: the discretised contraction requirement ``R < 1``.
    * ``discretisation``: the strengthened hypothesis
      ``|c| > M |b| |u_in|_max^(M-1)`` behind the spatial error bound.
    * ``rescaling``: whether the default ``gamma = |u_in|`` stays within the
      stable range ``gamma <= gamma_max``.
    """

    max_norm_lhs: float
    pde_max_norm: bool
    R: float
    ode_two_norm: bool
    discretisation_lhs: float
    discretisation_rhs: float
    discretisation: bool
    gamma: float
    gamma_max: float
    rescaling: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.pde_max_norm
            and self.ode_two_norm
            and self.discretisation
            and self.rescaling
        )

    def as_dict(self) -> dict:
        return {
            "pde_max_norm": {"lhs": self.max_norm_lhs, "ok": self.pde_max_norm},
            "ode_two_norm": {"R": self.R, "ok": self.ode_two_norm},
            "discretisation": {
                "abs_c": self.discretisation_lhs,
                "nonlinear_growth": self.discretisation_rhs,
                "ok": self.discretisation,
            },
            "rescaling": {
                "gamma": self.gamma,
                "gamma_max": self.gamma_max,
                "ok": self.rescaling,
            },
            "all_pass": self.all_pass,
        }


def stability_report(
    pde: ReactionDiffusionProblem, discretized: Optional[NonlinearODE] = None
) -> StabilityReport:
    """Evaluate all stability criteria for a problem and its discretisation."""
    ode = discretize(pde) if discretized is None else discretized
    u_max = pde.initial_max_norm()
    u_two = float(np.linalg.norm(ode.u_in))
    max_norm_lhs = u_max ** (pde.M - 1) * pde.b / abs(pde.c) if pde.c != 0 else np.inf
    R = r_ratio(ode)
    disc_lhs = abs(pde.c)
    disc_rhs = pde.M * abs(pde.b) * u_max ** (pde.M - 1)
    gamma_max = max_stable_gamma(ode)
    return StabilityReport(
        max_norm_lhs=float(max_norm_lhs),
        pde_max_norm=bool(max_norm_lhs < 1.0),
        R=float(R),
        ode_two_norm=bool(R < 1.0),
        discretisation_lhs=float(disc_lhs),
        discretisation_rhs=float(disc_rhs),
        discretisation=bool(disc_lhs > disc_rhs),
        gamma=u_two,
        gamma_max=float(gamma_max),
        rescaling=bool(u_two <= gamma_max),
    )


# ---------------------------------------------------------------------------
# spatial error
# ---------------------------------------------------------------------------

def _decay_margin(pde: ReactionDiffusionProblem) -> float:
    """``|c| - M |b| |u_in|_max^(M-1)``; the bound hypothesis requires it > 0."""
    margin = abs(pde.c) - pde.M * abs(pde.b) * pde.initial_max_norm() ** (pde.M - 1)
    if pde.c >= 0 or margin <= 0:
        raise ValidationError(
            "spatial error bound requires c < 0 and |c| > M |b| |u_in|_max^(M-1)"
        )
    return margin


def discretisation_error_bound(
    pde: ReactionDiffusionProblem,
    inputs: DiscretisationErrorInputs,
    t: float | np.ndarray,
) -> float | np.ndarray:
    """Semi-discrete 2-norm error bound, evaluated with unit constant.

    ``C sqrt(n) (e/2)^(2k) n^(-(2k-1)/d) (1 - exp(-Z t)) / Z`` with
    ``Z = |c| - M |b| |u_in|_max^(M-1)``; monotone non-decreasing in ``t``.
    """
    margin = _decay_margin(pde)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("time must be non-negative")
    n = pde.n
    prefactor = (
        inputs.derivative_bound
        * math.sqrt(n)
        * (math.e / 2.0) ** (2 * pde.k)
        * n ** (-(2 * pde.k - 1) / pde.d)
    )
    vals = prefactor * (1.0 - np.exp(-margin * t)) / margin
    return vals if vals.ndim else float(vals)


def required_grid_points(
    pde: ReactionDiffusionProblem,
    inputs: DiscretisationErrorInputs,
    eps: float,
) -> int:
    """Grid size whose spatial error bound stays below ``eps`` at all times.

    Solving the bound for ``n`` gives the exponent ``2d / (2(2k-1) - d)``;
    the 2-norm bound only shrinks with ``n`` when ``2(2k-1) > d``, so low
    stencil orders in high dimension are rejected.  The result is rounded up
    to the next ``m**d`` with ``m >= 2k+1``.
    """
    if eps <= 0:
        raise ValidationError("target error must be positive")
    margin = _decay_margin(pde)
    k, d = pde.k, pde.d
    if 2 * (2 * k - 1) <= d:
        raise ValidationError(
            f"stencil order k={k} too low for dimension d={d}: "
            "the 2-norm error bound does not decrease with n"
        )
    base = inputs.derivative_bound * (math.e / 2.0) ** (2 * k) / (margin * eps)
    exponent = 2.0 * d / (2.0 * (2 * k - 1) - d)
    n_raw = base**exponent
    m = max(math.ceil(n_raw ** (1.0 / d)), 2 * k + 1)
    return m**d


def estimate_derivative_bound(pde: ReactionDiffusionProblem) -> float:
    """Estimate ``C(u,k)`` by trigonometric differentiation of the initial data.

    Periodic spectral differentiation of the tabulated initial condition,
    summed over axes; a stand-in for the time-sup the bound formally wants.
    """
    m, d, k = pde.m, pde.d, pde.k
    values = pde.initial_grid().reshape((m,) * d)
    order = 2 * k + 1
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    if m % 2 == 0:
        freqs = freqs.copy()
        freqs[m // 2] = 0.0  # drop the Nyquist mode for odd derivatives
    multiplier = (2j * np.pi * freqs) ** order
    total = 0.0
    for axis in range(d):
        spectrum = np.fft.fft(values, axis=axis)
        shape = [1] * d
        shape[axis] = m
        deriv = np.fft.ifft(spectrum * multiplier.reshape(shape), axis=axis).real
        total += float(np.abs(deriv).max())
    return total


def grid_matching_first_order(n1: int, c1: float, ck: float, k: int) -> float:
    """Grid count at order ``k`` matching the first-order max-norm error.

    ``((e/2)^(2k-2) C_k n_1 / C_1)^(1/(2k-1))``: higher order buys a
    ``(2k-1)``-root reduction in points, up to the derivative constants.
    """
    if k < 1 or n1 < 1 or c1 <= 0 or ck <= 0:
        raise ValidationError("need k >= 1, n1 >= 1 and positive derivative constants")
    return ((math.e / 2.0) ** (2 * k - 2) * ck * n1 / c1) ** (1.0 / (2 * k - 1))
