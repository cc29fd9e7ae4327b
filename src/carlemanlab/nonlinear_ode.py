"""Dissipative nonlinear ODEs ``du/dt = F1 u + FM u^(x M)`` and their rescaling.

The nonlinearity matrix ``FM`` maps the M-fold Kronecker power of the state
back to state space and is always held sparsely; the Kronecker power itself is
never materialised except through :func:`kron_power` under the size limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from .errors import NumericFailure, ValidationError
from .limits import KRON_MAX_SIZE, check_size

#: power-iteration settings for spectral norms of the nonlinearity
_POWER_TOL = 1e-12
_POWER_MAXITER = 10_000

MatrixLike = Union[np.ndarray, sp.spmatrix]


def _as_csr(matrix: MatrixLike, shape: tuple[int, int], name: str) -> sp.csr_matrix:
    if sp.issparse(matrix):
        out = matrix.tocsr()
    else:
        out = sp.csr_matrix(np.asarray(matrix, dtype=float))
    if out.shape != shape:
        raise ValidationError(f"{name} has shape {out.shape}, expected {shape}")
    return out


@dataclass
class NonlinearODE:
    """Problem data for ``du/dt = F1 u + FM u^(x M)``, ``u(0) = u_in``.

    ``F1`` is dense or sparse ``n x n``; ``FM`` is sparse ``n x n**M`` given
    directly or as anything scipy can convert.  Dissipativity is a derived
    property (``lambda0 < 0``), not an assumption baked into construction.
    """

    n: int
    M: int
    F1: MatrixLike
    FM: MatrixLike
    u_in: np.ndarray
    T: float = 1.0
    _fm_digits: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"dimension must be positive, got {self.n}")
        if self.M < 2:
            raise ValidationError(f"nonlinearity order must be >= 2, got {self.M}")
        if self.T < 0:
            raise ValidationError(f"time horizon must be non-negative, got {self.T}")
        big = self.n ** self.M
        if big >= 2**63:
            raise ValidationError(f"n**M = {big} is not index-addressable")
        if sp.issparse(self.F1):
            self.F1 = self.F1.tocsr()
            values = self.F1.data
        else:
            self.F1 = values = np.asarray(self.F1, dtype=float)
        if self.F1.shape != (self.n, self.n):
            raise ValidationError(f"F1 has shape {self.F1.shape}, expected {(self.n, self.n)}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("F1 contains non-finite entries")
        self.FM = _as_csr(self.FM, (self.n, big), "FM")
        if not np.all(np.isfinite(self.FM.data)):
            raise ValidationError("FM contains non-finite entries")
        self.u_in = np.asarray(self.u_in, dtype=float).reshape(self.n)

    # -- sparse nonlinearity internals ------------------------------------

    @property
    def fm_coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzeros of FM as (rows, cols, values) coordinate triplets."""
        coo = self.FM.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data

    @property
    def fm_digits(self) -> np.ndarray:
        """Column indices of FM decomposed into M base-n digits (nnz x M)."""
        if self._fm_digits is None:
            _, cols, _ = self.fm_coordinates
            digits = np.empty((cols.size, self.M), dtype=np.int64)
            rem = cols.copy()
            for pos in range(self.M - 1, -1, -1):
                digits[:, pos] = rem % self.n
                rem //= self.n
            self._fm_digits = digits
        return self._fm_digits

    @property
    def fm_is_one_sparse(self) -> bool:
        rows, cols, _ = self.fm_coordinates
        return (
            rows.size == np.unique(rows).size
            and cols.size == np.unique(cols).size
        )

    def fm_contract(self, u: np.ndarray) -> np.ndarray:
        """Evaluate ``FM u^(x M)`` without forming the Kronecker power."""
        rows, _, vals = self.fm_coordinates
        if rows.size == 0:
            return np.zeros(self.n)
        prod = vals * np.prod(u[self.fm_digits], axis=1)
        return np.bincount(rows, weights=prod, minlength=self.n)

    def rhs(self, u: np.ndarray) -> np.ndarray:
        return self.F1 @ u + self.fm_contract(u)


@dataclass
class RescaledODE:
    """Variable change ``u_tilde = u / gamma`` applied to a base problem.

    The rescaled system keeps ``F1`` and multiplies the nonlinearity by
    ``gamma**(M-1)``; trajectories satisfy ``u_tilde(t) = u(t) / gamma``.
    """

    base: NonlinearODE
    gamma: float

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValidationError(f"scaling factor must be positive, got {self.gamma}")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def M(self) -> int:
        return self.base.M

    @property
    def F1(self) -> MatrixLike:
        return self.base.F1

    @property
    def FM_scaled(self) -> sp.csr_matrix:
        return self.base.FM * (self.gamma ** (self.base.M - 1))

    @property
    def u_in_scaled(self) -> np.ndarray:
        return self.base.u_in / self.gamma

    def as_ode(self) -> NonlinearODE:
        return NonlinearODE(
            n=self.base.n,
            M=self.base.M,
            F1=self.base.F1,
            FM=self.FM_scaled,
            u_in=self.u_in_scaled,
            T=self.base.T,
        )


def rescale(ode: NonlinearODE, gamma: float) -> RescaledODE:
    """Apply the variable change ``u -> u / gamma``; R is invariant under it."""
    return RescaledODE(base=ode, gamma=float(gamma))


# ---------------------------------------------------------------------------
# scalar diagnostics
# ---------------------------------------------------------------------------

def lambda0(F1: MatrixLike) -> float:
    """Maximum eigenvalue of the symmetric part ``(F1 + F1^T)/2``."""
    dense = F1.toarray() if sp.issparse(F1) else np.asarray(F1, dtype=float)
    if not np.all(np.isfinite(dense)):
        raise ValidationError("F1 contains non-finite entries")
    sym = 0.5 * (dense + dense.T)
    return float(np.linalg.eigvalsh(sym)[-1])


def operator_spectral_norm(A: MatrixLike, tol: float = _POWER_TOL) -> float:
    """Largest singular value, by power iteration on ``A A^T`` when sparse."""
    if not sp.issparse(A):
        return float(np.linalg.norm(np.asarray(A, dtype=float), 2))
    A = A.tocsr()
    if A.nnz == 0:
        return 0.0
    gram = (A @ A.T).tocsr()
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(gram.shape[0])
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(_POWER_MAXITER):
        y = gram @ x
        lam_new = float(np.linalg.norm(y))
        if lam_new == 0.0:
            return 0.0
        x = y / lam_new
        if abs(lam_new - lam) <= tol * lam_new:
            return float(np.sqrt(lam_new))
        lam = lam_new
    raise NumericFailure("power iteration for the spectral norm did not converge")


def fm_spectral_norm(ode: NonlinearODE) -> float:
    """Spectral norm of FM; exact fast path when FM is one-sparse."""
    if ode.FM.nnz == 0:
        return 0.0
    if ode.fm_is_one_sparse:
        return float(np.abs(ode.FM.data).max())
    return operator_spectral_norm(ode.FM)


def _coerce_ode(ode: NonlinearODE | RescaledODE) -> NonlinearODE:
    return ode.as_ode() if isinstance(ode, RescaledODE) else ode


def r_ratio(ode: NonlinearODE | RescaledODE) -> float:
    """Nonlinearity-to-dissipation ratio ``|FM| |u_in|^(M-1) / |lambda0|``.

    Scale-invariant: the rescaled system reports the same value.
    """
    ode = _coerce_ode(ode)
    lam = lambda0(ode.F1)
    if lam >= 0:
        raise ValidationError(f"not dissipative: lambda0 = {lam} >= 0")
    unorm = float(np.linalg.norm(ode.u_in))
    return fm_spectral_norm(ode) * unorm ** (ode.M - 1) / abs(lam)


def max_stable_gamma(ode: NonlinearODE) -> float:
    """Largest rescaling keeping the linearised system stable.

    ``(|lambda0| / |FM|)**(1/(M-1))``; infinite when the nonlinearity
    vanishes.
    """
    lam = lambda0(ode.F1)
    if lam >= 0:
        raise ValidationError(f"not dissipative: lambda0 = {lam} >= 0")
    norm_fm = fm_spectral_norm(ode)
    if norm_fm == 0.0:
        return float("inf")
    return (abs(lam) / norm_fm) ** (1.0 / (ode.M - 1))


# ---------------------------------------------------------------------------
# Kronecker powers and the reference integrator
# ---------------------------------------------------------------------------

def kron_power(u: np.ndarray, j: int) -> np.ndarray:
    """``u^(x j)`` in lexicographic (row-major) Kronecker order."""
    u = np.asarray(u, dtype=float)
    if j < 1:
        raise ValidationError(f"Kronecker power must be >= 1, got {j}")
    check_size(u.size**j, KRON_MAX_SIZE, "Kronecker power")
    out = u
    for _ in range(j - 1):
        out = np.kron(out, u)
    return out


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``u[i]`` is the state at ``t[i]``."""

    t: np.ndarray
    u: np.ndarray


def reference_solve(
    ode: NonlinearODE | RescaledODE,
    T: float | None = None,
    tol: float = 1e-10,
    t_eval: np.ndarray | None = None,
) -> Trajectory:
    """Brute-force trajectory from an adaptive high-order embedded pair.

    Serves as the oracle for every error-bound comparison; the local error is
    controlled to ``tol`` in mixed absolute/relative form and the solution is
    sampled at 101 uniform times unless ``t_eval`` is given.
    """
    ode = _coerce_ode(ode)
    if not 1e-13 <= tol <= 1e-6:
        raise ValidationError(f"tolerance {tol} outside [1e-13, 1e-6]")
    horizon = ode.T if T is None else float(T)
    if horizon < 0:
        raise ValidationError("horizon must be non-negative")
    if t_eval is None:
        t_eval = np.linspace(0.0, horizon, 101)
    if horizon == 0.0:
        return Trajectory(t=np.array([0.0]), u=ode.u_in[None, :].copy())

    sol = solve_ivp(
        lambda _, u: ode.rhs(u),
        (0.0, horizon),
        ode.u_in,
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=np.asarray(t_eval, dtype=float),
        dense_output=False,
    )
    if not sol.success:
        raise NumericFailure(f"reference integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise NumericFailure("reference integration produced non-finite values")
    return Trajectory(t=sol.t, u=sol.y.T.copy())
