"""Dissipative nonlinear ODEs ``du/dt = F1 u + FM u^(x M)`` and their rescaling.

``F1`` and the nonlinearity matrix ``FM``, which maps the M-fold Kronecker
power of the state back to state space, are always held as CSR; the Kronecker
power itself is never materialised except through :func:`kron_power` under the
size limit.
Kronecker sums ``sum_i I (x) op (x) I`` (of F1, of FM, of a Laplacian's axis
operator) are assembled by :func:`kron_sum` and applied by :func:`kron_sum_apply`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp
from scipy.integrate import DOP853, solve_ivp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, svds

from .errors import NumericFailure, ValidationError
from .limits import DENSE_F1_MAX_N, KRON_MAX_SIZE, check_power, check_size

MatrixLike = Union[np.ndarray, sp.spmatrix]


def _as_csr(matrix: MatrixLike, shape: tuple[int, int], name: str) -> sp.csr_matrix:
    """``matrix`` as canonical float CSR (no duplicates, no stored zeros), checked for
    ``shape`` and finite entries.

    A dense matrix and its sparse copy give the same CSR; a non-canonical
    sparse input is canonicalised on a copy, never in place.
    """
    if not sp.issparse(matrix):
        matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != shape:
        raise ValidationError(f"{name} has shape {matrix.shape}, expected {shape}")
    out = sp.csr_matrix(matrix, dtype=float)
    if not np.all(np.isfinite(out.data)):
        raise ValidationError(f"{name} contains non-finite entries")
    if not (out.has_canonical_format and out.data.all()):
        out = out.copy()
        out.sum_duplicates()
        out.eliminate_zeros()
    return out


def fm_width(n: int, M: int) -> int:
    """FM's column count ``n**M``, refused before it is formed when an int64 index cannot hold it."""
    return check_power(n, M, 2**63 - 1, "FM column index n**M")


@dataclass
class NonlinearODE:
    """Problem data for ``du/dt = F1 u + FM u^(x M)``, ``u(0) = u_in``.

    ``F1`` (``n x n``) and ``FM`` (``n x n**M``) may be given dense or sparse,
    as anything scipy can convert; both are held as CSR at every ``n``
    (:func:`_as_csr`).  Dense linear algebra on F1 (its spectral scalars and
    the Jacobian) is bounded by ``DENSE_F1_MAX_N``, not its storage.
    ``lambda0`` and ``|F1|`` come from LAPACK or ARPACK (:func:`lambda0`,
    :func:`operator_spectral_norm`) for ODE inputs only: a periodic grid's
    are set in closed form by :func:`carlemanlab.pde.discretize`.
    Dissipativity is a derived property (``lambda0 < 0``), not an assumption
    baked into construction.

    Quantities derived from ``F1`` and ``FM`` (the FM triplets and digits,
    ``lambda0``, ``|F1|``, ``|FM|``) are computed on first use and cached on
    the instance, so they assume ``F1`` and ``FM`` are never reassigned after
    construction.
    """

    n: int
    M: int
    F1: sp.csr_matrix
    FM: sp.csr_matrix
    u_in: np.ndarray
    T: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"dimension must be positive, got {self.n}")
        if self.M < 2:
            raise ValidationError(f"nonlinearity order must be >= 2, got {self.M}")
        if not (0 <= self.T < math.inf):
            raise ValidationError(f"time horizon must be finite and non-negative, got {self.T}")
        big = fm_width(self.n, self.M)
        self.F1 = _as_csr(self.F1, (self.n, self.n), "F1")
        self.FM = _as_csr(self.FM, (self.n, big), "FM")
        self.u_in = np.asarray(self.u_in, dtype=float)
        if self.u_in.size != self.n:
            raise ValidationError(f"u_in has {self.u_in.size} values, expected {self.n}")
        self.u_in = self.u_in.reshape(self.n)
        if not np.all(np.isfinite(self.u_in)):
            raise ValidationError("u_in contains non-finite values")

    # -- sparse nonlinearity internals ------------------------------------

    @cached_property
    def fm_coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzeros of FM as (rows, cols, values) coordinate triplets."""
        coo = self.FM.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data

    @cached_property
    def fm_digits(self) -> np.ndarray:
        """Column indices of FM decomposed into M base-n digits (nnz x M)."""
        _, cols, _ = self.fm_coordinates
        return base_digits(cols, self.n, self.M)

    @cached_property
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
        prod = digit_products(u, self.fm_digits)
        return np.bincount(rows, weights=vals * prod, minlength=self.n)

    def rhs(self, u: np.ndarray) -> np.ndarray:
        return self.F1 @ u + self.fm_contract(u)

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """Dense Jacobian of :meth:`rhs`: ``F1 + sum_p FM (u^(x p) (x) I (x) u^(x (M-1-p)))``.

        Built from the FM triplets: the nonzero ``(row, digits, value)`` adds
        ``value * prod_{q != p} u[digits[q]]`` at ``(row, digits[p])`` for
        each digit position ``p``.  Dense, so limited to the dense-F1
        dimension.
        """
        check_size(self.n, DENSE_F1_MAX_N, "dense Jacobian dimension")
        jac = self.F1.toarray()
        rows, _, vals = self.fm_coordinates
        factors = u[self.fm_digits]
        for p in range(self.M):
            partial = vals.copy()
            for q in range(self.M):
                if q != p:
                    partial *= factors[:, q]
            np.add.at(jac, (rows, self.fm_digits[:, p]), partial)
        return jac

    # -- spectral scalars, each computed once per problem -----------------

    @cached_property
    def lambda0(self) -> float:
        """Top eigenvalue of the symmetric part of F1 (see :func:`lambda0`)."""
        return lambda0(self.F1)

    @cached_property
    def f1_norm(self) -> float:
        """Spectral norm of F1."""
        return operator_spectral_norm(self.F1)

    @cached_property
    def fm_norm(self) -> float:
        """Spectral norm of FM (see :func:`fm_spectral_norm`)."""
        return fm_spectral_norm(self)


@dataclass
class RescaledODE:
    """Variable change ``u_tilde = u / gamma`` applied to a base problem: the
    ``(base, gamma)`` pair a :class:`~carlemanlab.carleman.CarlemanMatrix` reads.

    The rescaled system keeps ``F1`` and multiplies the nonlinearity by
    ``gamma**(M-1)``; trajectories satisfy ``u_tilde(t) = u(t) / gamma``.
    ``gamma`` must be positive and finite (``max_stable_gamma`` is infinite
    when FM vanishes).  The analysis functions take the base problem.
    """

    base: NonlinearODE
    gamma: float

    def __post_init__(self) -> None:
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValidationError(
                f"scaling factor must be positive and finite, got {self.gamma}"
            )

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def M(self) -> int:
        return self.base.M

    @property
    def F1(self) -> sp.csr_matrix:
        return self.base.F1

    @property
    def u_in_scaled(self) -> np.ndarray:
        return self.base.u_in / self.gamma


def rescale(ode: NonlinearODE, gamma: float) -> RescaledODE:
    """Apply the variable change ``u -> u / gamma``; R is invariant under it."""
    return RescaledODE(base=ode, gamma=float(gamma))


# ---------------------------------------------------------------------------
# scalar diagnostics
# ---------------------------------------------------------------------------

def _arpack_start(length: int) -> np.ndarray:
    """Fixed ARPACK start vector, so the sparse spectral scalars are reproducible."""
    return np.random.default_rng(12345).standard_normal(length)


def lambda0(F1: MatrixLike) -> float:
    """Maximum eigenvalue of the symmetric part ``(F1 + F1^T)/2``.

    ``F1``, dense or sparse, is read as float CSR.  LAPACK up to the dense-F1
    limit; seeded ARPACK (Lanczos) on the sparse symmetric part above it, so
    no dense ``n x n`` copy is made there.
    """
    F1 = sp.csr_matrix(F1, dtype=float)
    if not np.all(np.isfinite(F1.data)):
        raise ValidationError("F1 contains non-finite entries")
    if F1.shape[0] <= DENSE_F1_MAX_N:
        dense = F1.toarray()
        return float(np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1])
    sym = (0.5 * (F1 + F1.T)).tocsr()
    try:
        top = eigsh(
            sym, k=1, which="LA", v0=_arpack_start(sym.shape[0]), return_eigenvectors=False,
        )
    except ArpackNoConvergence as exc:
        raise NumericFailure(f"ARPACK did not converge for lambda0: {exc}") from exc
    return float(top[0])


def operator_spectral_norm(A: MatrixLike) -> float:
    """Largest singular value.

    ``A``, dense or sparse, is read as float CSR.  LAPACK when its dense copy
    holds no more entries than a dense F1 at the dense-F1 limit; seeded
    ARPACK (``svds``) above that.
    """
    A = sp.csr_matrix(A, dtype=float)
    if A.nnz == 0:
        return 0.0
    if A.shape[0] * A.shape[1] <= DENSE_F1_MAX_N**2:
        return float(np.linalg.norm(A.toarray(), 2))
    try:
        top = svds(A, k=1, v0=_arpack_start(min(A.shape)), return_singular_vectors=False)
    except ArpackNoConvergence as exc:
        raise NumericFailure(f"ARPACK did not converge for the spectral norm: {exc}") from exc
    return float(top[0])


def fm_spectral_norm(ode: NonlinearODE) -> float:
    """Spectral norm of FM; exact fast path when FM is one-sparse."""
    if ode.FM.nnz == 0:
        return 0.0
    if ode.fm_is_one_sparse:
        return float(np.abs(ode.FM.data).max())
    return operator_spectral_norm(ode.FM)


def r_ratio(ode: NonlinearODE) -> float:
    """Nonlinearity-to-dissipation ratio ``|FM| |u_in|^(M-1) / |lambda0|``.

    Scale-invariant: the system rescaled by any ``gamma``, ``(F1,
    gamma^(M-1) FM, u_in / gamma)``, has the same value.
    """
    lam = ode.lambda0
    if lam >= 0:
        raise ValidationError(f"not dissipative: lambda0 = {lam} >= 0")
    unorm = float(np.linalg.norm(ode.u_in))
    return ode.fm_norm * unorm ** (ode.M - 1) / abs(lam)


def max_stable_gamma(ode: NonlinearODE) -> float:
    """Largest rescaling keeping the linearised system stable.

    ``(|lambda0| / |FM|)**(1/(M-1))``; infinite when the nonlinearity
    vanishes.
    """
    lam = ode.lambda0
    if lam >= 0:
        raise ValidationError(f"not dissipative: lambda0 = {lam} >= 0")
    norm_fm = ode.fm_norm
    if norm_fm == 0.0:
        return float("inf")
    return (abs(lam) / norm_fm) ** (1.0 / (ode.M - 1))


# ---------------------------------------------------------------------------
# Kronecker powers and the reference integrator
# ---------------------------------------------------------------------------

def base_digits(index: np.ndarray, n: int, width: int) -> np.ndarray:
    """Row-major multi-indices of flat Kronecker positions: ``width`` base-n digits each."""
    digits = np.empty((index.size, width), dtype=np.int64)
    rem = np.array(index, dtype=np.int64)
    for pos in range(width - 1, -1, -1):
        digits[:, pos] = rem % n
        rem //= n
    return digits


def digit_products(u: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """``prod_p u[digits[:, p]]`` per row, multiplied in digit order as in :func:`kron_power`.

    One gather per digit column, without the rows x width copy of ``u[digits]``.
    """
    prod = u[digits[:, 0]]
    for p in range(1, digits.shape[1]):
        prod = prod * u[digits[:, p]]
    return prod


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


def kron_sum(op: MatrixLike, n: int, j: int) -> sp.csr_matrix:
    """``sum_{i=1..j} I_{n^(i-1)} (x) op (x) I_{n^(j-i)}`` as CSR; ``op`` may be rectangular (FM)."""
    rows, cols = op.shape
    total = sp.csr_matrix((rows * n ** (j - 1), cols * n ** (j - 1)))
    for i in range(1, j + 1):
        left = sp.identity(n ** (i - 1), format="csr")
        right = sp.identity(n ** (j - i), format="csr")
        total = total + sp.kron(sp.kron(left, op), right, format="csr")
    return total


def kron_sum_apply(op: sp.csr_matrix, y: np.ndarray, n: int, j: int) -> np.ndarray:
    """``kron_sum(op, n, j) @ y`` without assembling it: one sparse contraction of ``op``
    per tensor factor, with the one (F1) or ``M`` (FM) factors of ``y`` from factor ``i`` on."""
    rows, width = op.shape
    out = np.zeros(rows * n ** (j - 1))
    for i in range(1, j + 1):
        a, b = n ** (i - 1), n ** (j - i)
        flat = y.reshape(a, width, b).transpose(1, 0, 2).reshape(width, a * b)
        out += (op @ flat).reshape(rows, a, b).transpose(1, 0, 2).reshape(-1)
    return out


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: ``u[i]`` is the state at ``t[i]``, from ``method``."""

    t: np.ndarray
    u: np.ndarray
    method: str


def reference_solve(
    ode: NonlinearODE, T: float | None = None, *, tol: float, t_eval: np.ndarray
) -> Trajectory:
    """Brute-force trajectory from an adaptive high-order integrator.

    Serves as the oracle for every error-bound comparison; the local error is
    controlled to ``tol`` in mixed absolute/relative form and the solution is
    sampled at ``t_eval``, both the caller's (the CLI's ``tol`` is its ``reference_tol``).

    The method follows from the dense-F1 limit: ODEPACK's compiled LSODA
    (Adams or BDF, with the analytic :meth:`NonlinearODE.jacobian`) when
    ``n <= DENSE_F1_MAX_N``, where that Jacobian exists, at ``tol / 10``
    (its global error runs about ten times its local tolerance; clamped to
    scipy's floor ``100 eps``), and explicit DOP853 otherwise, stepped to
    each sample by :func:`dop853_samples` rather than read through its dense
    output, which is far less accurate between steps than at them.  The
    trajectory records which method ran.
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValidationError(f"tolerance {tol} outside [1e-13, 1e-6]")
    horizon = ode.T if T is None else float(T)
    if horizon < 0:
        raise ValidationError("horizon must be non-negative")
    lsoda = ode.n <= DENSE_F1_MAX_N
    method = "LSODA" if lsoda else "DOP853"
    if horizon == 0.0:
        return Trajectory(t=np.array([0.0]), u=ode.u_in[None, :].copy(), method=method)

    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size and not (
        np.all(np.isfinite(t_eval)) and 0 <= t_eval[0] and t_eval[-1] <= horizon
        and np.all(np.diff(t_eval) > 0)
    ):
        raise ValidationError(f"sample times must be finite, increasing and inside [0, {horizon}]")
    # a solution that blows up overflows: the check below refuses it, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if lsoda:
            step_tol = max(tol / 10, 100 * np.finfo(float).eps)
            sol = solve_ivp(
                lambda _, u: ode.rhs(u),
                (0.0, horizon),
                ode.u_in,
                method=method,
                rtol=step_tol,
                atol=step_tol,
                t_eval=t_eval,
                jac=lambda _, u: ode.jacobian(u),
            )
            if not sol.success:
                raise NumericFailure(f"reference integration failed: {sol.message}")
            t, u = sol.t, sol.y.T.copy()
        else:
            t, u = t_eval.copy(), dop853_samples(ode.rhs, ode.u_in, t_eval, tol, tol)
    if not np.all(np.isfinite(u)):
        raise NumericFailure("reference integration produced non-finite values")
    return Trajectory(t=t, u=u, method=method)


def dop853_samples(
    fun: Callable, y0: np.ndarray, t_eval: np.ndarray, rtol: float, atol: float
) -> np.ndarray:
    """The state of ``y' = fun(y)``, ``y(0) = y0``, at each of the non-decreasing,
    non-negative ``t_eval`` (validated by the caller), one row per sample.

    DOP853 runs from each sample to the next and is read at the end of its last
    step, never through its dense output; each interval starts from the last
    step size of the one before.  A repeated sample, or one at 0, takes no step.
    """
    u = np.empty((t_eval.size, y0.size))
    t, y, first_step = 0.0, y0, None
    for i, sample in enumerate(t_eval):
        if sample > t:
            solver = DOP853(
                lambda _, v: fun(v), t, y, sample, rtol=rtol, atol=atol,
                first_step=None if first_step is None else min(first_step, sample - t),
            )
            while solver.status == "running":
                message = solver.step()
            if solver.status == "failed":
                raise NumericFailure(f"DOP853 integration failed at t = {solver.t}: {message}")
            t, y, first_step = sample, solver.y, solver.step_size
        u[i] = y
    return u
