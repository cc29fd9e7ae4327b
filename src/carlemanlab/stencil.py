"""High-order central finite-difference Laplacians on the unit box.

Builds the one-dimensional periodic Laplacian of order ``k`` (stencil width
``2k+1``), its d-dimensional Kronecker sum, closed-form circulant spectra, the
peak induced infinity-norm ``g_kappa`` of the diffusion semigroup, and the
Dirichlet convergence study.  Coefficients are kept as exact rationals until
an operator is materialised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericFailure, ValidationError
from .limits import DENSE_MAX_DIM, check_size
from .nonlinear_ode import kron_sum

#: factorials beyond this order overflow the usefulness of float conversion
MAX_ORDER = 16


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StencilTable:
    """Central second-derivative weights ``a_0..a_k`` in exact rationals.

    The weights are dimensionless; operators scale them by ``1/h**2``.
    They satisfy ``a_0 + 2*sum(a_j) == 0`` exactly, which makes every periodic
    row sum vanish.
    """

    order: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.order + 1:
            raise ValidationError(f"order {self.order} needs {self.order + 1} coefficients")

    def as_floats(self) -> np.ndarray:
        return np.array([float(a) for a in self.coefficients])

    @property
    def one_sided_abs_sum(self) -> Fraction:
        """``|a_0| + sum_j |a_j|``, the subnormalisation of the shift expansion."""
        a = self.coefficients
        return abs(a[0]) + sum(abs(x) for x in a[1:])


def stencil_coefficients(k: int) -> StencilTable:
    """Exact central-difference weights for the second derivative.

    ``a_j = 2 (-1)**(j+1) (k!)**2 / (j**2 (k-j)! (k+j)!)`` for ``1 <= j <= k``
    and ``a_0`` fixed by the zero-row-sum condition.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValidationError(f"stencil order must be a positive integer, got {k!r}")
    if k > MAX_ORDER:
        raise ValidationError(f"stencil order {k} exceeds guard {MAX_ORDER}")
    kf2 = Fraction(math.factorial(k)) ** 2
    side = [
        2 * (-1) ** (j + 1) * kf2
        / (j * j * math.factorial(k - j) * math.factorial(k + j))
        for j in range(1, k + 1)
    ]
    a0 = -2 * sum(side)
    return StencilTable(order=int(k), coefficients=(a0, *side))


def _one_sided_weights(offsets: list[int]) -> list[Fraction]:
    """Exact second-derivative weights on integer offsets (unit spacing).

    Solves the moment conditions ``sum_j c_j d_j**p / p! = delta(p, 2)`` for
    ``p = 0..len(offsets)-1`` by rational Gaussian elimination, giving
    pointwise accuracy ``len(offsets) - 2``.
    """
    w = len(offsets)
    aug = [
        [Fraction(d) ** p / math.factorial(p) for d in offsets]
        + [Fraction(1 if p == 2 else 0)]
        for p in range(w)
    ]
    for col in range(w):
        piv = next(r for r in range(col, w) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(w):
            if r != col and aug[r][col] != 0:
                fac = aug[r][col]
                aug[r] = [x - fac * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][w] for r in range(w)]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@dataclass
class LaplacianOperator:
    """Discretised Laplacian on ``[0,1]^d``.

    ``axis_matrix`` is the one-dimensional operator; the d-dimensional one is
    its Kronecker sum over axes, assembled by :meth:`sparse` (``kron_sum``).
    """

    dim: int
    axis_matrix: sp.csr_matrix

    @property
    def axis_size(self) -> int:
        return self.axis_matrix.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        n = self.axis_size ** self.dim
        return (n, n)

    def dense(self) -> np.ndarray:
        check_size(self.shape[0], DENSE_MAX_DIM, "dense Laplacian")
        return self.sparse().toarray()

    def sparse(self) -> sp.csr_matrix:
        """Full Kronecker-sum operator in sparse form (nnz grows only linearly)."""
        return kron_sum(self.axis_matrix, self.axis_size, self.dim)


def circulant_first_row(table: StencilTable, m: int) -> np.ndarray:
    """First row of the periodic operator, central weights scaled by ``m**2``."""
    a = table.as_floats() * m * m
    row = np.zeros(m)
    row[0] = a[0]
    for j in range(1, table.order + 1):
        row[j] += a[j]
        row[m - j] += a[j]
    return row


def _periodic_axis_matrix(table: StencilTable, m: int) -> sp.csr_matrix:
    row = circulant_first_row(table, m)
    nz = np.flatnonzero(row)
    i = np.repeat(np.arange(m), nz.size)
    j = (i + np.tile(nz, m)) % m
    data = np.tile(row[nz], m)
    return sp.csr_matrix((data, (i, j)), shape=(m, m))


def _dirichlet_axis_matrices(table: StencilTable, m: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Dirichlet interior operator and boundary columns for nodes ``x_i = i/m``, i=1..m-1.

    The boundary columns carry the weights multiplying the two known endpoint
    values; rows too close to a wall use one-sided stencils.
    """
    k = table.order
    a = table.as_floats()
    scale = float(m * m)
    n_int = m - 1
    interior = sp.lil_matrix((n_int, n_int))
    boundary = sp.lil_matrix((n_int, 2))
    # boundary closure two accuracy orders below the interior's 2k preserves
    # the interior convergence rate
    q_boundary = max(2, 2 * k - 2)
    width = q_boundary + 2

    def add(i_row: int, node: int, weight: float) -> None:
        if node == 0:
            boundary[i_row, 0] += weight
        elif node == m:
            boundary[i_row, 1] += weight
        else:
            interior[i_row, node - 1] += weight

    for i in range(1, m):
        row = i - 1
        if i - k >= 0 and i + k <= m:
            add(row, i, a[0] * scale)
            for j in range(1, k + 1):
                add(row, i - j, a[j] * scale)
                add(row, i + j, a[j] * scale)
        else:
            if i - k < 0:
                nodes = list(range(0, width))
            else:
                nodes = list(range(m - width + 1, m + 1))
            weights = _one_sided_weights([node - i for node in nodes])
            for node, w in zip(nodes, weights):
                add(row, node, float(w) * scale)
    return sp.csr_matrix(interior), sp.csr_matrix(boundary)


def _grid_stencil(k: int, m: int) -> StencilTable:
    """The order-``k`` weights, refused on fewer than the stencil's ``2k+1`` points."""
    table = stencil_coefficients(k)
    if m < 2 * k + 1:
        raise ValidationError(f"need m >= 2k+1 = {2 * k + 1} points, got m={m}")
    return table


def build_laplacian_1d(k: int, m: int) -> LaplacianOperator:
    """One-dimensional periodic Laplacian of order ``k`` on ``m`` points: a
    circulant with the central stencil in every row."""
    return LaplacianOperator(dim=1, axis_matrix=_periodic_axis_matrix(_grid_stencil(k, m), m))


def build_laplacian_dd(k: int, d: int, m: int) -> LaplacianOperator:
    """Kronecker-sum Laplacian over ``d`` axes, ``sum_mu I x ... x L_k x ... x I``."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    base = build_laplacian_1d(k, m)
    base.dim = d
    return base


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def laplacian_eigenvalues_periodic(k: int, m: int) -> np.ndarray:
    """Circulant spectrum ``m^2 [a_0 + 2 sum_j a_j cos(2 pi l j / m)]`` for l=0..m-1.

    Evaluated as the symbol ``-4 m^2 sum_j a_j sin^2(pi l j / m)`` (the two
    agree since ``a_0 = -2 sum_j a_j``), so the zero mode is exactly 0 and
    nothing cancels near it.
    """
    a = stencil_coefficients(k).as_floats()
    ell = np.arange(m)
    acc = np.zeros(m)
    for j in range(1, k + 1):
        acc = acc - a[j] * np.sin(np.pi * ell * j / m) ** 2
    return (4.0 * m * m) * acc


# ---------------------------------------------------------------------------
# semigroup infinity norm
# ---------------------------------------------------------------------------

def semigroup_inf_norm_curve(
    k: int, tau_max: float = 1.0, n_tau: int = 256, m: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Induced infinity norm of ``exp(tau L_k / m^2)`` on a tau grid.

    Grid spacing is normalised out, so the curve is independent of ``m`` once
    ``m`` is large enough that the kernel decays inside the period.  Uses the
    exact spectral form of the circulant: one inverse FFT per grid point.
    """
    if n_tau < 200:
        raise ValidationError(f"tau grid too coarse: n_tau={n_tau} < 200")
    if tau_max <= 0:
        raise ValidationError("tau_max must be positive")
    eigs = laplacian_eigenvalues_periodic(k, m) / float(m * m)  # of the unscaled L_k / m^2
    taus = np.linspace(0.0, tau_max, n_tau)
    factors = np.exp(np.outer(taus, eigs))
    rows = np.fft.ifft(factors, axis=1)
    if not np.all(np.isfinite(rows)):
        raise NumericFailure("matrix exponential evaluation produced non-finite entries")
    norms = np.abs(rows).sum(axis=1)
    return taus, norms


def g_kappa(k: int, tau_max: float = 1.0, n_tau: int = 256, m: int = 64) -> float:
    """Peak over time of the infinity norm of the diffusion semigroup.

    Equals 1 exactly at first order (the semigroup is then row-stochastic) and
    exceeds 1 slightly for higher orders.  The maximum is taken over the tau
    grid only; the grid must extend past the observed peak.
    """
    _, norms = semigroup_inf_norm_curve(k, tau_max=tau_max, n_tau=n_tau, m=m)
    return float(norms.max())


# ---------------------------------------------------------------------------
# Dirichlet convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    order: int
    points: int
    err_max: float
    err_2: float


def convergence_study(k_list: list[int], m_list: list[int]) -> list[ConvergenceRow]:
    """Solve ``u'' = exp(x)`` on [0,1] with u(0)=0, u(1)=1 and tabulate errors.

    The exact solution is ``u(x) = exp(x) + (2 - e) x - 1``.  Boundary values
    enter the right-hand side through the one-sided boundary weights.
    """
    rows = []
    for k in k_list:
        for m in m_list:
            interior, boundary = _dirichlet_axis_matrices(_grid_stencil(k, m), m)
            x = np.arange(1, m) / m
            rhs = np.exp(x) - boundary @ np.array([0.0, 1.0])
            try:
                u_num = spla.spsolve(sp.csc_matrix(interior), rhs)
            except Exception as exc:  # singular factorisation
                raise NumericFailure(f"Dirichlet solve failed for k={k}, m={m}: {exc}") from exc
            if not np.all(np.isfinite(u_num)):
                raise NumericFailure(f"Dirichlet solve produced non-finite values for k={k}, m={m}")
            u_exact = np.exp(x) + (2.0 - np.e) * x - 1.0
            diff = u_num - u_exact
            rows.append(
                ConvergenceRow(
                    order=k,
                    points=m,
                    err_max=float(np.abs(diff).max()),
                    err_2=float(np.linalg.norm(diff)),
                )
            )
    return rows
