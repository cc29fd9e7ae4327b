"""Reaction-diffusion problems ``u_t = D Lap u + c u + b u^M`` on ``[0,1]^d``.

Discretisation maps the PDE onto a :class:`~carlemanlab.nonlinear_ode.NonlinearODE`
with a Kronecker-sum diffusion operator and a one-sparse nonlinearity that
selects the diagonal monomials ``u_i^M``.  :func:`fourier_form` rewrites that
ODE in the real orthonormal Fourier basis of the periodic grid, where F1 is
diagonal, so :func:`carlemanlab.propagator.evolve` can take each Taylor step
as one matvec; the CLI steps a PDE in that form whenever it fits the size
limits.  :func:`etdrk4_reference` integrates the grid problem itself, in
Fourier space, as every PDE run's reference.  The module also evaluates
every stability criterion the pipeline depends on, the semi-discrete spatial
error bound, and the grid size needed for a target accuracy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp

from .errors import NumericFailure, ValidationError
from .limits import KRON_MAX_SIZE, check_power, check_size
from .nonlinear_ode import (
    NonlinearODE,
    Trajectory,
    base_digits,
    check_reference_request,
    fm_width,
    max_stable_gamma,
    r_ratio,
)
from .stencil import build_laplacian_dd, laplacian_eigenvalues_periodic

InitialCondition = Union[Callable[[np.ndarray], np.ndarray], np.ndarray]

#: ``i**p`` for ``p = 0..3``, the phases of the waves in a real Fourier mode
_I_POWERS = np.array([1, 1j, -1, -1j])

#: mode tuples per block of the Fourier product enumeration
_PRODUCT_CHUNK = 1 << 18

#: the ETDRK4 coefficients' contour: the upper half of a unit circle, whose
#: mean's real part is the whole circle's for a real spectrum (Kassam and
#: Trefethen 2005, SIAM J. Sci. Comput. 26:1214)
_CONTOUR = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)

#: substeps of one ETDRK4 run, over all its intervals, at most
ETDRK4_MAX_STEPS = 1 << 16


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
        if not (0 <= self.T < math.inf):
            raise ValidationError(f"horizon must be finite and non-negative, got {self.T}")

    @property
    def n(self) -> int:
        return self.m**self.d

    def grid(self) -> np.ndarray:
        """Row-major grid coordinates, shape ``(n, d)``, spacing ``1/m``."""
        axes = [np.arange(self.m) / self.m] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([ax.reshape(-1) for ax in mesh], axis=1)

    def initial_grid(self) -> np.ndarray:
        table = self.initial(self.grid()) if callable(self.initial) else self.initial
        vals = np.asarray(table, dtype=float)
        if vals.size != self.n:
            raise ValidationError(f"initial condition has {vals.size} values, expected {self.n}")
        vals = vals.reshape(self.n)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("initial condition contains non-finite values")
        return vals

    def initial_max_norm(self) -> float:
        """Max-norm over grid samples (a discrete stand-in for the continuum sup)."""
        return float(np.abs(self.initial_grid()).max())


def max_norm_rate(pde: ReactionDiffusionProblem) -> float:
    """``|b| |u_in|_max^(M-1)``: the nonlinearity's growth rate in the max-norm.

    Every max-norm criterion reads it against ``|c|``: the continuum verdict
    of :func:`stability_report`, the spatial error bound's hypothesis and
    :func:`carlemanlab.bounds.maxnorm_error_bound`.
    """
    return abs(pde.b) * pde.initial_max_norm() ** (pde.M - 1)


# ---------------------------------------------------------------------------
# discretisation
# ---------------------------------------------------------------------------

def one_sparse_nonlinearity(n: int, M: int, b: float) -> sp.csr_matrix:
    """Selector of the diagonal monomials: entry ``b`` at column ``i (n^M-1)/(n-1)``."""
    width = fm_width(n, M)
    rows = np.arange(n, dtype=np.int64)
    if n == 1:
        cols = np.zeros(1, dtype=np.int64)
    else:
        stride = (width - 1) // (n - 1)
        cols = rows * stride
    data = np.full(n, float(b))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, width))


def discretize(pde: ReactionDiffusionProblem) -> NonlinearODE:
    """Sample the initial data and assemble ``F1 = D L_{k,d} + c I`` and ``FM``, both CSR.

    F1 stores at most ``2kd + 1`` entries per row, at every grid size; a
    grid whose operator would store more than ``KRON_MAX_SIZE`` entries,
    ``n (2kd + 1)``, is refused before anything is built or sampled, and so
    is an ``n**M`` no int64 index holds.  The spectral scalars are set by
    :func:`_periodic_ode`.
    """
    n = pde.n
    check_size(n * (2 * pde.k * pde.d + 1), KRON_MAX_SIZE, "grid operator entries")
    FM = one_sparse_nonlinearity(n, pde.M, pde.b)
    lap = build_laplacian_dd(pde.k, pde.d, pde.m)
    F1 = pde.diffusion * lap.sparse() + pde.c * sp.identity(n, format="csr")
    return _periodic_ode(pde, F1, FM, pde.initial_grid())


def _periodic_ode(
    pde: ReactionDiffusionProblem, F1: sp.spmatrix, FM: sp.spmatrix, u_in: np.ndarray
) -> NonlinearODE:
    """``pde``'s ODE with ``F1``, ``FM`` and ``u_in`` in one orthonormal basis of its grid.

    Any such basis keeps ``lambda0`` and ``|F1|``, set from :func:`periodic_spectrum`
    (so no grid reaches LAPACK or ARPACK for them), and ``|FM|``, set as ``|b|``.
    """
    ode = NonlinearODE(n=pde.n, M=pde.M, F1=F1, FM=FM, u_in=u_in, T=pde.T)
    spectrum = periodic_spectrum(pde)
    vars(ode).update(
        lambda0=float(spectrum.max()), f1_norm=float(np.abs(spectrum).max()),
        fm_norm=abs(float(pde.b)),
    )
    return ode


def periodic_spectrum(pde: ReactionDiffusionProblem) -> np.ndarray:
    """The ``n`` eigenvalues ``D sum_axes lambda(f_axis) + c`` of the grid's F1.

    F1 is a symmetric circulant in each axis, so its eigenvalues come in
    closed form (:func:`~carlemanlab.stencil.laplacian_eigenvalues_periodic`,
    whose zero mode is exactly 0): their maximum is ``lambda0``, exactly ``c``, and
    their largest modulus is ``|F1|``.  One per real Fourier mode, in the
    order of :func:`real_fourier_basis` along each axis, so they are also the
    diagonal of the Fourier form's F1.
    """
    m, d = pde.m, pde.d
    lam = laplacian_eigenvalues_periodic(pde.k, m)[(np.arange(m) + 1) // 2]
    spectrum = np.zeros((m,) * d)
    for axis in range(d):
        spectrum = spectrum + lam.reshape((m,) + (1,) * (d - 1 - axis))
    return pde.diffusion * spectrum.reshape(pde.n) + pde.c


# ---------------------------------------------------------------------------
# the real Fourier basis of the periodic grid
# ---------------------------------------------------------------------------

def real_fourier_basis(m: int) -> np.ndarray:
    """Orthonormal real Fourier modes of ``m`` periodic points, one per column.

    Column 0 is the constant; columns ``2f-1`` and ``2f`` are ``cos`` and
    ``sin`` of frequency ``f`` for ``0 < f < m/2``; for even ``m`` the last
    column is the alternating Nyquist mode.
    """
    x = np.arange(m) / m
    Q = np.empty((m, m))
    Q[:, 0] = 1.0 / math.sqrt(m)
    for f in range(1, (m + 1) // 2):
        Q[:, 2 * f - 1] = math.sqrt(2.0 / m) * np.cos(2.0 * np.pi * f * x)
        Q[:, 2 * f] = math.sqrt(2.0 / m) * np.sin(2.0 * np.pi * f * x)
    if m % 2 == 0:
        Q[:, m - 1] = (-1.0) ** np.arange(m) / math.sqrt(m)
    return Q


def _mode_products(m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero grid sums ``sum_x prod_p Q[x, r_p]`` over ``order`` columns of ``Q``.

    The frequency rule, exact in integers: each mode is one or two waves
    ``e^(2 pi i k x)`` with coefficients ``norm * i**phase`` (``cos`` has
    phases 0, 0 at ``k = f, m-f``; ``sin`` has 3, 1).  A product of waves
    sums to ``m`` over the grid when its wave numbers add up to 0 mod ``m``
    and to 0 otherwise, so the grid sum is ``m prod(norms)`` times the
    Gaussian integer ``sum i**phases`` over the surviving wave choices.  A
    tuple is kept when that integer is nonzero; nothing is thresholded.

    Tuples are taken in blocks of their first ``order - 1`` modes; for each
    choice of their waves, the last wave is the one that closes the sum.
    That work, one closing per wave choice, is checked against
    ``KRON_MAX_SIZE`` first.  Every wave choice of a tuple falls in its
    block, so a block's sums are final and only its nonzero ones are kept,
    counted against ``KRON_MAX_SIZE`` as they come.  Returns the tuples'
    row-major indices, ascending, and their sums.
    """
    # the constant mode and, at even m, the Nyquist mode have one wave each
    check_power(2 * m - (2 - m % 2), order - 1, KRON_MAX_SIZE, "Fourier product enumeration")
    freq = (np.arange(m) + 1) // 2  # of each column of the basis
    special = (freq == 0) | (2 * freq == m)
    norm = np.where(special, 1.0 / math.sqrt(m), 1.0 / math.sqrt(2.0 * m))
    # the waves of each mode (a special mode has only the first), sin modes at even columns
    sin = (np.arange(m) % 2 == 0) & ~special
    waves = np.stack([freq, (m - freq) % m])
    phases = np.stack([np.where(sin, 3, 0), np.where(sin, 1, 0)])
    # the one or two modes with a wave at each wave number, and that wave's phase
    k = np.arange(m)
    f = np.minimum(k, m - k)
    lone = (k == 0) | (2 * k == m)
    last_mode = np.stack([np.where(k == 0, 0, np.where(2 * k == m, m - 1, 2 * f - 1)), 2 * f])
    last_phase = np.stack([np.zeros(m, dtype=np.int64), np.where(k == f, 3, 1)])
    last_ok = np.stack([np.ones(m, dtype=bool), ~lone])
    heads = m ** (order - 1)
    per_block = max(1, _PRODUCT_CHUNK // m)
    keys, values, count = [], [], 0
    for first in range(0, heads, per_block):
        head = base_digits(np.arange(first, min(first + per_block, heads)), m, order - 1)
        sums = np.zeros((2, head.shape[0] * m))
        for choice in itertools.product((0, 1), repeat=order - 1):
            choice = np.array(choice)
            at = np.flatnonzero(np.all(choice < 2 - special[head], axis=1))
            picked = choice[None, :], head[at]
            need = (-waves[picked].sum(axis=1)) % m
            phase = phases[picked].sum(axis=1)
            for wave in range(2):
                ok = last_ok[wave, need]
                key = at[ok] * m + last_mode[wave, need[ok]]
                power = (phase[ok] + last_phase[wave, need[ok]]) % 4
                sums[0] += np.bincount(key, _I_POWERS.real[power], minlength=sums.shape[1])
                sums[1] += np.bincount(key, _I_POWERS.imag[power], minlength=sums.shape[1])
        if np.any(sums[1] != 0):
            raise NumericFailure("a product of real Fourier modes summed to a non-real value")
        kept = np.flatnonzero(sums[0])
        count += kept.size
        check_size(count, KRON_MAX_SIZE, "Fourier nonlinearity entries")
        digits = base_digits(first * m + kept, m, order)
        value = m * sums[0, kept]
        for pos in range(order):
            value = value * norm[digits[:, pos]]
        keys.append(first * m + kept)
        values.append(value)
    return np.concatenate(keys), np.concatenate(values)


def _along_axes(op: np.ndarray, values: np.ndarray, d: int) -> np.ndarray:
    """Apply the ``m x m`` matrix ``op`` along each of the ``d`` grid axes of ``values``.

    ``values`` holds row-major grid (or mode) vectors of length ``m**d`` in
    its last axis.
    """
    lead = values.ndim - 1
    out = values.reshape(values.shape[:-1] + (op.shape[0],) * d)
    for axis in range(lead, lead + d):
        out = np.moveaxis(np.tensordot(out, op, axes=([axis], [1])), -1, axis)
    return out.reshape(values.shape)


@dataclass(frozen=True)
class FourierForm:
    """A periodic problem in the real orthonormal Fourier basis of its grid.

    With ``Q`` the ``d``-fold Kronecker power of ``axis_basis``
    (:func:`real_fourier_basis`), ``ode`` is the grid ODE for ``v = Q^T u``:
    ``F1 = Q^T F1 Q`` is diagonal and ``FM = Q^T FM Q^(x M)`` couples modes
    whose frequencies add up.  ``dropped_mass`` is the 2-norm of the
    coefficients of ``Q^T u_in`` that :func:`fourier_form` set to zero as
    rounding.
    """

    ode: NonlinearODE
    axis_basis: np.ndarray
    d: int
    dropped_mass: float = 0.0

    def to_grid(self, v: np.ndarray) -> np.ndarray:
        """Grid values ``Q v`` of mode coefficients (the last axis of ``v``)."""
        return _along_axes(self.axis_basis, np.asarray(v, dtype=float), self.d)


def fourier_form(pde: ReactionDiffusionProblem) -> FourierForm:
    """Rewrite the discretised problem in the real Fourier basis of its periodic grid.

    Every periodic circulant is diagonal in that basis, so F1 becomes
    ``D sum_axes lambda(f_axis) + c``, the closed-form spectrum of
    :func:`periodic_spectrum`.  The
    pointwise ``b u^M`` becomes ``b`` times the per-axis products of
    :func:`_mode_products`, and ``u_in`` becomes ``Q^T u_in``, whose
    coefficients within the transform's own rounding bound
    ``d m eps |u_in|_2`` are set to zero (their 2-norm is ``dropped_mass``),
    so that band-limited data keeps its support.  ``lambda0``, ``|F1|`` and
    ``|FM|`` are set as :func:`discretize` sets them (:func:`_periodic_ode`),
    so every scalar derived from them (gamma, N, the Gershgorin bound, the
    step rule) is bit for bit the grid's.  A problem whose enumeration or
    nonlinearity is over ``KRON_MAX_SIZE`` is refused before anything of
    length ``n`` is allocated.
    """
    m, d, M = pde.m, pde.d, pde.M
    n = pde.n
    keys, values = _mode_products(m, M + 1)
    check_size(values.size**d, KRON_MAX_SIZE, "Fourier nonlinearity entries")
    # a mode of the d-dimensional grid is a product of one mode per axis, so
    # a grid sum of M + 1 modes is the product of the per-axis sums: its row
    # and its M column digits gather one base-m digit per axis
    width = m**M
    spread = np.zeros(keys.size, dtype=np.int64)  # the column digits, each to base n
    for pos in range(M):
        spread = spread * n + keys // m ** (M - 1 - pos) % m
    rows = np.zeros(1, dtype=np.int64)
    col = np.zeros(1, dtype=np.int64)
    vals = np.full(1, float(pde.b))
    for _ in range(d):
        rows = (rows[:, None] * m + (keys // width)[None, :]).reshape(-1)
        col = (col[:, None] * m + spread[None, :]).reshape(-1)
        vals = (vals[:, None] * values[None, :]).reshape(-1)
    FM = sp.csr_matrix((vals, (rows, col)), shape=(n, n**M))
    Q = real_fourier_basis(m)
    grid_u = pde.initial_grid()
    u_in = _along_axes(Q.T, grid_u, d)
    # each axis transform is a dot with a unit column of Q, which rounds by at
    # most m eps |u_in|_2 to first order: a coefficient within d times that is zero
    rounding = np.abs(u_in) <= d * m * np.finfo(float).eps * np.linalg.norm(grid_u)
    dropped = float(np.linalg.norm(u_in[rounding]))
    u_in[rounding] = 0.0
    modal = _periodic_ode(pde, sp.diags(periodic_spectrum(pde), format="csr"), FM, u_in)
    return FourierForm(ode=modal, axis_basis=Q, d=d, dropped_mass=dropped)


# ---------------------------------------------------------------------------
# the exponential reference
# ---------------------------------------------------------------------------

def _etdrk4_coefficients(h: float, spectrum: np.ndarray) -> tuple[np.ndarray, ...]:
    """``e^(hL)``, ``e^(hL/2)`` and the weights ``Q, f1, f2, f3`` of one ETDRK4 step of
    ``h`` for the diagonal ``L = spectrum`` (Cox and Matthews 2002).

    Each weight's closed form cancels catastrophically near ``hL = 0``, so it
    is taken as its mean over :data:`_CONTOUR` around ``hL``, once per
    distinct eigenvalue.
    """
    values, where = np.unique(spectrum, return_inverse=True)
    z = h * values[:, None] + _CONTOUR
    ez = np.exp(z)
    weights = [
        (np.exp(z / 2) - 1) / z,
        (-4 - z + ez * (4 - 3 * z + z**2)) / z**3,
        (2 + z + ez * (z - 2)) / z**3,
        (-4 - 3 * z - z**2 + ez * (4 - z)) / z**3,
    ]
    exact = [np.exp(h * values), np.exp(h * values / 2)]
    out = exact + [h * w.mean(axis=1).real for w in weights]
    return tuple(c[where.reshape(-1)].reshape(spectrum.shape) for c in out)


def _etdrk4_samples(
    pde: ReactionDiffusionProblem, counts: np.ndarray, lengths: np.ndarray, cache: dict
) -> np.ndarray | None:
    """One ETDRK4 run's grid states, a row per sample, or ``None`` once a state leaves
    the float range.

    The ``i``-th sample lies ``lengths[i]`` after the one before it (after 0
    for the first), reached in ``counts[i]`` equal substeps, so it is landed
    on, not interpolated; a sample with no substeps repeats the state before
    it.  ``cache`` keeps the coefficients per step size, across runs.
    """
    m, d = pde.m, pde.d
    shape, axes = (m,) * d, tuple(range(d))
    freq = np.arange(m)
    lam = laplacian_eigenvalues_periodic(pde.k, m)[np.minimum(freq, m - freq)]
    # the rfftn layout: every frequency on the first d - 1 axes, 0..m/2 on the last
    total = lam[: m // 2 + 1]
    for _ in range(d - 1):
        total = lam.reshape((m,) + (1,) * total.ndim) + total
    spectrum = pde.diffusion * total + pde.c

    def nonlinear(v: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(pde.b * np.fft.irfftn(v, s=shape, axes=axes) ** pde.M, axes=axes)

    state = pde.initial_grid()
    v = np.fft.rfftn(state.reshape(shape), axes=axes)
    out = np.empty((lengths.size, pde.n))
    for i, (count, length) in enumerate(zip(counts, lengths)):
        if count:
            h = length / count
            if h not in cache:
                cache[h] = _etdrk4_coefficients(h, spectrum)
            E, E2, Q, f1, f2, f3 = cache[h]
            for _ in range(count):
                Nv, half = nonlinear(v), E2 * v
                a = half + Q * Nv
                Na = nonlinear(a)
                b = half + Q * Na
                Nb = nonlinear(b)
                c = E2 * a + Q * (2 * Nb - Nv)
                v = E * v + f1 * Nv + 2 * f2 * (Na + Nb) + f3 * nonlinear(c)
            state = np.fft.irfftn(v, s=shape, axes=axes).reshape(-1)
            if not np.all(np.isfinite(state)):
                return None
        out[i] = state
    return out


def etdrk4_reference(
    pde: ReactionDiffusionProblem, *, tol: float, t_eval: np.ndarray
) -> Trajectory:
    """The grid problem's trajectory at ``t_eval`` from ETDRK4 in Fourier space.

    This is :func:`discretize`'s ODE ``u' = F1 u + b u^M``, integrated by
    the fourth-order exponential time differencing scheme of Cox and
    Matthews (2002, J. Comput. Phys. 176:430).  F1 is diagonal in the grid's
    Fourier modes, with the closed-form eigenvalues of
    :func:`periodic_spectrum`, so it is stepped exactly; ``b u^M`` is taken
    pointwise on the grid between numpy's real FFTs, so nothing is shared
    with the Carleman route's FM, and a step costs O(n log n).

    Each interval between samples is cut into about ``s`` times its length
    over the longest one's equal substeps, at least one
    (:func:`_etdrk4_samples`), for ``s = 1, 2, 4, ...`` until two runs in a
    row agree within ``tol`` in mixed absolute/relative form: in the
    max-norm over every sample, within ``tol max(1, |u|_max)``.  The finer
    run is returned, with that difference as its ``difference``, an estimate
    and not a bound.  ``tol`` and ``t_eval`` are checked as
    :func:`~carlemanlab.nonlinear_ode.reference_solve` checks them.  Two
    runs in a row that leave the float range (a solution that blows up), or
    no agreement by ``ETDRK4_MAX_STEPS`` substeps in a run (or two per
    interval, when there are more intervals), end in :class:`NumericFailure`.
    """
    t_eval = check_reference_request(tol, t_eval, pde.T)
    lengths = np.diff(t_eval, prepend=0.0)
    if not np.any(lengths > 0):
        u = np.tile(pde.initial_grid(), (t_eval.size, 1))
        return Trajectory(t=t_eval.copy(), u=u, method="ETDRK4", difference=0.0)
    share = lengths / lengths.max()
    # the first two runs take at least one and two substeps per interval
    limit = max(ETDRK4_MAX_STEPS, 2 * np.count_nonzero(lengths))
    cache: dict = {}
    steps, finer = 1, None
    # a solution that blows up overflows: the runs refuse it, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            counts = np.where(lengths > 0, np.maximum(1, np.rint(steps * share)), 0).astype(int)
            if counts.sum() > limit:
                raise NumericFailure(f"ETDRK4 runs did not agree within {tol} by {limit} substeps")
            coarser, finer = finer, _etdrk4_samples(pde, counts, lengths, cache)
            if steps > 1 and coarser is None and finer is None:
                raise NumericFailure("ETDRK4 left the float range at two step sizes")
            if coarser is not None and finer is not None:
                difference = float(np.abs(finer - coarser).max())
                if difference <= tol * max(1.0, float(np.abs(finer).max())):
                    return Trajectory(
                        t=t_eval.copy(), u=finer, method="ETDRK4", difference=difference
                    )
            steps *= 2


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Four verdicts with their numeric margins.

    * ``pde_max_norm``: max-norm criterion of the continuum problem,
      ``|b| |u_in|_max^(M-1) / |c| < 1``.
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


def stability_report(pde: ReactionDiffusionProblem, ode: NonlinearODE) -> StabilityReport:
    """All stability criteria for ``pde`` and ``ode``, the grid problem that discretises it."""
    R = r_ratio(ode)  # refuses lambda0 = c >= 0, so |c| > 0 below
    rate = max_norm_rate(pde)
    u_two = float(np.linalg.norm(ode.u_in))
    max_norm_lhs = rate / abs(pde.c)
    disc_lhs = abs(pde.c)
    disc_rhs = pde.M * rate
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

def _decay_margin(pde: ReactionDiffusionProblem, derivative_bound: float) -> float:
    """``|c| - M |b| |u_in|_max^(M-1)``; the bound requires it > 0 and a finite bound >= 0."""
    if not np.isfinite(derivative_bound) or derivative_bound < 0:
        raise ValidationError(
            f"derivative bound must be finite and non-negative, got {derivative_bound}"
        )
    margin = abs(pde.c) - pde.M * max_norm_rate(pde)
    if pde.c >= 0 or margin <= 0:
        raise ValidationError(
            "spatial error bound requires c < 0 and |c| > M |b| |u_in|_max^(M-1)"
        )
    return margin


def discretisation_error_bound(
    pde: ReactionDiffusionProblem,
    derivative_bound: float,
    t: float | np.ndarray,
) -> float | np.ndarray:
    """Semi-discrete 2-norm error bound, evaluated with unit constant.

    ``C sqrt(n) (e/2)^(2k) n^(-(2k-1)/d) (1 - exp(-Z t)) / Z`` with
    ``Z = |c| - M |b| |u_in|_max^(M-1)``; monotone non-decreasing in ``t``.
    ``C`` is ``derivative_bound``, the summed supremum of the solution's
    (2k+1)-st directional derivatives (:func:`estimate_derivative_bound`).
    """
    margin = _decay_margin(pde, derivative_bound)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("time must be non-negative")
    n = pde.n
    prefactor = (
        derivative_bound
        * math.sqrt(n)
        * (math.e / 2.0) ** (2 * pde.k)
        * n ** (-(2 * pde.k - 1) / pde.d)
    )
    vals = prefactor * (1.0 - np.exp(-margin * t)) / margin
    return vals if vals.ndim else float(vals)


def required_grid_points(
    pde: ReactionDiffusionProblem,
    derivative_bound: float,
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
    margin = _decay_margin(pde, derivative_bound)
    k, d = pde.k, pde.d
    if 2 * (2 * k - 1) <= d:
        raise ValidationError(
            f"stencil order k={k} too low for dimension d={d}: "
            "the 2-norm error bound does not decrease with n"
        )
    base = derivative_bound * (math.e / 2.0) ** (2 * k) / (margin * eps)
    exponent = 2.0 * d / (2.0 * (2 * k - 1) - d)
    try:
        root = (base**exponent) ** (1.0 / d)
    except OverflowError:
        root = math.inf
    if not math.isfinite(root):
        raise ValidationError(f"target error {eps} needs more grid points than a float holds")
    m = max(math.ceil(root), 2 * k + 1)
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
