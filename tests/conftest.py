"""Shared problem instances for the test suite."""

import numpy as np
import pytest
import scipy.sparse as sp

from carlemanlab.nonlinear_ode import NonlinearODE
from carlemanlab.pde import ReactionDiffusionProblem


@pytest.fixture
def bernoulli_ode() -> NonlinearODE:
    """Scalar logistic-type problem du/dt = -u + 0.5 u^2, u(0) = 1 (R = 0.5)."""
    return NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[0.5]], u_in=[1.0], T=1.0)


def make_two_dim_instance(M: int, R: float, skew: float = 0.1) -> NonlinearODE:
    """n=2 instance with lambda0 = -1, |u_in| = 1, and |FM| = R exactly.

    The nonlinearity is rank one and aligned with the initial direction, so
    the dynamics reduce to the scalar problem along that direction while the
    matrices exercise the generic (non one-sparse) code paths.
    """
    F1 = np.array([[-1.0, skew], [-skew, -1.0]])
    w = np.array([0.6, 0.8])
    wk = w.copy()
    for _ in range(M - 1):
        wk = np.kron(wk, w)
    FM = sp.csr_matrix(R * np.outer(w, wk))
    return NonlinearODE(n=2, M=M, F1=F1, FM=FM, u_in=w, T=1.0)


def rescaled_ode(ode: NonlinearODE, gamma: float) -> NonlinearODE:
    """The problem in the variable ``u / gamma``: ``(F1, gamma^(M-1) FM, u_in / gamma)``."""
    return NonlinearODE(
        n=ode.n, M=ode.M, F1=ode.F1, FM=ode.FM * gamma ** (ode.M - 1), u_in=ode.u_in / gamma,
        T=ode.T,
    )


def full_spectrum(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """``values`` plus 1 % seeded noise, rescaled to their 2-norm, so every Fourier mode is nonzero.

    Band-limited data reaches few coordinates of a Fourier-form lift
    (``CarlemanMatrix.reach``); this data keeps the 2-norm of ``values``, and
    with it gamma, R and the step count, while its reach is every coordinate.
    """
    rng = np.random.default_rng(seed)
    noisy = values + 0.01 * np.abs(values).max() * rng.standard_normal(values.shape)
    return noisy * (np.linalg.norm(values) / np.linalg.norm(noisy))


def raised_cosine(x: np.ndarray) -> np.ndarray:
    return 0.4 * (1.0 + np.cos(2.0 * np.pi * x[:, 0]))


@pytest.fixture
def demo_pde() -> ReactionDiffusionProblem:
    """The end-to-end demo: d=1, m=32, k=2, D=0.2, c=-2, b=0.5, M=2, T=1."""
    return ReactionDiffusionProblem(
        diffusion=0.2, c=-2.0, b=0.5, M=2, d=1, m=32, k=2,
        initial=raised_cosine, T=1.0,
    )
