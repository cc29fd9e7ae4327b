"""Closed-form norms of the periodic stencil operators that the tests check
against the operators themselves; no command or workload reads them."""

import numpy as np

from carlemanlab.errors import ValidationError
from carlemanlab.stencil import stencil_coefficients


def laplacian_norm_bound(k: int, m: int, d: int = 1) -> float:
    """Upper bound on the spectral norm of the d-dimensional Laplacian.

    Per axis the Gershgorin/coefficient bound is
    ``m^2 * min(|a_0| + 2 sum|a_j|, 4 pi^2 / 3)``; the Kronecker sum over d
    axes multiplies it by d.
    """
    a = stencil_coefficients(k).coefficients
    abs_sum = abs(a[0]) + 2 * sum(abs(x) for x in a[1:])  # exact, as Fractions
    per_axis = (m * m) * min(float(abs_sum), 4.0 * np.pi ** 2 / 3.0)
    return d * per_axis


def euler_step_inf_norm(k: int, tau: float) -> float:
    """Infinity norm of ``I + tau L_k / m^2``, independent of ``m``.

    The row is ``(1 + tau a_0, tau a_1, ..., tau a_k)`` with each off-centre
    weight appearing twice, so the norm is ``|1 + tau a_0| + 2 tau sum|a_j|``
    for ``tau >= 0``.
    """
    if tau < 0:
        raise ValidationError("tau must be non-negative")
    a = stencil_coefficients(k).as_floats()
    return abs(1.0 + tau * a[0]) + 2.0 * tau * np.abs(a[1:]).sum()
