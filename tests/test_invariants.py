"""Properties of the problem's scalar invariants under hypothesis.

``R`` must not change under the rescaling ``u -> u / gamma``, and the order
selector's result, plugged back in, must meet the target error it was asked
for.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from carlemanlab.bounds import required_carleman_order
from carlemanlab.nonlinear_ode import NonlinearODE, lambda0, r_ratio

from conftest import rescaled_ode

SETTINGS = settings(deadline=None)

unit_interval = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def dissipative_problems(draw):
    """Dense F1 with lambda0 < 0 and a generic (not one-sparse) FM."""
    n = draw(st.sampled_from([1, 2, 3, 4]))
    M = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n))
    F1 = G - (lambda0(G) + rng.uniform(0.2, 1.0)) * np.eye(n)
    FM = rng.standard_normal((n, n**M))
    FM[0] = rng.standard_normal(n**M)  # a full row: no one-sparse shortcut
    u_in = rng.standard_normal(n)
    return NonlinearODE(n=n, M=M, F1=F1, FM=sp.csr_matrix(FM), u_in=u_in)


@SETTINGS
@given(dissipative_problems(), st.floats(1e-3, 1e3))
def test_r_is_invariant_under_rescaling(ode, gamma):
    # |FM| gamma^(M-1) * (|u_in| / gamma)^(M-1) = |FM| |u_in|^(M-1); the two
    # sides differ only by the rounding of the scaled entries and norms
    assert math.isclose(r_ratio(rescaled_ode(ode, gamma)), r_ratio(ode), rel_tol=1e-12)


@SETTINGS
@given(unit_interval, st.sampled_from([2, 3, 4]), unit_interval)
def test_required_order_meets_eps_when_plugged_back(R, M, eps):
    """``R^ceil(N/(M-1)) <= eps``, up to the selector's snap of the ratio.

    The selector takes ``ceil(log(eps)/log(R))`` after snapping the ratio to
    the nearest integer when it lies within 1e-9 of it.  So the exponent
    ``k = ceil(N/(M-1))`` satisfies ``k >= log(eps)/log(R) - 1e-9``, i.e.
    ``R^k <= eps * R^(-1e-9)``: the snap's slack is the factor
    ``R^(-1e-9) = exp(1e-9 log(1/R))`` and nothing more.  That factor exceeds
    1 by at least 1e-25 (``log(1/R) >= 1.1e-16`` for a float ``R < 1``), so
    the power is evaluated directly with 60 digits, whose rounding stays far
    below it.
    """
    N = required_carleman_order(R, M, eps)
    assert N >= M + 1
    k = -(-N // (M - 1))
    with localcontext() as ctx:
        ctx.prec = 60
        R_dec = Decimal(R)
        assert R_dec**k <= Decimal(eps) * R_dec ** Decimal("-1e-9")
