"""Error-factor identities, oracle equivalence, bound formulas, order selection."""

import math
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from carlemanlab.bounds import (
    component_error_bound,
    f_closed,
    f_quadrature,
    global_error_bound,
    make_bound_report,
    maxnorm_error_bound,
    omega_index,
    omega_set,
    refined_carleman_order,
    required_carleman_order,
)
from carlemanlab.errors import NumericFailure, ValidationError
from carlemanlab.nonlinear_ode import NonlinearODE

from conftest import make_two_dim_instance

TAUS = np.array([0.1, 1.0, 5.0, 10.0])


class TestErrorFactorIdentities:
    @pytest.mark.parametrize("j", [1, 2, 5])
    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_single_level_base_case(self, j, M):
        got = np.asarray(f_closed(j, 1, M, TAUS))
        np.testing.assert_allclose(got, 1.0 - np.exp(-j * TAUS), atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_quadratic_first_level_power_form(self, k):
        got = np.asarray(f_closed(1, k, 2, TAUS))
        np.testing.assert_allclose(got, (1.0 - np.exp(-TAUS)) ** k, atol=1e-10)

    def test_frozen_value_k2_tau1(self):
        # (1 - exp(-1))**2, computed from the reduction above
        assert f_closed(1, 2, 2, 1.0) == pytest.approx(0.39957640089372803, abs=1e-12)

    def test_zero_time_and_saturation(self):
        assert f_closed(3, 4, 2, 0.0) <= 1e-12
        assert f_closed(3, 4, 2, 50.0) == pytest.approx(1.0, abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            f_closed(1, 1, 2, -0.5)
        with pytest.raises(ValidationError):
            f_closed(1, 1, 2, np.array([0.5, np.nan]))


class TestOraclePair:
    def test_closed_matches_quadrature_on_grid(self):
        worst = 0.0
        for j in range(1, 5):
            for k in range(1, 7):
                for M in (2, 3):
                    c = np.asarray(f_closed(j, k, M, TAUS))
                    q = np.asarray(f_quadrature(j, k, M, TAUS))
                    worst = max(worst, np.abs(c - q).max())
        assert worst <= 1e-8

    def test_quadrature_base_case_exact(self):
        got = f_quadrature(2, 1, 3, 0.7)
        assert got == pytest.approx(1.0 - np.exp(-1.4), abs=1e-14)

    def test_literal_nested_quadrature_cross_check(self):
        # third route: scipy.integrate.quad applied to the recurrence itself
        from scipy.integrate import quad

        def nested(j, k, M, tau):
            if k == 1:
                return 1.0 - np.exp(-j * tau)
            inner = lambda s: np.exp(-j * (tau - s)) * nested(j + M - 1, k - 1, M, s)
            val, _ = quad(inner, 0.0, tau, epsabs=1e-12, epsrel=1e-12, limit=200)
            return j * val

        for j, k, M, tau in [(1, 2, 2, 1.0), (2, 3, 2, 0.5), (1, 3, 3, 2.0)]:
            assert f_quadrature(j, k, M, tau) == pytest.approx(
                nested(j, k, M, tau), abs=1e-9
            )
            assert f_closed(j, k, M, tau) == pytest.approx(nested(j, k, M, tau), abs=1e-9)

    def test_monotone_decreasing_in_k(self):
        grid = np.linspace(0.0, 5.0, 50)
        for k in range(2, 7):
            hi = np.asarray(f_closed(2, k - 1, 2, grid))
            lo = np.asarray(f_closed(2, k, 2, grid))
            assert np.all(lo <= hi + 1e-12)

    def test_range_and_monotone_in_tau(self):
        grid = np.linspace(0.0, 8.0, 200)
        vals = np.asarray(f_closed(3, 4, 3, grid))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize(
        "tau, k, quad_rel",
        [
            pytest.param(tau, k, quad_rel, id=f"{tau}-{k}")
            for tau, k, quad_rel in [
                (1.0, 20, 1e-9), (1.0, 30, 1e-9), (2.0, 20, 1e-9), (2.0, 30, 1e-9),
                # small tau, where a float evaluation of the alternating sum
                # cancels: 72 % low at (0.5, 25), 480x high at (0.5, 30)
                (0.5, 25, 1e-8), (0.5, 30, 1e-8), (0.2, 15, 1e-8),
            ]
        ],
    )
    def test_deep_quadrature_matches_decimal_closed_form(self, tau, k, quad_rel):
        # at M = 2, j = 1 the closed form's coefficients are exact integers:
        # f = 1 - (k+j-1)!/((k-1)!(j-1)!) sum_l (-1)^l C(k-1, l) e^{-(l+j) tau}/(l+j)
        j = 1
        with localcontext() as ctx:
            ctx.prec = 80
            lead = math.factorial(k + j - 1) // (math.factorial(k - 1) * math.factorial(j - 1))
            total = sum(
                (-1) ** ell * math.comb(k - 1, ell)
                * (-(ell + j) * Decimal(tau)).exp() / (ell + j)
                for ell in range(k)
            )
            exact = float(1 - lead * total)
        assert f_quadrature(j, k, 2, tau) == pytest.approx(exact, rel=quad_rel)
        assert f_closed(j, k, 2, tau) == pytest.approx(exact, rel=1e-12)

    def test_closed_form_matches_exact_paper_sum(self):
        # the paper's alternating sum with exact rational coefficients, summed
        # in decimal at 30 digits beyond those its cancellation and the size
        # of f take.  No rate is below j, so f is at least the Erlang law at
        # rate j, f >= e^{-j tau} (j tau)^k / k!, and the precision is sized
        # from that floor rather than from f_closed
        worst = 0.0
        for j in (1, 2, 5):
            for k in (1, 2, 5, 13, 30, 60):
                for M in (2, 3, 4):
                    a = Fraction(j, M - 1)
                    lead = Fraction(M - 1) / math.factorial(k - 1)
                    for i in range(k):
                        lead *= a + i
                    coefs = [
                        lead * (-1) ** ell * math.comb(k - 1, ell) / (ell * (M - 1) + j)
                        for ell in range(k)
                    ]
                    sum_digits = len(str(math.ceil(sum(abs(c) for c in coefs))))
                    for tau in (1e-3, 0.02, 0.2, 0.5, 2.0, 13.3, 30.0):
                        log10_floor = (
                            k * math.log10(j * tau) - j * tau / math.log(10)
                            - math.lgamma(k + 1) / math.log(10)
                        )
                        with localcontext() as ctx:
                            ctx.prec = 30 + sum_digits + max(0, math.ceil(-log10_floor))
                            total = sum(
                                Decimal(c.numerator) / Decimal(c.denominator)
                                * (-(ell * (M - 1) + j) * Decimal(tau)).exp()
                                for ell, c in enumerate(coefs)
                            )
                            exact = float(1 - total)
                        worst = max(worst, abs(f_closed(j, k, M, tau) - exact) / exact)
        assert worst <= 1e-13

    def test_complement_branch_where_the_argument_rounds_to_one(self):
        # 1 - e^{-s} rounds to 1 here while (1-x)^a still moves f
        assert f_closed(1, 60, 4, 13.33521432163324) == pytest.approx(
            0.999992926072433, rel=1e-14
        )

    def test_closed_form_exact_where_the_sum_cancels(self):
        # deep alternating sums at tiny tau destroy a float evaluation of the sum
        j, k, M, tau = 1, 18, 2, 1e-3
        exact = (-np.expm1(-tau)) ** k
        assert f_closed(j, k, M, tau) == pytest.approx(exact, rel=1e-13)


class TestOmegaSets:
    def test_paper_edge_cases(self):
        assert omega_index(4, 2, 1) == 4
        assert omega_index(5, 3, 1) == 3  # ceil(5/2)

    @pytest.mark.parametrize("N,M", [(4, 2), (5, 2), (5, 3), (7, 3), (9, 4)])
    def test_sets_partition_levels(self, N, M):
        seen = []
        k_max = -(-N // (M - 1))
        for k in range(1, k_max + 1):
            seen.extend(j for j in omega_set(N, M, k) if 1 <= j <= N)
        assert sorted(seen) == list(range(1, N + 1))
        for j in range(1, N + 1):
            assert j in omega_set(N, M, omega_index(N, M, j))


class TestGlobalBound:
    def test_zero_time(self, bernoulli_ode):
        assert global_error_bound(bernoulli_ode, 4, 0.0) == 0.0

    def test_vanishing_nonlinearity(self):
        import scipy.sparse as sp

        ode = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=sp.csr_matrix((1, 1)), u_in=[1.0])
        assert global_error_bound(ode, 4, 1.0) == 0.0

    def test_hand_value(self, bernoulli_ode):
        # (M-1) |FM| |u_in| (1 - exp(-2)) / 0.5 with N=4, t=1
        got = global_error_bound(bernoulli_ode, 4, 1.0)
        assert got == pytest.approx(1.0 - np.exp(-2.0), rel=1e-12)

    def test_strong_nonlinearity_rejected(self):
        ode = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[2.0]], u_in=[1.0])
        with pytest.raises(ValidationError):
            global_error_bound(ode, 4, 1.0)

    def test_dominates_stacked_error_vector(self, bernoulli_ode):
        # oracle: near-exact evolve vs reference, all levels stacked
        from carlemanlab.carleman import assemble
        from carlemanlab.nonlinear_ode import kron_power, reference_solve, rescale
        from carlemanlab.propagator import PropagationConfig, evolve

        gamma = float(np.linalg.norm(bernoulli_ode.u_in))
        N = 4
        mat = assemble(rescale(bernoulli_ode, gamma), N)
        config = PropagationConfig(taylor_order=16, dt=1e-3)
        res = evolve(mat, config)
        ref = reference_solve(bernoulli_ode, T=1.0, tol=1e-10, t_eval=np.array([1.0]))
        u_T = ref.u[-1] / gamma
        lifted = np.concatenate([kron_power(u_T, j) for j in range(1, N + 1)])
        eta_norm = np.linalg.norm(lifted - res.basis.expand(res.y_final))
        assert eta_norm <= global_error_bound(bernoulli_ode, N, 1.0) + 1e-8


class TestComponentBound:
    def test_quadratic_first_level_exponent(self, bernoulli_ode):
        t = 1.0
        got = component_error_bound(bernoulli_ode, 4, 1, t)
        want = 0.5**4 * (1.0 - np.exp(-1.0)) ** 4
        assert got == pytest.approx(want, rel=1e-10)

    def test_zero_time_for_all_levels(self, bernoulli_ode):
        for j in range(1, 5):
            assert component_error_bound(bernoulli_ode, 4, j, 0.0) <= 1e-12

    def test_gamma_prefactor(self):
        ode = make_two_dim_instance(2, 0.4)
        base = component_error_bound(ode, 5, 2, 1.0, gamma=1.0)
        halved = component_error_bound(ode, 5, 2, 1.0, gamma=2.0)
        assert halved == pytest.approx(base / 4.0, rel=1e-12)

    def test_requires_contraction(self):
        ode = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[1.5]], u_in=[1.0])
        with pytest.raises(ValidationError, match="R < 1"):
            component_error_bound(ode, 4, 1, 1.0)

    def test_deep_order_bound_is_finite_and_in_range(self, bernoulli_ode):
        # N = 30 puts level 1 at k = 30, where the alternating sum cancels in floats
        N = 30
        vals = np.asarray(component_error_bound(bernoulli_ode, N, 1, np.linspace(0.0, 1.0, 101)))
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 0.5**N))

    def test_level_out_of_range(self, bernoulli_ode):
        with pytest.raises(ValidationError):
            component_error_bound(bernoulli_ode, 4, 5, 1.0)

    def test_underflow_is_floored_at_the_smallest_normal_float(self, bernoulli_ode):
        # R^k = 0.5^1200 is below the float range: 0.0 would claim no error at t > 0
        t = np.array([0.0, 0.01, 1.0])
        vals = component_error_bound(bernoulli_ode, 1200, 1, t)
        assert vals.tolist() == [0.0, sys.float_info.min, sys.float_info.min]
        # a prefactor |u_in| / gamma = 2 above 1 scales the floor with it
        assert component_error_bound(bernoulli_ode, 1200, 1, 1.0, gamma=0.5) == 2 * sys.float_info.min
        # R = 0 is an exact zero, not an underflow
        linear = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[0.0]], u_in=[1.0])
        assert component_error_bound(linear, 4, 1, 1.0) == 0.0


class TestOrderSelection:
    def test_headline_value(self):
        assert required_carleman_order(0.5, 2, 0.01) == 7

    def test_m3_offset(self):
        # ceil(log 100 / log 2) = 7 levels of exponent, stretched by M-1
        assert required_carleman_order(0.5, 3, 0.01) == 2 * 7 - 1

    def test_minimum_order_clamp(self):
        assert required_carleman_order(0.5, 2, 0.6) == 3  # formula gives 1
        assert required_carleman_order(0.5, 4, 0.6) == 5

    def test_rejects_non_contractive(self):
        with pytest.raises(ValidationError, match="dissipative"):
            required_carleman_order(1.0, 2, 0.01)
        with pytest.raises(ValidationError):
            required_carleman_order(1.3, 2, 0.01)

    @pytest.mark.parametrize("eps", [0.3, 0.1, 0.01, 1e-4])
    def test_refinement_never_exceeds_closed_form(self, eps):
        closed = required_carleman_order(0.5, 2, eps)
        refined = refined_carleman_order(0.5, 2, eps, -1.0, 1.0)
        assert refined <= closed
        assert refined > 2

    def test_refined_order_actually_meets_target(self):
        eps = 0.01
        N = refined_carleman_order(0.5, 2, eps, -1.0, 1.0)
        k = omega_index(N, 2, 1)
        assert 0.5**k * f_closed(1, k, 2, 1.0) <= eps


class TestMaxNormBound:
    def test_unit_peak_reduces_to_two_norm_shape(self, demo_pde):
        t = 1.0
        got = maxnorm_error_bound(demo_pde, 4, 1, t, 1.0)
        k = omega_index(4, demo_pde.M, 1)
        base = abs(demo_pde.b) / abs(demo_pde.c) * demo_pde.initial_max_norm()
        want = base**k * f_closed(1, k, 2, abs(demo_pde.c) * t)
        assert got == pytest.approx(want, rel=1e-10)
        # the bracket reads |b|, so the mirrored nonlinearity has the same bound
        assert maxnorm_error_bound(replace(demo_pde, b=-demo_pde.b), 4, 1, t, 1.0) == got

    def test_zero_time(self, demo_pde):
        assert maxnorm_error_bound(demo_pde, 4, 1, 0.0, 1.004) <= 1e-12

    def test_divergent_bracket_flags_infinity(self, demo_pde):
        big_g = (abs(demo_pde.c) / (abs(demo_pde.b) * demo_pde.initial_max_norm())) ** (
            1.0 / (demo_pde.d * demo_pde.M)
        ) * 1.01
        assert maxnorm_error_bound(demo_pde, 4, 1, 1.0, big_g) == np.inf

    def test_peak_below_one_rejected(self, demo_pde):
        with pytest.raises(ValidationError):
            maxnorm_error_bound(demo_pde, 4, 1, 1.0, 0.9)

    def test_underflow_is_floored_at_the_smallest_normal_float(self, demo_pde):
        # bracket 0.2 at k = 800 is below the float range: 0.0 would claim no error at t > 0
        t = np.array([0.0, 0.5, 1.0])
        vals = maxnorm_error_bound(demo_pde, 800, 1, t, 1.0)
        assert vals.tolist() == [0.0, sys.float_info.min, sys.float_info.min]
        # b = 0 is an exact zero, not an underflow
        assert maxnorm_error_bound(replace(demo_pde, b=0.0), 800, 1, 1.0, 1.0) == 0.0


class TestBoundReport:
    def test_report_fields(self, bernoulli_ode):
        # gamma = |u_in| and the order required for eps
        report = make_bound_report(bernoulli_ode, 0.01, 1.0, required_carleman_order(0.5, 2, 0.01))
        assert report.R == pytest.approx(0.5)
        assert report.required_N == 7
        assert report.refined_N <= 7
        assert report.N == 7
        assert set(report.eta_bounds) == set(range(1, 8))
        assert all(np.all(v >= 0) for v in report.eta_bounds.values())
        assert report.stability["contractive_nonlinearity"]

    def test_report_serialises(self, bernoulli_ode):
        import json

        N = required_carleman_order(0.5, 2, 0.1)
        payload = make_bound_report(bernoulli_ode, 0.1, 1.0, N).as_dict()
        assert json.dumps(payload)
