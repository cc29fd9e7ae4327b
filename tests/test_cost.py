"""Amplification factors, call-count estimates, prior-work evaluators."""

import math
import warnings
from dataclasses import asdict, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from carlemanlab import nonlinear_ode as node
from carlemanlab.bounds import required_carleman_order
from carlemanlab.cost import (
    CostEstimate,
    amplification_factor,
    ode_cost_estimate,
    pde_cost_estimate,
    pde_lambda_f1,
    prior_work_comparison,
)
from carlemanlab.errors import ValidationError
from carlemanlab.nonlinear_ode import NonlinearODE, max_stable_gamma, r_ratio
from carlemanlab.pde import ReactionDiffusionProblem, discretize


def cost_pde(**overrides) -> ReactionDiffusionProblem:
    params = dict(
        diffusion=1.0, c=-2.0, b=0.25, M=2, d=1, m=8, k=1,
        initial=lambda x: 0.3 + 0.1 * np.cos(2 * np.pi * x[:, 0]), T=1.0,
    )
    params.update(overrides)
    return ReactionDiffusionProblem(**params)


def prior_work_ode() -> NonlinearODE:
    """n = 16, M = 2, T = 1: diagonal F1 from -10 to -2 (lambda0 = -2, |F1| = 10), one FM entry 0.5."""
    FM = np.zeros((16, 16**2))
    FM[0, 0] = 0.5
    return NonlinearODE(n=16, M=2, F1=np.diag(np.linspace(-10.0, -2.0, 16)), FM=FM, u_in=np.ones(16))


def euler_polylog(ode, estimate, eps: float, diffusion: float, d: int, sparsity: int) -> float:
    """The Euler-based formula's poly-log, written out by hand."""
    x = abs(ode.lambda0) * diffusion * d * ode.M * ode.n ** (1.0 / d) * estimate.N * sparsity
    return max(1.0, math.log(x * ode.T / eps))


def required_order(ode, eps: float) -> int:
    """The order the closed-form selector gives for ``eps``."""
    return required_carleman_order(r_ratio(ode), ode.M, eps)


def bernoulli_estimate(ode, eps: float, **kwargs) -> CostEstimate:
    """The Bernoulli problem's estimate at gamma = 1 and the order required for ``eps``."""
    return ode_cost_estimate(ode, 1.0, required_order(ode, eps), eps, **kwargs)


class TestAmplificationFactor:
    def test_norm_scaling_gives_sqrt_order(self):
        u_in, u_T, N = 2.0, 0.8, 9
        got = amplification_factor(u_in, u_T, gamma=u_in, N=N, M=2)
        assert got == pytest.approx(math.sqrt(N) * u_in / u_T, rel=1e-12)

    def test_stability_limit_closed_form(self):
        u_in, u_T, R, M, N = 1.5, 0.9, 0.4, 2, 11
        gamma_max = u_in / R ** (1.0 / (M - 1))
        got = amplification_factor(u_in, u_T, gamma_max, N, M, R=R)
        want = u_in / (u_T * math.sqrt(1.0 - R ** (2.0 / (M - 1))))
        assert got == pytest.approx(want, rel=1e-12)

    def test_unscaled_exponential_blowup(self):
        # gamma = 1 with |u_in| = 2 keeps the full geometric pile-up
        got = amplification_factor(2.0, 1.0, gamma=1.0, N=10, M=2)
        want = math.sqrt((4.0**10 - 1) / 3.0) * 2.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_continuous_at_unit_ratio(self):
        N = 7
        left = amplification_factor(1.0 - 1e-9, 1.0, 1.0, N, 2)
        right = amplification_factor(1.0 + 1e-9, 1.0, 1.0, N, 2)
        target = math.sqrt(N)
        assert abs(left - target) <= 1e-7
        assert abs(right - target) <= 1e-7
        exact = amplification_factor(1.0, 1.0, 1.0, N, 2)
        assert abs(exact - target) <= 1e-8

    def test_large_ratio_is_finite_where_the_sum_overflows(self):
        # r = 37 at N = 150: the sum of r^(2l) leaves the float range, the
        # factor (1.70e235) does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = amplification_factor(37.0, 1.0, 1.0, 150, 2)
        with localcontext() as ctx:
            ctx.prec = 40
            r = Decimal(37)
            want = float(sum(r ** (2 * l) for l in range(150)).sqrt() * r)
        assert got == pytest.approx(want, rel=1e-12)

    def test_factor_past_the_float_range_is_infinite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert amplification_factor(10.0, 1.0, 1.0, 400, 2) == math.inf

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            amplification_factor(1.0, 0.0, 1.0, 3, 2)
        with pytest.raises(ValidationError):
            amplification_factor(1.0, 1.0, -1.0, 3, 2)


class TestOdeCostEstimate:
    def test_near_linear_in_time(self, bernoulli_ode):
        a = bernoulli_estimate(bernoulli_ode, 0.01, u_T_norm=0.5)
        b = bernoulli_estimate(replace(bernoulli_ode, T=2.0), 0.01, u_T_norm=0.5)
        ratio = b.calls_block_encoding / a.calls_block_encoding
        assert 2.0 <= ratio <= 2.6

    def test_accuracy_enters_through_logs(self, bernoulli_ode):
        a = bernoulli_estimate(bernoulli_ode, 1e-2, u_T_norm=0.5)
        b = bernoulli_estimate(bernoulli_ode, 1e-3, u_T_norm=0.5)
        c = bernoulli_estimate(bernoulli_ode, 1e-4, u_T_norm=0.5)
        first = b.calls_block_encoding / a.calls_block_encoding
        second = c.calls_block_encoding / b.calls_block_encoding
        assert first < 5.0 and second < 5.0
        assert second < first * 1.5  # polylog growth, nowhere near the 10x of 1/eps

    def test_monotone_in_time_and_accuracy(self, bernoulli_ode):
        base = bernoulli_estimate(bernoulli_ode, 1e-2, u_T_norm=0.5)
        longer = bernoulli_estimate(replace(bernoulli_ode, T=1.5), 1e-2, u_T_norm=0.5)
        tighter = bernoulli_estimate(bernoulli_ode, 1e-3, u_T_norm=0.5)
        for attr in ("calls_block_encoding", "calls_state_prep", "extra_gates"):
            assert getattr(longer, attr) >= getattr(base, attr)
            assert getattr(tighter, attr) >= getattr(base, attr)

    def test_deterministic_and_complete(self, bernoulli_ode):
        runs = [bernoulli_estimate(bernoulli_ode, 0.01, u_T_norm=0.5) for _ in range(2)]
        assert asdict(runs[0]) == asdict(runs[1])
        est = runs[0]
        assert est.N == 7
        for value in (est.calls_block_encoding, est.calls_state_prep, est.extra_gates):
            assert np.isfinite(value) and value > 0
        # how |u(T)| was measured is the CLI artifact's reference_method
        assert est.assumptions == ["leading-order: unit constants, natural logs clamped at 1"]

    def test_estimates_never_integrate(self, bernoulli_ode, monkeypatch):
        # the model prices the |u(T)| it is given: both integrator entry points refuse to run
        def refuse(*args, **kwargs):
            raise AssertionError("the cost model integrated the ODE")

        monkeypatch.setattr(node, "reference_solve", refuse)
        monkeypatch.setattr(node, "dop853_samples", refuse)
        est = bernoulli_estimate(bernoulli_ode, 0.01, u_T_norm=0.5)
        assert est.u_T_norm == 0.5
        pde = cost_pde()
        ode = discretize(pde)
        est = pde_cost_estimate(ode, pde, required_order(ode, 0.05), 0.05, u_T_norm=0.2)
        assert est.u_T_norm == 0.2 and est.gamma == max_stable_gamma(ode)

    def test_rejects_non_contractive(self):
        bad = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[2.0]], u_in=[1.0])
        with pytest.raises(ValidationError, match="cost model requires R < 1"):
            ode_cost_estimate(bad, 1.0, 5, 0.01, u_T_norm=0.5)


class TestPdeCostEstimate:
    def test_lambda_f1_hand_value(self):
        # k=1, D=1, d=1, c=-2, m=4: 2 + 16 (2 + 1) = 50
        pde = cost_pde(m=4)
        assert pde_lambda_f1(pde) == pytest.approx(50.0)

    def test_matches_ode_composition(self):
        pde = cost_pde()
        ode = discretize(pde)
        N = required_order(ode, 0.05)
        direct = pde_cost_estimate(ode, pde, N, 0.05, u_T_norm=0.2)
        composed = ode_cost_estimate(ode, max_stable_gamma(ode), N, 0.05, pde, u_T_norm=0.2)
        assert direct.calls_block_encoding == pytest.approx(
            composed.calls_block_encoding, rel=1e-12
        )
        assert direct.N == composed.N

    def test_sublinear_grid_dependence_in_3d(self):
        # lambda_f1 scales like m^2 = n^(2/3): doubling m in d=3 multiplies
        # the gridded part by 4 while n grows by 8
        a = pde_lambda_f1(cost_pde(d=3, m=4))
        b = pde_lambda_f1(cost_pde(d=3, m=8))
        assert (b - 2.0) / (a - 2.0) == pytest.approx(4.0)

    def test_lambda_budget_at_stability_limit(self):
        pde = cost_pde()
        ode = discretize(pde)
        est = pde_cost_estimate(ode, pde, required_order(ode, 0.05), 0.05, u_T_norm=0.2)
        assert est.lambda_carleman <= 2 * est.N * pde_lambda_f1(pde)


class TestPriorWork:
    def kwargs(self, u_in_norm=0.9, N=5, calls=1.0):
        # the prior-work rows read only N, the two norms and the call count of the estimate
        estimate = CostEstimate(
            R=0.5, N=N, gamma=1.0, lambda_carleman=1.0, amplification=1.0,
            calls_block_encoding=calls, calls_state_prep=1.0, extra_gates=1.0,
            u_in_norm=u_in_norm, u_T_norm=0.5,
        )
        return dict(estimate=estimate, ode=prior_work_ode(), eps=0.01)

    def find(self, rows, name):
        return next(r for r in rows if r.name == name)

    def test_unit_norm_makes_prior_order_infinite(self):
        rows = prior_work_comparison(**self.kwargs(u_in_norm=1.0))
        prior = self.find(rows, "taylor_carleman_prior")
        assert prior.calls == np.inf
        assert math.isinf(prior.detail["N_prior"])
        assert any("infinite" in f for f in prior.flags)

    def test_exponential_factor_surfaces(self):
        rows = prior_work_comparison(**self.kwargs(u_in_norm=2.0, N=5))
        euler = self.find(rows, "euler_carleman")
        assert euler.detail["exp_factor"] == pytest.approx(2.0**10)
        prior = self.find(rows, "taylor_carleman_prior")
        assert prior.calls == np.inf  # selector undefined above unit norm

    def test_small_data_regime_noted(self):
        rows = prior_work_comparison(**self.kwargs(u_in_norm=0.9))
        euler = self.find(rows, "euler_carleman")
        assert euler.detail["exp_factor"] <= 1.0
        assert any("benign" in f for f in euler.flags)

    def test_this_work_row_included(self):
        rows = prior_work_comparison(**self.kwargs(calls=123.0))
        assert self.find(rows, "this_work").calls == 123.0

    def test_rows_serialise(self):
        import json

        rows = prior_work_comparison(**self.kwargs())
        assert json.dumps([asdict(r) for r in rows])

    def test_ode_rows_take_the_default_grid_constants(self):
        # no PDE: diffusion 1, d = 1 and a three-point stencil
        kwargs = self.kwargs()
        euler = self.find(prior_work_comparison(**kwargs), "euler_carleman")
        want = euler_polylog(kwargs["ode"], kwargs["estimate"], 0.01, 1.0, 1, 3)
        assert euler.detail["polylog"] == pytest.approx(want, rel=1e-14)

    def test_pde_rows_read_the_grid_constants(self):
        # d = 2, k = 2, D = 0.5: the Euler-based poly-log takes d = 2 and sparsity 2k + 1 = 5
        pde = cost_pde(d=2, k=2, diffusion=0.5)
        ode = discretize(pde)
        estimate = pde_cost_estimate(ode, pde, required_order(ode, 0.05), 0.05, u_T_norm=0.2)
        rows = prior_work_comparison(estimate, ode, 0.05, pde)
        polylog = self.find(rows, "euler_carleman").detail["polylog"]
        assert polylog == pytest.approx(euler_polylog(ode, estimate, 0.05, 0.5, 2, 5), rel=1e-14)
        assert polylog != pytest.approx(euler_polylog(ode, estimate, 0.05, 1.0, 1, 3), rel=1e-6)
        # the Taylor-based row takes the block encoding's lam_f1, not |F1|
        prior = self.find(rows, "taylor_carleman_prior")
        n_prior, lam_f1 = prior.detail["N_prior"], pde_lambda_f1(pde)
        assert prior.calls == pytest.approx(
            estimate.u_in_norm / estimate.u_T_norm * lam_f1 * ode.T * n_prior**2
            * math.log(1 / 0.05) * max(1.0, math.log(ode.T * n_prior * lam_f1)),
            rel=1e-12,
        )

    def test_a_row_below_one_call_is_floored(self):
        # |u_in|^(2N) = 0.1^300 puts the Euler-based formula near 1e-282 calls
        rows = prior_work_comparison(**self.kwargs(u_in_norm=0.1, N=150, calls=1e-3))
        euler = self.find(rows, "euler_carleman")
        assert euler.calls == 1.0
        assert euler.detail["exp_factor"] == pytest.approx(1e-300)
        assert any(f.startswith("calls floored at 1 from") for f in euler.flags)
        assert self.find(rows, "this_work").calls == 1e-3  # the estimate's own count is not floored
        prior = self.find(rows, "taylor_carleman_prior")
        assert prior.calls > 1.0 and not any("floored" in f for f in prior.flags)
