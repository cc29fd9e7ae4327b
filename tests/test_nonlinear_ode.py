"""Problem diagnostics, rescaling, Kronecker powers, and the reference oracle."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from carlemanlab import nonlinear_ode
from carlemanlab.bounds import make_bound_report, required_carleman_order
from carlemanlab.carleman import assemble
from carlemanlab.errors import NumericFailure, SizeLimitError, ValidationError
from carlemanlab.limits import DENSE_F1_MAX_N
from carlemanlab.nonlinear_ode import (
    NonlinearODE,
    dop853_samples,
    fm_spectral_norm,
    kron_power,
    lambda0,
    max_stable_gamma,
    operator_spectral_norm,
    r_ratio,
    reference_solve,
    rescale,
)
from carlemanlab.pde import discretize, ReactionDiffusionProblem

from conftest import make_two_dim_instance, raised_cosine, rescaled_ode

#: 101 uniform reference samples on [0, 1]
SAMPLES = np.linspace(0.0, 1.0, 101)


class TestLambda0:
    def test_diagonal(self):
        assert lambda0(np.diag([-1.0, -3.0])) == pytest.approx(-1.0)

    def test_skew_symmetric_part_vanishes(self):
        assert lambda0(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(0.0)

    def test_periodic_diffusion_plus_decay(self):
        # F1 = D L_1 + c I has symmetric-part top eigenvalue exactly c
        pde = ReactionDiffusionProblem(
            diffusion=0.3, c=-1.7, b=0.0, M=2, d=1, m=16, k=1,
            initial=lambda x: np.cos(2 * np.pi * x[:, 0]), T=1.0,
        )
        assert lambda0(discretize(pde).F1) == pytest.approx(-1.7, abs=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            lambda0(np.array([[np.nan]]))


class TestSparseSpectralScalars:
    """ARPACK above the dense-F1 limit against LAPACK on the dense copy."""

    @pytest.fixture(scope="class")
    def sparse_f1(self):
        pde = ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.1, M=2, d=2, m=24, k=2,
            initial=lambda x: 0.1 * np.prod(1.0 + np.cos(2 * np.pi * x), axis=1), T=1.0,
        )
        F1 = discretize(pde).F1
        assert sp.issparse(F1) and F1.shape == (576, 576)
        return F1

    def test_lambda0_matches_dense(self, sparse_f1):
        dense = sparse_f1.toarray()
        want = float(np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1])
        scale = np.linalg.norm(dense, 2)
        assert abs(lambda0(sparse_f1) - want) <= 1e-12 * scale

    def test_dense_input_takes_the_sparse_route(self, sparse_f1):
        # every input is read as CSR, so above the limit a dense one takes ARPACK too
        dense = sparse_f1.toarray()
        assert lambda0(dense) == lambda0(sparse_f1)
        assert operator_spectral_norm(dense) == operator_spectral_norm(sparse_f1)

    def test_spectral_norm_matches_dense(self, sparse_f1):
        want = np.linalg.norm(sparse_f1.toarray(), 2)
        assert operator_spectral_norm(sparse_f1) == pytest.approx(want, rel=1e-12)

    def test_zero_matrix_has_norm_zero(self, sparse_f1):
        # above the dense limit, where a nonzero matrix goes to ARPACK
        assert operator_spectral_norm(sp.csr_matrix(sparse_f1.shape)) == 0.0


class TestScalarsComputedOnce:
    def test_lambda0_evaluated_once_per_problem(self, monkeypatch):
        calls = []
        original = nonlinear_ode.lambda0

        def counting(F1):
            calls.append(1)
            return original(F1)

        monkeypatch.setattr(nonlinear_ode, "lambda0", counting)
        ode = make_two_dim_instance(2, 0.4)
        gamma = 0.9 * max_stable_gamma(ode)
        N = required_carleman_order(r_ratio(ode), ode.M, 0.01)
        make_bound_report(ode, 0.01, float(np.linalg.norm(ode.u_in)), N)
        assemble(rescale(ode, gamma), 4).gershgorin_max_eig_bound()
        assert len(calls) == 1


class TestDenseLinearAlgebraOnCsrF1:
    """Up to the dense-F1 limit the CSR F1 is densified, so every result is a dense F1's, bit for bit."""

    def test_demo_scalars_and_jacobian_equal_the_dense_computation(self, demo_pde):
        # a plain ODE from the demo grid's F1 and FM: the grid problem itself
        # takes its scalars from the stencil's spectrum (test_pde.TestGridSpectralScalars)
        grid = discretize(demo_pde)
        ode = NonlinearODE(n=grid.n, M=grid.M, F1=grid.F1, FM=grid.FM, u_in=grid.u_in, T=grid.T)
        dense = ode.F1.toarray()
        assert ode.lambda0 == float(np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1])
        assert ode.lambda0 == lambda0(dense)
        assert ode.f1_norm == float(np.linalg.norm(dense, 2))
        assert ode.f1_norm == operator_spectral_norm(dense)
        # the one-sparse b u_i^2 adds b u_i on the diagonal once per digit position
        u = ode.u_in
        want = dense.copy()
        for _ in range(2):
            want[np.diag_indices(ode.n)] += demo_pde.b * u
        assert np.array_equal(ode.jacobian(u), want)


class TestRRatio:
    def test_scalar_bernoulli(self, bernoulli_ode):
        assert r_ratio(bernoulli_ode) == pytest.approx(0.5)

    def test_zero_initial_state(self):
        ode = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[0.5]], u_in=[0.0])
        assert r_ratio(ode) == 0.0

    def test_one_sparse_norm_is_max_entry(self):
        pde = ReactionDiffusionProblem(
            diffusion=0.1, c=-2.0, b=-0.25, M=2, d=1, m=8, k=1,
            initial=lambda x: 0.1 + 0 * x[:, 0], T=1.0,
        )
        ode = discretize(pde)
        assert ode.fm_is_one_sparse
        assert fm_spectral_norm(ode) == pytest.approx(0.25)

    def test_general_norm_matches_dense_svd(self):
        ode = make_two_dim_instance(2, 0.4)
        assert not ode.fm_is_one_sparse
        dense = ode.FM.toarray()
        assert fm_spectral_norm(ode) == pytest.approx(np.linalg.norm(dense, 2), rel=1e-10)

    def test_not_dissipative_rejected(self):
        ode = NonlinearODE(n=1, M=2, F1=[[0.5]], FM=[[0.5]], u_in=[1.0])
        with pytest.raises(ValidationError, match="dissipative"):
            r_ratio(ode)


@pytest.mark.parametrize("M", [40, 10**8], ids=["M40", "M1e8"])
def test_fm_width_past_int64_refused_before_the_power_is_formed(M):
    # 3**40 > 2**63 is formed and compared; 3**(10**8) is refused by its
    # exponent, where forming it alone ran for over 10 s
    with pytest.raises(SizeLimitError, match=r"FM column index n\*\*M"):
        NonlinearODE(n=3, M=M, F1=-np.eye(3), FM=sp.csr_matrix((3, 1)), u_in=np.ones(3))


class TestRescale:
    def test_identity_at_gamma_one(self, bernoulli_ode):
        resc = rescale(bernoulli_ode, 1.0)
        np.testing.assert_allclose(resc.u_in_scaled, bernoulli_ode.u_in)

    def test_scalar_example_invariance(self, bernoulli_ode):
        scaled = rescaled_ode(bernoulli_ode, 2.0)
        np.testing.assert_allclose(scaled.FM.toarray(), [[1.0]])
        np.testing.assert_allclose(rescale(bernoulli_ode, 2.0).u_in_scaled, [0.5])
        assert r_ratio(scaled) == pytest.approx(0.5)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5, 7.0])
    def test_r_invariance_generic(self, gamma):
        ode = make_two_dim_instance(3, 0.45)
        assert r_ratio(rescaled_ode(ode, gamma)) == pytest.approx(r_ratio(ode), rel=1e-12)

    def test_trajectory_consistency(self, bernoulli_ode):
        # oracle route: integrate both systems, undo the scaling
        tol = 1e-10
        base = reference_solve(bernoulli_ode, T=1.0, tol=tol, t_eval=SAMPLES)
        scaled = reference_solve(rescaled_ode(bernoulli_ode, 2.0), T=1.0, tol=tol, t_eval=SAMPLES)
        assert np.abs(2.0 * scaled.u - base.u).max() <= 10 * tol

    def test_nonpositive_gamma_rejected(self, bernoulli_ode):
        with pytest.raises(ValidationError):
            rescale(bernoulli_ode, 0.0)


class TestMaxStableGamma:
    def test_scalar_value(self, bernoulli_ode):
        assert max_stable_gamma(bernoulli_ode) == pytest.approx(2.0)

    def test_boundary_r_equals_one(self):
        ode = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[1.0]], u_in=[1.0])
        assert max_stable_gamma(ode) == pytest.approx(np.linalg.norm(ode.u_in))

    def test_vanishing_nonlinearity_unbounded(self):
        ode = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=sp.csr_matrix((1, 1)), u_in=[1.0])
        assert max_stable_gamma(ode) == np.inf

    def test_equals_unorm_over_r_root(self):
        ode = make_two_dim_instance(3, 0.36)
        R = r_ratio(ode)
        unorm = np.linalg.norm(ode.u_in)
        assert max_stable_gamma(ode) == pytest.approx(unorm / R ** 0.5, rel=1e-10)


class TestReferenceSolve:
    def test_linear_decay(self):
        ode = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=sp.csr_matrix((1, 1)), u_in=[1.0])
        traj = reference_solve(ode, T=1.0, tol=1e-10, t_eval=SAMPLES)
        assert traj.u[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_bernoulli_closed_form(self, bernoulli_ode):
        # u' = -u + u^2/2, u(0)=1  =>  u(t) = 1/(1/2 + exp(t)/2)
        tol = 1e-10
        traj = reference_solve(bernoulli_ode, T=1.0, tol=tol, t_eval=SAMPLES)
        exact = 1.0 / (0.5 + 0.5 * np.exp(traj.t))
        assert np.abs(traj.u[:, 0] - exact).max() <= 10 * tol
        assert traj.u[-1, 0] == pytest.approx(2.0 / (1.0 + np.e), abs=1e-9)

    def test_norm_monotone_when_contractive(self):
        ode = make_two_dim_instance(2, 0.6)
        traj = reference_solve(ode, T=1.0, tol=1e-10, t_eval=SAMPLES)
        norms = np.linalg.norm(traj.u, axis=1)
        assert np.all(norms <= norms[0] + 1e-9)
        assert np.all(np.diff(norms) <= 1e-9)

    def test_samples_101_uniform_times(self, bernoulli_ode):
        traj = reference_solve(bernoulli_ode, T=1.0, tol=1e-10, t_eval=SAMPLES)
        assert traj.t.size == 101
        np.testing.assert_allclose(np.diff(traj.t), 0.01)

    @pytest.mark.parametrize("missing", ["tol", "t_eval"])
    def test_tolerance_and_sample_times_have_no_defaults(self, bernoulli_ode, missing):
        # the CLI's reference_tol is the one default tolerance
        kwargs = {"tol": 1e-10, "t_eval": SAMPLES}
        del kwargs[missing]
        with pytest.raises(TypeError, match=missing):
            reference_solve(bernoulli_ode, **kwargs)

    @pytest.mark.parametrize("n, method", [(1, "LSODA"), (DENSE_F1_MAX_N + 1, "DOP853")])
    def test_zero_horizon_is_the_initial_state(self, n, method):
        u_in = np.linspace(0.5, 1.0, n)
        ode = NonlinearODE(
            n=n, M=2, F1=-sp.identity(n, format="csr"), FM=sp.csr_matrix((n, n * n)), u_in=u_in,
        )
        traj = reference_solve(ode, T=0.0, tol=1e-10, t_eval=np.array([0.0]))
        np.testing.assert_array_equal(traj.t, [0.0])
        np.testing.assert_array_equal(traj.u, u_in[None, :])
        assert traj.method == method

    def test_tolerance_window(self, bernoulli_ode):
        with pytest.raises(ValidationError):
            reference_solve(bernoulli_ode, T=1.0, tol=1e-3, t_eval=SAMPLES)
        with pytest.raises(ValidationError):
            reference_solve(bernoulli_ode, T=1.0, tol=1e-14, t_eval=SAMPLES)


class TestReferenceMethod:
    """LSODA with the analytic Jacobian up to the dense-F1 limit, DOP853 above it."""

    @pytest.mark.parametrize("n", [1, DENSE_F1_MAX_N])
    @pytest.mark.parametrize("rate", [1.0, 3850.0])
    def test_lsoda_up_to_the_dense_f1_limit_stiff_or_not(self, n, rate):
        # u' = -rate u; sample at t = 1/rate, where u = 1/e
        F1 = sp.identity(n, format="csr") * -rate
        ode = NonlinearODE(n=n, M=2, F1=F1, FM=sp.csr_matrix((n, n**2)), u_in=np.ones(n))
        traj = reference_solve(ode, T=1.0, tol=1e-10, t_eval=np.array([0.0, 1.0 / rate]))
        assert traj.method == "LSODA"
        np.testing.assert_allclose(traj.u[-1], np.exp(-1.0), atol=1e-9)

    def test_no_dense_jacobian_above_dense_f1_limit(self):
        # stiff, but a dense Jacobian is not allowed here
        n = DENSE_F1_MAX_N + 1
        rate = 3850.0
        F1 = sp.identity(n, format="csr") * -rate
        ode = NonlinearODE(n=n, M=2, F1=F1, FM=sp.csr_matrix((n, n**2)), u_in=np.ones(n))
        traj = reference_solve(ode, T=1.0, tol=1e-10, t_eval=np.array([0.0, 1.0 / rate]))
        assert traj.method == "DOP853"
        np.testing.assert_allclose(traj.u[-1], np.exp(-1.0), atol=1e-9)
        with pytest.raises(ValidationError):
            ode.jacobian(ode.u_in)

    def test_tightest_tolerance_runs_without_warnings(self, bernoulli_ode):
        # LSODA gets tol / 10, clamped to scipy's rtol floor 100 eps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = reference_solve(bernoulli_ode, T=1.0, tol=1e-13, t_eval=SAMPLES)
        assert traj.method == "LSODA"
        assert traj.u[-1, 0] == pytest.approx(2.0 / (1.0 + np.e), abs=1e-12)

    def test_lsoda_matches_direct_dop853_on_refined_demo(self):
        pde = ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.5, M=2, d=1, m=64, k=2,
            initial=raised_cosine, T=1.0,
        )
        ode = discretize(pde)
        traj = reference_solve(ode, T=1.0, tol=1e-10, t_eval=np.array([0.0, 1.0]))
        assert traj.method == "LSODA"
        direct = solve_ivp(
            lambda _, u: ode.rhs(u), (0.0, 1.0), ode.u_in, method="DOP853",
            rtol=1e-10, atol=1e-10, t_eval=np.array([0.0, 1.0]),
        )
        assert np.abs(traj.u[-1] - direct.y[:, -1]).max() <= 1e-9


    def test_lsoda_within_ten_tol_of_tight_dop853_on_finest_refinement_grid(self):
        # the refinement study's finest reference: m = 128, k = 3
        pde = ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.5, M=2, d=1, m=128, k=3,
            initial=raised_cosine, T=1.0,
        )
        ode = discretize(pde)
        tol = 1e-10
        traj = reference_solve(ode, T=1.0, tol=tol, t_eval=np.array([0.0, 1.0]))
        assert traj.method == "LSODA"
        direct = solve_ivp(
            lambda _, u: ode.rhs(u), (0.0, 1.0), ode.u_in, method="DOP853",
            rtol=1e-13, atol=1e-13, t_eval=np.array([0.0, 1.0]),
        )
        assert np.abs(traj.u[-1] - direct.y[:, -1]).max() <= 10 * tol

    def test_dop853_within_ten_tol_at_every_sample_above_the_dense_f1_limit(self):
        # d = 2, m = 24 (n = 576) at amplitude 0.2: read through DOP853's dense
        # output, these samples were up to 1.1e-6 off
        pde = ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.5, M=2, d=2, m=24, k=2, T=1.0,
            initial=lambda x: 0.2 * np.prod(1.0 + np.cos(2.0 * np.pi * x), axis=1),
        )
        ode = discretize(pde)
        tol = 1e-10
        traj = reference_solve(ode, T=1.0, tol=tol, t_eval=SAMPLES)
        assert traj.method == "DOP853"
        assert traj.t.size >= 101
        # a much tighter DOP853 run to each sample, read at the end of its last step
        t_prev, u = 0.0, ode.u_in
        for t, got in zip(traj.t, traj.u):
            if t > t_prev:
                u = solve_ivp(
                    lambda _, v: ode.rhs(v), (t_prev, t), u, method="DOP853",
                    rtol=1e-13, atol=1e-13,
                ).y[:, -1]
                t_prev = t
            assert np.abs(got - u).max() <= 10 * tol

    @pytest.mark.parametrize("n", [1, DENSE_F1_MAX_N + 1])
    def test_sample_times_outside_the_horizon_are_refused(self, n):
        # both routes refuse times that are out of order, repeated, not finite or
        # outside [0, T]
        F1 = sp.identity(n, format="csr") * -1.0
        ode = NonlinearODE(n=n, M=2, F1=F1, FM=sp.csr_matrix((n, n**2)), u_in=np.ones(n))
        bad = ([0.0, 1.5], [-0.5, 1.0], [0.5, 0.25], [0.25, 0.25], [0.0, np.nan], [np.nan])
        for t_eval in bad:
            with pytest.raises(ValidationError):
                reference_solve(ode, T=1.0, tol=1e-10, t_eval=np.array(t_eval))


class TestDop853Samples:
    """The one DOP853 driver, on ``y' = -y`` against ``exp(-t)``."""

    @staticmethod
    def decay(y):
        return -y

    def test_matches_the_exact_solution_at_each_sample(self):
        t_eval = np.array([0.5, 1.0, 1.0, 2.0])
        u = dop853_samples(self.decay, np.array([1.0, 2.0]), t_eval, 1e-12, 1e-12)
        np.testing.assert_allclose(u, np.exp(-t_eval)[:, None] * [1.0, 2.0], rtol=1e-10)

    def test_a_repeated_sample_returns_the_same_state(self):
        u = dop853_samples(self.decay, np.array([1.0]), np.array([0.3, 0.3, 0.3]), 1e-10, 1e-10)
        assert u[0, 0] == u[1, 0] == u[2, 0]

    def test_a_first_sample_after_zero(self):
        u = dop853_samples(self.decay, np.array([1.0]), np.array([0.7]), 1e-12, 1e-12)
        assert u[0, 0] == pytest.approx(np.exp(-0.7), rel=1e-10)

    def test_a_sample_at_zero_is_the_initial_state(self):
        y0 = np.array([1.0, -3.0])
        u = dop853_samples(self.decay, y0, np.array([0.0]), 1e-10, 1e-10)
        np.testing.assert_array_equal(u, y0[None, :])

    def test_no_samples_give_an_empty_block(self):
        u = dop853_samples(self.decay, np.ones(3), np.array([]), 1e-10, 1e-10)
        assert u.shape == (0, 3)

    def test_a_failed_step_raises_numeric_failure(self):
        # y' = y**2 from 1 blows up at t = 1
        with pytest.raises(NumericFailure, match="DOP853"):
            dop853_samples(np.square, np.array([1.0]), np.array([0.5, 1.5]), 1e-10, 1e-10)


@st.composite
def jacobian_cases(draw):
    """(ODE, u, v) with dense or sparse F1 and a generic FM whose rows repeat."""
    n = draw(st.integers(1, 4))
    M = draw(st.sampled_from([2, 3]))
    sparse = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F1 = rng.standard_normal((n, n))
    if sparse:
        F1 = sp.csr_matrix(F1 * (rng.random((n, n)) < 0.6))
    width = n**M
    FM = rng.standard_normal((n, width)) * (rng.random((n, width)) < 0.5)
    FM[0] = rng.standard_normal(width)  # row 0 is full, so its row index repeats
    ode = NonlinearODE(n=n, M=M, F1=F1, FM=sp.csr_matrix(FM), u_in=rng.standard_normal(n))
    return ode, rng.standard_normal(n), rng.standard_normal(n)


@settings(deadline=None)
@given(jacobian_cases())
def test_jacobian_is_the_derivative_of_the_kronecker_power(case):
    # J v = F1 v + FM sum_p u^(x p) (x) v (x) u^(x (M-1-p))
    ode, u, v = case
    F1 = ode.F1.toarray()
    FM = ode.FM.toarray()
    kron = functools.partial(functools.reduce, np.kron)
    slots = [[u] * p + [v] + [u] * (ode.M - 1 - p) for p in range(ode.M)]
    want = F1 @ v + FM @ sum(kron(f) for f in slots)
    scale = np.abs(F1) @ np.abs(v) + np.abs(FM) @ sum(kron([np.abs(x) for x in f]) for f in slots)
    got = ode.jacobian(u) @ v
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(scale)


class TestKronPower:
    def test_square_layout(self):
        a, b = 2.0, 3.0
        np.testing.assert_allclose(kron_power(np.array([a, b]), 2), [a * a, a * b, b * a, b * b])

    def test_power_one_is_identity(self):
        u = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(kron_power(u, 1), u)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_norm_multiplicative(self, j):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(3)
        assert np.linalg.norm(kron_power(u, j)) == pytest.approx(
            np.linalg.norm(u) ** j, rel=1e-12
        )

    def test_cap(self):
        with pytest.raises(ValidationError):
            kron_power(np.ones(10), 8)  # 10**8 entries


class TestConstruction:
    def test_rhs_contract_matches_dense_kron(self):
        ode = make_two_dim_instance(3, 0.5)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(2)
        direct = ode.FM @ kron_power(u, 3)
        np.testing.assert_allclose(ode.fm_contract(u), direct, atol=1e-12)

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValidationError):
            NonlinearODE(n=1, M=1, F1=[[-1.0]], FM=[[0.5]], u_in=[1.0])
        with pytest.raises(ValidationError):
            NonlinearODE(n=0, M=2, F1=[[-1.0]], FM=[[0.5]], u_in=[1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            NonlinearODE(n=2, M=2, F1=np.eye(2) * -1, FM=[[0.5]], u_in=[1.0, 0.0])

    def test_sparse_f1_is_checked_without_a_dense_copy(self):
        n = 4000  # a dense copy of F1 would take 128 MB
        F1 = sp.diags([-2.0 * np.ones(n), np.ones(n - 1)], [0, 1], format="csr")
        FM = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n))), shape=(n, n**2))
        u_in = np.ones(n)
        tracemalloc.start()
        try:
            NonlinearODE(n=n, M=2, F1=F1, FM=FM, u_in=u_in)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n", [1, DENSE_F1_MAX_N, DENSE_F1_MAX_N + 1])
    @pytest.mark.parametrize("form", ["list", "ndarray", "sparse"])
    def test_f1_is_held_as_csr_for_every_input_and_size(self, n, form):
        want = -2.0 * np.eye(n) + np.eye(n, k=1)
        F1 = {"list": want.tolist(), "ndarray": want, "sparse": sp.coo_matrix(want)}[form]
        ode = NonlinearODE(n=n, M=2, F1=F1, FM=sp.csr_matrix((n, n**2)), u_in=np.ones(n))
        assert isinstance(ode.F1, sp.csr_matrix)
        assert ode.F1.has_canonical_format and ode.F1.nnz == 2 * n - 1
        np.testing.assert_array_equal(ode.F1.toarray(), want)

    def test_stored_zeros_of_a_sparse_f1_are_dropped_on_a_copy(self):
        # a stored zero off the diagonal: the caller's matrix keeps it, the problem does not
        F1 = sp.csr_matrix(([-1.0, 0.0, -2.0], [0, 1, 1], [0, 2, 3]), shape=(2, 2))
        ode = NonlinearODE(n=2, M=2, F1=F1, FM=sp.csr_matrix((2, 4)), u_in=[1.0, 0.0])
        assert F1.nnz == 3 and ode.F1.nnz == 2
        assert assemble(ode, 3).f1_is_diagonal

    def test_unaddressable_kronecker_width_is_a_size_refusal(self):
        # n**M = 2**66: refused before F1 or FM is read
        with pytest.raises(SizeLimitError):
            NonlinearODE(n=2**22, M=3, F1=None, FM=None, u_in=None)

    def test_non_finite_sparse_f1_rejected(self):
        F1 = sp.csr_matrix(np.array([[-1.0, np.nan], [0.0, -1.0]]))
        with pytest.raises(ValidationError, match="non-finite"):
            NonlinearODE(n=2, M=2, F1=F1, FM=sp.csr_matrix((2, 4)), u_in=[1.0, 0.0])

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValidationError, match="time horizon"):
            NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[0.5]], u_in=[1.0], T=T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_state_rejected(self, bad):
        with pytest.raises(ValidationError, match="u_in contains non-finite"):
            NonlinearODE(n=2, M=2, F1=-np.eye(2), FM=np.zeros((2, 4)), u_in=[1.0, bad])
