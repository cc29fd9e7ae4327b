"""Taylor stepping, trajectory evolution, success probabilities."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from carlemanlab.carleman import CarlemanVector, SymmetricBasis, assemble, initial_vector
from carlemanlab.errors import NumericFailure, ValidationError
from carlemanlab.limits import KRON_MAX_SIZE
from carlemanlab.nonlinear_ode import (
    NonlinearODE,
    kron_power,
    lambda0,
    reference_solve,
    rescale,
)
from carlemanlab.pde import ReactionDiffusionProblem, discretize
from carlemanlab.propagator import (
    PropagationConfig,
    evolve,
    success_probability,
    taylor_step,
    taylor_step_defect_bound,
)
from carlemanlab.bounds import component_error_bound

from conftest import make_two_dim_instance, raised_cosine


class TestTaylorStep:
    def test_zero_matrix_is_identity(self):
        y = np.array([1.0, -2.0, 3.0])
        out = taylor_step(lambda v: 0.0 * v, y, 0.5, 4)
        np.testing.assert_allclose(out, y)

    def test_scalar_decay_error_bound(self):
        y = np.array([1.0])
        out = taylor_step(lambda v: -v, y, 0.1, 4)
        assert abs(out[0] - math.exp(-0.1)) <= 0.1**5 / math.factorial(5)

    @pytest.mark.parametrize("K", [2, 4])
    def test_order_via_richardson(self, K):
        # halving dt shrinks the one-step defect by about 2**(K+1)
        A = np.array([[-1.0, 0.3], [0.1, -0.7]])
        y = np.array([0.8, -0.5])
        defects = []
        for dt in (0.4, 0.2):
            exact = scipy.linalg.expm(A * dt) @ y
            approx = taylor_step(lambda v: A @ v, y, dt, K)
            defects.append(np.linalg.norm(approx - exact))
        assert defects[0] / defects[1] == pytest.approx(2 ** (K + 1), rel=0.35)

    def test_invalid_order(self):
        with pytest.raises(ValidationError):
            taylor_step(lambda v: v, np.ones(2), 0.1, 0)

    def test_non_finite_detected(self):
        with pytest.raises(NumericFailure):
            taylor_step(lambda v: v * np.inf, np.ones(2), 0.1, 2)


class TestEvolve:
    def linear_diag_ode(self):
        return NonlinearODE(
            n=2, M=2, F1=np.diag([-1.0, -2.0]), FM=sp.csr_matrix((2, 4)),
            u_in=np.array([1.0, 0.5]), T=1.0,
        )

    @pytest.mark.parametrize("mode", ["structured", "assembled"])
    def test_linear_diagonal_decay(self, mode):
        ode = self.linear_diag_ode()
        mat = assemble(ode, 3)
        sparse_op = mat.to_sparse()
        apply_A = mat.apply if mode == "structured" else lambda v: sparse_op @ v
        y0 = initial_vector(ode.u_in, 1.0, 3)
        y, n_steps, dt = y0.flat, 50, 1.0 / 50
        for _ in range(n_steps):
            y = taylor_step(apply_A, y, dt, 10)
        want = ode.u_in * np.exp(np.array([-1.0, -2.0]))
        defect = n_steps * taylor_step_defect_bound(mat.spectral_norm_bound(), dt, 10, y0.norm())
        assert np.abs(y[:2] - want).max() <= defect + 1e-12

    def test_linear_matches_dense_exponential_bound(self):
        ode = self.linear_diag_ode()
        mat = assemble(ode, 3)
        config = PropagationConfig(total_time=1.0, taylor_order=4, n_steps=20)
        res = evolve(mat, config)
        exact = scipy.linalg.expm(mat.dense()) @ initial_vector(ode.u_in, 1.0, 3).flat
        defect = res.n_steps * taylor_step_defect_bound(
            mat.spectral_norm_bound(), res.dt, 4, res.y_norms.max()
        )
        y_final = SymmetricBasis(mat.n, mat.N).expand(res.y_final)
        assert np.linalg.norm(y_final - exact) <= defect

    def test_modes_agree(self):
        ode = make_two_dim_instance(2, 0.5)
        mat = assemble(rescale(ode, 1.0), 4)
        sparse_op = mat.to_sparse()
        a = b = initial_vector(ode.u_in, 1.0, 4).flat
        for _ in range(100):
            a = taylor_step(mat.apply, a, 0.005, 8)
            b = taylor_step(lambda v: sparse_op @ v, b, 0.005, 8)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "n, dense_f1, fits",
        [(4, False, True), (59, False, True), (110, False, True), (100, True, False),
         (144, None, False)],
        ids=["4", "59", "110", "100-dense", "d2-m12-k2"],
    )
    def test_operator_choice_follows_symmetric_limits(self, n, dense_f1, fits):
        # sorted multi-indices at N=3: 84 (n=4), 37 819 (n=59) and 234 135
        # (n=110, above ASSEMBLY_MAX_DIM, which caps only the full assembly)
        # are stepped on the symmetric operator; n=100 has 176 850, but a
        # fully dense F1 makes about 5e7 stored entries, over KRON_MAX_SIZE,
        # and so does the d=2, m=12, k=2 grid (n=144) with 12 733 464
        if dense_f1 is None:
            ode = discretize(ReactionDiffusionProblem(
                diffusion=0.2, c=-2.0, b=0.5, M=2, d=2, m=12, k=2, initial=raised_cosine, T=1.0,
            ))
        else:
            rates = np.linspace(1.0, 2.0, n)
            F1 = -np.diag(rates) + (1e-3 * np.ones((n, n)) if dense_f1 else 0.0)
            ode = NonlinearODE(
                n=n, M=2, F1=F1, FM=sp.csr_matrix((n, n**2)), u_in=np.full(n, 0.1), T=0.02,
            )
        mat = assemble(ode, 3)
        assert mat.n == n and (mat.symmetric_nnz() <= KRON_MAX_SIZE) == fits
        mat.apply = None  # the structured action must not be used
        config = PropagationConfig(total_time=0.02, taylor_order=6, n_steps=2)
        if not fits:
            tracemalloc.start()
            try:
                with pytest.raises(ValidationError, match="symmetric Carleman operator entries"):
                    evolve(mat, config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # rejected before the operator, the basis or the state is allocated
            assert peak < 2 * 2**20
            return
        res = evolve(mat, config)
        want = scipy.linalg.expm(0.02 * F1) @ ode.u_in
        defect = res.n_steps * taylor_step_defect_bound(
            mat.spectral_norm_bound(), res.dt, 6, res.y_norms[0]
        )
        assert np.abs(res.block1[-1] - want).max() <= defect + 1e-15

    def test_symmetric_steps_match_full_space_steps(self):
        ode = make_two_dim_instance(3, 0.5)
        gamma, N, K = 1.2, 5, 8
        mat = assemble(rescale(ode, gamma), N)
        res = evolve(mat, PropagationConfig(total_time=0.5, taylor_order=K, n_steps=40))
        full = mat.to_sparse()
        y = initial_vector(ode.u_in, gamma, N).flat
        norms = [np.linalg.norm(y)]
        for _ in range(res.n_steps):
            y = taylor_step(lambda v: full @ v, y, res.dt, K)
            norms.append(np.linalg.norm(y))
        y_final = SymmetricBasis(mat.n, mat.N).expand(res.y_final)
        assert np.linalg.norm(y_final - y) <= 1e-12 * np.linalg.norm(y)
        np.testing.assert_allclose(res.step_norms, norms, rtol=1e-12)

    def test_bernoulli_block1_within_bound_plus_defect(self, bernoulli_ode):
        gamma, N, K = 1.0, 8, 8
        mat = assemble(rescale(bernoulli_ode, gamma), N)
        config = PropagationConfig(total_time=1.0, taylor_order=K, dt=0.01, n_steps=100)
        res = evolve(mat, config)
        ref = reference_solve(bernoulli_ode, T=1.0, tol=1e-10, t_eval=res.times)
        eta = np.abs(res.block1[:, 0] - ref.u[:, 0] / gamma)
        bound = np.asarray(component_error_bound(bernoulli_ode, N, 1, res.times, gamma=gamma))
        defect = res.n_steps * taylor_step_defect_bound(
            mat.spectral_norm_bound(), res.dt, K, res.y_norms[0]
        )
        assert np.all(eta <= bound + 10 * defect + 1e-8)

    def test_norm_non_increasing_under_stability(self, bernoulli_ode):
        mat = assemble(rescale(bernoulli_ode, 1.0), 5)
        assert mat.gershgorin_max_eig_bound() <= 0
        res = evolve(mat, PropagationConfig(total_time=1.0, taylor_order=10, n_steps=200))
        assert np.all(np.diff(res.step_norms) <= 1e-10)

    def test_strict_stability_flag(self):
        # gamma above gamma_max makes the Gershgorin certificate fail
        ode = make_two_dim_instance(2, 0.5)
        mat = assemble(rescale(ode, 5.0), 4)
        with pytest.raises(ValidationError, match="stability"):
            evolve(mat, PropagationConfig(total_time=1.0))
        res = evolve(mat, PropagationConfig(total_time=0.1, n_steps=50, strict_stability=False))
        assert res.n_steps == 50

    def test_blowup_guard(self):
        ode = NonlinearODE(n=1, M=2, F1=[[3.0]], FM=sp.csr_matrix((1, 1)), u_in=[1.0])
        mat = assemble(ode, 3)
        # level 3 grows like e^(9t), past BLOWUP_FACTOR = 1e6 near t = 1.5
        config = PropagationConfig(total_time=10.0, n_steps=400, strict_stability=False)
        with pytest.raises(NumericFailure, match="blow-up"):
            evolve(mat, config)

    def test_step_rule_reproduces_horizon(self):
        config = PropagationConfig(total_time=1.0)
        dt, steps = config.resolve_steps(norm_bound=7.3)
        assert dt * steps == pytest.approx(1.0, rel=1e-15)
        assert dt <= 1.0 / 7.3 + 1e-15

    def test_inconsistent_dt_steps_rejected(self):
        config = PropagationConfig(total_time=1.0, dt=0.3, n_steps=2)
        with pytest.raises(ValidationError):
            config.resolve_steps(norm_bound=1.0)

    @pytest.mark.parametrize("T", [0.0, 1.0])
    @pytest.mark.parametrize(
        "knobs, match",
        [({"taylor_order": 0}, "Taylor order"), ({"record_every": 0}, "record_every"),
         ({"record_every": -2}, "record_every")],
        ids=["K0", "record0", "record-2"],
    )
    def test_bad_stepping_rejected_before_the_operator(self, monkeypatch, knobs, match, T):
        mat = assemble(self.linear_diag_ode(), 3)

        def refuse():
            raise AssertionError("the operator was built before the config was checked")

        monkeypatch.setattr(mat, "to_symmetric", refuse)
        with pytest.raises(ValidationError, match=match):
            evolve(mat, PropagationConfig(total_time=T, **knobs))


@st.composite
def linear_problems(draw):
    """FM = 0 with a dissipative F1 (dense or sparse), gamma, N, T and K."""
    n = draw(st.sampled_from([1, 2, 3]))
    M = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(M + 1, M + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n))
    if draw(st.booleans()):
        G = G * (rng.random((n, n)) < 0.6)
    F1 = G - (lambda0(G) + rng.uniform(0.05, 1.0)) * np.eye(n)
    if draw(st.booleans()):
        F1 = sp.csr_matrix(F1)
    ode = NonlinearODE(n=n, M=M, F1=F1, FM=sp.csr_matrix((n, n**M)), u_in=rng.standard_normal(n))
    gamma = draw(st.floats(0.1, 3.0))
    T = draw(st.floats(0.05, 2.0))
    K = draw(st.integers(4, 10))
    return ode, gamma, N, T, K


@settings(deadline=None)
@given(linear_problems())
def test_without_nonlinearity_every_level_is_a_kronecker_power(problem):
    """``y_j(T) = (e^(T F1) u / gamma)^(x j)`` within the Taylor defect bound.

    With FM = 0 each level evolves under its own Kronecker sum, whose
    exponential is ``e^(T F1)^(x j)``, and a dissipative F1 makes every level a
    contraction, so the one-step defects add up.
    """
    ode, gamma, N, T, K = problem
    mat = assemble(rescale(ode, gamma), N)
    config = PropagationConfig(total_time=T, taylor_order=K)
    res = evolve(mat, config)
    y_final = CarlemanVector(SymmetricBasis(mat.n, mat.N).expand(res.y_final), mat.n, mat.N)
    F1 = ode.F1.toarray() if sp.issparse(ode.F1) else ode.F1
    v = scipy.linalg.expm(T * F1) @ ode.u_in / gamma
    top = res.step_norms.max()
    defect = res.n_steps * taylor_step_defect_bound(mat.spectral_norm_bound(), res.dt, K, top)
    for j in range(1, N + 1):
        err = np.linalg.norm(y_final.level(j) - kron_power(v, j))
        assert err <= defect + 1e-12 * top


class TestSuccessProbability:
    def test_equals_the_level_one_share_evolve_reports_at_t0(self):
        u = np.array([0.3, 0.4])
        gamma, N = 1.0, 4
        ode = NonlinearODE(n=2, M=2, F1=-np.eye(2), FM=sp.csr_matrix((2, 4)), u_in=u)
        res = evolve(assemble(rescale(ode, gamma), N), PropagationConfig(total_time=0.0))
        want = success_probability(float(np.linalg.norm(u)), gamma, N)
        assert res.block1_share[0] == pytest.approx(want, rel=1e-12)

    def test_limit_value_at_unit_ratio(self):
        assert success_probability(1.0, 1.0, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_state(self):
        assert success_probability(0.0, 1.0, 10) == pytest.approx(1.0)

    def test_guarantee_on_grid(self):
        for N in range(1, 65):
            for r in np.linspace(0.0, 1.0, 11):
                assert success_probability(r, 1.0, N) >= 1.0 / N - 1e-12

    def test_matches_ratio_formula_off_the_limit(self):
        r = 0.7
        for N in (2, 5, 17):
            want = (1 - r**2) / (1 - r ** (2 * N))
            assert success_probability(r, 1.0, N) == pytest.approx(want, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            success_probability(1.0, 0.0, 3)
        with pytest.raises(ValidationError):
            success_probability(1.0, 1.0, 0)
