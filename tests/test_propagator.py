"""Taylor stepping, trajectory evolution, success probabilities."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
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
from carlemanlab import cli, propagator
from carlemanlab.pde import ReactionDiffusionProblem, discretize, fourier_form
from carlemanlab.propagator import (
    PropagationConfig,
    evolve,
    matrix_power,
    success_probability,
    taylor_matrix,
    taylor_step,
    taylor_step_defect_bound,
    taylor_tail,
    weighted_norm_bound,
)
from carlemanlab.bounds import component_error_bound

from conftest import full_spectrum, make_two_dim_instance, raised_cosine


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
    def linear_diag_ode(self, T=1.0):
        return NonlinearODE(
            n=2, M=2, F1=np.diag([-1.0, -2.0]), FM=sp.csr_matrix((2, 4)),
            u_in=np.array([1.0, 0.5]), T=T,
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
        config = PropagationConfig(taylor_order=4, dt=1.0 / 20)
        res = evolve(mat, config)
        exact = scipy.linalg.expm(mat.dense()) @ initial_vector(ode.u_in, 1.0, 3).flat
        y_final = res.basis.expand(res.y_final)
        assert np.linalg.norm(y_final - exact) <= res.time_error_certificate

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
                diffusion=0.2, c=-2.0, b=0.5, M=2, d=2, m=12, k=2, initial=raised_cosine, T=0.02,
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
        config = PropagationConfig(taylor_order=6, dt=0.02 / 2)
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
        assert np.abs(res.block1[-1] - want).max() <= res.time_error_certificate + 1e-15

    def test_symmetric_steps_match_full_space_steps(self):
        ode = make_two_dim_instance(3, 0.5, T=0.5)
        gamma, N, K = 1.2, 5, 8
        mat = assemble(rescale(ode, gamma), N)
        res = evolve(mat, PropagationConfig(taylor_order=K, dt=0.5 / 40))
        full = mat.to_sparse()
        y = initial_vector(ode.u_in, gamma, N).flat
        norms = [np.linalg.norm(y)]
        for _ in range(res.n_steps):
            y = taylor_step(lambda v: full @ v, y, res.dt, K)
            norms.append(np.linalg.norm(y))
        y_final = res.basis.expand(res.y_final)
        assert np.linalg.norm(y_final - y) <= 1e-12 * np.linalg.norm(y)
        np.testing.assert_allclose(res.step_norms, norms, rtol=1e-12)

    def test_bernoulli_block1_within_bound_plus_defect(self, bernoulli_ode):
        gamma, N, K = 1.0, 8, 8
        mat = assemble(rescale(bernoulli_ode, gamma), N)
        config = PropagationConfig(taylor_order=K, dt=0.01)
        res = evolve(mat, config)
        ref = reference_solve(bernoulli_ode, T=1.0, tol=1e-10, t_eval=res.times)
        eta = np.abs(res.block1[:, 0] - ref.u[:, 0] / gamma)
        bound = np.asarray(component_error_bound(bernoulli_ode, N, 1, res.times, gamma=gamma))
        assert np.all(eta <= bound + 10 * res.time_error_certificate + 1e-8)

    def test_norm_non_increasing_under_stability(self, bernoulli_ode):
        mat = assemble(rescale(bernoulli_ode, 1.0), 5)
        assert mat.gershgorin_max_eig_bound() <= 0
        res = evolve(mat, PropagationConfig(taylor_order=10, dt=1.0 / 200))
        assert np.all(np.diff(res.step_norms) <= 1e-10)

    def test_strict_stability_flag(self):
        # gamma above gamma_max makes the Gershgorin certificate fail
        with pytest.raises(ValidationError, match="stability"):
            evolve(assemble(rescale(make_two_dim_instance(2, 0.5), 5.0), 4), PropagationConfig())
        mat = assemble(rescale(make_two_dim_instance(2, 0.5, T=0.1), 5.0), 4)
        res = evolve(mat, PropagationConfig(dt=0.1 / 50, strict_stability=False))
        assert res.n_steps == 50

    def test_blowup_guard(self):
        ode = NonlinearODE(n=1, M=2, F1=[[3.0]], FM=sp.csr_matrix((1, 1)), u_in=[1.0], T=10.0)
        mat = assemble(ode, 3)
        # level 3 grows like e^(9t), past BLOWUP_FACTOR = 1e6 near t = 1.5
        config = PropagationConfig(dt=10.0 / 400, strict_stability=False)
        with pytest.raises(NumericFailure, match="blow-up"):
            evolve(mat, config)

    def test_step_rule_reproduces_horizon(self):
        dt, steps = PropagationConfig().resolve_steps(1.0, norm_bound=7.3)
        assert dt * steps == pytest.approx(1.0, rel=1e-15)
        assert dt <= 1.0 / 7.3 + 1e-15

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValidationError, match="positive and finite"):
            PropagationConfig(dt=dt).resolve_steps(1.0, norm_bound=1.0)

    def test_dt_alone_sets_the_step_count(self):
        assert PropagationConfig(dt=0.25).resolve_steps(1.0, norm_bound=1.0) == (0.25, 4)
        # 3 steps of 0.3 miss the horizon
        with pytest.raises(ValidationError):
            PropagationConfig(dt=0.3).resolve_steps(1.0, norm_bound=1.0)

    @pytest.mark.parametrize("T", [0.0, 1.0])
    @pytest.mark.parametrize(
        "knobs, match",
        [({"taylor_order": 0}, "Taylor order"), ({"taylor_order": 170}, "Taylor order"),
         ({"taylor_order": 10**8}, "Taylor order"), ({"record_every": 0}, "record_every"),
         ({"record_every": -2}, "record_every"), ({"dt": -0.1}, "positive and finite"),
         ({"dt": float("nan")}, "positive and finite")],
        ids=["K0", "K170", "K1e8", "record0", "record-2", "dt-negative", "dt-nan"],
    )
    def test_bad_stepping_rejected_before_the_operator(self, monkeypatch, knobs, match, T):
        mat = assemble(self.linear_diag_ode(T), 3)

        def refuse():
            raise AssertionError("the operator was built before the config was checked")

        monkeypatch.setattr(mat, "to_symmetric", refuse)
        with pytest.raises(ValidationError, match=match):
            evolve(mat, PropagationConfig(**knobs))

    def test_highest_taylor_order_has_a_finite_defect_bound(self):
        # (K+1)! leaves the float range at K = 170
        assert PropagationConfig(taylor_order=169).taylor_order == 169
        assert math.isfinite(taylor_step_defect_bound(1.0, 1.0, 169))
        with pytest.raises(OverflowError):
            taylor_step_defect_bound(1.0, 1.0, 170)


def periodic(d=1, m=32, k=2, M=2, T=1.0, amplitude=0.4, c=-2.0, full=False):
    """The demo PDE family on a d-dimensional periodic grid, its grid ODE and Fourier form.

    ``full`` perturbs the raised cosine into :func:`full_spectrum` data, whose
    reach is every coordinate.
    """
    problem = ReactionDiffusionProblem(
        diffusion=0.2, c=c, b=0.5, M=M, d=d, m=m, k=k, T=T,
        initial=lambda x: amplitude * np.prod(1.0 + np.cos(2.0 * np.pi * x), axis=1),
    )
    if full:
        problem.initial = full_spectrum(problem.initial_grid())
    return discretize(problem), fourier_form(problem)


def series_matrix(op, dt, K):
    """``sum_{l<=K} (dt op)^l / l!`` by repeated sparse products, the oracle of taylor_matrix."""
    term = total = sp.identity(op.shape[0], format="csr")
    for ell in range(1, K + 1):
        term = (term @ (dt * op)) / ell
        total = total + term
    return total


class TestTaylorMatrix:
    @pytest.mark.parametrize(
        "d, m, k, M, N, c",
        [(1, 7, 2, 2, 3, -2.0), (1, 9, 2, 3, 4, -2.0), (2, 4, 1, 2, 3, -2.0),
         (1, 5, 1, 2, 5, -2.0), (1, 6, 1, 2, 4, 0.0)],
        # with c = 0 the constant mode adds 0 to a diagonal entry, so paths
        # through it visit equal diagonal entries
        ids=["d1-m7", "d1-m9-M3", "d2-m4", "d1-m5-N5", "d1-m6-equal-nodes"],
    )
    @pytest.mark.parametrize("K", [1, 4, 10])
    def test_equals_the_series_of_the_symmetric_operator(self, d, m, k, M, N, c, K):
        ode, form = periodic(d=d, m=m, k=k, M=M, c=c)
        mat = assemble(rescale(form.ode, float(np.linalg.norm(ode.u_in))), N)
        assert mat.f1_is_diagonal
        op = mat.to_symmetric()
        dt = 1.0 / mat.spectral_norm_bound()
        P, want = taylor_matrix(op, dt, K), series_matrix(op, dt, K)
        assert abs(P - want).max() <= 1e-14 * abs(want).max()

    def test_paths_through_every_level(self, bernoulli_ode):
        # n = 1, N = 8: level j has the single diagonal entry -j, and row 1
        # reaches every level along one path
        mat = assemble(rescale(bernoulli_ode, 1.0), 8)
        op = mat.to_symmetric()
        for dt in (0.01, 0.5):
            want = series_matrix(op, dt, 12)
            assert abs(taylor_matrix(op, dt, 12) - want).max() <= 1e-14 * abs(want).max()

    def test_operator_not_upper_triangular_rejected(self):
        op = sp.csr_matrix(np.array([[-1.0, 0.0], [0.5, -2.0]]))
        with pytest.raises(ValidationError, match="diagonal stored first"):
            taylor_matrix(op, 0.1, 4)

    def test_over_the_entry_cap_none_before_allocation(self, monkeypatch):
        ode, form = periodic(d=2, m=8, k=1)
        op = assemble(rescale(form.ode, float(np.linalg.norm(ode.u_in))), 3).to_symmetric()
        nnz = taylor_matrix(op, 0.01, 10).nnz
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", nnz - 1)
        tracemalloc.start()
        try:
            assert taylor_matrix(op, 0.01, 10) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the count alone: less than half of P's 12 bytes per entry
        assert peak < 6 * nnz
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", nnz)
        assert taylor_matrix(op, 0.01, 10).nnz == nnz


@pytest.fixture
def built(monkeypatch):
    """Whether each ``taylor_matrix`` call of ``evolve`` returned a matrix."""
    calls = []

    def recorded(*args, **kwargs):
        P = taylor_matrix(*args, **kwargs)
        calls.append(P is not None)
        return P

    monkeypatch.setattr(propagator, "taylor_matrix", recorded)
    return calls


class TestFourierRoute:
    @pytest.mark.parametrize(
        "d, m, k, M, N, T",
        [(1, 32, 2, 2, 3, 0.1), (2, 8, 1, 2, 3, 0.25), (1, 9, 2, 3, 4, 0.3)],
        ids=["demo-grid", "d2-m8", "odd-m-M3"],
    )
    def test_agrees_with_the_grid_series(self, built, d, m, k, M, N, T):
        ode, form = periodic(d=d, m=m, k=k, M=M, T=T)
        gamma = float(np.linalg.norm(ode.u_in))
        grid = evolve(assemble(rescale(ode, gamma), N), PropagationConfig(taylor_order=10))
        modal_mat = assemble(rescale(form.ode, gamma), N)
        assert modal_mat.f1_is_diagonal and not assemble(ode, N).f1_is_diagonal
        # the reach's own step is longer; at the grid's step the two routes agree
        modal = evolve(modal_mat, PropagationConfig(taylor_order=10, dt=grid.dt))
        assert built == [True]
        assert modal.step_norm < grid.step_norm
        assert (modal.dt, modal.n_steps, modal.stability_bound) == (
            grid.dt, grid.n_steps, grid.stability_bound
        )
        np.testing.assert_array_equal(modal.times, grid.times)
        block1 = form.to_grid(modal.block1)
        assert np.abs(block1 - grid.block1).max() <= 1e-12 * np.abs(grid.block1).max()
        np.testing.assert_allclose(modal.y_norms, grid.y_norms, rtol=1e-12)
        np.testing.assert_allclose(modal.block1_share, grid.block1_share, rtol=1e-12)

    def test_no_subnormal_entries_at_the_demo_horizon(self):
        # on the raised cosine's reach, and on full-spectrum data, whose reach
        # holds every stiff mode of the top level
        for full in (False, True):
            ode, form = periodic(full=full)
            mat = assemble(rescale(form.ode, float(np.linalg.norm(ode.u_in))), 3)
            res = evolve(mat, PropagationConfig())
            # the raised cosine's reach holds no mode near the grid's top one
            assert res.n_steps == (3283 if full else 74)
            tiny = np.finfo(float).tiny
            assert not np.any((res.y_final != 0) & (np.abs(res.y_final) < tiny))
        # the flush is reached: stiff modes of the top level decay to zero
        assert res.basis.dimension == mat.symmetric_dimension
        assert np.count_nonzero(res.y_final == 0) > 0

    def test_non_finite_state_raises(self):
        # a diagonal F1 stepped far past the series' reach overflows; four
        # steps recorded every two are two matvecs of P**2, and the first
        # record is the first state checked
        config = PropagationConfig(dt=1.0 / 4, record_every=2, strict_stability=False)

        def scalar(rate):
            ode = NonlinearODE(n=1, M=2, F1=[[rate]], FM=sp.csr_matrix((1, 1)), u_in=[1.0])
            return assemble(ode, 3)

        res = evolve(scalar(-1.0), config)
        assert (res.stepping, res.matvecs) == ("taylor_matrix", 2)
        mat = scalar(-1e40)
        assert mat.f1_is_diagonal
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailure, match="non-finite state at step 2"):
                evolve(mat, config)

    def test_blowup_guard_fires(self, monkeypatch):
        ode, form = periodic(m=8, k=1, T=1.0)
        ode_up = NonlinearODE(
            n=form.ode.n, M=2, F1=-form.ode.F1, FM=form.ode.FM, u_in=form.ode.u_in, T=1.0
        )
        mat = assemble(rescale(ode_up, float(np.linalg.norm(ode.u_in))), 3)
        assert mat.f1_is_diagonal
        # stepped one at a time the norm passes the factor at step 24; the
        # folded route checks the record that follows
        config = PropagationConfig(strict_stability=False, record_every=5)
        with pytest.raises(NumericFailure, match="blow-up detected at step 25:"):
            evolve(mat, config)
        monkeypatch.setattr(propagator, "BLOWUP_FACTOR", math.inf)
        res = evolve(mat, config)
        assert res.n_steps == 46
        assert (res.stepping, res.matvecs) == ("taylor_matrix", 9 + 1)

    @pytest.mark.parametrize("full", [False, True], ids=["raised-cosine", "full-spectrum"])
    def test_short_diagonal_run_takes_the_taylor_matrix(self, built, full):
        # 33 steps on full-spectrum data, one on the raised cosine's reach:
        # F1 is diagonal and P fits the limit, so P is built however few
        # steps it serves
        res = evolve(fourier_mat(T=0.01, full=full), PropagationConfig())
        steps = 33 if full else 1
        assert built == [True]
        assert (res.n_steps, res.stepping, res.matvecs) == (steps, "taylor_matrix", steps)

    def test_no_step_builds_nothing(self, built):
        res = evolve(fourier_mat(T=0.0), PropagationConfig())
        assert built == []
        assert (res.n_steps, res.stepping, res.matvecs) == (0, "series", 0)
        np.testing.assert_array_equal(res.times, [0.0])

    def test_records_past_the_run_never_fold(self, monkeypatch):
        # a fold needs a full record interval within the run's 33 steps
        powers = []

        def recorded(P, e):
            powers.append(e)
            return matrix_power(P, e)

        monkeypatch.setattr(propagator, "matrix_power", recorded)
        mat = fourier_mat(T=0.01, full=True)
        res = evolve(mat, PropagationConfig(record_every=34))
        assert powers == [] and (res.stepping, res.matvecs) == ("taylor_matrix", 33)
        res = evolve(mat, PropagationConfig(record_every=33))
        assert powers == [33] and (res.stepping, res.matvecs) == ("taylor_matrix", 1)

    def test_oversized_taylor_matrix_keeps_the_series(self, monkeypatch, built):
        # with the entry limit between the operator's and P's entry counts,
        # evolve steps the series after counting P, without allocating it
        # (on full-spectrum data, whose reach is every coordinate)
        ode, form = periodic(d=2, m=8, k=1, T=0.5, full=True)
        mat = assemble(rescale(form.ode, float(np.linalg.norm(ode.u_in))), 3)
        config = PropagationConfig()
        op_nnz = mat.symmetric_nnz()
        P_nnz = taylor_matrix(mat.to_symmetric(), 0.01, 10).nnz
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", (op_nnz + P_nnz) // 2)
        build = mat.to_symmetric
        after_build = []

        def measured(keys):
            op = build(keys)
            tracemalloc.reset_peak()
            after_build.append(tracemalloc.get_traced_memory()[0])
            return op

        monkeypatch.setattr(mat, "to_symmetric", measured)
        tracemalloc.start()
        try:
            res = evolve(mat, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built == [False]
        # past the operator: the count, the state and the records, well under P
        assert peak - after_build[0] < 6 * P_nnz
        # refused at its first block of rows, P leaves the same series
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", 0)
        np.testing.assert_array_equal(res.y_final, evolve(mat, config).y_final)

    def test_memory_peak_stays_near_the_grid_route(self, built):
        # two steps; full-spectrum data, so the Fourier side builds P on every coordinate
        ode, _ = periodic(d=2, m=8, k=1, full=True)
        gamma = float(np.linalg.norm(ode.u_in))
        # the grid's and the Fourier form's spectral scalars, and so steps, are the same
        dt, _ = PropagationConfig().resolve_steps(
            1.0, assemble(rescale(ode, gamma), 3).spectral_norm_bound()
        )
        ode, form = periodic(d=2, m=8, k=1, T=2 * dt, full=True)
        peaks = []
        for stepped in (ode, form.ode):
            mat = assemble(rescale(stepped, gamma), 3)
            tracemalloc.start()
            try:
                evolve(mat, PropagationConfig())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert built == [True]
        assert peaks[1] <= 1.25 * peaks[0]


def fourier_mat(N=3, **grid):
    ode, form = periodic(**grid)
    return assemble(rescale(form.ode, float(np.linalg.norm(ode.u_in))), N)


def assert_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestFoldedRecords:
    @pytest.mark.parametrize(
        "grid, record_every, every, remainder",
        [({"full": True}, None, 3, 1), ({"d": 2, "m": 8, "k": 1, "T": 0.5}, 7, 7, 3)],
        ids=["demo", "d2-m8-every7"],
    )
    def test_equals_single_steps_of_the_taylor_matrix(
        self, monkeypatch, grid, record_every, every, remainder
    ):
        mat = fourier_mat(**grid)
        config = PropagationConfig(record_every=record_every)
        folded = evolve(mat, config)
        monkeypatch.setattr(propagator, "matrix_power", lambda P, e: None)  # the fold is refused
        stepped = evolve(mat, config)
        n = folded.n_steps
        assert n % every == remainder
        assert (folded.stepping, folded.matvecs) == ("taylor_matrix", n // every + remainder)
        assert (stepped.stepping, stepped.matvecs) == ("taylor_matrix", n)
        np.testing.assert_array_equal(folded.times, stepped.times)
        assert (folded.dt, folded.n_steps) == (stepped.dt, stepped.n_steps)
        assert_close(folded.block1, stepped.block1)
        assert_close(folded.y_final, stepped.y_final)
        np.testing.assert_allclose(folded.y_norms, stepped.y_norms, rtol=1e-12)
        np.testing.assert_allclose(folded.block1_share, stepped.block1_share, rtol=1e-12)
        # one norm per state computed: each record when folded, each step otherwise
        assert len(folded.step_norms) == len(folded.times)
        np.testing.assert_array_equal(folded.step_norms, folded.y_norms)
        assert len(stepped.step_norms) == n + 1

    def test_open_pattern_keeps_single_steps(self, monkeypatch):
        # at K = 1 the path from level 1 to level 3 is longer than K, so P**2
        # stores entries P does not, and each step stays one matvec of P
        mat = fourier_mat(m=8, k=1, T=0.25)
        config = PropagationConfig(taylor_order=1, record_every=5)
        stepped = evolve(mat, config)
        n = stepped.n_steps
        P = taylor_matrix(mat.to_symmetric(mat.reach()), stepped.dt, 1)
        assert matrix_power(P, 2).nnz > P.nnz
        assert n % 5 and (stepped.stepping, stepped.matvecs) == ("taylor_matrix", n)
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", 0)  # no room for P
        series = evolve(mat, config)
        assert (series.stepping, series.matvecs) == ("series", n)
        assert_close(stepped.block1, series.block1)
        assert_close(stepped.y_final, series.y_final)
        np.testing.assert_allclose(stepped.step_norms, series.step_norms, rtol=1e-12)

    def test_series_counts_k_matvecs_per_step(self, monkeypatch, built):
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", 0)  # no room for P
        res = evolve(fourier_mat(T=0.01, full=True), PropagationConfig(record_every=4))
        assert built == [False]
        assert (res.stepping, res.matvecs, len(res.step_norms)) == ("series", 330, 34)


class TestMatrixPower:
    @pytest.mark.parametrize("e", [1, 2, 3, 7, 52])
    def test_equals_repeated_products(self, e):
        mat = fourier_mat(m=8, k=1)
        P = taylor_matrix(mat.to_symmetric(), 1.0 / mat.spectral_norm_bound(), 10)
        want = sp.identity(P.shape[0], format="csr")
        for _ in range(e):
            want = want @ P
        Q = matrix_power(P, e)
        assert abs(Q - want).max() <= 1e-13 * abs(want).max()
        # the pattern of P holds every coupling path, so no power adds an entry
        assert Q.nnz <= P.nnz
        assert not np.any((Q.data != 0) & (np.abs(Q.data) < np.finfo(float).tiny))

    def test_power_below_one_rejected(self):
        with pytest.raises(ValidationError, match="matrix power"):
            matrix_power(sp.identity(2, format="csr"), 0)

    def test_memory_peak_of_the_fold(self):
        # every = 52, the step of the d = 2, m = 128 grid's fold: five
        # squarings and two products, on the operator of every coordinate of
        # the demo grid and of the d = 2, m = 8 one
        for grid in ({}, {"d": 2, "m": 8, "k": 1}):
            mat = fourier_mat(**grid)
            P = taylor_matrix(mat.to_symmetric(), 1.0 / mat.spectral_norm_bound(), 10)
            held = P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
            tracemalloc.start()
            try:
                Q = matrix_power(P, 52)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert Q.nnz <= P.nnz
            # past P: the power so far, the square and the product being
            # formed; the flush's scratch is a few thousand entries, not a
            # float copy of the product (3.72 times P's bytes with the copy)
            assert peak <= 3.2 * held

    def test_fold_over_its_limit_refused_before_any_product(self, monkeypatch):
        mat = fourier_mat(m=8, k=1)
        P = taylor_matrix(mat.to_symmetric(), 1.0 / mat.spectral_norm_bound(), 10)
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", 3 * P.nnz - 1)
        tracemalloc.start()
        try:
            assert matrix_power(P, 52) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", 0)
        assert matrix_power(P, 1) is P
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", 3 * P.nnz)
        assert matrix_power(P, 52).nnz <= P.nnz

    def test_evolve_steps_singly_when_the_fold_is_over_its_limit(self, monkeypatch):
        mat = fourier_mat(full=True)
        config = PropagationConfig()
        folded = evolve(mat, config)
        assert (folded.stepping, folded.matvecs) == ("taylor_matrix", 1095)
        op = mat.to_symmetric(mat.reach())
        P = taylor_matrix(op, folded.dt, 10)
        monkeypatch.setattr(propagator, "KRON_MAX_SIZE", 3 * P.nnz - 1)
        stepped = evolve(mat, config)
        assert (stepped.stepping, stepped.matvecs) == ("taylor_matrix", stepped.n_steps)
        assert_close(stepped.block1, folded.block1)


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
    u_in = rng.standard_normal(n)
    gamma = draw(st.floats(0.1, 3.0))
    T = draw(st.floats(0.05, 2.0))
    K = draw(st.integers(4, 10))
    ode = NonlinearODE(n=n, M=M, F1=F1, FM=sp.csr_matrix((n, n**M)), u_in=u_in, T=T)
    return ode, gamma, N, T, K


@settings(deadline=None)
@given(linear_problems())
def test_without_nonlinearity_every_level_is_a_kronecker_power(problem):
    """``y_j(T) = (e^(T F1) u / gamma)^(x j)`` within the time-error certificate.

    With FM = 0 each level evolves under its own Kronecker sum, whose
    exponential is ``e^(T F1)^(x j)``, and a dissipative F1 makes every level a
    contraction, so the one-step defects add up.
    """
    ode, gamma, N, T, K = problem
    mat = assemble(rescale(ode, gamma), N)
    config = PropagationConfig(taylor_order=K)
    res = evolve(mat, config)
    y_final = CarlemanVector(res.basis.expand(res.y_final), mat.n, mat.N)
    F1 = ode.F1.toarray()
    v = scipy.linalg.expm(T * F1) @ ode.u_in / gamma
    top = res.step_norms.max()
    for j in range(1, N + 1):
        err = np.linalg.norm(y_final.level(j) - kron_power(v, j))
        assert err <= res.time_error_certificate + 1e-12 * top


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_mat(name):
    """The operator the CLI steps for ``configs/<name>.json``, and its Taylor order.

    A PDE is stepped in its Fourier form, at gamma and N resolved from the grid problem.
    """
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    ode, problem = cli.resolve_problem(config)
    numerics = cli.numerics_from_config(config)
    gamma, N = cli.resolve_gamma(numerics, ode), cli.resolve_order(numerics, ode)
    stepped = ode if problem is None else fourier_form(problem).ode
    return assemble(rescale(stepped, gamma), N), numerics["K"]


class TestTimeErrorCertificate:
    @pytest.mark.parametrize(
        "name, K, record_every, stepping, matvecs",
        [("demo_n13", None, None, "taylor_matrix", 982),
         ("ode_coupled", None, None, "series", 120),
         ("demo_m64_stiff", None, 5, "taylor_matrix", 14 + 4),
         # low orders, whose time error stands well above rounding
         ("ode_coupled", 3, None, "series", 36),
         ("demo_m64_stiff", 4, 5, "taylor_matrix", 14 + 4)],
        ids=["n13-taylor-matrix", "ode-series", "m64-folded", "ode-series-K3", "m64-folded-K4"],
    )
    def test_every_record_within_the_certificate_of_expm_multiply(
        self, name, K, record_every, stepping, matvecs
    ):
        mat, config_K = config_mat(name)
        config = PropagationConfig(taylor_order=K or config_K, record_every=record_every)
        res = evolve(mat, config)
        assert (res.stepping, res.matvecs) == (stepping, matvecs)
        assert res.stability_bound <= 0 and res.step_norm * res.dt <= 1
        op = mat.to_symmetric(mat.reach())
        y0 = res.basis.lift(mat.rescaled.u_in_scaled)
        exact = expm_multiply(
            op, y0, start=0.0, stop=res.n_steps * res.dt, num=res.n_steps + 1, endpoint=True
        )[np.rint(res.times / res.dt).astype(int)]
        level1 = np.array([res.basis.first_level(y) for y in exact])
        worst = np.linalg.norm(res.block1 - level1, axis=1).max()
        assert worst <= res.time_error_certificate + 1e-12 * res.y_norms[0]

    def test_growing_operator_carries_the_exponential_factor(self):
        # gamma above gamma_max: the Gershgorin bound is positive, so the
        # summed defects grow by exp(bound T)
        mat = assemble(rescale(make_two_dim_instance(2, 0.5, T=0.1), 5.0), 4)
        res = evolve(mat, PropagationConfig(dt=0.1 / 50, strict_stability=False))
        assert res.stability_bound > 0
        tail = taylor_tail(res.step_norm * res.dt, 10)
        assert res.time_error_certificate == pytest.approx(
            tail * res.step_norms[:-1].sum() * math.exp(res.stability_bound * 0.1), rel=1e-12
        )
        y0 = res.basis.lift(mat.rescaled.u_in_scaled)
        exact = expm_multiply(0.1 * mat.to_symmetric(mat.reach()), y0)
        diff = res.y_final - exact
        assert res.basis.norm(diff) <= res.time_error_certificate + 1e-12 * res.y_norms[0]

    def test_beyond_the_geometric_tail_no_certificate(self):
        # x >= K + 2: the geometric bound on the tail no longer holds
        mat = fourier_mat(T=0.1)
        res = evolve(mat, PropagationConfig(taylor_order=2, dt=0.1))
        assert res.step_norm * res.dt >= 4 and res.time_error_certificate == math.inf


class TestTaylorTail:
    @pytest.mark.parametrize("x, K", [(0.5, 4), (1.0, 10), (11.0, 10), (30.0, 40)])
    def test_bounds_the_series_tail(self, x, K):
        exact = math.exp(x) - sum(x**ell / math.factorial(ell) for ell in range(K + 1))
        leading = taylor_step_defect_bound(x, 1.0, K)
        assert leading <= exact <= taylor_tail(x, K)
        assert taylor_tail(x, K) <= leading / (1 - x / (K + 2)) * (1 + 1e-14)

    def test_infinite_from_k_plus_two(self):
        assert taylor_tail(12.0, 10) == math.inf and math.isfinite(taylor_tail(11.99, 10))
        assert taylor_tail(0.0, 10) == 0.0
        # no overflow at the top Taylor order, just below its limit
        assert math.isfinite(taylor_tail(170.9, 169))


class TestWeightedNormBound:
    @pytest.mark.parametrize("name", ["demo_m64_stiff", "ode_coupled"])
    def test_bounds_the_flat_two_norm(self, name):
        mat, _ = config_mat(name)
        keys = mat.reach()
        op = mat.to_symmetric(keys)
        weights = SymmetricBasis(mat.n, mat.N, keys).weights
        root = np.sqrt(weights)
        B = (sp.diags(root) @ op @ sp.diags(1.0 / root)).toarray()
        two_norm = np.linalg.norm(B, 2)
        got = weighted_norm_bound(op, weights)
        assert two_norm <= got <= 1.1 * two_norm
        sums = np.abs(B).sum(axis=0).max() * np.abs(B).sum(axis=1).max()
        assert got == pytest.approx(math.sqrt(sums), rel=1e-12)


class TestSuccessProbability:
    def test_equals_the_level_one_share_evolve_reports_at_t0(self):
        u = np.array([0.3, 0.4])
        gamma, N = 1.0, 4
        ode = NonlinearODE(n=2, M=2, F1=-np.eye(2), FM=sp.csr_matrix((2, 4)), u_in=u, T=0.0)
        res = evolve(assemble(rescale(ode, gamma), N), PropagationConfig())
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
