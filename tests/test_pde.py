"""Discretisation, stability verdicts, spatial error bound, grid sizing."""

import functools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from scipy.sparse.linalg import expm_multiply
from hypothesis import strategies as st

from carlemanlab import cli, nonlinear_ode
from carlemanlab import pde as rd
from carlemanlab.carleman import SymmetricBasis, assemble
from carlemanlab.errors import NumericFailure, SizeLimitError, ValidationError
from carlemanlab.limits import DENSE_F1_MAX_N
from carlemanlab.nonlinear_ode import (
    kron_power,
    lambda0,
    max_stable_gamma,
    operator_spectral_norm,
    r_ratio,
    reference_solve,
    rescale,
)
from carlemanlab.pde import (
    ReactionDiffusionProblem,
    discretisation_error_bound,
    discretize,
    estimate_derivative_bound,
    etdrk4_reference,
    fourier_form,
    grid_matching_first_order,
    periodic_spectrum,
    real_fourier_basis,
    required_grid_points,
    stability_report,
)

from conftest import raised_cosine


def flat_profile(level: float):
    return lambda x: level + 0.0 * x[:, 0]


def make_pde(**overrides) -> ReactionDiffusionProblem:
    params = dict(
        diffusion=0.2, c=-2.0, b=0.5, M=2, d=1, m=32, k=2,
        initial=raised_cosine, T=1.0,
    )
    params.update(overrides)
    return ReactionDiffusionProblem(**params)


@pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
def test_horizon_must_be_finite_and_non_negative(T):
    with pytest.raises(ValidationError, match="horizon"):
        make_pde(T=T)


class TestDiscretize:
    def test_lambda0_equals_decay_coefficient(self, demo_pde):
        ode = discretize(demo_pde)
        assert lambda0(ode.F1) == pytest.approx(-2.0, abs=1e-10)

    def test_f1_symmetric(self, demo_pde):
        F1 = discretize(demo_pde).F1.toarray()
        np.testing.assert_allclose(F1, F1.T, atol=1e-9)

    def test_nonlinearity_pattern_m2_n2(self):
        from carlemanlab.pde import one_sparse_nonlinearity

        fm = one_sparse_nonlinearity(2, 2, 0.5)
        rows, cols = fm.nonzero()
        assert list(zip(rows, cols)) == [(0, 0), (1, 3)]
        np.testing.assert_allclose(fm.data, 0.5)

    def test_selector_action_is_diagonal_powers(self):
        pde = make_pde(m=8, k=1, M=3)
        ode = discretize(pde)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(8)
        np.testing.assert_allclose(ode.FM @ kron_power(u, 3), 0.5 * u**3, atol=1e-12)

    def test_one_sparse_count_and_values(self, demo_pde):
        ode = discretize(demo_pde)
        assert ode.FM.nnz == demo_pde.n
        np.testing.assert_allclose(ode.FM.data, demo_pde.b)
        assert ode.fm_is_one_sparse

    def test_sparse_f1_above_cap(self):
        pde = make_pde(m=600, k=1)
        ode = discretize(pde)
        import scipy.sparse as sp

        assert sp.issparse(ode.F1)
        assert lambda0(ode.F1) == pytest.approx(-2.0, abs=1e-8)

    def test_grid_over_the_entry_limit_refused_before_it_is_built(self):
        # k = 1, d = 1 stores 3 entries per point: 3 333 334 points make
        # 10 000 002 > KRON_MAX_SIZE, refused before the Laplacian or the data
        pde = make_pde(m=3_333_334, k=1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="grid operator entries of size 10000002"):
                discretize(pde)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("M", [40, 10**7], ids=["M40", "M1e7"])
    def test_power_past_int64_refused_before_it_is_formed(self, M):
        # 32**40 > 2**63 is formed and compared; 32**(10**7) is refused by its
        # exponent, where the selector crashed with an OverflowError
        with pytest.raises(SizeLimitError, match=r"FM column index n\*\*M"):
            discretize(make_pde(M=M))
        with pytest.raises(SizeLimitError, match="Fourier product enumeration"):
            fourier_form(make_pde(M=M))


@st.composite
def small_grids(draw):
    """A periodic grid with d in {1, 2, 3}, k in 1..4, n <= 512, random D > 0 and c."""
    d = draw(st.sampled_from([1, 2, 3]))
    top = max(m for m in range(3, 513) if m**d <= 512)
    k = draw(st.integers(1, min(4, (top - 1) // 2)))
    return make_pde(
        d=d, m=draw(st.integers(2 * k + 1, top)), k=k,
        diffusion=draw(st.floats(1e-3, 10.0)), c=draw(st.floats(-5.0, 5.0)),
        initial=flat_profile(0.1),
    )


def spectral_tolerance(f1_norm: float) -> float:
    """``64 eps |F1|``: LAPACK's own backward-error scale at n <= 512.

    The closed form is within 1 eps |F1| of the stored F1's spectrum (the
    residual of the constant mode against ``c``), while LAPACK's ``eigvalsh``
    strayed from it by up to 27 eps |F1| over 1 500 random grids.
    """
    return 64 * np.finfo(float).eps * f1_norm


#: every committed config that poses a PDE, by file name
GRID_CONFIGS = {
    path.stem: config
    for path in (Path(__file__).parent.parent / "configs").glob("*.json")
    if "pde" in (config := json.loads(path.read_text()))
}


def _no_eigensolver(*args, **kwargs):
    raise AssertionError("a periodic grid called an eigensolver")


class TestGridSpectralScalars:
    """``discretize`` takes ``lambda0`` and ``|F1|`` from the stencil's spectrum."""

    @settings(deadline=None, max_examples=40)
    @given(small_grids())
    def test_closed_form_matches_lapack(self, problem):
        ode = discretize(problem)
        tol = spectral_tolerance(ode.f1_norm)
        spectrum = np.sort(periodic_spectrum(problem))
        assert np.abs(spectrum - np.linalg.eigvalsh(ode.F1.toarray())).max() <= tol
        assert ode.lambda0 == spectrum[-1] == problem.c
        assert ode.f1_norm == np.abs(spectrum).max()
        assert abs(ode.lambda0 - lambda0(ode.F1)) <= tol
        assert abs(ode.f1_norm - operator_spectral_norm(ode.F1)) <= tol

    def test_closed_form_matches_arpack_above_the_dense_limit(self):
        # the n = 1 600 grid of the d = 2 analysis benchmark
        problem = make_pde(d=2, m=40, b=0.1, initial=flat_profile(0.1))
        ode = discretize(problem)
        assert ode.n > DENSE_F1_MAX_N
        tol = spectral_tolerance(ode.f1_norm)
        assert abs(ode.lambda0 - lambda0(ode.F1)) <= tol
        assert abs(ode.f1_norm - operator_spectral_norm(ode.F1)) <= tol

    @pytest.mark.parametrize("name", sorted(GRID_CONFIGS))
    def test_lambda0_is_c_on_every_committed_grid(self, name):
        ode, problem = cli.resolve_problem(GRID_CONFIGS[name])
        assert ode.lambda0 == problem.c

    def test_large_grid_takes_no_eigensolver(self, monkeypatch):
        # n = 90 000, where ARPACK's lambda0 alone took 28 s; lambda0 and
        # operator_spectral_norm import their solvers when they call them
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _no_eigensolver)
        monkeypatch.setattr(scipy.sparse.linalg, "svds", _no_eigensolver)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
        problem = make_pde(
            d=2, m=300, k=2, b=0.1,
            initial=lambda x: 0.1 * np.prod(1.0 + np.cos(2 * np.pi * x), axis=1),
        )
        R = r_ratio(discretize(problem))
        assert R == pytest.approx(2.25, rel=1e-14)


def grid_report(pde):
    return stability_report(pde, discretize(pde))


class TestStabilityReport:
    def test_demo_passes_all(self, demo_pde):
        ode = discretize(demo_pde)
        report = stability_report(demo_pde, ode)
        assert report.all_pass
        assert report.R == pytest.approx(0.5 * np.linalg.norm(ode.u_in) / 2.0)

    def test_zero_nonlinearity_passes_everything(self):
        report = grid_report(make_pde(b=0.0))
        assert report.all_pass
        assert report.R == 0.0
        assert report.gamma_max == np.inf

    def test_amplitude_scaling_homogeneity(self):
        base = grid_report(make_pde(initial=flat_profile(0.2)))
        scaled = grid_report(make_pde(initial=flat_profile(0.6)))
        s = 0.6 / 0.2
        assert scaled.max_norm_lhs == pytest.approx(base.max_norm_lhs * s, rel=1e-12)

    def test_norm_gap_instance(self):
        # max-norm criterion passes while the 2-norm ratio fails: the 2-norm
        # of a flat profile grows like sqrt(n) with the grid
        pde = make_pde(m=64, k=1, b=1.0, initial=flat_profile(1.0))
        report = grid_report(pde)
        assert report.max_norm_lhs == pytest.approx(0.5)
        assert report.pde_max_norm
        assert report.R == pytest.approx(np.sqrt(64) * 0.5)
        assert not report.ode_two_norm
        assert not report.all_pass

    def test_sign_of_the_nonlinearity_changes_no_verdict(self):
        # every criterion reads |b|: the max-norm verdict as R and the spatial
        # error hypothesis do
        pde = make_pde(m=64, k=1, b=1.0, initial=flat_profile(1.0))
        mirror = make_pde(m=64, k=1, b=-1.0, initial=flat_profile(1.0))
        assert grid_report(mirror).as_dict() == grid_report(pde).as_dict()


class TestDiscretisationErrorBound:
    DERIVATIVE_BOUND = 10.0

    def test_zero_time(self, demo_pde):
        assert discretisation_error_bound(demo_pde, self.DERIVATIVE_BOUND, 0.0) == 0.0

    def test_monotone_in_time(self, demo_pde):
        times = np.linspace(0.0, 5.0, 50)
        vals = np.asarray(discretisation_error_bound(demo_pde, self.DERIVATIVE_BOUND, times))
        assert np.all(np.diff(vals) >= -1e-15)

    def test_linear_limit_matches_closed_form(self):
        pde = make_pde(b=0.0)
        late = discretisation_error_bound(pde, self.DERIVATIVE_BOUND, 1e9)
        n = pde.n
        want = 10.0 * np.sqrt(n) * (np.e / 2) ** 4 * n ** (-3.0) / 2.0
        assert late == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_grid_doubling_ratio(self, k):
        a = discretisation_error_bound(make_pde(m=32, k=k), self.DERIVATIVE_BOUND, 1.0)
        b = discretisation_error_bound(make_pde(m=64, k=k), self.DERIVATIVE_BOUND, 1.0)
        assert a / b == pytest.approx(2 ** ((2 * k - 1) - 0.5), rel=1e-12)

    def test_hypothesis_violation_rejected(self):
        weak = make_pde(c=-0.5, b=1.0, initial=flat_profile(1.0))
        with pytest.raises(ValidationError):
            discretisation_error_bound(weak, self.DERIVATIVE_BOUND, 1.0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_derivative_bound_must_be_finite_and_non_negative(self, demo_pde, bad):
        message = "derivative bound must be finite and non-negative"
        with pytest.raises(ValidationError, match=message):
            discretisation_error_bound(demo_pde, bad, 1.0)
        with pytest.raises(ValidationError, match=message):
            required_grid_points(demo_pde, bad, 0.1)


class TestRequiredGridPoints:
    def test_exponent_shrinks_with_order(self):
        k_exps = [2.0 * 1 / (2.0 * (2 * k - 1) - 1) for k in (1, 2, 3)]
        assert k_exps[0] > k_exps[1] > k_exps[2]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_plug_back(self, k):
        derivative_bound = 2.0
        pde = make_pde(k=k, initial=flat_profile(0.5), b=0.25)
        eps = 0.5
        n = required_grid_points(pde, derivative_bound, eps)
        refined = make_pde(k=k, m=n, initial=flat_profile(0.5), b=0.25)
        worst = discretisation_error_bound(refined, derivative_bound, 1e9)
        assert worst <= eps * (1 + 1e-12)

    def test_minimum_stencil_support(self):
        derivative_bound = 1e-12
        pde = make_pde(k=3, initial=flat_profile(0.5), b=0.25)
        assert required_grid_points(pde, derivative_bound, 0.9) >= 7

    @pytest.mark.parametrize("eps", [1e-200, 1e-320])
    def test_grid_past_the_float_range_refused(self, eps):
        # k = 1 raises the bound's base to the power 2: at 1e-200 that power
        # overflows, at 1e-320 the base itself is infinite
        pde = make_pde(k=1, m=16, b=0.5)
        with pytest.raises(ValidationError, match="more grid points than a float holds"):
            required_grid_points(pde, estimate_derivative_bound(pde), eps)

    def test_low_order_high_dimension_rejected(self):
        pde = make_pde(k=1, d=2, m=9, initial=lambda x: 0.5 + 0.0 * x[:, 0])
        with pytest.raises(ValidationError, match="too low"):
            required_grid_points(pde, 1.0, 0.1)

    def test_matched_grid_consistency(self):
        # matching max-norm errors between orders reproduces the k=1 level
        c1, ck, k, n1 = 3.0, 40.0, 2, 4096
        nk = grid_matching_first_order(n1, c1, ck, k)
        err1 = c1 * (np.e / 2) ** 2 / n1
        errk = ck * (np.e / 2) ** (2 * k) / nk ** (2 * k - 1)
        assert errk == pytest.approx(err1, rel=1e-10)
        assert nk < n1


class TestDerivativeBound:
    def test_cosine_profile_analytic(self, demo_pde):
        got = estimate_derivative_bound(demo_pde)
        want = 0.4 * (2 * np.pi) ** 5
        assert got == pytest.approx(want, rel=1e-8)

    def test_sums_over_axes(self):
        pde2 = ReactionDiffusionProblem(
            diffusion=0.1, c=-2.0, b=0.1, M=2, d=2, m=16, k=1,
            initial=lambda x: 0.3 * np.cos(2 * np.pi * x[:, 0])
            + 0.3 * np.cos(2 * np.pi * x[:, 1]),
            T=1.0,
        )
        got = estimate_derivative_bound(pde2)
        want = 2 * 0.3 * (2 * np.pi) ** 3
        assert got == pytest.approx(want, rel=1e-8)


class TestSemiDiscreteAccuracy:
    def test_refinement_toward_fine_reference(self):
        # the m and 2m semi-discrete solutions approach the m=256, k=3 run
        def solve(m, k):
            pde = make_pde(m=m, k=k)
            traj = reference_solve(discretize(pde), T=1.0, tol=1e-10,
                                   t_eval=np.array([0.0, 1.0]))
            return traj.u[-1]

        fine = solve(256, 3)
        k = 2
        errors = {}
        for m in (16, 32):
            coarse = solve(m, k)
            stride = 256 // m
            errors[m] = np.abs(coarse - fine[::stride]).max()
        assert errors[32] < errors[16]
        order = np.log2(errors[16] / errors[32])
        assert order >= 2 * k - 1 - 0.5


def carleman_level1(problem: ReactionDiffusionProblem, N: int) -> np.ndarray:
    """Level 1 at T of the Fourier form's lift at gamma_max, by ``expm_multiply`` on the reach."""
    fourier = fourier_form(problem)
    gamma = max_stable_gamma(fourier.ode)
    mat = assemble(rescale(fourier.ode, gamma), N)
    keys = mat.reach()
    basis = SymmetricBasis(mat.n, mat.N, keys)
    y = expm_multiply(problem.T * mat.to_symmetric(keys), basis.lift(mat.rescaled.u_in_scaled))
    return gamma * fourier.to_grid(basis.first_level(y))


class TestEtdrk4Reference:
    """The PDE reference against grid LSODA, the Carleman lift at N = 15 and itself."""

    ENDS = np.array([0.0, 1.0])

    @pytest.mark.parametrize("m", [32, 128])
    def test_demo_within_lsoda_and_carleman(self, m):
        # LSODA's floor at tol 1e-13 is about 2.3e-13; N = 13 and N = 15 differ by 1.5e-15
        problem = make_pde(m=m)
        ref = etdrk4_reference(problem, tol=1e-13, t_eval=self.ENDS)
        assert ref.method == "ETDRK4" and ref.difference <= 1e-13
        lsoda = reference_solve(discretize(problem), tol=1e-13, t_eval=self.ENDS)
        assert np.abs(ref.u - lsoda.u).max() <= 5e-13
        assert np.abs(ref.u[-1] - carleman_level1(problem, 15)).max() <= 1e-14

    def test_measures_the_truncation_error_below_lsodas_floor(self):
        # the demo's max-norm truncation error at N = 7 .. 13 against the reference:
        # each |u_N - u_(N-2)| is the error at N - 2 to 5 %, and at N = 13
        # (3.8e-15) the error is far below LSODA's difference to it (2.4e-13)
        problem = make_pde()
        ref = etdrk4_reference(problem, tol=1e-13, t_eval=self.ENDS).u[-1]
        lsoda = reference_solve(discretize(problem), tol=1e-13, t_eval=self.ENDS).u[-1]
        level1 = {N: carleman_level1(problem, N) for N in (7, 9, 11, 13)}
        error = {N: np.abs(u - ref).max() for N, u in level1.items()}
        for N in (9, 11, 13):
            step = np.abs(level1[N] - level1[N - 2]).max()
            assert step == pytest.approx(error[N - 2], rel=0.05)
        assert 50 * error[13] <= np.abs(lsoda - ref).max()

    def test_fourth_order(self):
        # each doubling of the steps cuts the difference to a 2 000-step run 12x or more
        problem = make_pde()
        final = {
            steps: rd._etdrk4_samples(problem, np.array([steps]), np.array([1.0]), {})[-1]
            for steps in (250, 500, 1000, 2000)
        }
        gaps = [np.abs(final[steps] - final[2000]).max() for steps in (250, 500, 1000)]
        assert gaps[0] >= 12 * gaps[1] and gaps[1] >= 12 * gaps[2] > 0

    def test_two_dimensional_grid_within_lsoda(self):
        problem = make_pde(
            d=2, m=16, initial=lambda x: 0.2 * np.prod(1 + np.cos(2 * np.pi * x), axis=1)
        )
        ref = etdrk4_reference(problem, tol=1e-13, t_eval=self.ENDS)
        lsoda = reference_solve(discretize(problem), tol=1e-13, t_eval=self.ENDS)
        assert np.abs(ref.u - lsoda.u).max() <= 5e-13

    def test_a_shorter_last_interval_ends_at_the_horizon(self):
        problem = make_pde()
        t_eval = np.array([0.0, 0.3, 0.6, 0.9, 1.0])
        ref = etdrk4_reference(problem, tol=1e-13, t_eval=t_eval)
        lsoda = reference_solve(discretize(problem), tol=1e-13, t_eval=self.ENDS)
        assert ref.t[-1] == problem.T
        assert np.abs(ref.u[-1] - lsoda.u[-1]).max() <= 5e-13
        # the sample at 0 is the grid's initial data, untransformed
        np.testing.assert_array_equal(ref.u[0], problem.initial_grid())

    def test_no_agreement_within_the_step_limit_is_numeric_failure(self, monkeypatch):
        # 1 to 8 steps reach a difference near 1e-5, far from 1e-13
        monkeypatch.setattr(rd, "ETDRK4_MAX_STEPS", 8)
        with pytest.raises(NumericFailure, match="did not agree within 1e-13 by 8 substeps"):
            etdrk4_reference(make_pde(), tol=1e-13, t_eval=self.ENDS)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_difference_within_the_tolerance_and_runs_repeat(self, tol):
        problem = make_pde()
        t_eval = np.linspace(0.0, 1.0, 11)
        runs = [etdrk4_reference(problem, tol=tol, t_eval=t_eval) for _ in range(2)]
        assert 0 < runs[0].difference <= tol
        np.testing.assert_array_equal(runs[0].u, runs[1].u)
        np.testing.assert_array_equal(runs[0].t, t_eval)


@st.composite
def periodic_problems(draw):
    """A d = 1 or 2 grid with odd or even m, M in {2, 3} and random data."""
    d = draw(st.sampled_from([1, 2]))
    M = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(3, 9 if d == 1 else (6 if M == 2 else 5)))
    k = draw(st.integers(1, (m - 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = make_pde(
        d=d, m=m, k=k, M=M, diffusion=draw(st.floats(0.01, 1.0)), c=draw(st.floats(-3.0, 0.5)),
        b=draw(st.floats(-1.0, 1.0)), initial=rng.standard_normal(m**d),
    )
    u = rng.standard_normal(m**d)
    return problem, u / np.linalg.norm(u)


class TestFourierForm:
    @settings(deadline=None, max_examples=30)
    @given(periodic_problems())
    def test_is_the_grid_problem_in_an_orthonormal_basis(self, drawn):
        problem, u = drawn
        ode = discretize(problem)
        form = fourier_form(problem)
        Q = functools.reduce(np.kron, [form.axis_basis] * problem.d)
        np.testing.assert_allclose(Q.T @ Q, np.eye(problem.n), rtol=0, atol=1e-13)
        F1 = ode.F1.toarray()
        scale = np.linalg.norm(F1, 2)
        assert np.abs(Q.T @ F1 @ Q - form.ode.F1.toarray()).max() <= 1e-13 * scale
        assert form.ode.F1.nnz == np.count_nonzero(form.ode.F1.diagonal())
        want = Q.T @ ode.fm_contract(u)
        assert np.abs(form.ode.fm_contract(Q.T @ u) - want).max() <= 1e-13
        np.testing.assert_allclose(form.ode.u_in, Q.T @ ode.u_in, rtol=0, atol=1e-13)
        np.testing.assert_allclose(form.to_grid(form.ode.u_in), ode.u_in, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("m", [6, 7])
    def test_nonlinearity_follows_the_frequency_rule(self, m):
        # every stored entry is a grid sum of modes whose frequencies add up,
        # and every tuple the dense sum leaves at rounding level is absent
        problem = make_pde(m=m, k=1, b=1.0)
        form = fourier_form(problem)
        Q = real_fourier_basis(m)
        dense = np.einsum("ia,ib,ic->abc", Q, Q, Q).reshape(m, m * m)
        stored = form.ode.FM.toarray()
        assert np.abs(stored - dense).max() <= 1e-15
        assert np.array_equal(stored != 0, np.abs(dense) > 1e-12)
        assert form.ode.FM.nnz == np.count_nonzero(stored)
        # column r of the basis has frequency (r + 1) // 2
        rows, cols = form.ode.FM.nonzero()
        f0, f1, f2 = (rows + 1) // 2, (cols // m + 1) // 2, (cols % m + 1) // 2
        closes = [(f0 + s1 * f1 + s2 * f2) % m == 0 for s1 in (1, -1) for s2 in (1, -1)]
        assert np.all(np.any(closes, axis=0))

    @settings(deadline=None, max_examples=30)
    @given(periodic_problems())
    def test_invariants_are_the_grid_problem_s(self, drawn):
        problem, _ = drawn
        ode = discretize(problem)
        modal = fourier_form(problem).ode
        assert modal.lambda0 == ode.lambda0
        assert modal.f1_norm == ode.f1_norm
        assert modal.fm_norm == ode.fm_norm
        # the scalars are the orthogonal invariants they stand for, read from
        # the one spectrum that is also the Fourier form's diagonal, and |b|
        # is the norm of the grid's one-sparse FM
        assert np.array_equal(modal.F1.diagonal(), periodic_spectrum(problem))
        assert modal.F1.diagonal().max() == ode.lambda0
        assert np.abs(modal.F1.diagonal()).max() == ode.f1_norm
        assert ode.fm_norm == nonlinear_ode.fm_spectral_norm(ode)

    def test_built_without_the_grid_problem(self, monkeypatch, demo_pde):
        def refuse(pde):
            raise AssertionError("the Fourier form discretised the grid")

        monkeypatch.setattr(rd, "discretize", refuse)
        modal = fourier_form(demo_pde).ode
        assert (modal.lambda0, modal.fm_norm, modal.T) == (demo_pde.c, demo_pde.b, demo_pde.T)

    def test_memory_stays_near_the_nonlinearity(self):
        # each block of mode tuples holds its final sums, so only the kept
        # entries accumulate (100 410 of them here); summing every wave
        # choice's term across blocks took about 445 bytes per entry
        problem = make_pde(M=3, m=32, k=1, initial=flat_profile(0.1))
        tracemalloc.start()
        try:
            nnz = fourier_form(problem).ode.FM.nnz
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nnz == 100_410
        assert peak < 150 * nnz

    def test_oversized_nonlinearity_rejected_before_assembly(self):
        # d = 3, m = 32: (per-axis products)**3 is far above KRON_MAX_SIZE
        problem = make_pde(d=3, m=32, k=1, initial=flat_profile(0.1))
        with pytest.raises(ValidationError, match="Fourier nonlinearity entries"):
            fourier_form(problem)

    def test_grid_refused_by_discretize_is_refused_before_allocation(self):
        # the demo's first-order grid at epsilon = 1e-2: nothing of length n is allocated
        problem = make_pde(m=233_289_207, k=1)
        with pytest.raises(SizeLimitError, match="grid operator entries"):
            discretize(problem)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="Fourier product enumeration"):
                fourier_form(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
