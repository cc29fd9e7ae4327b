"""Finite-difference construction, spectra, norms, and the semigroup peak."""

from fractions import Fraction

import numpy as np
import pytest

from carlemanlab.errors import ValidationError
from carlemanlab.stencil import (
    _dirichlet_axis_matrices,
    build_laplacian_1d,
    build_laplacian_dd,
    convergence_study,
    g_kappa,
    laplacian_eigenvalues_periodic,
    semigroup_inf_norm_curve,
    stencil_coefficients,
)

from stencil_norms import euler_step_inf_norm, laplacian_norm_bound

GOLDEN = {
    1: ["-2", "1"],
    2: ["-5/2", "4/3", "-1/12"],
    3: ["-49/18", "3/2", "-3/20", "1/90"],
    4: ["-205/72", "8/5", "-1/5", "8/315", "-1/560"],
    5: ["-5269/1800", "5/3", "-5/21", "5/126", "-5/1008", "1/3150"],
}


class TestCoefficients:
    @pytest.mark.parametrize("k", sorted(GOLDEN))
    def test_golden_rationals(self, k):
        table = stencil_coefficients(k)
        assert [Fraction(s) for s in GOLDEN[k]] == list(table.coefficients)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_null_row_sum_exact(self, k):
        table = stencil_coefficients(k)
        assert table.coefficients[0] + 2 * sum(table.coefficients[1:]) == 0

    @pytest.mark.parametrize("bad", [0, -3, 17])
    def test_order_guard(self, bad):
        with pytest.raises(ValidationError):
            stencil_coefficients(bad)


class TestLaplacian1D:
    def test_first_row_periodic(self):
        op = build_laplacian_1d(1, 4)
        np.testing.assert_allclose(op.dense()[0], 16.0 * np.array([-2, 1, 0, 1]))

    def test_symmetric_and_zero_row_sums(self):
        dense = build_laplacian_1d(1, 4).dense()
        np.testing.assert_allclose(dense, dense.T)
        np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_periodic_symmetry_generic(self, k):
        dense = build_laplacian_1d(k, 16).dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-9)

    def test_spectrum_nonpositive(self):
        # oracle: dense eigendecomposition
        eigs = np.linalg.eigvalsh(build_laplacian_1d(2, 8).dense())
        assert eigs.max() <= 1e-9
        assert abs(eigs.max()) <= 1e-9

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            build_laplacian_1d(2, 4)

    def test_dirichlet_interior_rows_symmetric(self):
        interior, _ = _dirichlet_axis_matrices(stencil_coefficients(2), 16)
        dense = interior.toarray()
        inner = slice(2, -2)
        np.testing.assert_allclose(dense[inner, inner], dense[inner, inner].T)


class TestLaplacianDD:
    def test_d1_matches_1d(self):
        a = build_laplacian_dd(1, 1, 8).dense()
        b = build_laplacian_1d(1, 8).dense()
        np.testing.assert_allclose(a, b)

    def test_eigenvalues_are_pairwise_sums(self):
        # oracle: dense eigendecomposition vs every pairwise sum of 1-D values
        op2 = build_laplacian_dd(1, 2, 3)
        got = np.sort(np.linalg.eigvalsh(op2.dense()))
        one_d = laplacian_eigenvalues_periodic(1, 3)
        want = np.sort(np.add.outer(one_d, one_d).ravel())
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matvec_on_constant_is_zero(self):
        op = build_laplacian_dd(2, 2, 8)
        out = op.sparse() @ np.ones(op.shape[0])
        np.testing.assert_allclose(out, 0.0, atol=1e-8)

    def test_dense_cap(self):
        op = build_laplacian_dd(1, 2, 80)
        with pytest.raises(ValidationError):
            op.dense()


class TestPeriodicSpectrum:
    def test_k1_m4_values(self):
        eigs = laplacian_eigenvalues_periodic(1, 4)
        assert eigs[0] == 0.0
        assert eigs[1] == pytest.approx(-32.0)
        assert eigs[2] == pytest.approx(-64.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [16, 64])
    def test_matches_dense_eigendecomposition(self, k, m):
        formula = np.sort(laplacian_eigenvalues_periodic(k, m))
        dense = np.sort(np.linalg.eigvalsh(build_laplacian_1d(k, m).dense()))
        scale = np.abs(dense).max()
        assert np.abs(formula - dense).max() <= 1e-10 * scale

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lowest_mode_keeps_its_relative_accuracy(self, k):
        # m^2 times the symbol at theta = 2 pi / m is -(2 pi)^2 (1 + O(theta^2));
        # summing cosines cancels to eps (|a_0| + 2 sum |a_j|) / theta^2, 3e-5 here
        eigs = laplacian_eigenvalues_periodic(k, 10**6)
        assert eigs[0] == 0.0
        assert eigs[1] == pytest.approx(-(2 * np.pi) ** 2, rel=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_single_zero_rest_negative(self, k):
        eigs = laplacian_eigenvalues_periodic(k, 9)
        assert abs(eigs[0]) < 1e-12
        assert np.all(eigs[1:] < 0)


class TestNormBound:
    def test_k1_m4_value(self):
        assert laplacian_norm_bound(1, 4, 1) == pytest.approx(64.0)

    @pytest.mark.parametrize("k,m", [(1, 4), (2, 8), (3, 16), (5, 32)])
    def test_dominates_true_spectral_norm(self, k, m):
        true = np.abs(laplacian_eigenvalues_periodic(k, m)).max()
        assert laplacian_norm_bound(k, m, 1) >= true

    def test_dominates_dense_norm_k2_m8(self):
        dense = build_laplacian_1d(2, 8).dense()
        true = np.linalg.norm(dense, 2)
        assert laplacian_norm_bound(2, 8, 1) >= true

    def test_dimension_factor(self):
        op = build_laplacian_dd(1, 2, 5)
        true = np.linalg.norm(op.dense(), 2)
        assert laplacian_norm_bound(1, 5, 2) >= true


class TestSemigroupInfNorm:
    def test_first_order_is_stochastic(self):
        assert g_kappa(1) == pytest.approx(1.0, abs=1e-12)

    def test_second_order_peak_under_one_percent(self):
        peak = g_kappa(2, tau_max=1.0, n_tau=400)
        assert 1.0 < peak <= 1.01

    def test_peak_grows_with_order(self):
        peaks = [g_kappa(k, tau_max=1.0, n_tau=400) for k in (2, 3, 4)]
        assert peaks[1] > peaks[0]
        assert peaks[2] > peaks[0]

    def test_initial_slope_one_third(self):
        tau = 1e-6
        slope = (euler_step_inf_norm(2, tau) - 1.0) / tau
        assert slope == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_curve_m_independent(self):
        _, a = semigroup_inf_norm_curve(2, n_tau=200, m=48)
        _, b = semigroup_inf_norm_curve(2, n_tau=200, m=96)
        assert np.abs(a - b).max() < 1e-10

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValidationError):
            semigroup_inf_norm_curve(2, n_tau=50)


@pytest.fixture(scope="module")
def table():
    return convergence_study([1, 2], [16, 32, 64, 128])


class TestConvergenceStudy:
    def test_errors_decrease_with_m(self, table):
        for k in (1, 2):
            errs = [r.err_max for r in table if r.order == k]
            assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_k1_slope_near_two(self, table):
        pts = [(r.points, r.err_max) for r in table if r.order == 1]
        slope = np.polyfit(np.log([p for p, _ in pts]), np.log([e for _, e in pts]), 1)[0]
        assert -slope == pytest.approx(2.0, abs=0.3)

    def test_k2_beats_k1_everywhere(self, table):
        e1 = {r.points: r.err_max for r in table if r.order == 1}
        e2 = {r.points: r.err_max for r in table if r.order == 2}
        assert all(e2[m] < e1[m] for m in e1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_refinement_ratio_beats_rate_floor(self, table, k):
        errs = [r.err_max for r in table if r.order == k]
        for a, b in zip(errs, errs[1:]):
            assert a / b > 2 ** (2 * k - 1)
