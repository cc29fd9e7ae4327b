"""Assembly, structured matvec, spectral bookkeeping, and sparsity accounting."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from carlemanlab import carleman
from carlemanlab.carleman import (
    CarlemanVector,
    assemble,
    initial_vector,
    lambda_value,
)
from carlemanlab.errors import SizeLimitError, ValidationError
from carlemanlab.nonlinear_ode import (
    NonlinearODE,
    kron_power,
    max_stable_gamma,
    rescale,
)
from carlemanlab.pde import ReactionDiffusionProblem, discretize, fourier_form
from carlemanlab.propagator import PropagationConfig, evolve

from conftest import make_two_dim_instance, raised_cosine


def scalar_ode(b: float = 0.5) -> NonlinearODE:
    return NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[b]], u_in=[1.0], T=1.0)


def dense_f1_ode(n: int = 100) -> NonlinearODE:
    """Distinct decay rates plus a small dense coupling: every entry of F1 stored."""
    F1 = -np.diag(np.linspace(1.0, 2.0, n)) + 1e-3 * np.ones((n, n))
    return NonlinearODE(n=n, M=2, F1=F1, FM=sp.csr_matrix((n, n**2)), u_in=np.full(n, 0.1), T=0.02)


def walked(*args):
    raise AssertionError("whole levels are counted by formula, without visiting a row")


class TestAssembly:
    def test_total_dimension_n2_N3(self):
        ode = make_two_dim_instance(2, 0.4)
        assert assemble(ode, 3).total_dimension == 14  # 2 + 4 + 8

    def test_scalar_dense_matrix(self):
        b = 0.7
        mat = assemble(scalar_ode(b), 3)
        expected = np.array([[-1.0, b, 0.0], [0.0, -2.0, 2 * b], [0.0, 0.0, -3.0]])
        np.testing.assert_allclose(mat.dense(), expected)

    def test_gamma_doubling_scales_off_diagonals(self):
        ode = scalar_ode(0.5)
        d1 = assemble(rescale(ode, 1.0), 3).dense()
        d2 = assemble(rescale(ode, 2.0), 3).dense()
        off = ~np.eye(3, dtype=bool)
        diag = np.eye(3, dtype=bool)
        np.testing.assert_allclose(d2[off], 2.0 ** (2 - 1) * d1[off])
        np.testing.assert_allclose(d2[diag], d1[diag])

    def test_truncation_at_or_below_nonlinearity_rejected(self):
        ode = scalar_ode()
        for bad in (1, 2):
            with pytest.raises(ValidationError):
                assemble(ode, bad)

    def test_exact_total_dimension_formula(self):
        ode = make_two_dim_instance(2, 0.3)
        for N in (3, 4, 7):
            mat = assemble(ode, N)
            n = ode.n
            assert mat.total_dimension == n * (n**N - 1) // (n - 1)

    def test_dense_cap(self):
        ode = make_two_dim_instance(2, 0.3)
        mat = assemble(ode, 13)  # 16382 > default cap
        with pytest.raises(ValidationError):
            mat.dense()


class TestIndexWidths:
    """Refusals of index widths are size refusals, like every other limit."""

    def test_flat_layout_past_the_address_space_is_a_size_refusal(self):
        with pytest.raises(SizeLimitError, match="flat Carleman dimension"):
            carleman.initial_vector(np.ones(2**16), 1.0, 4)


class TestSymmetricAssembly:
    def test_demo_sizes(self):
        # the paper's demo PDE at N=3: 33 824 flat coordinates, 6 544 sorted ones
        pde = ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.5, M=2, d=1, m=32, k=2,
            initial=lambda x: 0.4 * (1.0 + np.cos(2.0 * np.pi * x[:, 0])), T=1.0,
        )
        mat = assemble(discretize(pde), 3)
        op = mat.to_symmetric()
        assert mat.total_dimension == 33_824
        assert op.shape == (6_544, 6_544)
        assert op.nnz == mat.symmetric_nnz() == 79_408

    def test_build_peak_stays_near_the_operator_it_returns(self):
        # the d=2, m=8, k=1 grid of the benchmark's d=2 evolve workload: n = 64, N = 3
        pde = ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.5, M=2, d=2, m=8, k=1, T=0.25,
            initial=lambda x: 0.2 * np.prod(1.0 + np.cos(2.0 * np.pi * x), axis=1),
        )
        ode = discretize(pde)
        mat = assemble(rescale(ode, float(np.linalg.norm(ode.u_in))), 3)
        tracemalloc.start()
        try:
            op = mat.to_symmetric()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        assert op.shape == (47_904, 47_904) and op.nnz == 601_184
        assert peak <= 1.5 * held

    def test_fourier_build_peak_stays_near_the_operator_it_returns(self):
        # the same grid in Fourier coordinates: a level-2 row stores about 500
        # entries, so blocks of a fixed 256 rows peaked at 2.45 times the operator
        pde = ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.5, M=2, d=2, m=8, k=1, T=0.25,
            initial=lambda x: 0.2 * np.prod(1.0 + np.cos(2.0 * np.pi * x), axis=1),
        )
        gamma = float(np.linalg.norm(pde.initial_grid()))
        mat = assemble(rescale(fourier_form(pde).ode, gamma), 3)
        tracemalloc.start()
        try:
            op = mat.to_symmetric()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        # 305 954 entries before duplicates were summed and zero sums dropped
        assert op.nnz == 302_024 and op.has_canonical_format
        assert peak <= 1.7 * held

    @pytest.mark.parametrize("coordinates", ["grid", "fourier"])
    def test_block_sizes_leave_the_arrays_unchanged(self, monkeypatch, coordinates):
        pde = ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.5, M=3, d=1, m=9, k=2, T=0.3,
            initial=lambda x: 0.4 * (1.0 + np.cos(2.0 * np.pi * x[:, 0])),
        )
        ode = discretize(pde)
        stepped = ode if coordinates == "grid" else fourier_form(pde).ode
        mat = assemble(rescale(stepped, float(np.linalg.norm(ode.u_in))), 4)
        want = mat.to_symmetric()
        # one row per block, and one block per level
        for cap in (1, 10**9):
            monkeypatch.setattr(carleman, "_ENTRIES_PER_BLOCK", cap)
            got = mat.to_symmetric()
            for name in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize(
        "grid, N, entries",
        [
            ((1, 32, 2), 3, 79_408),
            ((2, 8, 1), 3, 601_184),
            ((1, 110, 2), 3, 2_981_385),
            ((1, 32, 2), 5, 8_185_176),
            ((2, 12, 2), 3, 12_733_464),
            (None, 3, 51_171_750),
        ],
        ids=["demo-N3", "d2-m8-k1", "m110", "demo-N5", "d2-m12-k2", "100-dense"],
    )
    def test_whole_levels_are_counted_without_a_walk(self, monkeypatch, grid, N, entries):
        if grid is None:
            mat = assemble(dense_f1_ode(), N)
        else:
            d, m, k = grid
            mat = assemble(discretize(ReactionDiffusionProblem(
                diffusion=0.2, c=-2.0, b=0.5, M=2, d=d, m=m, k=k, T=1.0, initial=raised_cosine,
            )), N)
        monkeypatch.setattr(carleman.CarlemanMatrix, "_row_entries", walked)
        monkeypatch.setattr(carleman.CarlemanMatrix, "_entry_blocks", walked)
        assert mat.symmetric_nnz() == entries

    def test_over_the_entry_limit_refused_without_a_walk(self, monkeypatch):
        # N = 4: 4 598 125 sorted multi-indices, whose rows a walk visited
        mat = assemble(dense_f1_ode(), 4)
        monkeypatch.setattr(carleman.CarlemanMatrix, "_row_entries", walked)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="symmetric Carleman operator entries"):
                evolve(mat, PropagationConfig(taylor_order=6, dt=0.02 / 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_over_the_entry_limit_rejected(self):
        n = 100  # 176 850 sorted multi-indices, about 5e7 entries of a dense F1
        ode = NonlinearODE(
            n=n, M=2, F1=-np.ones((n, n)), FM=sp.csr_matrix((n, n**2)), u_in=np.ones(n)
        )
        with pytest.raises(ValidationError, match="symmetric Carleman operator entries"):
            assemble(ode, 3).to_symmetric()


class TestMatvec:
    @pytest.mark.parametrize("M,N", [(2, 4), (3, 5)])
    def test_structured_equals_dense(self, M, N):
        ode = make_two_dim_instance(M, 0.4)
        mat = assemble(rescale(ode, 1.3), N)
        rng = np.random.default_rng(12)
        y = rng.standard_normal(mat.total_dimension)
        got = mat.apply(y)
        want = mat.dense() @ y
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_structured_equals_dense_sparse_f1(self):
        # same check with F1 given as a sparse matrix
        ode = make_two_dim_instance(2, 0.4)
        sparse_ode = NonlinearODE(
            n=2, M=2, F1=sp.csr_matrix(ode.F1), FM=ode.FM, u_in=ode.u_in, T=1.0
        )
        mat = assemble(rescale(sparse_ode, 1.1), 4)
        rng = np.random.default_rng(4)
        y = rng.standard_normal(mat.total_dimension)
        want = assemble(rescale(ode, 1.1), 4).dense() @ y
        got = mat.apply(y)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_zero_maps_to_zero(self):
        mat = assemble(make_two_dim_instance(2, 0.4), 4)
        out = mat.apply(np.zeros(mat.total_dimension))
        assert np.linalg.norm(out) == 0.0

    def test_first_level_is_the_ode_right_hand_side(self):
        ode = make_two_dim_instance(2, 0.4)
        gamma = 1.3
        mat = assemble(rescale(ode, gamma), 4)
        y0 = initial_vector(ode.u_in, gamma, 4)
        out = CarlemanVector(mat.apply(y0.flat), 2, 4)
        ut = ode.u_in / gamma
        want = ode.F1 @ ut + gamma ** (2 - 1) * ode.fm_contract(ut)
        np.testing.assert_allclose(out.level(1), want, atol=1e-14)

    def test_untruncated_levels_match_lifted_derivative(self):
        # d/dt of u^(x j) expanded by the product rule, evaluated exactly
        ode = make_two_dim_instance(2, 0.5)
        gamma = 1.0
        N = 5
        mat = assemble(rescale(ode, gamma), N)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(2) * 0.4
        y = np.concatenate([kron_power(u, j) for j in range(1, N + 1)])
        out = CarlemanVector(mat.apply(y), 2, N)
        du = ode.rhs(u)
        for j in range(1, N - ode.M + 2):
            want = np.zeros(2**j)
            for i in range(1, j + 1):
                factors = [u] * (i - 1) + [du] + [u] * (j - i)
                term = factors[0]
                for f in factors[1:]:
                    term = np.kron(term, f)
                want += term
            np.testing.assert_allclose(out.level(j), want, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        mat = assemble(make_two_dim_instance(2, 0.4), 4)
        with pytest.raises(ValidationError):
            mat.apply(np.zeros(2 + 4 + 8))  # three levels; the matrix has four


class TestInitialVector:
    def test_unit_ratio_squared_norm_is_order(self):
        y = initial_vector(np.array([1.0]), 1.0, 5)
        assert y.norm() ** 2 == pytest.approx(5.0)

    def test_geometric_sum(self):
        y = initial_vector(np.array([2.0]), 1.0, 2)
        assert y.norm() ** 2 == pytest.approx(20.0)  # 4 + 16


class TestGershgorin:
    def test_nonpositive_at_gamma_max(self, bernoulli_ode):
        gamma_max = max_stable_gamma(bernoulli_ode)
        mat = assemble(rescale(bernoulli_ode, gamma_max), 4)
        assert mat.gershgorin_max_eig_bound() <= 1e-12

    def test_reduces_to_lambda0_without_nonlinearity(self):
        ode = NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=sp.csr_matrix((1, 1)), u_in=[1.0])
        mat = assemble(ode, 4)
        assert mat.gershgorin_max_eig_bound() == pytest.approx(-1.0)

    def test_dominates_dense_symmetric_eigenvalue(self):
        # oracle: dense symmetric eigensolve
        ode = make_two_dim_instance(2, 0.6)
        mat = assemble(rescale(ode, 1.2), 4)
        dense = mat.dense()
        top = np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1]
        assert top <= mat.gershgorin_max_eig_bound() + 1e-12


class TestSpectralNormBound:
    def test_without_nonlinearity(self):
        ode = NonlinearODE(n=1, M=2, F1=[[-1.5]], FM=sp.csr_matrix((1, 1)), u_in=[1.0])
        assert assemble(ode, 4).spectral_norm_bound() == pytest.approx(4 * 1.5)

    def test_scalar_instance_dominates_dense(self):
        b = 0.7
        mat = assemble(scalar_ode(b), 3)
        bound = mat.spectral_norm_bound()
        assert bound == pytest.approx(3 * 1.0 + 2 * b)
        assert bound >= np.linalg.norm(mat.dense(), 2)

    def test_linear_growth_in_order(self):
        ode = scalar_ode(0.5)
        b4 = assemble(ode, 4).spectral_norm_bound()
        b8 = assemble(ode, 8).spectral_norm_bound()
        assert b8 == pytest.approx(b4 + 4 * (1.0 + 0.5))


class TestSparsity:
    def pde_ode(self, k: int) -> NonlinearODE:
        pde = ReactionDiffusionProblem(
            diffusion=1.0, c=-2.0, b=0.3, M=2, d=1, m=8, k=k,
            initial=lambda x: 0.2 + 0 * x[:, 0], T=1.0,
        )
        return discretize(pde)

    def test_stencil_bound_small_case(self):
        mat = assemble(self.pde_ode(1), 3)
        assert mat.sparsity_count() <= 3 * 3 + 3

    def test_without_nonlinearity_diagonal_only(self):
        pde_ode = self.pde_ode(1)
        no_fm = NonlinearODE(
            n=8, M=2, F1=pde_ode.F1, FM=sp.csr_matrix((8, 64)), u_in=pde_ode.u_in
        )
        mat = assemble(no_fm, 3)
        assert mat.sparsity_count() <= 3 * 3

    def test_growth_at_most_linear_in_order(self):
        counts = [assemble(self.pde_ode(1), N).sparsity_count() for N in (3, 4, 5)]
        increments = np.diff(counts)
        assert np.all(increments <= increments[0] + 3)
        for N, c in zip((3, 4, 5), counts):
            assert c <= N * 3 + N


class TestLambdaValue:
    def test_without_nonlinearity(self):
        assert lambda_value(5, 2, 1.0, 2.0, 0.0) == pytest.approx(10.0)

    def test_pde_style_inputs(self):
        # lam_f1 = |c| + d D m^2 (|a0| + sum |aj|) with k=1, D=1, d=1, c=-2, m=4
        lam_f1 = 2.0 + 16.0 * 3.0
        assert lam_f1 == pytest.approx(50.0)
        val = lambda_value(3, 2, 1.0, lam_f1, 0.3)
        assert val == pytest.approx(3 * 50.0 + 2 * 0.3)

    def test_rescaled_budget_within_twice_diagonal(self, bernoulli_ode):
        gamma_max = max_stable_gamma(bernoulli_ode)
        lam_f1, lam_fm = 1.0, 0.5  # proportional to the true norms
        val = lambda_value(6, 2, gamma_max, lam_f1, lam_fm)
        assert val <= 2 * 6 * lam_f1


class TestVectorBasics:
    def test_levels_are_views_at_offsets(self):
        rng = np.random.default_rng(7)
        flat = rng.standard_normal(14)
        y = CarlemanVector(flat, 2, 3)
        for j, (start, stop) in enumerate([(0, 2), (2, 6), (6, 14)], start=1):
            np.testing.assert_array_equal(y.level(j), flat[start:stop])
            assert np.shares_memory(y.level(j), flat)

    def test_level_length_validated(self):
        with pytest.raises(ValidationError):
            CarlemanVector(np.zeros(5), 2, 2)  # two levels of n=2 need 6 entries
