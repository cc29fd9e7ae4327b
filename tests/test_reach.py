"""Stepping only the reachable coordinates of a Fourier-form lift.

With F1 diagonal, a coordinate of the lift leaves zero only when it starts
nonzero or its row couples to a reachable coordinate one nonlinearity order
up, so ``evolve`` steps the principal submatrix of the symmetric operator on
:meth:`CarlemanMatrix.reach`.  The oracles: the same run on every coordinate,
a breadth-first search along the full operator's pattern, and the N = 13
CLI demo against its truncation bound and step certificate.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from carlemanlab import carleman, cli
from carlemanlab import nonlinear_ode as node
from carlemanlab import pde as rd
from carlemanlab.carleman import SymmetricBasis, assemble, symmetric_offsets
from carlemanlab.errors import SizeLimitError
from carlemanlab.nonlinear_ode import rescale
from carlemanlab.propagator import (
    PropagationConfig,
    evolve,
    taylor_matrix,
    taylor_step,
)

from conftest import full_spectrum

ROOT = Path(__file__).resolve().parent.parent


def multi_mode(x: np.ndarray, seed: int) -> np.ndarray:
    """A shifted raised cosine plus seeded waves in the two lowest modes: five Fourier modes."""
    rng = np.random.default_rng(seed)
    shift, coef = rng.uniform(0.0, 1.0), 0.05 * rng.standard_normal(2)
    waves = np.cos(2.0 * np.pi * np.arange(1, 3) * x[:, 0, None] + rng.uniform(0.0, 6.0, 2))
    return 0.4 * (1.0 + np.cos(2.0 * np.pi * (x[:, 0] + shift))) + 0.4 * waves @ coef


def demo_form(m=32, M=2, T=1.0, profile="raised_cosine", seed=0):
    problem = rd.ReactionDiffusionProblem(
        diffusion=0.2, c=-2.0, b=0.5, M=M, d=1, m=m, k=2, T=T,
        initial=lambda x: 0.4 * (1.0 + np.cos(2.0 * np.pi * x[:, 0])),
    )
    if profile == "multi_mode":
        problem.initial = multi_mode(problem.grid(), seed)
    elif profile == "full":
        problem.initial = full_spectrum(problem.initial_grid(), seed)
    return rd.discretize(problem), rd.fourier_form(problem)


def fourier_mat(N, **grid):
    ode, form = demo_form(**grid)
    return assemble(rescale(form.ode, float(np.linalg.norm(ode.u_in))), N)


def evolve_everywhere(monkeypatch, mat, config):
    """``evolve`` with the reach taken as every coordinate."""
    with monkeypatch.context() as patch:
        patch.setattr(mat, "reach", lambda: None)
        return evolve(mat, config)


def reach_mask(mat, keys):
    """Which of every coordinate ``keys`` holds, each located among the whole level's."""
    mask = np.zeros(mat.symmetric_dimension, dtype=bool)
    offsets = symmetric_offsets(mat.n, mat.N)
    for at, every, level in zip(offsets, SymmetricBasis(mat.n, mat.N).keys, keys):
        where, hit = carleman._locate(every, level)
        assert hit.all()
        mask[at + where] = True
    return mask


class TestReach:
    @pytest.mark.parametrize("profile", ["raised_cosine", "multi_mode"])
    @pytest.mark.parametrize("m, N, T", [(32, 3, 1.0), (16, 4, 0.5)], ids=["m32-N3", "m16-N4"])
    def test_pruned_and_full_runs_agree(self, monkeypatch, profile, m, N, T):
        mat = fourier_mat(N, m=m, T=T, profile=profile)
        full = evolve_everywhere(monkeypatch, mat, PropagationConfig())
        # the reach leaves out stiff modes, so its auto step would be longer;
        # both runs take the full run's step, which is stable for every mode
        pruned = evolve(mat, PropagationConfig(dt=full.dt))
        assert pruned.basis.dimension < full.basis.dimension == mat.symmetric_dimension
        assert pruned.operator_entries < full.operator_entries
        assert pruned.step_norm < full.step_norm
        assert (pruned.n_steps, pruned.dt) == (full.n_steps, full.dt)
        np.testing.assert_array_equal(pruned.times, full.times)
        assert np.abs(pruned.block1 - full.block1).max() <= 1e-12 * np.abs(full.block1).max()
        np.testing.assert_allclose(pruned.y_norms, full.y_norms, rtol=1e-12)
        # the coordinates outside the reach stay exactly zero in the full run
        flat = full.basis.expand(full.y_final)
        assert np.abs(pruned.basis.expand(pruned.y_final) - flat).max() <= 1e-12 * np.abs(flat).max()

    def test_full_spectrum_reach_is_every_coordinate(self, monkeypatch):
        mat = fourier_mat(3, T=0.2, profile="full")
        assert mat.reach() is None
        config = PropagationConfig()
        res = evolve(mat, config)
        everywhere = evolve_everywhere(monkeypatch, mat, config)
        assert (res.stepping, res.matvecs, res.operator_entries) == (
            everywhere.stepping, everywhere.matvecs, everywhere.operator_entries
        )
        np.testing.assert_array_equal(res.y_final, everywhere.y_final)
        np.testing.assert_array_equal(res.block1, everywhere.block1)

    def test_grid_form_reaches_every_coordinate(self):
        ode, _ = demo_form(m=8)
        mat = assemble(rescale(ode, float(np.linalg.norm(ode.u_in))), 3)
        assert not mat.f1_is_diagonal
        assert mat.reach() is None

    @pytest.mark.parametrize("N", [4, 5])
    def test_cubic_reach_matches_a_search_of_the_full_operator(self, N):
        # M = 3: level j couples in level j + 2
        mat = fourier_mat(N, m=9, M=3, T=0.3, profile="multi_mode", seed=1)
        op = mat.to_symmetric()
        z = SymmetricBasis(mat.n, N).lift(mat.rescaled.u_in_scaled)
        reached = z != 0
        sources = op.T.tocsr()
        frontier = np.flatnonzero(reached)
        while frontier.size:
            rows = np.unique(sources[frontier].indices)
            frontier = rows[~reached[rows]]
            reached[frontier] = True
        assert 0 < reached.sum() < reached.size
        np.testing.assert_array_equal(reach_mask(mat, mat.reach()), reached)

    def test_over_the_limit_refused_without_holding_every_candidate(self, monkeypatch):
        # diagonal F1, dense FM and one zero entry of u_in: the support's
        # sorted multi-indices (12 375) fit in the limit and the reach
        # (13 819) does not, so the refusal comes from the reach itself
        n, N = 12, 6
        rng = np.random.default_rng(0)
        u = rng.uniform(0.5, 1.0, n)
        u[0] = 0.0
        ode = node.NonlinearODE(
            n=n, M=2, F1=np.diag(-1.0 - np.arange(n)), FM=rng.standard_normal((n, n * n)) / n,
            u_in=u, T=1.0,
        )
        mat = assemble(rescale(ode, 1.0), N)
        assert sum(len(level) for level in mat.reach()) == 13_819
        limit = 13_000
        monkeypatch.setattr(carleman, "KRON_MAX_SIZE", limit)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError):
                mat.reach()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the reach's keys, the candidates merged into them and one block's
        # scratch (0.54 MB measured); holding every candidate of a level
        # until its end took 7.3 MB
        assert peak < 12 * 8 * limit

    @pytest.mark.parametrize(
        "n, M, N, support, columns",
        [
            # n = 1 400, M = 6: row * C(n+M-1, M) overflowed int64 for row 1 399
            (1_400, 6, 7, [0, 7, 1_399],
             {7: [0, 0, 0, 7, 1_399, 1_399], 1_399: [0, 7, 7, 7, 7, 1_399]}),
            # n = 256, N = 12: C(267, 12) > 2**63 sorted multi-indices at level 12
            (256, 2, 12, [3, 200], {3: [3, 200], 200: [200, 200]}),
            # two-byte digits 1 < 256 whose little-endian bytes sort the other way
            (300, 2, 6, [1, 256], {1: [1, 256], 256: [1, 1]}),
        ],
        ids=["n1400-M6", "n256-N12", "n300-two-byte"],
    )
    def test_relabelled_support_steps_the_same(self, n, M, N, support, columns):
        # diagonal F1 and FM within the support: the reach is every sorted
        # multi-index over the support, so relabelling the support onto
        # 0, 1, ... in order gives the same operator and the same trajectory
        def problem(size, label):
            rows = [label[row] for row in columns]
            flat = [int(np.dot([label[d] for d in digits], size ** np.arange(M - 1, -1, -1)))
                    for digits in columns.values()]
            FM = sp.csr_matrix(([0.3, -0.2], (rows, flat)), shape=(size, size**M))
            u = np.zeros(size)
            u[[label[i] for i in support]] = [0.5, -0.4, 0.3][: len(support)]
            ode = node.NonlinearODE(n=size, M=M, F1=-sp.identity(size), FM=FM, u_in=u, T=0.5)
            config = PropagationConfig(dt=0.5 / 20)
            return evolve(assemble(rescale(ode, 1.0), N), config)

        big = problem(n, {i: i for i in support})
        small = problem(len(support), {i: k for k, i in enumerate(support)})
        dimension = symmetric_offsets(len(support), N)[-1]
        assert big.basis.dimension == small.basis.dimension == dimension
        np.testing.assert_array_equal(big.block1[:, support], small.block1)
        np.testing.assert_array_equal(big.y_final, small.y_final)

    def test_band_limited_support_is_exact(self):
        # the raised cosine holds modes 0 and 1; the rest is the transform's rounding
        _, form = demo_form()
        assert np.flatnonzero(form.ode.u_in).tolist() == [0, 1]
        assert 0 < form.dropped_mass <= 32 * np.finfo(float).eps * np.linalg.norm(form.ode.u_in)
        assert [len(level) for level in fourier_mat(3).reach()] == [4, 5, 4]


class TestCanonicalOperator:
    @pytest.mark.parametrize("coordinates", ["grid", "fourier", "fourier-reach"])
    def test_to_symmetric_is_canonical(self, coordinates):
        ode, form = demo_form()
        stepped = ode if coordinates == "grid" else form.ode
        mat = assemble(rescale(stepped, float(np.linalg.norm(ode.u_in))), 3)
        op = mat.to_symmetric(mat.reach() if coordinates == "fourier-reach" else None)
        assert op.has_canonical_format
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        diagonal = op.indices == rows
        assert np.count_nonzero(diagonal) == op.shape[0]
        assert np.all((op.data != 0) | diagonal)
        # a principal submatrix stores at most the entries of the whole operator
        assert op.nnz <= mat.symmetric_nnz()

    def test_reach_count_skips_couplings_out_of_the_reach(self, monkeypatch):
        # N = 13: the reach's rows couple into 111 894 coordinates in all, of
        # which 8 113 entries are stored; a count of every coupling refused
        # this operator under a limit it fits
        mat = fourier_mat(13)
        keys = mat.reach()
        monkeypatch.setattr(carleman, "KRON_MAX_SIZE", 8_113)
        assert mat.to_symmetric(keys).nnz == 8_113
        monkeypatch.setattr(carleman, "KRON_MAX_SIZE", 8_112)
        with pytest.raises(SizeLimitError, match="symmetric Carleman operator entries"):
            mat.to_symmetric(keys)

    def test_reach_count_peak_stays_near_the_operator(self):
        # d = 2, m = 8, k = 1 with waves in the two lowest modes per axis: a
        # 0.40 MiB operator on 5 745 rows at N = 4, whose count walked blocks
        # of 8 192 rows and peaked at 49.5 MiB
        def profile(x):
            waves = np.cos(2.0 * np.pi * np.arange(1, 3) * x[:, :, None] + 1.0).sum(axis=2)
            raised = 0.2 * np.prod(1.0 + np.cos(2.0 * np.pi * (x + 0.3)), axis=1)
            return raised + 0.004 * waves.sum(axis=1)

        problem = rd.ReactionDiffusionProblem(
            diffusion=0.2, c=-2.0, b=0.5, M=2, d=2, m=8, k=1, T=0.25, initial=profile,
        )
        gamma = float(np.linalg.norm(problem.initial_grid()))
        mat = assemble(rescale(rd.fourier_form(problem).ode, gamma), 4)
        keys = mat.reach()
        tracemalloc.start()
        try:
            op = mat.to_symmetric(keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.shape == (5_745, 5_745) and op.nnz == 32_743
        assert peak < 4 * 2**20

    def test_summing_duplicates_changes_no_value(self):
        # the demo's Fourier form stored 38 323 entries with 539 duplicates,
        # whose sums left 29 exact zeros: 37 755 remain
        mat = fourier_mat(3)
        op = mat.to_symmetric()
        assert op.nnz == 37_755 and mat.symmetric_nnz() == 38_323
        basis = SymmetricBasis(mat.n, 3)
        z = np.random.default_rng(0).standard_normal(op.shape[0])
        want = mat.to_sparse() @ basis.expand(z)
        assert np.linalg.norm(basis.expand(op @ z) - want) <= 1e-12 * np.linalg.norm(want)


class TestHornerTaylorMatrix:
    @pytest.mark.parametrize("N, profile", [(3, "full"), (4, "multi_mode")])
    def test_p_times_y_matches_the_series(self, N, profile):
        mat = fourier_mat(N, m=16, profile=profile)
        op = mat.to_symmetric(mat.reach())
        dt = 1.0 / mat.spectral_norm_bound()
        P = taylor_matrix(op, dt, 10)
        y = np.random.default_rng(N).standard_normal(op.shape[0])
        want = taylor_step(lambda v: op @ v, y, dt, 10)
        assert np.abs(P @ y - want).max() <= 1e-13 * np.abs(want).max()
        assert P.has_sorted_indices

    def test_keeps_exact_zeros_on_its_pattern(self):
        # the pattern is every pair joined by at most K entries of the
        # operator, so a power of P never stores an entry P does not
        mat = fourier_mat(3)
        op = mat.to_symmetric()
        P = taylor_matrix(op, 1.0 / mat.spectral_norm_bound(), 10)
        links = sp.csr_matrix(op, dtype=bool) + sp.identity(op.shape[0], dtype=bool)
        pattern = links
        for _ in range(9):
            pattern = pattern @ links
        assert P.nnz == pattern.nnz and np.count_nonzero(P.data == 0) > 0


def test_demo_at_the_papers_order_runs_through_the_cli(tmp_path):
    """N = 13 from epsilon = 1e-2 on the raised-cosine demo: 1 262 of about 7.3e10 coordinates."""
    config_path = ROOT / "configs" / "demo_n13.json"
    assert cli.main(["--config", str(config_path), "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "demo_n13_evolve.json").read_text())["results"]
    assert (res["coordinates"], res["N"], res["reach"]) == ("fourier", 13, 1262)
    # F1 is diagonal and P fits, so each of the 982 steps, sized from the
    # reach's operator (|A| dt <= 1), is one matvec of P
    assert (res["stepping"], res["matvecs"], res["n_steps"]) == ("taylor_matrix", 982, 982)
    assert res["reach"] < res["symmetric_dimension"] == carleman.symmetric_offsets(32, 13)[-1]
    assert 0 < res["dropped_mass"] < 1e-14
    # criterion 13's rule in grid units: the level-1 bound plus the time-error
    # certificate, which is far below the bound
    assert res["measured_error_T"] <= res["component_bound_j1_T"] + res["time_error_certificate_T"]
    assert res["time_error_certificate_T"] < res["component_bound_j1_T"] / 50
