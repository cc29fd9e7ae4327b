"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).  Where a criterion's stated parameter range
collides with a documented precondition (m >= 2k+1, N > M) the range is
intersected with the valid region; the skipped combinations are listed here:

* criterion 2 drops (m=8, k=4) and (m=8, k=5);
* criteria 4 and 11 drop N <= M (N=2 for M=2; N in {2,3} for M=3).
"""

import dataclasses
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from carlemanlab import bounds as bd
from carlemanlab import carleman as carl
from carlemanlab import cost as ct
from carlemanlab import nonlinear_ode as node
from carlemanlab import pde as rd
from carlemanlab import propagator as prop
from carlemanlab import stencil as st

from conftest import make_two_dim_instance, raised_cosine
from stencil_norms import euler_step_inf_norm


def report(num: int, label: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(
        f"[criterion {num:02d}] {status} {label} ({elapsed:.2f}s / limit {limit:.0f}s)",
        file=sys.__stdout__,
        flush=True,
    )
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < limit, f"criterion {num} exceeded runtime limit: {elapsed:.1f}s"


def test_criterion_01_stencil_golden_table():
    start = time.perf_counter()
    golden = {
        1: ["-2", "1"],
        2: ["-5/2", "4/3", "-1/12"],
        3: ["-49/18", "3/2", "-3/20", "1/90"],
        4: ["-205/72", "8/5", "-1/5", "8/315", "-1/560"],
        5: ["-5269/1800", "5/3", "-5/21", "5/126", "-5/1008", "1/3150"],
    }
    ok = all(
        list(st.stencil_coefficients(k).coefficients)
        == [Fraction(s) for s in golden[k]]
        for k in golden
    )
    report(1, "stencil coefficients match the golden rationals", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_circulant_spectrum():
    start = time.perf_counter()
    worst = 0.0
    for m in (8, 16, 64):
        for k in (1, 2, 3, 4, 5):
            if m < 2 * k + 1:
                continue  # precondition m >= 2k+1
            formula = np.sort(st.laplacian_eigenvalues_periodic(k, m))
            dense = np.sort(np.linalg.eigvalsh(st.build_laplacian_1d(k, m).dense()))
            worst = max(worst, np.abs(formula - dense).max() / np.abs(dense).max())
    report(2, f"circulant spectra match dense (worst rel {worst:.2e})", worst <= 1e-10,
           time.perf_counter() - start, 10.0)


def test_criterion_03_f_oracle_equivalence():
    start = time.perf_counter()
    taus = np.array([0.1, 1.0, 5.0, 10.0])
    worst_pair = 0.0
    for j in range(1, 5):
        for k in range(1, 7):
            for M in (2, 3):
                closed = np.asarray(bd.f_closed(j, k, M, taus))
                quad = np.asarray(bd.f_quadrature(j, k, M, taus))
                worst_pair = max(worst_pair, np.abs(closed - quad).max())
    worst_id = 0.0
    for j in (1, 2, 3):
        for M in (2, 3):
            got = np.asarray(bd.f_closed(j, 1, M, taus))
            worst_id = max(worst_id, np.abs(got - (1 - np.exp(-j * taus))).max())
    for k in range(1, 7):
        got = np.asarray(bd.f_closed(1, k, 2, taus))
        worst_id = max(worst_id, np.abs(got - (1 - np.exp(-taus)) ** k).max())
    ok = worst_pair <= 1e-8 and worst_id <= 1e-10
    report(3, f"f oracles agree (pair {worst_pair:.1e}, identities {worst_id:.1e})", ok,
           time.perf_counter() - start, 30.0)


def _near_exact_block1_errors(ode, N_values, ref):
    """Max-over-time and per-time rescaled level-1 errors for each order."""
    gamma = float(np.linalg.norm(ode.u_in))
    per_order = {}
    for N in N_values:
        mat = carl.assemble(node.rescale(ode, gamma), N)
        config = prop.PropagationConfig(taylor_order=16, dt=1e-3, record_every=10)
        res = prop.evolve(mat, config)
        eta = np.linalg.norm(res.block1 - ref.u / gamma, axis=1)
        bound = np.asarray(bd.component_error_bound(ode, N, 1, res.times, gamma=gamma))
        slack = 10 * 1e-10 + res.time_error_certificate
        per_order[N] = (eta, bound, slack)
    return per_order


def test_criterion_04_component_bound_dominance_and_decay():
    start = time.perf_counter()
    instances = [("scalar", node.NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[0.5]], u_in=[1.0], T=1.0), 0.5)]
    instances += [
        (f"n2_M{M}_R{R}", make_two_dim_instance(M, R), R)
        for M in (2, 3)
        for R in (0.3, 0.6)
    ]
    dominated = True
    ratios_ok = True
    for label, ode, R in instances:
        M = ode.M
        orders = [N for N in range(2, 9) if N > M]
        ref = node.reference_solve(ode, T=1.0, tol=1e-10, t_eval=np.linspace(0, 1, 101))
        per_order = _near_exact_block1_errors(ode, orders, ref)
        maxima = []
        for N in orders:
            eta, bound, slack = per_order[N]
            dominated &= bool(np.all(eta <= bound + slack))
            maxima.append(eta.max())
        steps = [b / a for a, b in zip(maxima, maxima[1:])]
        geo = math.exp(np.mean(np.log(steps)))
        target = R ** (1.0 / (M - 1))
        ratios_ok &= target / 2 <= geo <= 2 * target
    report(4, "level-1 bound dominates measured error; decay tracks R^(1/(M-1))",
           dominated and ratios_ok, time.perf_counter() - start, 120.0)


def test_criterion_05_order_selector_plug_back(bernoulli_ode):
    start = time.perf_counter()
    N = bd.required_carleman_order(0.5, 2, 1e-2)
    selector_ok = N == 7
    gamma = 1.0
    mat = carl.assemble(node.rescale(bernoulli_ode, gamma), N)
    config = prop.PropagationConfig(taylor_order=12, dt=1.0 / 500, record_every=5)
    res = prop.evolve(mat, config)
    ref = node.reference_solve(bernoulli_ode, T=1.0, tol=1e-10, t_eval=res.times)
    rel_err = np.abs(gamma * res.block1[:, 0] - ref.u[:, 0]).max()  # |u_in| = 1
    report(5, f"N=7 from the selector; pipeline error {rel_err:.2e} <= 1e-2",
           selector_ok and rel_err <= 1e-2, time.perf_counter() - start, 60.0)


def test_criterion_06_probability_guarantee():
    start = time.perf_counter()
    ok = True
    for N in range(1, 65):
        for r in np.linspace(0.0, 1.0, 11):
            ok &= prop.success_probability(r, 1.0, N) >= 1.0 / N - 1e-12
        ok &= abs(prop.success_probability(1.0, 1.0, N) - 1.0 / N) <= 1e-12
    report(6, "measurement probability >= 1/N on the grid, exact at r=1", ok,
           time.perf_counter() - start, 1.0)


def test_criterion_07_gershgorin_randomised():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    checked = 0
    ok = True
    while checked < 20:
        n = int(rng.integers(1, 4))
        M = int(rng.integers(2, 4))
        N = int(rng.integers(M + 1, 6))
        G = rng.standard_normal((n, n))
        margin = rng.uniform(0.2, 1.0)
        F1 = G - (node.lambda0(G) + margin) * np.eye(n)
        nnz = int(rng.integers(1, n + 2))
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n**M, nnz)
        vals = rng.standard_normal(nnz)
        FM_raw = sp.csr_matrix((vals, (rows, cols)), shape=(n, n**M))
        u_in = rng.standard_normal(n)
        if np.linalg.norm(u_in) < 1e-3 or FM_raw.nnz == 0:
            continue
        probe = node.NonlinearODE(n=n, M=M, F1=F1, FM=FM_raw, u_in=u_in, T=1.0)
        target_R = rng.uniform(0.05, 0.95)
        scale = target_R * abs(node.lambda0(F1)) / (
            node.fm_spectral_norm(probe) * np.linalg.norm(u_in) ** (M - 1)
        )
        ode = node.NonlinearODE(n=n, M=M, F1=F1, FM=FM_raw * scale, u_in=u_in, T=1.0)
        gamma_max = node.max_stable_gamma(ode)
        factor = rng.uniform(0.3, 1.0) if checked % 2 == 0 else rng.uniform(1.05, 1.5)
        gamma = gamma_max * factor
        mat = carl.assemble(node.rescale(ode, gamma), N)
        bound = mat.gershgorin_max_eig_bound()
        dense = mat.dense()
        top = np.linalg.eigvalsh(0.5 * (dense + dense.T))[-1]
        ok &= top <= bound + 1e-10
        if gamma <= gamma_max:
            ok &= bound <= 1e-10
        checked += 1
    report(7, "block Gershgorin bound dominates and certifies stability", ok,
           time.perf_counter() - start, 30.0)


def test_criterion_08_semigroup_infnorm_figure():
    start = time.perf_counter()
    peaks = {k: st.g_kappa(k, tau_max=1.0, n_tau=400) for k in (2, 3, 4)}
    tau = 1e-6
    slope = (euler_step_inf_norm(2, tau) - 1.0) / tau
    ok = (
        1.0 < peaks[2] <= 1.01
        and abs(slope - 1.0 / 3.0) <= 1e-3
        and peaks[3] > peaks[2]
        and peaks[4] > peaks[2]
    )
    report(8, f"semigroup peaks {peaks[2]:.4f} < {peaks[3]:.4f}, {peaks[4]:.4f}; slope 1/3",
           ok, time.perf_counter() - start, 30.0)


def test_criterion_09_fd_convergence_figure():
    start = time.perf_counter()
    table = st.convergence_study([1, 2], [16, 32, 64, 128])
    e1 = {r.points: r.err_max for r in table if r.order == 1}
    e2 = {r.points: r.err_max for r in table if r.order == 2}
    better = all(e2[m] < e1[m] for m in (16, 32, 64, 128))
    orders_ok = True
    for k, errs in ((1, e1), (2, e2)):
        ms = sorted(errs)
        slope = np.polyfit(np.log(ms), np.log([errs[m] for m in ms]), 1)[0]
        orders_ok &= -slope >= 2 * k - 1
    report(9, "Dirichlet study: k=2 beats k=1 and orders reach 2k-1",
           better and orders_ok, time.perf_counter() - start, 30.0)


def test_criterion_10_taylor_step_order():
    start = time.perf_counter()
    A = np.array([[-1.0, 0.3], [0.1, -0.7]])
    y = np.array([0.8, -0.5])
    ok = True
    for K in (2, 4):
        dts = np.array([0.5, 0.35, 0.25, 0.18])
        defects = []
        for dt in dts:
            exact = scipy.linalg.expm(A * dt) @ y
            approx = prop.taylor_step(lambda v: A @ v, y, dt, K)
            defects.append(np.linalg.norm(approx - exact))
        slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
        ok &= abs(slope - (K + 1)) <= 0.3
    report(10, "one-step defect scales as dt^(K+1) for K in {2,4}", ok,
           time.perf_counter() - start, 10.0)


def test_criterion_11_sparsity_bound():
    start = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        pde = rd.ReactionDiffusionProblem(
            diffusion=1.0, c=-2.0, b=0.3, M=2, d=1, m=8, k=k,
            initial=lambda x: 0.2 + 0.0 * x[:, 0], T=1.0,
        )
        ode = rd.discretize(pde)
        for N in (3, 4, 5):  # N=2 is below the admissible truncation order
            measured = carl.assemble(ode, N).sparsity_count()
            ok &= measured <= N * (2 * k + 1) + N
    report(11, "assembled row sparsity within N(2k+1)+N", ok, time.perf_counter() - start, 30.0)


def test_criterion_12_cost_sanity(bernoulli_ode):
    start = time.perf_counter()
    # lambda budget at the stability limit, with norm-proportional encodings
    gamma_max = node.max_stable_gamma(bernoulli_ode)
    lam = carl.lambda_value(7, 2, gamma_max, 1.0, 0.5)
    budget_ok = lam <= 2 * 7 * 1.0
    demo = rd.ReactionDiffusionProblem(
        diffusion=0.2, c=-2.0, b=0.5, M=2, d=1, m=32, k=2, initial=raised_cosine, T=1.0
    )
    N_demo = bd.required_carleman_order(node.r_ratio(rd.discretize(demo)), demo.M, 0.05)
    est = ct.pde_cost_estimate(demo, N_demo, 0.05, u_T_norm=1.0)
    budget_ok &= est.lambda_carleman <= 2 * est.N * ct.pde_lambda_f1(demo)
    # continuity of the amplification factor at r = |u_in|/gamma -> 1
    N = 9
    cont_ok = True
    for gamma in (1.0 - 1e-10, 1.0, 1.0 + 1e-10):
        amp = ct.amplification_factor(1.0, 1.0, gamma, N, 2)
        cont_ok &= abs(amp - math.sqrt(N)) <= 1e-8
    # prior-work order selector blows up at unit input norm
    unit = dataclasses.replace(est, u_in_norm=1.0, u_T_norm=0.5, N=7)
    rows = ct.prior_work_comparison(
        unit, T=1.0, eps=0.01, lam_f1=1.0, fm_norm=0.5, M=2, n=2, decay=1.0
    )
    prior = next(r for r in rows if r.name == "taylor_carleman_prior")
    sentinel_ok = math.isinf(prior.calls) and math.isinf(prior.detail["N_prior"])
    report(12, "lambda budget, amplification continuity, and the infinite-N sentinel",
           budget_ok and cont_ok and sentinel_ok, time.perf_counter() - start, 1.0)


def test_criterion_13_end_to_end_pde_demo():
    start = time.perf_counter()
    pde = rd.ReactionDiffusionProblem(
        diffusion=0.2, c=-2.0, b=0.5, M=2, d=1, m=32, k=2, initial=raised_cosine, T=1.0
    )
    ode = rd.discretize(pde)
    verdicts = rd.stability_report(pde)
    gamma = float(np.linalg.norm(ode.u_in))
    N = 3
    mat = carl.assemble(node.rescale(ode, gamma), N)
    config = prop.PropagationConfig(taylor_order=10)
    res = prop.evolve(mat, config)
    ref = node.reference_solve(ode, T=1.0, tol=1e-10, t_eval=np.array([0.0, 1.0]))
    eta_T = np.linalg.norm(res.block1[-1] - ref.u[-1] / gamma)
    bound_T = bd.component_error_bound(ode, N, 1, 1.0, gamma=gamma)
    ok = verdicts.all_pass and eta_T <= bound_T + res.time_error_certificate + 10 * 1e-10
    report(13, f"PDE demo: all verdicts pass, eta(T)={eta_T:.2e} within {bound_T:.2e}+certificate",
           ok, time.perf_counter() - start, 120.0)
