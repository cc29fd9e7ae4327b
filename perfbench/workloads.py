"""The four benchmark workloads: seeded inputs, the calls they make, their checks.

Every workload starts from the raised-cosine profile
``amp * prod_axes (1 + cos 2 pi x)``.  The seed picks a phase shift per axis
and a small perturbation in the two lowest Fourier modes per axis; the
perturbed profile is then rescaled so that its 2-norm on each grid equals the
unperturbed one.  R, gamma, the Carleman order N and the Taylor step count
therefore do not depend on the seed, while the values the program sees do.
The program receives only the tabulated ``initial.values``.

Layers are always called through their module attribute (``rd.discretize``,
never a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("demo_evolve", "d2_structured_evolve", "d2_analysis", "pde_refine")

#: relative size of each low-mode coefficient of the seeded perturbation
PERTURBATION = 0.02

#: the paper's demo PDE (acceptance criterion 13)
DEMO = {"diffusion": 0.2, "c": -2.0, "b": 0.5, "M": 2, "d": 1, "m": 32, "k": 2, "T": 1.0}

PROBLEMS = {
    "demo_evolve": {**DEMO, "amplitude": 0.4},
    # dimension 266 304 > assembled_cap, so evolve takes the structured path
    "d2_structured_evolve": {**DEMO, "d": 2, "m": 8, "k": 1, "T": 0.25, "amplitude": 0.2},
    # n = 1600: dense lambda0 dominates; R is about 0.3
    "d2_analysis": {**DEMO, "d": 2, "m": 40, "b": 0.1, "amplitude": 0.1},
    "pde_refine": {**DEMO, "amplitude": 0.4},
}

EVOLVE_NUMERICS = {"N": 3, "K": 10}
REFINE_GRIDS = (16, 32, 64, 128)
REFINE_ORDERS = (2, 3)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def grid(m: int, d: int) -> np.ndarray:
    """Row-major coordinates ``(m**d, d)`` with spacing ``1/m``, as the pde module lays them out."""
    mesh = np.meshgrid(*([np.arange(m) / m] * d), indexing="ij")
    return np.stack([axis.reshape(-1) for axis in mesh], axis=1)


def raised_cosine(x: np.ndarray, amplitude: float) -> np.ndarray:
    return amplitude * np.prod(1.0 + np.cos(2.0 * np.pi * x), axis=1)


def seed_params(seed: int, d: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "shift": rng.uniform(0.0, 1.0, d),
        "coef": PERTURBATION * rng.standard_normal((d, 2)),
        "phase": rng.uniform(0.0, 2.0 * np.pi, (d, 2)),
    }


def seeded_profile(params: dict, m: int, d: int, amplitude: float) -> np.ndarray:
    """Shifted, perturbed raised cosine with the unperturbed 2-norm on this grid."""
    x = grid(m, d)
    base = raised_cosine(x, amplitude)
    values = raised_cosine(x + params["shift"], amplitude)
    modes = np.arange(1, 3)
    for axis in range(d):
        waves = np.cos(2.0 * np.pi * modes * x[:, axis, None] + params["phase"][axis])
        values = values + amplitude * waves @ params["coef"][axis]
    return values * (np.linalg.norm(base) / np.linalg.norm(values))


def problem_spec(name: str, **overrides) -> dict:
    """Keyword arguments of the workload's ``ReactionDiffusionProblem``, less ``initial``."""
    spec = {key: v for key, v in PROBLEMS[name].items() if key != "amplitude"}
    spec.update(overrides)
    return spec


def build_inputs(name: str, seed: int, work: str) -> dict:
    """Generate the workload's inputs; CLI configs are written under ``work``."""
    spec = PROBLEMS[name]
    params = seed_params(seed, spec["d"])
    if name == "pde_refine":
        return {
            "values": {
                m: seeded_profile(params, m, spec["d"], spec["amplitude"]) for m in REFINE_GRIDS
            }
        }
    values = seeded_profile(params, spec["m"], spec["d"], spec["amplitude"])
    pde = {**problem_spec(name), "initial": {"values": values.tolist()}}
    if name == "d2_analysis":
        commands = ("linearize", "bounds", "cost")
        configs = [{"command": c, "pde": pde, "numerics": {"epsilon": 0.01}} for c in commands]
    else:
        configs = [{"command": "evolve", "pde": pde, "numerics": dict(EVOLVE_NUMERICS)}]
    paths = []
    for config in configs:
        path = os.path.join(work, f"{config['command']}_config.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        paths.append(path)
    return {"config_paths": paths, "configs": configs}


# ---------------------------------------------------------------------------
# workload bodies
# ---------------------------------------------------------------------------

def run_workload(name: str, inputs: dict, out: str) -> list[str]:
    """Make the workload's calls; returns failure messages (empty when all succeed)."""
    if name == "pde_refine":
        return _run_refine(inputs, out)
    from carlemanlab import cli

    failures = []
    for path in inputs["config_paths"]:
        code = cli.main(["--config", path, "--out", out])
        if code != 0:
            failures.append(f"carlemanlab exited {code} on {os.path.basename(path)}")
    return failures


def _run_refine(inputs: dict, out: str) -> list[str]:
    from carlemanlab import nonlinear_ode as node
    from carlemanlab import pde as rd

    finals = {}
    for k in REFINE_ORDERS:
        for m in REFINE_GRIDS:
            problem = rd.ReactionDiffusionProblem(
                initial=inputs["values"][m], **problem_spec("pde_refine", m=m, k=k)
            )
            traj = node.reference_solve(
                rd.discretize(problem), T=problem.T, tol=1e-10, t_eval=np.array([0.0, problem.T])
            )
            finals[f"k{k}_m{m}"] = [float(v).hex() for v in traj.u[-1]]
    with open(os.path.join(out, "refine.json"), "w") as handle:
        json.dump(finals, handle, indent=1, sort_keys=True)
    return []


# ---------------------------------------------------------------------------
# checks (run after tracing is removed) and the level-1 accuracy figure
# ---------------------------------------------------------------------------

def _load(out: str, filename: str) -> dict:
    with open(os.path.join(out, filename)) as handle:
        return json.load(handle)


def check(name: str, inputs: dict, out: str) -> tuple[list[str], float]:
    """Correctness checks and ``level1_err``; failures are returned as messages.

    ``level1_err`` is the workload's level-1 solution error, lower is better:
    ``|gamma y_1(T) - u_ref(T)|_2`` on the evolve workloads, the bound on it
    (``gamma eta_1(T)`` from the bounds report) on ``d2_analysis``, and the
    max-norm error of the m=32, k=2 solution against the m=128, k=3 one on
    ``pde_refine``.
    """
    if name == "pde_refine":
        return _check_refine(out)
    if name == "d2_analysis":
        return _check_analysis(out)
    return _check_evolve(inputs["configs"][0], out)


def _check_evolve(config: dict, out: str) -> tuple[list[str], float]:
    """Criterion 13: ``eta(T) <= bound(T) + n_steps * Taylor defect + 1e-9``, rescaled units."""
    from carlemanlab import carleman as carl
    from carlemanlab import nonlinear_ode as node
    from carlemanlab import pde as rd
    from carlemanlab import propagator as prop

    res = _load(out, "run_evolve.json")["results"]
    spec = dict(config["pde"])
    values = np.asarray(spec.pop("initial")["values"])
    ode = rd.discretize(rd.ReactionDiffusionProblem(initial=values, **spec))
    gamma, N = res["gamma"], res["N"]
    mat = carl.assemble(node.rescale(ode, gamma), N)
    y0_norm = carl.initial_vector(ode.u_in, gamma, N).norm()
    defect = res["n_steps"] * prop.taylor_step_defect_bound(
        mat.spectral_norm_bound(), res["dt"], res["K"], y0_norm
    )
    eta = res["measured_error_T"] / gamma
    allowed = res["component_bound_j1_T"] / gamma + defect + 1e-9
    failures = []
    if not np.isfinite(eta) or eta > allowed:
        failures.append(f"criterion 13: eta(T) = {eta:.3e} exceeds {allowed:.3e}")
    return failures, float(res["measured_error_T"])


def _check_analysis(out: str) -> tuple[list[str], float]:
    lin = _load(out, "run_linearize.json")["results"]
    rep = _load(out, "run_bounds.json")["results"]
    _load(out, "run_cost.json")
    failures = []
    if not lin["gershgorin_max_eig_bound"] <= 0:
        failures.append(f"Gershgorin bound {lin['gershgorin_max_eig_bound']} > 0")
    if not (lin["R"] < 1 and rep["R"] < 1):
        failures.append(f"R = {lin['R']} is not below 1")
    curves = np.array([rep["eta_bounds"][j] for j in sorted(rep["eta_bounds"])], dtype=float)
    if curves.size == 0 or not np.all(np.isfinite(curves)):
        failures.append("bound curves are empty or not finite")
    return failures, float(rep["gamma"] * rep["eta_bounds"]["1"][-1])


def _check_refine(out: str) -> tuple[list[str], float]:
    """Tier-1 refinement rule: observed order at k=2 is at least 2k - 1 - 0.5."""
    finals = {
        key: np.array([float.fromhex(v) for v in vals])
        for key, vals in _load(out, "refine.json").items()
    }
    fine = finals[f"k3_m{REFINE_GRIDS[-1]}"]
    k = 2
    errors = {}
    for m in (16, 32):
        stride = REFINE_GRIDS[-1] // m
        errors[m] = float(np.abs(finals[f"k{k}_m{m}"] - fine[::stride]).max())
    failures = []
    if not errors[32] < errors[16]:
        failures.append(f"error did not shrink: {errors[16]:.3e} -> {errors[32]:.3e}")
    else:
        order = np.log2(errors[16] / errors[32])
        if order < 2 * k - 1 - 0.5:
            failures.append(f"observed order {order:.2f} below {2 * k - 1 - 0.5}")
    return failures, errors[32]


# ---------------------------------------------------------------------------
# known defects, probed so that a fix shows in the counters
# ---------------------------------------------------------------------------

def probe_known_defects() -> dict[str, int]:
    """1 for each known defect that still reproduces, 0 once it is fixed."""
    from carlemanlab import bounds as bd
    from carlemanlab import cli
    from carlemanlab import nonlinear_ode as node
    from carlemanlab import pde as rd
    from carlemanlab.errors import ValidationError

    out = {}
    spec = problem_spec("d2_analysis")
    m, d = spec["m"], spec["d"]
    problem = rd.ReactionDiffusionProblem(initial=raised_cosine(grid(m, d), 0.1), **spec)
    try:
        cli.ode_to_config(rd.discretize(problem))
        out["defects.pde_export_refused"] = 0
    except ValidationError:
        out["defects.pde_export_refused"] = 1
    bernoulli = node.NonlinearODE(n=1, M=2, F1=[[-1.0]], FM=[[0.5]], u_in=[1.0], T=1.0)
    try:
        bd.component_error_bound(bernoulli, 30, 1, np.linspace(0.0, 1.0, 101))
        out["defects.bernoulli_n30_refused"] = 0
    except ValidationError:
        out["defects.bernoulli_n30_refused"] = 1
    return out
