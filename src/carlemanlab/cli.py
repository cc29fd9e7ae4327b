"""Deterministic command-line driver.

Reads a JSON config, dispatches to the library, and writes CSV/JSON artifacts
atomically (temp file + rename).  Identical configs produce byte-identical
outputs: floats are serialised with 17 significant digits, JSON keys are
sorted, and every emitted file embeds the config hash.

Exit codes: 0 success, 2 validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from . import bounds as bd
from . import carleman as carl
from . import cost as ct
from . import nonlinear_ode as node
from . import pde as rd
from . import propagator as prop
from . import stencil as st
from .errors import NumericFailure, SizeLimitError, ValidationError
from .limits import DENSE_MAX_DIM

SCHEMA_VERSION = 1

COMMANDS = ("linearize", "evolve", "bounds", "pde", "cost", "figures", "sweep")

#: the keys a config may hold at its top level
CONFIG_KEYS = (
    "schema_version", "command", "seed", "ode", "pde", "numerics", "output", "figure",
    "figure_params", "axes",
)

#: numeric knobs and their documented defaults; physical parameters have none
NUMERIC_DEFAULTS = {
    "N": None,  # derived from epsilon when absent
    "K": 10,
    "dt": None,
    "epsilon": 0.01,
    "gamma": None,  # a positive number, or a rule in GAMMA_RULES; null is "norm_uin"
    "reference_tol": 1e-10,
    "record_every": None,
}

#: the rules ``numerics.gamma`` may name in place of a number: |u_in| and the
#: stability limit ``max_stable_gamma``
GAMMA_RULES = ("norm_uin", "gamma_max")


# ---------------------------------------------------------------------------
# deterministic serialisation
# ---------------------------------------------------------------------------

def format_number(x: Any) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


#: cell formatters by exact type, each agreeing with :func:`format_number`,
#: which formats every other type
_CELL_FORMATS: dict[type, Callable[[Any], str]] = {
    float: "{:.17g}".format,
    np.float64: "{:.17g}".format,
    int: str,
    np.int64: str,
    str: str,
}


def canonical_config_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config_text(config).encode()).hexdigest()


def atomic_write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` in turn to a temporary file beside ``path``, then
    rename it onto ``path``, so a reader sees the old file or the whole new one."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _row_lines(rows: Iterable) -> Iterator[str]:
    """The CSV text of ``rows``, a row at a time, each cell by :data:`_CELL_FORMATS`."""
    for row in rows:
        yield ",".join([_CELL_FORMATS.get(type(x), format_number)(x) for x in row]) + "\n"


def write_csv(path: str, header: list[str], rows: Iterable, digest: str, config: dict) -> None:
    """A CSV table under two comment lines holding the config's hash and text,
    its ``rows`` formatted and written one at a time."""
    head = f"# config_hash={digest}\n# config={canonical_config_text(config)}\n{','.join(header)}\n"
    atomic_write_text(path, itertools.chain([head], _row_lines(rows)))


def _all_finite(value: Any) -> bool:
    """Whether a JSON payload holds no non-finite float."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    return True


def _finite_or_null(value: Any) -> Any:
    """Replace every non-finite float in a JSON payload with ``None``.

    Only the dicts and lists that hold one are rebuilt; the rest, and an
    all-finite payload, are returned as they are, not copied.
    """
    if _all_finite(value):
        return value
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None


def write_json(path: str, payload: dict, digest: str, config: dict) -> None:
    """Strict JSON: a non-finite float is written as ``null``."""
    body = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": digest,
        "config": config,
        **payload,
    }
    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, itertools.chain(encoder.iterencode(_finite_or_null(body)), ["\n"]))


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

def _require(section: dict, keys: list[str], where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ValidationError(f"{where} section is missing required keys: {missing}")


def _known(section: dict, keys, where: str) -> None:
    """Refuse a key of ``section`` outside ``keys``, so a misspelt one is never ignored."""
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")


def _over_defaults(section: dict, defaults: dict, where: str) -> dict:
    """``section``'s values over ``defaults``, refused when it holds any other key."""
    _known(section, defaults, where)
    return {**defaults, **section}


def _matrix_from_entries(spec: dict | list, shape: tuple[int, int], name: str) -> sp.csr_matrix:
    """A sparse matrix from ``[row, column, value]`` triplets, bare or under ``"entries"``.

    Every cell is read by :func:`real_array`'s rule, and the indices must be
    whole numbers inside ``shape``.
    """
    section = spec if isinstance(spec, dict) else {"entries": spec}
    _require(section, ["entries"], name)
    triplets = real_array(section, "entries", name)
    if triplets.size == 0:
        triplets = triplets.reshape(0, 3)
    if triplets.ndim != 2 or triplets.shape[1] != 3:
        raise ValidationError(f"{name} entries must be [row, column, value] triplets")
    index = triplets[:, :2]
    if not np.all(index == np.floor(index)):
        raise ValidationError(f"{name} entry indices must be whole numbers")
    if not np.all((index >= 0) & (index < shape)):
        raise ValidationError(f"{name} entry index outside its shape {shape}")
    rows, cols = index.astype(np.int64).T
    return sp.csr_matrix((triplets[:, 2], (rows, cols)), shape=shape)


def _matrix_to_entries(matrix: Any) -> dict:
    coo = sp.coo_matrix(matrix)
    return {
        "entries": [[int(r), int(c), float(v)] for r, c, v in zip(coo.row, coo.col, coo.data)]
    }


def ode_from_config(section: dict) -> node.NonlinearODE:
    """Problem schema: n, M, F1 (dense rows or coordinate triplets), FM triplets, u_in, T."""
    keys = ["n", "M", "F1", "FM", "u_in", "T"]
    _require(section, keys, "ode")
    _known(section, keys, "ode")
    n, M = (whole_number(section, key, "ode", required=True) for key in ("n", "M"))
    if isinstance(section["F1"], dict):
        F1 = _matrix_from_entries(section["F1"], (n, n), "ode F1")
    else:
        F1 = real_array(section, "F1", "ode")
    FM = _matrix_from_entries(section["FM"], (n, node.fm_width(n, M)), "ode FM")
    return node.NonlinearODE(
        n=n, M=M, F1=F1, FM=FM, u_in=real_array(section, "u_in", "ode"),
        T=real_number(section, "T", "ode", required=True),
    )


def ode_to_config(ode: node.NonlinearODE) -> dict:
    """Inverse of :func:`ode_from_config`, used when exporting discretisations."""
    return {
        "n": ode.n,
        "M": ode.M,
        "F1": _matrix_to_entries(ode.F1),
        "FM": _matrix_to_entries(ode.FM),
        "u_in": ode.u_in.tolist(),
        "T": ode.T,
    }


def pde_from_config(section: dict) -> rd.ReactionDiffusionProblem:
    keys = ["diffusion", "c", "b", "M", "d", "m", "k", "T", "initial"]
    _require(section, keys, "pde")
    _known(section, keys, "pde")
    init_spec = section["initial"]
    _known(init_spec, ["values", "profile", "amplitude"], "pde initial")
    if "values" in init_spec:
        initial: rd.InitialCondition = real_array(init_spec, "values", "pde initial")
    elif "profile" in init_spec:
        if init_spec["profile"] != "raised_cosine":
            raise ValidationError(
                f"unknown initial profile {init_spec['profile']!r}; known: ['raised_cosine']"
            )
        amp = real_number({"amplitude": 1.0, **init_spec}, "amplitude", "pde", required=True)
        initial = lambda x, a=amp: a * np.prod(1.0 + np.cos(2.0 * np.pi * x), axis=1)  # noqa: E731
    else:
        raise ValidationError("pde initial condition needs 'profile' or 'values'")
    reals = {key: real_number(section, key, "pde", required=True)
             for key in ("diffusion", "c", "b", "T")}
    wholes = {key: whole_number(section, key, "pde", required=True) for key in ("M", "d", "m", "k")}
    return rd.ReactionDiffusionProblem(**reals, **wholes, initial=initial)


def numerics_from_config(config: dict) -> dict:
    """The numerics knobs over their defaults, each number read as a whole or real number.

    A knob with a default needs a value; ``null`` unsets the others.  ``gamma``
    is a positive number unless it names one of :data:`GAMMA_RULES`.
    """
    out = _over_defaults(config.get("numerics", {}), NUMERIC_DEFAULTS, "numerics")
    for key, default in NUMERIC_DEFAULTS.items():
        if key != "gamma":
            read = whole_number if key in ("N", "K", "record_every") else real_number
            out[key] = read(out, key, required=default is not None)
    gamma = out["gamma"]
    if gamma is not None and gamma not in GAMMA_RULES:
        if not (_is_finite_number(gamma) and gamma > 0):
            raise ValidationError(
                f"numerics 'gamma' must be a positive and finite number or one of "
                f"{list(GAMMA_RULES)}, got {gamma!r}"
            )
        out["gamma"] = float(gamma)
    return out


def resolve_problem(config: dict) -> tuple[node.NonlinearODE, rd.ReactionDiffusionProblem | None]:
    if "pde" in config:
        problem = pde_from_config(config["pde"])
        return rd.discretize(problem), problem
    if "ode" in config:
        return ode_from_config(config["ode"]), None
    raise ValidationError("config needs an 'ode' or 'pde' section")


def resolve_gamma(numerics: dict, ode: node.NonlinearODE) -> float:
    gamma = numerics["gamma"]
    if gamma is None or gamma == "norm_uin":
        return float(np.linalg.norm(ode.u_in))
    if gamma == "gamma_max":
        return node.max_stable_gamma(ode)
    return gamma


def real_number(
    section: dict, key: str, where: str = "numerics", required: bool = False
) -> float | None:
    """The float value of ``section[key]``, or ``None`` when it is ``null`` and not ``required``.

    Anything but a finite JSON number (a string, a boolean, a list, ``null``
    where a value is required) is refused, so text is never parsed as a number.
    """
    value = section[key]
    if value is None and not required:
        return None
    if not _is_finite_number(value):
        raise ValidationError(f"{where} {key!r} must be a finite number, got {value!r}")
    return float(value)


def _is_finite_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _leaves(value: Any):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def real_array(section: dict, key: str, where: str) -> np.ndarray:
    """``section[key]``, a number or a rectangular nesting of lists of numbers, as a float array.

    Every number is read by the rule of :func:`real_number`, so text is
    refused here as well.
    """
    for leaf in _leaves(section[key]):
        if not _is_finite_number(leaf):
            raise ValidationError(f"{where} {key!r} must hold finite numbers, got {leaf!r}")
    try:
        return np.array(section[key], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"{where} {key!r} is not a rectangular array") from exc


def whole_array(section: dict, key: str, where: str) -> list[int]:
    """Like :func:`real_array` for a flat list of whole numbers, as Python ints."""
    values = real_array(section, key, where)
    if values.ndim != 1 or not np.all(values == np.floor(values)):
        raise ValidationError(f"{where} {key!r} must be a list of whole numbers")
    return [int(v) for v in values]


def whole_number(
    section: dict, key: str, where: str = "numerics", required: bool = False
) -> int | None:
    """Like :func:`real_number`, the integer value of ``section[key]``.

    A value with a fractional part is refused, so a number is never silently
    truncated; integral floats such as ``10.0`` pass.
    """
    number = real_number(section, key, where, required)
    if number is not None and not number.is_integer():
        raise ValidationError(f"{where} {key!r} must be a whole number, got {section[key]!r}")
    return None if number is None else int(section[key])


def resolve_order(numerics: dict, ode: node.NonlinearODE) -> int:
    if numerics["N"] is not None:
        return numerics["N"]
    R = node.r_ratio(ode)
    return bd.required_carleman_order(R, ode.M, numerics["epsilon"])


def validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    _known(config, CONFIG_KEYS, "config")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version}")
    command = config.get("command")
    if command not in COMMANDS:
        raise ValidationError(f"command must be one of {COMMANDS}, got {command!r}")
    for section in ("numerics", "output"):
        if not isinstance(config.get(section, {}), dict):
            raise ValidationError(f"{section!r} must be a JSON object")
    _known(config.get("output", {}), ["prefix"], "output")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    config: dict
    out_dir: str
    strict_stability: bool
    digest: str
    #: the config's numerics section over its defaults (:func:`numerics_from_config`)
    numerics: dict

    def path(self, suffix: str) -> str:
        prefix = self.config.get("output", {}).get("prefix", "run")
        return os.path.join(self.out_dir, f"{prefix}_{suffix}")


def _cmd_linearize(ctx: RunContext) -> None:
    ode, problem = resolve_problem(ctx.config)
    numerics = ctx.numerics
    gamma = resolve_gamma(numerics, ode)
    N = resolve_order(numerics, ode)
    mat = carl.assemble(node.rescale(ode, gamma), N)
    payload: dict[str, Any] = {
        "results": {
            "n": ode.n,
            "M": ode.M,
            "N": N,
            "gamma": gamma,
            "total_dimension": mat.total_dimension,
            "gershgorin_max_eig_bound": mat.gershgorin_max_eig_bound(),
            "spectral_norm_bound": mat.spectral_norm_bound(),
            "R": node.r_ratio(ode),
        }
    }
    if mat.total_dimension <= DENSE_MAX_DIM:
        payload["results"]["max_row_nonzeros"] = mat.sparsity_count()
    if problem is not None:
        payload["results"]["lambda_carleman"] = carl.lambda_value(
            N, ode.M, gamma, ct.pde_lambda_f1(problem), ode.fm_norm
        )
    write_json(ctx.path("linearize.json"), payload, ctx.digest, ctx.config)


def _reference(ctx: RunContext, ode: node.NonlinearODE, t_eval: np.ndarray) -> node.Trajectory:
    """``ode``'s reference trajectory at ``t_eval``, at the config's ``reference_tol``."""
    return node.reference_solve(ode, tol=ctx.numerics["reference_tol"], t_eval=t_eval)


def _run_pipeline(ctx: RunContext) -> dict:
    """Shared evolve machinery: returns summary metrics and, as float arrays, the
    trajectory table (``t, y_norm, y1_norm, share_1, u_hat_*``) and the reference
    table (``t, u_*``).

    A PDE is stepped in its Fourier form (:func:`~carlemanlab.pde.fourier_form`),
    where F1 is diagonal, a Taylor step can be one matvec and band-limited
    data reaches few coordinates, and level 1 is mapped back to the grid; gamma, N, the reference and the bound come from
    the grid problem.  When the Fourier form or its symmetric operator is over
    a size limit (its nonlinearity couples far more modes than the grid's
    couples points, so it can be while the grid fits), the grid is stepped;
    when the grid is over a limit too, the error names both refusals.
    """
    ode, problem = resolve_problem(ctx.config)
    numerics = ctx.numerics
    gamma = resolve_gamma(numerics, ode)
    N = resolve_order(numerics, ode)
    K = numerics["K"]
    config = prop.PropagationConfig(
        taylor_order=K,
        dt=numerics["dt"],
        strict_stability=ctx.strict_stability,
        record_every=numerics["record_every"],
    )
    fourier, result, refusal = None, None, None
    if problem is not None:
        try:
            fourier = rd.fourier_form(problem)
            mat = carl.assemble(node.rescale(fourier.ode, gamma), N)
            result = prop.evolve(mat, config)
        except SizeLimitError as exc:
            # a denser nonlinearity than the grid's: step the grid problem instead
            fourier, refusal = None, exc
    if result is None:
        mat = carl.assemble(node.rescale(ode, gamma), N)
        try:
            result = prop.evolve(mat, config)
        except SizeLimitError as exc:
            if refusal is None:
                raise
            raise SizeLimitError(f"Fourier form: {refusal}; grid: {exc}") from exc
    block1 = result.block1 if fourier is None else fourier.to_grid(result.block1)
    reference = _reference(ctx, ode, result.times)
    u_hat = gamma * block1
    err = np.linalg.norm(u_hat - reference.u, axis=1)
    # a norm per row: an axis=1 norm rounds differently
    y1_norms = [float(np.linalg.norm(level1)) for level1 in block1]
    # gamma * (|u_in|/gamma) R^k f, taken at gamma = |u_in| so no rescaling rounds it
    bound_T = bd.component_error_bound(ode, N, 1, ode.T) * float(np.linalg.norm(ode.u_in))
    return {
        "trajectory": np.column_stack(
            [result.times, result.y_norms, y1_norms, result.block1_share, u_hat]
        ),
        "reference": np.column_stack([reference.t, reference.u]),
        "n": ode.n,
        "N": N,
        "gamma": gamma,
        "dt": result.dt,
        "n_steps": result.n_steps,
        "K": K,
        "coordinates": "ode" if fourier is None else "fourier",
        "stepping": result.stepping,
        "matvecs": result.matvecs,
        "reach": result.basis.dimension,
        "symmetric_dimension": mat.symmetric_dimension,
        "operator_entries": result.operator_entries,
        "dropped_mass": 0.0 if fourier is None else fourier.dropped_mass,
        "stability_bound": result.stability_bound,
        "final_share": float(result.block1_share[-1]),
        "final_y_norm": float(result.y_norms[-1]),
        "measured_error_T": float(err[-1]),
        "max_measured_error": float(err.max()),
        "component_bound_j1_T": bound_T,
        "step_norm": result.step_norm,
        "time_error_certificate_T": gamma * result.time_error_certificate,
        "reference_method": reference.method,
    }


def _cmd_evolve(ctx: RunContext) -> None:
    summary = _run_pipeline(ctx)
    trajectory = summary.pop("trajectory")
    reference = summary.pop("reference")
    n = summary["n"]
    header = ["t", "y_norm", "y1_norm", "share_1"] + [f"u_hat_{i+1}" for i in range(n)]
    # each row as Python floats, which format faster than np.float64 cells
    write_csv(
        ctx.path("trajectory.csv"), header, map(np.ndarray.tolist, trajectory), ctx.digest,
        ctx.config,
    )
    ref_header = ["t"] + [f"u_{i+1}" for i in range(n)]
    write_csv(
        ctx.path("reference.csv"), ref_header, map(np.ndarray.tolist, reference), ctx.digest,
        ctx.config,
    )
    write_json(ctx.path("evolve.json"), {"results": summary}, ctx.digest, ctx.config)


def _cmd_bounds(ctx: RunContext) -> None:
    ode, _ = resolve_problem(ctx.config)
    numerics = ctx.numerics
    report = bd.make_bound_report(
        ode, numerics["epsilon"], resolve_gamma(numerics, ode), resolve_order(numerics, ode)
    )
    write_json(ctx.path("bounds.json"), {"results": report.as_dict()}, ctx.digest, ctx.config)
    rows = []
    lam = abs(report.lam0)
    for j in sorted(report.eta_bounds):
        k = bd.omega_index(report.N, ode.M, j)
        f_vals = np.asarray(bd.f_closed(j, k, ode.M, lam * report.times))
        for t, f_val, bound in zip(report.times, f_vals, report.eta_bounds[j]):
            rows.append([t, j, k, float(f_val), float(bound)])
    write_csv(
        ctx.path("bound_sweep.csv"), ["t", "j", "k", "f_value", "bound"],
        rows, ctx.digest, ctx.config,
    )


def _cmd_pde(ctx: RunContext) -> None:
    ode, problem = resolve_problem(ctx.config)
    if problem is None:
        raise ValidationError("the 'pde' command needs a pde section")
    numerics = ctx.numerics
    report = rd.stability_report(problem, ode)
    payload: dict[str, Any] = {"results": {"stability": report.as_dict()}}
    derivative_bound = rd.estimate_derivative_bound(problem)
    payload["results"]["derivative_bound_estimate"] = derivative_bound
    try:
        payload["results"]["required_grid_points"] = rd.required_grid_points(
            problem, derivative_bound, numerics["epsilon"]
        )
    except ValidationError as exc:
        payload["results"]["required_grid_points"] = None
        payload["results"]["required_grid_points_note"] = str(exc)
    try:
        N = resolve_order(numerics, ode)
    except ValidationError as exc:
        # R >= 1 with no N given: the max-norm verdicts above still stand
        payload["results"]["maxnorm_bound"] = {"N": None, "note": str(exc)}
    else:
        g_value = st.g_kappa(problem.k)
        maxnorm_T = bd.maxnorm_error_bound(problem, N, 1, problem.T, g_value)
        payload["results"]["maxnorm_bound"] = {
            "N": N,
            "g_kappa": g_value,
            "eta1_at_T": float(maxnorm_T),
            "converges_in_N": bool(np.isfinite(maxnorm_T)),
            "note": "heuristic: presumes a non-increasing max-norm",
        }
    write_json(ctx.path("stability.json"), payload, ctx.digest, ctx.config)
    write_json(ctx.path("ode_config.json"), {"ode": ode_to_config(ode)}, ctx.digest, ctx.config)


def _cmd_cost(ctx: RunContext) -> None:
    ode, problem = resolve_problem(ctx.config)
    numerics = ctx.numerics
    eps = numerics["epsilon"]
    N = resolve_order(numerics, ode)
    if problem is not None and numerics["gamma"] is not None:
        raise ValidationError("the PDE cost model fixes gamma = gamma_max; drop numerics 'gamma'")
    ct.cost_model_ratio(ode)  # R >= 1 is refused before the reference runs
    reference = _reference(ctx, ode, np.array([0.0, ode.T]))
    u_T_norm = float(np.linalg.norm(reference.u[-1]))
    if problem is not None:
        estimate = ct.pde_cost_estimate(ode, problem, N, eps, u_T_norm=u_T_norm)
    else:
        gamma = resolve_gamma(numerics, ode)
        estimate = ct.ode_cost_estimate(ode, gamma, N, eps, u_T_norm=u_T_norm)
    comparison = ct.prior_work_comparison(estimate, ode, eps, problem)
    payload = {
        "results": {
            "estimate": asdict(estimate),
            "prior_work": [asdict(row) for row in comparison],
            "reference_method": reference.method,
        }
    }
    write_json(ctx.path("cost.json"), payload, ctx.digest, ctx.config)


def _cmd_figures(ctx: RunContext) -> None:
    figure = ctx.config.get("figure")
    params = ctx.config.get("figure_params", {})
    where = "figure_params"
    if figure == "maxnorm":
        params = _over_defaults(
            params, {"k_list": [2, 3, 4], "tau_max": 1.0, "n_tau": 400, "m": 64}, where
        )
        k_list = whole_array(params, "k_list", where)
        tau_max = real_number(params, "tau_max", where, required=True)
        n_tau, m = (whole_number(params, key, where, required=True) for key in ("n_tau", "m"))
        rows = []
        for k in k_list:
            taus, norms = st.semigroup_inf_norm_curve(k, tau_max=tau_max, n_tau=n_tau, m=m)
            rows.extend([[k, t, v] for t, v in zip(taus, norms)])
        write_csv(ctx.path("maxnorm.csv"), ["k", "tau", "inf_norm"], rows, ctx.digest, ctx.config)
    elif figure == "fdconv":
        defaults = {"k_list": [1, 2], "m_list": [16, 32, 64, 128]}
        params = _over_defaults(params, defaults, where)
        k_list, m_list = (whole_array(params, key, where) for key in ("k_list", "m_list"))
        table = st.convergence_study(k_list, m_list)
        rows = [[r.order, r.points, r.err_max, r.err_2] for r in table]
        write_csv(ctx.path("fdconv.csv"), ["k", "m", "err_max", "err_2"], rows, ctx.digest, ctx.config)
    elif figure == "eigs":
        params = _over_defaults(params, {"k": 1, "m": 16}, where)
        k, m = (whole_number(params, key, where, required=True) for key in ("k", "m"))
        eigs = st.laplacian_eigenvalues_periodic(k, m)
        rows = [[k, m, ell, val] for ell, val in enumerate(eigs)]
        write_csv(ctx.path("eigs.csv"), ["k", "m", "ell", "eigenvalue"], rows, ctx.digest, ctx.config)
    else:
        raise ValidationError(
            f"unknown figure {figure!r}; known: maxnorm, fdconv, eigs"
        )


_SWEEP_AXES = {
    "N": ("numerics", "N"),
    "K": ("numerics", "K"),
    "dt": ("numerics", "dt"),
    "epsilon": ("numerics", "epsilon"),
    "gamma": ("numerics", "gamma"),
    "m": ("pde", "m"),
    "k": ("pde", "k"),
}


_SWEEP_METRICS = (
    "measured_error_T", "max_measured_error", "component_bound_j1_T",
    "final_share", "final_y_norm", "N", "dt", "n_steps", "reference_method",
)


def _cmd_sweep(ctx: RunContext) -> None:
    axes = ctx.config.get("axes", [])
    if not isinstance(axes, list) or not all(isinstance(axis, dict) for axis in axes):
        raise ValidationError("sweep 'axes' must be a list of JSON objects")
    for axis in axes:
        if axis.get("name") not in _SWEEP_AXES:
            raise ValidationError(
                f"unknown sweep axis {axis.get('name')!r}; known: {sorted(_SWEEP_AXES)}"
            )
        section = _SWEEP_AXES[axis["name"]][0]
        if section != "numerics" and section not in ctx.config:
            raise ValidationError(
                f"sweep axis {axis['name']!r} sets a {section!r} key, but the config has no "
                f"{section!r} section"
            )
        if not isinstance(axis.get("values"), list):
            raise ValidationError(f"sweep axis {axis['name']!r} needs a list of 'values'")
    names = [axis["name"] for axis in axes]
    if len(set(names)) < len(names):
        raise ValidationError(f"sweep axes repeat a name: {names}")
    # a metric that is also an axis (N, dt) would repeat the axis value
    metric_keys = [key for key in _SWEEP_METRICS if key not in names]
    rows = []
    for point in itertools.product(*[axis["values"] for axis in axes]):
        config = copy.deepcopy(ctx.config)
        for name, value in zip(names, point):
            section, key = _SWEEP_AXES[name]
            config.setdefault(section, {})[key] = value
        summary = _run_pipeline(replace(ctx, config=config, numerics=numerics_from_config(config)))
        rows.append(list(point) + [summary[k] for k in metric_keys])
    header = names + metric_keys
    write_csv(ctx.path("sweep.csv"), header, rows, ctx.digest, ctx.config)


_HANDLERS = {
    "linearize": _cmd_linearize,
    "evolve": _cmd_evolve,
    "bounds": _cmd_bounds,
    "pde": _cmd_pde,
    "cost": _cmd_cost,
    "figures": _cmd_figures,
    "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(config: dict, out_dir: str, strict_stability: bool = True) -> None:
    validate_config(config)
    ctx = RunContext(
        config=config,
        out_dir=out_dir,
        strict_stability=strict_stability,
        digest=config_hash(config),
        numerics=numerics_from_config(config),
    )
    os.makedirs(out_dir, exist_ok=True)
    _HANDLERS[config["command"]](ctx)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="carlemanlab",
        description="Carleman-linearisation laboratory: deterministic runs from a JSON config.",
    )
    parser.add_argument("command", nargs="*", help="optional command [target] overriding the config")
    parser.add_argument("--config", help="path to the JSON run config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--strict-stability", type=_parse_bool, default=True,
        help="require a non-positive Gershgorin bound before evolving",
    )
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as handle:
                config = json.load(handle)
        else:
            config = {}
        if not isinstance(config, dict):
            raise ValidationError("config must be a JSON object")
        if args.command:
            command, *extra = args.command
            config["command"] = command
            if command == "figures" and extra:
                config["figure"], *extra = extra
            if extra:
                raise ValidationError(f"unknown arguments after {command!r}: {extra}")
        config.setdefault("schema_version", SCHEMA_VERSION)
        config.setdefault("seed", 0)
        run(config, args.out, strict_stability=args.strict_stability)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
