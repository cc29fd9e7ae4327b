"""Config ingestion, artifact determinism, exit codes, and command dispatch."""

import json
import os
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from carlemanlab import bounds as bd
from carlemanlab import carleman as carl
from carlemanlab import cli
from carlemanlab import nonlinear_ode as node
from carlemanlab import pde as rd
from carlemanlab import propagator as prop
from carlemanlab.errors import SizeLimitError
from carlemanlab.limits import KRON_MAX_SIZE
from carlemanlab.stencil import laplacian_eigenvalues_periodic

from conftest import full_spectrum

BERNOULLI = {
    "schema_version": 1,
    "command": "bounds",
    "ode": {
        "n": 1,
        "M": 2,
        "F1": [[-1.0]],
        "FM": {"entries": [[0, 0, 0.5]]},
        "u_in": [1.0],
        "T": 1.0,
    },
    "numerics": {"epsilon": 0.01},
    "output": {"prefix": "demo"},
    "seed": 0,
}

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ODE_COUPLED = json.loads((CONFIGS / "ode_coupled.json").read_text())

PDE_DEMO = {
    "schema_version": 1,
    "command": "pde",
    "pde": {
        "diffusion": 0.2, "c": -2.0, "b": 0.5, "M": 2, "d": 1, "m": 16, "k": 2,
        "T": 1.0, "initial": {"profile": "raised_cosine", "amplitude": 0.4},
    },
    "numerics": {"epsilon": 0.5},
    "output": {"prefix": "demo"},
    "seed": 0,
}


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.fixture(autouse=True)
def artifacts_are_strict_json(tmp_path):
    """Every JSON artifact a test leaves behind parses without NaN/Infinity."""
    yield
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=reject_constant)


def run_config(config, tmp_path, name="cfg.json", extra_args=()):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return cli.main(["--config", str(path), "--out", str(tmp_path), *extra_args])


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("# config=")
    header = lines[2].split(",")
    rows = [line.split(",") for line in lines[3:]]
    return header, rows


class TestBoundsCommand:
    def test_emits_report_with_expected_ratio(self, tmp_path):
        assert run_config(BERNOULLI, tmp_path) == 0
        payload = json.loads((tmp_path / "demo_bounds.json").read_text())
        assert payload["results"]["R"] == pytest.approx(0.5)
        assert payload["results"]["required_N"] == 7
        assert payload["config_hash"] == cli.config_hash(BERNOULLI)
        assert "notes" not in payload["results"]

    def test_bound_sweep_columns(self, tmp_path):
        run_config(BERNOULLI, tmp_path)
        header, rows = read_csv(tmp_path / "demo_bound_sweep.csv")
        assert header == ["t", "j", "k", "f_value", "bound"]
        assert len(rows) == 7 * 101


class TestThreeDimensionalGrid:
    """d=3, m=32, k=2 (n = 32 768): one dense copy of F1 would take 8.6 GB."""

    @pytest.mark.parametrize("command", ["linearize", "bounds"])
    def test_runs_without_a_dense_copy(self, tmp_path, command):
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = command
        # R is about 0.17 at this amplitude; N = 3 keeps n + n^2 + n^3 addressable
        config["pde"].update(d=3, m=32, k=2, b=0.1, initial={
            "profile": "raised_cosine", "amplitude": 0.01,
        })
        config["numerics"] = {"N": 3, "epsilon": 0.01}
        tracemalloc.start()
        try:
            code = run_config(config, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 256 * 10**6
        results = json.loads((tmp_path / f"demo_{command}.json").read_text())["results"]
        assert results["R"] < 1


class TestFiguresCommand:
    def test_maxnorm_curve(self, tmp_path):
        config = {
            "schema_version": 1, "command": "figures", "figure": "maxnorm",
            "figure_params": {"k_list": [2, 3, 4], "n_tau": 300},
            "output": {"prefix": "fig"}, "seed": 0,
        }
        assert run_config(config, tmp_path) == 0
        header, rows = read_csv(tmp_path / "fig_maxnorm.csv")
        assert header == ["k", "tau", "inf_norm"]
        peaks = {}
        for k_str, _, norm_str in rows:
            k = int(k_str)
            peaks[k] = max(peaks.get(k, 0.0), float(norm_str))
        assert 1.0 < peaks[2] <= 1.01
        assert peaks[3] > peaks[2] and peaks[4] > peaks[2]

    def test_fdconv_table(self, tmp_path):
        config = {
            "schema_version": 1, "command": "figures", "figure": "fdconv",
            "figure_params": {"k_list": [1, 2], "m_list": [16, 32]},
            "output": {"prefix": "fig"}, "seed": 0,
        }
        assert run_config(config, tmp_path) == 0
        header, rows = read_csv(tmp_path / "fig_fdconv.csv")
        assert header == ["k", "m", "err_max", "err_2"]
        assert len(rows) == 4

    def test_eigs_rows_are_the_circulant_spectrum(self, tmp_path):
        config = {
            "schema_version": 1, "command": "figures", "figure": "eigs",
            "figure_params": {"k": 2, "m": 12}, "output": {"prefix": "fig"}, "seed": 0,
        }
        assert run_config(config, tmp_path) == 0
        header, rows = read_csv(tmp_path / "fig_eigs.csv")
        assert header == ["k", "m", "ell", "eigenvalue"]
        assert [(int(k), int(m), int(ell)) for k, m, ell, _ in rows] == [(2, 12, l) for l in range(12)]
        got = [float(row[3]) for row in rows]
        assert got == laplacian_eigenvalues_periodic(2, 12).tolist()

    def test_eigs_without_a_config_takes_the_defaults(self, tmp_path):
        assert cli.main(["figures", "eigs", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "run_eigs.csv")
        assert [(int(k), int(m), int(ell)) for k, m, ell, _ in rows] == [(1, 16, l) for l in range(16)]

    def test_unknown_figure_is_validation_error(self, tmp_path):
        config = {"schema_version": 1, "command": "figures", "figure": "nope", "seed": 0}
        assert run_config(config, tmp_path) == 2

    @pytest.mark.parametrize(
        "figure, params",
        [
            ("eigs", {"k": 1.9, "m": "16"}),
            ("maxnorm", {"k_list": [2.5], "n_tau": 200, "m": 16}),
            ("maxnorm", {"k_list": [2], "tau_max": "1.0", "n_tau": 200, "m": 16}),
            ("fdconv", {"m_list": ["16"]}),
            ("fdconv", {"k_list": [2], "m_list": [4]}),  # fewer than 2k+1 points
        ],
    )
    def test_malformed_figure_params_are_validation_exit(self, tmp_path, figure, params):
        config = {
            "schema_version": 1, "command": "figures", "figure": figure,
            "figure_params": params, "output": {"prefix": "fig"}, "seed": 0,
        }
        assert run_config(config, tmp_path) == 2
        assert not list(tmp_path.glob("fig_*.csv"))


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        config = {
            "schema_version": 1, "command": "figures", "figure": "maxnorm",
            "figure_params": {"k_list": [2], "n_tau": 256},
            "output": {"prefix": "det"}, "seed": 0,
        }
        run_config(config, tmp_path)
        first = (tmp_path / "det_maxnorm.csv").read_bytes()
        run_config(config, tmp_path)
        second = (tmp_path / "det_maxnorm.csv").read_bytes()
        assert first == second

    def test_no_temp_files_left_behind(self, tmp_path):
        run_config(BERNOULLI, tmp_path)
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")]
        assert leftovers == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("old\n")

        def chunks():
            yield "new,"
            raise RuntimeError("formatter failed")

        with pytest.raises(RuntimeError, match="formatter failed"):
            cli.atomic_write_text(str(path), chunks())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_hash_tracks_config_changes(self, tmp_path):
        run_config(BERNOULLI, tmp_path)
        h1 = json.loads((tmp_path / "demo_bounds.json").read_text())["config_hash"]
        changed = json.loads(json.dumps(BERNOULLI))
        changed["numerics"]["epsilon"] = 0.02
        run_config(changed, tmp_path)
        h2 = json.loads((tmp_path / "demo_bounds.json").read_text())["config_hash"]
        assert h1 != h2


class TestPdeCommand:
    def test_stability_and_export(self, tmp_path):
        assert run_config(PDE_DEMO, tmp_path) == 0
        stability = json.loads((tmp_path / "demo_stability.json").read_text())
        assert stability["results"]["stability"]["all_pass"] is True
        maxnorm = stability["results"]["maxnorm_bound"]
        assert maxnorm["converges_in_N"] is True
        assert 0.0 <= maxnorm["eta1_at_T"] <= 1.0
        assert maxnorm["g_kappa"] > 1.0
        exported = json.loads((tmp_path / "demo_ode_config.json").read_text())["ode"]
        ode = cli.ode_from_config(exported)
        assert ode.n == 16
        assert ode.fm_is_one_sparse
        want = rd.discretize(cli.pde_from_config(PDE_DEMO["pde"]))
        assert isinstance(ode.F1, sp.csr_matrix)
        np.testing.assert_array_equal(ode.F1.toarray(), want.F1.toarray())

    def test_export_above_the_dense_f1_limit(self, tmp_path):
        config = json.loads(json.dumps(PDE_DEMO))
        config["pde"].update(d=2, m=24, b=0.1)  # n = 576; R < 1 needs the smaller b
        assert run_config(config, tmp_path) == 0
        exported = json.loads((tmp_path / "demo_ode_config.json").read_text())["ode"]
        ode = cli.ode_from_config(exported)
        want = rd.discretize(cli.pde_from_config(config["pde"]))
        assert ode.n == 576
        assert ode.fm_is_one_sparse
        assert isinstance(ode.F1, sp.csr_matrix)
        assert (ode.F1 != want.F1).nnz == 0

    def test_required_grid_is_refused_where_the_bound_cannot_decay(self, tmp_path):
        # 2(2k - 1) <= d: at k = 1, d = 2 the 2-norm error bound does not fall with n
        config = json.loads(json.dumps(PDE_DEMO))
        config["pde"].update(d=2, m=8, k=1, initial={"profile": "raised_cosine", "amplitude": 0.1})
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "demo_stability.json").read_text())["results"]
        assert results["required_grid_points"] is None
        note = results["required_grid_points_note"]
        assert "k=1" in note and "d=2" in note

    def test_max_norm_verdict_is_written_where_r_exceeds_one(self, tmp_path):
        # the abstract's conflict: at amplitude 1 the 2-norm ratio R = 1.73 admits
        # no order, while the max-norm criterion holds (lhs 0.5)
        config = json.loads((CONFIGS / "demo_pde_k4.json").read_text())
        config["pde"]["initial"]["amplitude"] = 1.0
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "demo_pde_k4_stability.json").read_text())["results"]
        assert results["stability"]["pde_max_norm"]["ok"] is True
        assert results["stability"]["ode_two_norm"]["ok"] is False
        maxnorm = results["maxnorm_bound"]
        assert maxnorm["N"] is None and "0 < R < 1" in maxnorm["note"]
        assert (tmp_path / "demo_pde_k4_ode_config.json").exists()

    def test_explicit_order_is_used_where_r_exceeds_one(self, tmp_path):
        config = json.loads((CONFIGS / "demo_pde_k4.json").read_text())
        config["pde"]["initial"]["amplitude"] = 1.0
        config["numerics"]["N"] = 5
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "demo_pde_k4_stability.json").read_text())["results"]
        maxnorm = results["maxnorm_bound"]
        assert maxnorm["N"] == 5
        assert np.isfinite(maxnorm["eta1_at_T"])

    @pytest.mark.parametrize("eps", [1e-200, 1e-320])
    def test_grid_past_the_float_range_is_a_note(self, tmp_path, eps):
        # the second-order stencil's grid for these eps is past the float range:
        # the run writes its verdicts and names the refusal instead of crashing
        config = json.loads((CONFIGS / "demo_pde_k4.json").read_text())
        config["pde"].update(k=1, m=16)
        config["numerics"]["epsilon"] = eps
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "demo_pde_k4_stability.json").read_text())["results"]
        assert results["required_grid_points"] is None
        assert "more grid points than a float holds" in results["required_grid_points_note"]
        # the max-norm bound at this order underflows: it is floored, not written as 0.0
        assert results["maxnorm_bound"]["eta1_at_T"] > 0

    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_non_dissipative_problem_is_refused(self, tmp_path, capsys, c):
        # on a periodic grid lambda0 is exactly c, so every c >= 0 is refused
        config = json.loads((CONFIGS / "demo_pde_k4.json").read_text())
        config["pde"]["c"] = c
        assert run_config(config, tmp_path) == 2
        assert "not dissipative" in capsys.readouterr().err
        assert not list(tmp_path.glob("demo_pde_k4_*"))

    @pytest.mark.parametrize("command", ["linearize", "bounds", "evolve", "pde", "cost"])
    def test_each_command_builds_the_grid_once(self, tmp_path, monkeypatch, command):
        # the counter replaces every module's binding of the name, so a
        # ``from .pde import discretize`` caller is counted too
        discretize, calls = rd.discretize, []

        def counted(problem):
            calls.append(problem)
            return discretize(problem)

        for name, module in list(sys.modules.items()):
            if name.startswith("carlemanlab") and getattr(module, "discretize", None) is discretize:
                monkeypatch.setattr(module, "discretize", counted)
        config = json.loads((CONFIGS / "demo_pde_k4.json").read_text())
        config["command"] = command
        assert run_config(config, tmp_path) == 0
        assert len(calls) == 1

    def test_missing_physical_parameter_rejected(self, tmp_path):
        broken = json.loads(json.dumps(PDE_DEMO))
        del broken["pde"]["c"]
        assert run_config(broken, tmp_path) == 2

    def test_grid_of_a_first_order_stencil_is_refused_by_its_size(self, tmp_path, capsys):
        # the grid required_grid_points asks of k = 1 at epsilon = 1e-2 on the demo:
        # a 1.74 GiB index array was the first thing it ran out of memory on
        config = json.loads(json.dumps(PDE_DEMO))
        config["pde"].update(m=233_289_207, k=1)
        assert run_config(config, tmp_path) == 2
        assert "grid operator entries" in capsys.readouterr().err
        assert not list(tmp_path.glob("demo_*.json"))


class TestEvolveCommand:
    def evolve_config(self, N=4):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "evolve"
        config["numerics"] = {"N": N, "K": 8, "dt": 0.01, "record_every": 10}
        return config

    def test_trajectory_columns_and_summary(self, tmp_path):
        assert run_config(self.evolve_config(), tmp_path) == 0
        header, rows = read_csv(tmp_path / "demo_trajectory.csv")
        assert header == ["t", "y_norm", "y1_norm", "share_1", "u_hat_1"]
        assert len(rows) == 11
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert summary["measured_error_T"] <= summary["component_bound_j1_T"] + 1e-8
        assert summary["reference_method"] == "LSODA"
        shares = [float(r[3]) for r in rows]
        assert all(s >= 1.0 / 4 - 1e-12 for s in shares)

    def test_reference_trajectory_emitted(self, tmp_path):
        assert run_config(self.evolve_config(), tmp_path) == 0
        header, rows = read_csv(tmp_path / "demo_reference.csv")
        assert header == ["t", "u_1"]
        assert len(rows) == 11
        # closed form of the scalar problem at the final time
        assert float(rows[-1][1]) == pytest.approx(2.0 / (1.0 + np.e), abs=1e-8)

    def test_demo_tables_read_back_to_the_pipeline_arrays(self, tmp_path):
        # the paper's demo PDE at N = 3: 74 steps on the reach, 75 recorded times
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "evolve"
        config["pde"]["m"] = 32
        config["numerics"] = {"N": 3, "K": 10}
        summary = cli._run_pipeline(cli.RunContext(
            config=config, out_dir=str(tmp_path), strict_stability=True,
            digest=cli.config_hash(config), numerics=cli.numerics_from_config(config),
        ))
        assert run_config(config, tmp_path) == 0
        lengths = set()
        for name in ("trajectory", "reference"):
            header, rows = read_csv(tmp_path / f"demo_{name}.csv")
            assert all(len(row) == len(header) for row in rows)
            assert np.array_equal([[float(cell) for cell in row] for row in rows], summary[name])
            lengths.add(len(rows))
        assert lengths == {75}

    def test_record_every_zero_is_validation_exit(self, tmp_path):
        config = self.evolve_config()
        config["numerics"]["record_every"] = 0
        assert run_config(config, tmp_path) == 2

    @pytest.mark.parametrize(
        "knob, value", [("K", 2.7), ("K", None), ("record_every", 2.5)]
    )
    def test_non_integer_stepping_knob_is_validation_exit(self, tmp_path, knob, value):
        config = self.evolve_config()
        config["numerics"][knob] = value
        assert run_config(config, tmp_path) == 2
        assert not (tmp_path / "demo_evolve.json").exists()

    def test_integral_floats_step_as_integers(self, tmp_path):
        as_ints, as_floats = tmp_path / "ints", tmp_path / "floats"
        as_ints.mkdir()
        as_floats.mkdir()
        config = self.evolve_config()
        assert run_config(config, as_ints) == 0
        config["numerics"].update(N=4.0, K=8.0, record_every=10.0)
        assert run_config(config, as_floats) == 0
        trajectories = [read_csv(out / "demo_trajectory.csv") for out in (as_ints, as_floats)]
        assert trajectories[0] == trajectories[1]
        summary = json.loads((as_floats / "demo_evolve.json").read_text())["results"]
        assert (summary["K"], summary["N"], summary["n_steps"]) == (8, 4, 100)

    def test_ode_is_stepped_in_its_own_coordinates(self, tmp_path):
        assert run_config(self.evolve_config(), tmp_path) == 0
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert summary["coordinates"] == "ode"

    @pytest.mark.parametrize("T, dt", [(0.3, 0.1), (0.23, None)], ids=["dt0.1", "auto-3-steps"])
    def test_last_record_is_at_the_horizon(self, tmp_path, T, dt):
        # 3 * 0.1 and 3 * (0.23 / 3) both round past T, a time the reference refuses
        config = json.loads(json.dumps(ODE_COUPLED))
        config["ode"]["T"] = T
        config["numerics"]["dt"] = dt
        assert run_config(config, tmp_path) == 0
        _, rows = read_csv(tmp_path / "ode_coupled_trajectory.csv")
        assert float(rows[-1][0]) == T
        summary = json.loads((tmp_path / "ode_coupled_evolve.json").read_text())["results"]
        assert summary["measured_error_T"] <= summary["component_bound_j1_T"]

    def test_pde_is_stepped_in_fourier_coordinates(self, tmp_path):
        # gamma, N, the stability and bound scalars are bit for bit the grid
        # problem's; the step is sized from the Fourier form's reach, every
        # record maps back to the grid through the Fourier basis, and at the
        # grid's step every record matches the grid's own series steps
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "evolve"
        config["pde"]["T"] = 0.2
        config["numerics"] = {"N": 3, "K": 10}
        assert run_config(config, tmp_path) == 0
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert summary["coordinates"] == "fourier"
        problem = cli.pde_from_config(config["pde"])
        ode = rd.discretize(problem)
        gamma = float(np.linalg.norm(ode.u_in))
        config_K10 = prop.PropagationConfig(taylor_order=10)
        grid = prop.evolve(carl.assemble(node.rescale(ode, gamma), 3), config_K10)
        modes = rd.fourier_form(problem).ode
        modal = prop.evolve(carl.assemble(node.rescale(modes, gamma), 3), config_K10)
        bound = bd.component_error_bound(ode, 3, 1, 0.2, gamma=gamma) * gamma
        want = {
            "gamma": gamma, "N": 3, "K": 10, "dt": modal.dt, "n_steps": modal.n_steps,
            "stability_bound": grid.stability_bound, "component_bound_j1_T": float(bound),
            "step_norm": modal.step_norm,
            "time_error_certificate_T": gamma * modal.time_error_certificate,
        }
        assert {key: summary[key] for key in want} == want
        assert modal.n_steps < grid.n_steps and modal.step_norm < grid.step_norm
        # records every step: one matvec of the Taylor matrix per step
        assert (summary["stepping"], summary["matvecs"]) == ("taylor_matrix", modal.n_steps)
        assert grid.stepping == "series"
        _, rows = read_csv(tmp_path / "demo_trajectory.csv")
        u_hat = np.array([[float(v) for v in row[4:]] for row in rows])
        mapped = gamma * rd.fourier_form(problem).to_grid(modal.block1)
        assert np.abs(u_hat - mapped).max() <= 1e-12 * np.abs(u_hat).max()
        config["numerics"]["dt"] = grid.dt
        assert run_config(config, tmp_path) == 0
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert (summary["dt"], summary["n_steps"]) == (grid.dt, grid.n_steps)
        _, rows = read_csv(tmp_path / "demo_trajectory.csv")
        u_hat = np.array([[float(v) for v in row[4:]] for row in rows])
        assert np.abs(u_hat - gamma * grid.block1).max() <= 1e-12 * np.abs(u_hat).max()

    @pytest.mark.parametrize(
        "M, m, N, limit, over",
        [(4, 32, 5, KRON_MAX_SIZE, "Fourier product enumeration"),
         (3, 24, 4, 180_000, "symmetric Carleman operator entries")],
        ids=["M4-m32", "M3-m24-limit-180k"],
    )
    def test_pde_over_the_fourier_limits_is_stepped_on_its_grid(
        self, tmp_path, monkeypatch, M, m, N, limit, over
    ):
        # the Fourier nonlinearity couples up to (2m)^M mode tuples where the
        # grid's couples m points: its enumeration (M = 4: 62^4 wave tuples)
        # or its symmetric operator (M = 3: at most 200 124 entries against
        # the grid's 161 474, under a lowered limit) is over a size limit
        # while the grid's operator fits; full-spectrum data reaches every
        # coordinate of the Fourier form
        monkeypatch.setattr(carl, "KRON_MAX_SIZE", limit)
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "evolve"
        config["pde"].update(
            M=M, m=m, k=1, T=1e-4, initial={"profile": "raised_cosine", "amplitude": 0.1}
        )
        values = cli.pde_from_config(config["pde"]).initial_grid()
        config["pde"]["initial"] = {"values": full_spectrum(values).tolist()}
        config["numerics"] = {"N": N, "K": 10}
        problem = cli.pde_from_config(config["pde"])
        ode = rd.discretize(problem)
        gamma = float(np.linalg.norm(ode.u_in))
        assert carl.assemble(node.rescale(ode, gamma), N).symmetric_nnz() <= limit
        with pytest.raises(SizeLimitError, match=over):
            form = rd.fourier_form(problem)
            prop.evolve(carl.assemble(node.rescale(form.ode, gamma), N), prop.PropagationConfig())
        assert run_config(config, tmp_path) == 0
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert summary["coordinates"] == "ode"
        assert summary["measured_error_T"] <= 1e-9

    def test_strict_stability_flag_controls_exit(self, tmp_path):
        config = self.evolve_config()
        config["numerics"]["gamma"] = 10.0  # far above gamma_max = 2
        assert run_config(config, tmp_path) == 2
        assert run_config(
            config, tmp_path, extra_args=("--strict-stability", "false")
        ) == 0


    def test_blow_up_is_numeric_failure_exit(self, tmp_path, capsys):
        # u' = u + 0.1 u^2 from u = 1 passes the growth guard at step 16 of T = 15
        config = {
            "command": "evolve", "output": {"prefix": "demo"},
            "ode": {"n": 1, "M": 2, "F1": [[1.0]], "FM": {"entries": [[0, 0, 0.1]]},
                    "u_in": [1.0], "T": 15.0},
            "numerics": {"N": 3, "K": 10},
        }
        assert run_config(config, tmp_path, extra_args=("--strict-stability", "false")) == 3
        assert "numeric failure:" in capsys.readouterr().err
        assert not list(tmp_path.glob("demo_*"))


class TestSweepCommand:
    def test_order_sweep_monotone_error(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "sweep"
        config["numerics"] = {"K": 12, "dt": 0.005, "record_every": 20}
        config["axes"] = [{"name": "N", "values": [3, 4, 5, 6]}]
        assert run_config(config, tmp_path) == 0
        header, rows = read_csv(tmp_path / "demo_sweep.csv")
        assert header[0] == "N"
        errs = [float(r[header.index("measured_error_T")]) for r in rows]
        assert [int(r[0]) for r in rows] == [3, 4, 5, 6]
        assert {r[header.index("reference_method")] for r in rows} == {"LSODA"}
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_empty_axes_single_point(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "sweep"
        config["numerics"] = {"N": 4, "K": 8, "dt": 0.02}
        config["axes"] = []
        assert run_config(config, tmp_path) == 0
        _, rows = read_csv(tmp_path / "demo_sweep.csv")
        assert len(rows) == 1

    @pytest.mark.parametrize("axes", [["N"], ["dt"], ["K", "N"]])
    def test_header_names_are_unique(self, tmp_path, axes):
        # N and dt are also metrics; an axis replaces the metric's column
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "sweep"
        config["numerics"] = {"N": 4, "K": 8, "dt": 0.02}
        values = {"N": [3, 4], "dt": [0.02, 0.01], "K": [8]}
        config["axes"] = [{"name": name, "values": values[name]} for name in axes]
        assert run_config(config, tmp_path) == 0
        header, rows = read_csv(tmp_path / "demo_sweep.csv")
        assert len(header) == len(set(header))
        assert header[: len(axes)] == axes
        assert {"N", "dt", "n_steps", "measured_error_T"} <= set(header)
        assert all(len(row) == len(header) for row in rows)

    def test_rescaling_leaves_the_solution_and_bound_unchanged(self, tmp_path):
        # the paper's claim 2 on the coupled ODE: gamma = 1, |u_in| and gamma_max
        # (Gershgorin bounds -1.01, -1.19, -0.65) give the same extracted solution
        # to rounding and the same level-1 bound, one row each
        config = {**ODE_COUPLED, "command": "sweep",
                  "axes": [{"name": "gamma", "values": [1.0, "norm_uin", "gamma_max"]}]}
        assert run_config(config, tmp_path) == 0
        header, rows = read_csv(tmp_path / "ode_coupled_sweep.csv")
        assert [row[0] for row in rows] == ["1", "norm_uin", "gamma_max"]
        errs = [float(row[header.index("measured_error_T")]) for row in rows]
        assert max(errs) - min(errs) <= 1e-10 * max(errs)
        assert len({row[header.index("component_bound_j1_T")] for row in rows}) == 1

    def test_axis_of_an_absent_section_rejected(self, tmp_path, capsys):
        # a grid-size axis on an ODE config names itself and the missing section
        config = {**ODE_COUPLED, "command": "sweep", "axes": [{"name": "m", "values": [8]}]}
        assert run_config(config, tmp_path) == 2
        err = capsys.readouterr().err
        assert "sweep axis 'm'" in err and "no 'pde' section" in err
        assert not list(tmp_path.glob("ode_coupled_*"))

    def test_repeated_axis_rejected(self, tmp_path, capsys):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "sweep"
        config["axes"] = [{"name": "N", "values": [3]}, {"name": "N", "values": [4]}]
        assert run_config(config, tmp_path) == 2
        assert "repeat" in capsys.readouterr().err

    @settings(deadline=None, max_examples=20)
    @given(st.data())
    def test_sweep_output_bytes_are_deterministic(self, data):
        """A random small problem and one or two random axes: the sweep file is
        the same byte for byte on two runs."""
        n = data.draw(st.sampled_from([1, 2]), "n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        G = rng.standard_normal((n, n))
        F1 = G - (np.linalg.eigvalsh((G + G.T) / 2).max() + rng.uniform(0.5, 1.5)) * np.eye(n)
        u_in = rng.standard_normal(n)
        FM = rng.standard_normal((n, n**2))
        # R = |FM| |u_in| / |lambda0| = 0.3 keeps every point within gamma_max
        FM *= 0.3 * abs(np.linalg.eigvalsh((F1 + F1.T) / 2).max()) / (
            np.linalg.norm(FM, 2) * np.linalg.norm(u_in)
        )
        values = {
            "N": st.integers(3, 6),
            "K": st.integers(3, 10),
            "epsilon": st.floats(1e-3, 0.5),
            "gamma": st.floats(1.0, 2.0).map(lambda g: g * float(np.linalg.norm(u_in))),
        }
        names = data.draw(
            st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=2, unique=True), "axes"
        )
        axes = [
            {"name": name, "values": data.draw(st.lists(values[name], min_size=1, max_size=3))}
            for name in names
        ]
        config = {
            "schema_version": 1,
            "command": "sweep",
            "ode": {
                "n": n, "M": 2, "F1": F1.tolist(),
                "FM": {"entries": [[i, c, FM[i, c]] for i in range(n) for c in range(n**2)]},
                "u_in": u_in.tolist(), "T": 0.5,
            },
            "numerics": {"dt": 0.025},
            "axes": axes,
            "output": {"prefix": "demo"},
            "seed": 0,
        }
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for run in ("first", "second"):
                out = Path(tmp) / run
                out.mkdir()
                assert run_config(config, out) == 0
                outputs.append((out / "demo_sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_axis_rejected(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "sweep"
        config["axes"] = [{"name": "bogus", "values": [1]}]
        assert run_config(config, tmp_path) == 2


class TestLinearizeAndCost:
    def test_linearize_reports_dimensions(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "linearize"
        config["numerics"] = {"N": 5}
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "demo_linearize.json").read_text())["results"]
        assert results["total_dimension"] == 5
        assert results["gershgorin_max_eig_bound"] <= 0

    def test_cost_report(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "cost"
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "demo_cost.json").read_text())["results"]
        assert results["estimate"]["N"] == 7
        names = [row["name"] for row in results["prior_work"]]
        assert "this_work" in names and "euler_carleman" in names
        # |u_in| = 1 makes the prior-work order infinite; strict JSON has null
        prior = next(r for r in results["prior_work"] if r["name"] == "taylor_carleman_prior")
        assert prior["calls"] is None and prior["detail"]["N_prior"] is None
        assert "N is infinite" in prior["flags"][0]
        # |u(T)| comes from the CLI's reference run, which names its integrator
        assert results["reference_method"] == "LSODA"

    def test_cost_takes_the_order_that_bounds_takes(self, tmp_path):
        # ode_coupled sets N = 4, above the N = 3 that epsilon alone would give
        orders = {}
        for command in ("bounds", "cost"):
            assert run_config({**ODE_COUPLED, "command": command}, tmp_path) == 0
            results = json.loads((tmp_path / f"ode_coupled_{command}.json").read_text())["results"]
            orders[command] = results["N"] if command == "bounds" else results["estimate"]["N"]
        assert orders == {"bounds": 4, "cost": 4}

    def test_cost_amplification_is_finite_where_its_sum_overflows(self, tmp_path):
        # gamma = 0.01 puts r = |u_in| / gamma at 37.4: the sum of r^(2l)
        # leaves the float range, the factor (8.8e234) does not
        config = {**ODE_COUPLED, "command": "cost", "numerics": {"N": 150, "gamma": 0.01}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "ode_coupled_cost.json").read_text())["results"]
        est = results["estimate"]
        assert est["amplification"] == pytest.approx(8.768e234, rel=1e-3)
        assert np.isfinite(est["calls_block_encoding"])
        # |u_in|^(2N) = 8.3e-129 puts the Euler-based formula at 8.7e-117 calls, floored at 1
        assert all(row["calls"] >= 1.0 for row in results["prior_work"][1:])

    def test_pde_cost_takes_the_closed_form_at_gamma_max(self, tmp_path):
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "cost"
        config["pde"]["m"] = 32
        config["numerics"] = {"epsilon": 1e-2}
        assert run_config(config, tmp_path) == 0
        est = json.loads((tmp_path / "demo_cost.json").read_text())["results"]["estimate"]
        ode = rd.discretize(cli.pde_from_config(config["pde"]))
        assert est["N"] == 13
        assert est["gamma"] == node.max_stable_gamma(ode)
        # the paper's rescaling claim: at gamma_max the geometric series sums in closed form
        closed = est["u_in_norm"] / (est["u_T_norm"] * np.sqrt(1.0 - est["R"] ** 2))
        assert est["amplification"] == pytest.approx(closed, rel=1e-12)

    def test_cost_measures_u_T_at_the_configs_reference_tol(self, tmp_path):
        # the demo PDE (d = 1, m = 32, k = 2): each tolerance writes the norm of
        # its own reference run's final state, bit for bit
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "cost"
        config["pde"]["m"] = 32
        ode = rd.discretize(cli.pde_from_config(config["pde"]))
        written = {}
        for tol in (1e-6, 1e-10):
            config["numerics"] = {"epsilon": 1e-2, "reference_tol": tol}
            config["output"] = {"prefix": f"tol{tol:g}"}
            assert run_config(config, tmp_path) == 0
            est = json.loads((tmp_path / f"tol{tol:g}_cost.json").read_text())["results"]["estimate"]
            ref = node.reference_solve(ode, tol=tol, t_eval=[0.0, ode.T])
            assert est["u_T_norm"] == float(np.linalg.norm(ref.u[-1]))
            written[tol] = est["u_T_norm"]
        assert written[1e-6] != written[1e-10]

    @pytest.mark.parametrize("d, m, method", [(1, 32, "LSODA"), (2, 24, "DOP853")])
    def test_pde_cost_names_its_reference_method(self, tmp_path, d, m, method):
        # n = 32 is within the dense-F1 limit (512), n = 576 above it
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "cost"
        config["pde"].update(d=d, m=m, b=0.1)
        config["numerics"] = {"N": 3}
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "demo_cost.json").read_text())["results"]
        assert results["reference_method"] == method

    def test_cost_refuses_r_at_least_one_with_an_explicit_order(self, tmp_path, capsys):
        # R = 2: u' = -u + 2 u^2 from u = 1 blows up at t = ln 2, so the
        # refusal must come before the reference run
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "cost"
        config["ode"]["FM"] = {"entries": [[0, 0, 2.0]]}
        config["numerics"] = {"N": 5}
        assert run_config(config, tmp_path) == 2
        assert "cost model requires R < 1" in capsys.readouterr().err
        assert not (tmp_path / "demo_cost.json").exists()

    @pytest.mark.parametrize("gamma", [1.0, "gamma_max"])
    def test_pde_cost_refuses_a_gamma(self, tmp_path, capsys, gamma):
        # the PDE cost model runs at gamma_max whatever is asked, so a gamma is never dropped
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "cost"
        config["numerics"]["gamma"] = gamma
        assert run_config(config, tmp_path) == 2
        assert "PDE cost model fixes gamma = gamma_max" in capsys.readouterr().err
        assert not (tmp_path / "demo_cost.json").exists()


class TestValidation:
    def test_unknown_command(self, tmp_path):
        assert run_config({"schema_version": 1, "command": "zap", "seed": 0}, tmp_path) == 2

    def test_bad_schema_version(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["schema_version"] = 99
        assert run_config(config, tmp_path) == 2

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2

    def test_positional_command_override(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "bounds"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = cli.main([
            "linearize", "--config", str(path), "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "demo_linearize.json").exists()

    @pytest.mark.parametrize(
        "change",
        [
            lambda config: [config],
            lambda config: {**config, "numerics": [1]},
            lambda config: {**config, "output": [1]},
            lambda config: {**config, "command": "sweep", "axes": [3]},
            lambda config: {**config, "command": "sweep", "axes": [{"name": "N"}]},
            lambda config: {**config, "command": "sweep", "axes": [{"name": "N", "values": 3}]},
        ],
        ids=["top-level-array", "numerics-array", "output-array", "axis-not-object",
             "axis-without-values", "axis-values-not-list"],
    )
    def test_malformed_container_is_validation_exit(self, tmp_path, capsys, change):
        assert run_config(change(json.loads(json.dumps(BERNOULLI))), tmp_path) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, misspelt",
        [
            ({**PDE_DEMO, "numeric": {"N": 3, "K": 4}}, "config"),
            ({**PDE_DEMO, "output": {"prefx": "typo"}}, "output"),
            ({**PDE_DEMO, "pde": {**PDE_DEMO["pde"], "bc": "dirichlet"}}, "pde"),
            ({**PDE_DEMO, "pde": {**PDE_DEMO["pde"], "initial": {"profile": "raised_cosine",
                                                                   "amplitdue": 0.2}}},
             "pde initial"),
            ({**BERNOULLI, "ode": {**BERNOULLI["ode"], "t": 2.0}}, "ode"),
            ({"command": "figures", "figure": "eigs", "figure_params": {"k": 2, "n": 12}},
             "figure_params"),
            ({"command": "figures", "figure": "eigs", "numerics": {"bogus": 1, "K": "ten"}},
             "numerics"),
        ],
        ids=["top-level", "output", "pde", "pde-initial", "ode", "figure-params",
             "figures-numerics"],
    )
    def test_misspelt_key_is_validation_exit(self, tmp_path, capsys, config, misspelt):
        assert run_config(config, tmp_path) == 2
        assert f"unknown {misspelt} keys" in capsys.readouterr().err
        assert not [p for p in tmp_path.iterdir() if p.name != "cfg.json"]

    @pytest.mark.parametrize("command", ["linearize", "evolve", "bounds", "cost", "pde", "sweep"])
    def test_missing_problem_section_is_validation_exit(self, tmp_path, capsys, command):
        assert run_config({"command": command}, tmp_path) == 2
        err = capsys.readouterr().err
        assert "config needs an 'ode' or 'pde' section" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "section, key, value",
        [("numerics", "n_steps", 100), ("numerics", "gamma_mode", "explicit"),
         (None, "export_dense", False)],
        ids=["n_steps", "gamma_mode", "export_dense"],
    )
    def test_removed_key_is_validation_exit(self, tmp_path, capsys, section, key, value):
        # dt alone sets the step, gamma alone the rescaling; nothing writes Matrix Market
        config = json.loads(json.dumps({**BERNOULLI, "command": "linearize"}))
        (config if section is None else config[section])[key] = value
        assert run_config(config, tmp_path) == 2
        where = "config" if section is None else section
        assert f"unknown {where} keys: ['{key}']" in capsys.readouterr().err
        assert not list(tmp_path.glob("demo_*"))

    def test_unknown_gamma_rule_is_validation_exit(self, tmp_path, capsys):
        config = json.loads(json.dumps(BERNOULLI))
        config["numerics"]["gamma"] = "bogus"
        assert run_config(config, tmp_path) == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "'norm_uin'" in err and "'gamma_max'" in err

    @pytest.mark.parametrize("command", ["linearize", "evolve"])
    def test_gamma_number_alone_sets_the_rescaling(self, tmp_path, command):
        # |u_in| = 0.374 and gamma_max = 2.313: a number is the rescaling, with no other knob
        config = {**ODE_COUPLED, "command": command, "numerics": {"N": 4, "gamma": 2.0}}
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / f"ode_coupled_{command}.json").read_text())["results"]
        assert results["gamma"] == 2.0

    @pytest.mark.parametrize("key", ["lambda_f1", "lambda_fm"])
    def test_removed_subnormalisation_keys_are_validation_exit(self, tmp_path, capsys, key):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "cost"
        config["numerics"][key] = 1.0
        assert run_config(config, tmp_path) == 2
        assert "unknown numerics keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, section, key, value, over",
        [(ODE_COUPLED, "ode", "M", 10**8, "FM column index n**M"),
         (PDE_DEMO, "pde", "M", 10**7, "FM column index n**M"),
         (ODE_COUPLED, "numerics", "K", 10**8, "Taylor order"),
         (ODE_COUPLED, "numerics", "K", 170, "Taylor order")],
        ids=["ode-M1e8", "pde-M1e7", "K1e8", "K170"],
    )
    def test_oversized_order_is_validation_exit(
        self, tmp_path, capsys, config, section, key, value, over
    ):
        # n**M is refused by its exponent before it is formed, and K where
        # (K+1)! leaves the float range: each ran for over 10 s or crashed
        config = json.loads(json.dumps(config))
        config[section][key] = value
        assert run_config(config, tmp_path) == 2
        assert over in capsys.readouterr().err
        assert not [p for p in tmp_path.iterdir() if p.name != "cfg.json"]

    def test_highest_taylor_order_runs(self, tmp_path):
        config = {**ODE_COUPLED, "numerics": {"N": 4, "K": 169}}
        assert run_config(config, tmp_path) == 0
        assert json.loads((tmp_path / "ode_coupled_evolve.json").read_text())["results"]["K"] == 169

    @pytest.mark.parametrize(
        "words, extra",
        [(["figures", "eigs", "bogus", "extra"], "['bogus', 'extra']"),
         (["linearize", "bogus", "--config", str(CONFIGS / "ode_coupled.json")], "['bogus']")],
        ids=["figures", "linearize"],
    )
    def test_extra_positional_argument_is_validation_exit(self, tmp_path, capsys, words, extra):
        assert cli.main([*words, "--out", str(tmp_path)]) == 2
        assert f"unknown arguments after {words[0]!r}: {extra}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_levels_past_int64_are_validation_exit(self, tmp_path, capsys):
        # a non-diagonal F1 steps every coordinate: C(266, 11) > 2**63 at level 11
        n = 256
        ring = [[i, i, -2.0] for i in range(n)] + [[i, (i + 1) % n, 0.5] for i in range(n)]
        config = {
            "command": "evolve",
            "ode": {
                "n": n, "M": 2, "F1": {"entries": ring},
                "FM": {"entries": [[i, i * (n + 1), 0.1] for i in range(n)]},
                "u_in": [0.01] * n, "T": 1.0,
            },
            "numerics": {"N": 11},
        }
        assert run_config(config, tmp_path) == 2
        assert "symmetric Carleman operator entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section",
        [
            {"ode": {"n": 2, "M": 2, "F1": [[-1.0, 0.0], [0.0, -2.0]],
                     "FM": {"entries": [[0, 0, 0.5], [1, 3, 0.3]]}, "u_in": [0.0, 0.0], "T": 1.0}},
            {"ode": {"n": 2, "M": 2, "F1": [[-1.0, 0.2], [0.1, -2.0]],
                     "FM": {"entries": [[0, 0, 0.5], [1, 3, 0.3]]}, "u_in": [0.0, 0.0], "T": 1.0}},
            {"pde": {**PDE_DEMO["pde"], "initial": {"profile": "raised_cosine", "amplitude": 0.0}}},
        ],
        ids=["ode-diagonal-F1", "ode-coupled-F1", "pde-constant-zero"],
    )
    def test_zero_initial_state_is_validation_exit(self, tmp_path, capsys, section):
        # an explicit gamma and N get past the |u_in| = 0 refusals of gamma and R
        config = {"command": "evolve", **section,
                  "numerics": {"N": 4, "gamma": 1.0}}
        assert run_config(config, tmp_path) == 2
        assert "initial state is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["linearize", "evolve"])
    def test_infinite_gamma_is_validation_exit(self, tmp_path, capsys, command):
        # FM = 0: gamma_max = (|lambda0| / |FM|)^(1/(M-1)) is infinite
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = command
        config["ode"]["FM"] = {"entries": []}
        config["numerics"] = {"N": 4, "gamma": "gamma_max"}
        assert run_config(config, tmp_path) == 2
        assert "positive and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / f"demo_{command}.json").exists()

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_non_positive_gamma_in_bounds_is_validation_exit(self, tmp_path, capsys, gamma):
        # (|u_in| / gamma)^j divided by zero at gamma = 0 and gave negative bounds below it
        config = json.loads(json.dumps(BERNOULLI))
        config["numerics"] = {"gamma": gamma}
        assert run_config(config, tmp_path) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_refused_fourier_form_and_grid_are_both_named(self, tmp_path, capsys, monkeypatch):
        # d = 2, m = 16, N = 11 under a limit of 10**4 entries: the lift of the
        # Fourier form's support alone has more coordinates, and the grid's
        # symmetric operator more rows, so both are refused by a count
        monkeypatch.setattr(carl, "KRON_MAX_SIZE", 10**4)
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "evolve"
        config["pde"].update(d=2, initial={"profile": "raised_cosine", "amplitude": 0.1})
        config["numerics"] = {"N": 11}
        assert run_config(config, tmp_path) == 2
        err = capsys.readouterr().err
        fourier = err.index("symmetric Carleman operator entries")
        grid = err.index("symmetric Carleman operator entries", fourier + 1)
        assert err.index("Fourier form") < fourier < err.index("grid:") < grid

    def test_r_at_least_one_is_validation_exit(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["ode"]["FM"] = {"entries": [[0, 0, 1.5]]}  # R = 1.5
        assert run_config(config, tmp_path) == 2

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("numerics", "epsilon", "abc"),
            ("numerics", "epsilon", None),
            ("numerics", "reference_tol", [1e-10]),
            ("numerics", "gamma", "x"),
            ("numerics", "dt", "0.001"),
            ("pde", "diffusion", "abc"),
            ("pde", "T", None),
            ("pde", "m", 16.7),
            ("pde", "k", "2"),
        ],
    )
    def test_malformed_number_is_validation_exit(self, tmp_path, capsys, section, key, value):
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "evolve"
        config["numerics"].update(N=3, gamma=1.0)
        config[section][key] = value
        assert run_config(config, tmp_path) == 2
        assert "validation error" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "key, value",
        [
            ("u_in", ["1.0"]),
            ("u_in", ["abc"]),
            ("u_in", [True]),
            ("u_in", [1.0, 2.0]),
            ("F1", [["-1.0"]]),
            ("F1", [[-1.0], [1.0, 2.0]]),
            ("FM", {"entries": [[0, 0, "0.5"]]}),
            ("FM", {"entries": [[0.5, 0, 0.5]]}),
            ("FM", {"entries": [[0, 1, 0.5]]}),
            ("FM", {"entries": [[0, 0]]}),
            ("FM", {}),
        ],
    )
    def test_malformed_array_is_validation_exit(self, tmp_path, capsys, key, value):
        config = json.loads(json.dumps(BERNOULLI))
        config["ode"][key] = value
        assert run_config(config, tmp_path) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [["0.4"] * 16, ["abc"] * 16, [0.4] * 15])
    def test_malformed_initial_values_are_validation_exit(self, tmp_path, capsys, values):
        config = json.loads(json.dumps(PDE_DEMO))
        config["pde"]["initial"] = {"values": values}
        assert run_config(config, tmp_path) == 2
        assert "validation error" in capsys.readouterr().err


class TestNumberFormatting:
    def test_seventeen_significant_digits_round_trip(self):
        values = [1.0 / 3.0, np.pi * 1e-7, 2.0 / (1.0 + np.e)]
        for v in values:
            assert float(cli.format_number(v)) == v

    def test_csv_cells_keep_their_bytes(self, tmp_path):
        # every cell type the artifacts carry, pinned to the bytes format_number gives
        rows = [
            [True, 3, np.int64(7), np.float64(0.1), float("inf"), float("nan")],
            [np.bool_(False), -0.0, 1e-320, "DOP853", np.float32(0.1), 12345678901234567890],
            [np.float64(-np.inf), 2.5, 1.0 / 3.0, np.int32(-4), None, 1e22],
        ]
        path = tmp_path / "cells.csv"
        cli.write_csv(str(path), list("abcdef"), rows, "abc", {"x": 1})
        assert path.read_text() == (
            '# config_hash=abc\n# config={"x":1}\na,b,c,d,e,f\n'
            "true,3,7,0.10000000000000001,inf,nan\n"
            "false,-0,9.9998886718268301e-321,DOP853,0.10000000149011612,12345678901234567890\n"
            "-inf,2.5,0.33333333333333331,-4,None,1e+22\n"
        )
        # a float array's cells are np.float64, with the same bytes as Python floats
        table = np.array([[0.1, np.inf, np.nan, -0.0], [1e-320, 1.0 / 3.0, 1e22, -np.inf]])
        cli.write_csv(str(path), list("abcd"), table, "abc", {"x": 1})
        assert path.read_text() == (
            '# config_hash=abc\n# config={"x":1}\na,b,c,d\n'
            "0.10000000000000001,inf,nan,-0\n"
            "9.9998886718268301e-321,0.33333333333333331,1e+22,-inf\n"
        )

    def test_all_finite_json_payload_is_not_copied(self, tmp_path):
        # 100 000 [row, column, value] triplets, the shape of the pde export:
        # rebuilding every list before encoding took 9.2 MiB of the writer's peak
        payload = {"results": {"entries": [[i, i + 1, 0.5 * i] for i in range(100_000)]}}
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            cli.write_json(str(tmp_path / "finite.json"), payload, "abc", {"x": 1})
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_non_finite_json_values_are_null_and_the_payload_is_kept(self, tmp_path):
        payload = {"a": [1.5, (float("nan"), 2.0), [3.0]], "b": {"c": float("-inf"), "d": (4.0,)}}
        cli.write_json(str(tmp_path / "nulls.json"), payload, "abc", {"x": 1})
        written = json.loads((tmp_path / "nulls.json").read_text())
        assert written["a"] == [1.5, [None, 2.0], [3.0]]
        assert written["b"] == {"c": None, "d": [4.0]}
        assert np.isnan(payload["a"][1][0]) and payload["b"]["c"] == float("-inf")

    def test_float_table_is_written_in_bounded_memory(self, tmp_path):
        # the demo trajectory's shape: t, three norms and 32 modes at 1 097 times
        table = np.random.default_rng(0).standard_normal((1097, 36)) * 10.0 ** np.arange(-17, 19)
        header = [f"c{i}" for i in range(36)]
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            cli.write_csv(str(tmp_path / "table.csv"), header, table, "abc", {"x": 1})
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # the array writes the bytes of its rows as lists of Python floats
        cli.write_csv(str(tmp_path / "rows.csv"), header, table.tolist(), "abc", {"x": 1})
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
