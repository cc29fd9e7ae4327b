"""Config ingestion, artifact determinism, exit codes, and command dispatch."""

import json
import os
import tempfile
import tracemalloc
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

    def test_unknown_figure_is_validation_error(self, tmp_path):
        config = {"schema_version": 1, "command": "figures", "figure": "nope", "seed": 0}
        assert run_config(config, tmp_path) == 2


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
        assert isinstance(ode.F1, np.ndarray)
        np.testing.assert_array_equal(ode.F1, want.F1)

    def test_export_above_the_dense_f1_limit(self, tmp_path):
        config = json.loads(json.dumps(PDE_DEMO))
        config["pde"].update(d=2, m=24, b=0.1)  # n = 576; R < 1 needs the smaller b
        assert run_config(config, tmp_path) == 0
        exported = json.loads((tmp_path / "demo_ode_config.json").read_text())["ode"]
        ode = cli.ode_from_config(exported)
        want = rd.discretize(cli.pde_from_config(config["pde"]))
        assert ode.n == 576
        assert sp.issparse(ode.F1)
        assert (ode.F1 != want.F1).nnz == 0

    def test_missing_physical_parameter_rejected(self, tmp_path):
        broken = json.loads(json.dumps(PDE_DEMO))
        del broken["pde"]["c"]
        assert run_config(broken, tmp_path) == 2


class TestEvolveCommand:
    def evolve_config(self, N=4):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "evolve"
        config["numerics"] = {"N": N, "K": 8, "n_steps": 100, "record_every": 10}
        return config

    def test_trajectory_columns_and_summary(self, tmp_path):
        assert run_config(self.evolve_config(), tmp_path) == 0
        header, rows = read_csv(tmp_path / "demo_trajectory.csv")
        assert header == ["t", "y_norm", "y1_norm", "share_1", "u_hat_1"]
        assert len(rows) == 11
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert summary["measured_error_T"] <= summary["component_bound_j1_T"] + 1e-8
        assert summary["reference_method"] == "DOP853"
        shares = [float(r[3]) for r in rows]
        assert all(s >= 1.0 / 4 - 1e-12 for s in shares)

    def test_reference_trajectory_emitted(self, tmp_path):
        assert run_config(self.evolve_config(), tmp_path) == 0
        header, rows = read_csv(tmp_path / "demo_reference.csv")
        assert header == ["t", "u_1"]
        assert len(rows) == 11
        # closed form of the scalar problem at the final time
        assert float(rows[-1][1]) == pytest.approx(2.0 / (1.0 + np.e), abs=1e-8)

    def test_record_every_zero_is_validation_exit(self, tmp_path):
        config = self.evolve_config()
        config["numerics"]["record_every"] = 0
        assert run_config(config, tmp_path) == 2

    @pytest.mark.parametrize(
        "knob, value", [("K", 2.7), ("K", None), ("record_every", 2.5), ("n_steps", 99.5)]
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
        config["numerics"].update(N=4.0, K=8.0, n_steps=100.0, record_every=10.0)
        assert run_config(config, as_floats) == 0
        trajectories = [read_csv(out / "demo_trajectory.csv") for out in (as_ints, as_floats)]
        assert trajectories[0] == trajectories[1]
        summary = json.loads((as_floats / "demo_evolve.json").read_text())["results"]
        assert (summary["K"], summary["N"], summary["n_steps"]) == (8, 4, 100)

    def test_ode_is_stepped_in_its_own_coordinates(self, tmp_path):
        assert run_config(self.evolve_config(), tmp_path) == 0
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert summary["coordinates"] == "ode"

    def test_pde_is_stepped_in_fourier_coordinates(self, tmp_path):
        # the reported stepping and bound scalars are bit for bit the grid
        # problem's, and level 1 matches the grid's own series steps
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "evolve"
        config["pde"]["T"] = 0.2
        config["numerics"] = {"N": 3, "K": 10}
        assert run_config(config, tmp_path) == 0
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert summary["coordinates"] == "fourier"
        ode = rd.discretize(cli.pde_from_config(config["pde"]))
        gamma = float(np.linalg.norm(ode.u_in))
        mat = carl.assemble(node.rescale(ode, gamma), 3)
        grid = prop.evolve(mat, prop.PropagationConfig(total_time=0.2, taylor_order=10))
        bound = bd.component_error_bound(ode, 3, 1, 0.2, gamma=gamma) * gamma
        want = {
            "gamma": gamma, "N": 3, "K": 10, "dt": grid.dt, "n_steps": grid.n_steps,
            "stability_bound": grid.stability_bound, "component_bound_j1_T": float(bound),
        }
        assert {key: summary[key] for key in want} == want
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
        # or its symmetric operator (M = 3: 200 124 entries against the
        # grid's 161 474, under a lowered limit) is over a size limit while
        # the grid's operator fits
        monkeypatch.setattr(carl, "KRON_MAX_SIZE", limit)
        config = json.loads(json.dumps(PDE_DEMO))
        config["command"] = "evolve"
        config["pde"].update(
            M=M, m=m, k=1, T=1e-4, initial={"profile": "raised_cosine", "amplitude": 0.1}
        )
        config["numerics"] = {"N": N, "K": 10}
        problem = cli.pde_from_config(config["pde"])
        ode = rd.discretize(problem)
        gamma = float(np.linalg.norm(ode.u_in))
        assert carl.assemble(node.rescale(ode, gamma), N).symmetric_nnz() <= limit
        with pytest.raises(SizeLimitError, match=over):
            form = rd.fourier_form(problem, ode)
            prop.evolve(
                carl.assemble(node.rescale(form.ode, gamma), N),
                prop.PropagationConfig(total_time=1e-4),
            )
        assert run_config(config, tmp_path) == 0
        summary = json.loads((tmp_path / "demo_evolve.json").read_text())["results"]
        assert summary["coordinates"] == "ode"
        assert summary["measured_error_T"] <= 1e-9

    def test_strict_stability_flag_controls_exit(self, tmp_path):
        config = self.evolve_config()
        config["numerics"]["gamma_mode"] = "explicit"
        config["numerics"]["gamma"] = 10.0  # far above gamma_max = 2
        assert run_config(config, tmp_path) == 2
        assert run_config(
            config, tmp_path, extra_args=("--strict-stability", "false")
        ) == 0


class TestSweepCommand:
    def test_order_sweep_monotone_error(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "sweep"
        config["numerics"] = {"K": 12, "n_steps": 200, "record_every": 20}
        config["axes"] = [{"name": "N", "values": [3, 4, 5, 6]}]
        assert run_config(config, tmp_path) == 0
        header, rows = read_csv(tmp_path / "demo_sweep.csv")
        assert header[0] == "N"
        errs = [float(r[header.index("measured_error_T")]) for r in rows]
        assert [int(r[0]) for r in rows] == [3, 4, 5, 6]
        assert {r[header.index("reference_method")] for r in rows} == {"DOP853"}
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_empty_axes_single_point(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "sweep"
        config["numerics"] = {"N": 4, "K": 8, "n_steps": 50}
        config["axes"] = []
        assert run_config(config, tmp_path) == 0
        _, rows = read_csv(tmp_path / "demo_sweep.csv")
        assert len(rows) == 1

    def test_workers_do_not_change_output(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["command"] = "sweep"
        config["numerics"] = {"K": 8, "n_steps": 50}
        config["axes"] = [{"name": "N", "values": [3, 4, 5]}]
        run_config(config, tmp_path, extra_args=("--workers", "1"))
        serial = (tmp_path / "demo_sweep.csv").read_bytes()
        run_config(config, tmp_path, extra_args=("--workers", "3"))
        parallel = (tmp_path / "demo_sweep.csv").read_bytes()
        assert serial == parallel

    @settings(deadline=None, max_examples=20)
    @given(st.data())
    def test_workers_do_not_change_output_bytes(self, data):
        """A random small problem and one or two random axes: the sweep file is
        the same byte for byte with one worker and with two."""
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
            "numerics": {"n_steps": 20},
            "axes": axes,
            "output": {"prefix": "demo"},
            "seed": 0,
        }
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for workers in ("1", "2"):
                out = Path(tmp) / workers
                out.mkdir()
                assert run_config(config, out, extra_args=("--workers", workers)) == 0
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
        config["export_dense"] = True
        assert run_config(config, tmp_path) == 0
        results = json.loads((tmp_path / "demo_linearize.json").read_text())["results"]
        assert results["total_dimension"] == 5
        assert results["gershgorin_max_eig_bound"] <= 0
        assert (tmp_path / "demo_matrix.mtx").exists()

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

    def test_r_at_least_one_is_validation_exit(self, tmp_path):
        config = json.loads(json.dumps(BERNOULLI))
        config["ode"]["FM"] = {"entries": [[0, 0, 1.5]]}  # R = 1.5
        assert run_config(config, tmp_path) == 2


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
