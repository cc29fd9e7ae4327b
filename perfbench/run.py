"""Benchmark of the carlemanlab pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload run happens in a fresh child process (``child.py``), one child
at a time.  Runs start until ``--seconds`` have passed, with at least two, so
that the determinism check has a pair to compare; every figure reported is a
median over the children of this invocation.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children, at least two of each, and reports the
per-layer metrics, including the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``.  A human-readable summary comes first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a run, a correctness
check or the determinism check failed, and 2 when the program is missing.
See ``NOTES.md`` for the workloads, the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: the fewest untraced workload children per invocation, and the fewest of
#: each kind when tracing (the determinism check needs a pair)
MIN_RUNS = 2
#: set-up-only children after each untraced workload child, so that the
#: setup_s samples spread over the whole invocation
SETUPS_PER_RUN = 3
#: a child that runs longer than this is killed and counted as failed; two of
#: them still end an untraced invocation within three minutes
CHILD_TIMEOUT_S = 80
#: one BLAS thread per child keeps runs comparable on a shared machine
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def environment() -> dict:
    """Versions, BLAS, core count and CPU model of the machine running the children."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": int(child_env()[BLAS_VARS[0]]),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, trace: bool, mode: str, out: Path) -> dict:
    """Start one child, wait for it, and return its result with the wall time."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--mode", mode, "--out", str(out),
        "--spawned-at", repr(spawned_at), "--src", str(SRC),
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"wall_s": time.monotonic() - spawned_at, "trace": trace,
                "failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    wall = time.monotonic() - spawned_at
    try:
        with open(out / "result.json") as handle:
            result = json.load(handle)
    except (OSError, json.JSONDecodeError):
        result = {"failures": []}
    if proc.returncode != 0 and not result["failures"]:
        result["failures"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    # a workload run's wall time ends with its last call, before the checks
    if "workload_end" in result:
        wall = result["workload_end"] - spawned_at
    result.update(wall_s=wall, trace=trace)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run children until ``seconds`` have passed; return aggregated metrics."""
    base = OUT / workload / f"seed{seed}-trace{int(trace)}"
    start = time.monotonic()
    modes = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    min_runs = 2 * MIN_RUNS if trace else MIN_RUNS
    runs: list[dict] = []
    setups: list[dict] = []
    while len(runs) < min_runs or time.monotonic() - start < seconds:
        runs.append(run_child(workload, seed, next(modes), "run", base / f"run{len(runs):02d}"))
        for _ in range(0 if trace else SETUPS_PER_RUN):
            out = base / f"setup{len(setups):02d}"
            setups.append(run_child(workload, seed, False, "setup", out))

    reference = next((r["digests"] for r in runs if "digests" in r and not r["failures"]), None)
    for r in runs:
        if not r["failures"] and r.get("digests") != reference:
            r["failures"].append("artifacts differ from the first run of this invocation")

    children = runs + setups
    failures = [msg for r in children for msg in r["failures"]]
    summary = {
        "attempted": len(children),
        "failed": sum(1 for r in children if r["failures"]),
        "failures": failures,
        "runs": len(runs),
    }
    ok = [r for r in runs if not r["failures"]]
    untraced = [r for r in ok if not r["trace"]]
    if trace:
        summary["metrics"] = layer_summary(ok, untraced)
        missing = [name for name in PER_LAYER if name not in summary["metrics"]]
        if missing and not summary["failed"]:
            summary["failed"] = 1
            summary["failures"].append("no value for " + ", ".join(missing))
    else:
        summary["metrics"] = {}
        samples = {
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in children if "setup_s" in r and not r["failures"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "level1_err": [r["level1_err"] for r in untraced],
        }
        for name, values in samples.items():
            if values:
                summary["metrics"][name] = (statistics.median(values), len(values))
    return summary


def layer_summary(ok: list[dict], untraced: list[dict]) -> dict:
    """Median of each per-layer metric over the traced children, with its sample count.

    A layer the workload does not reach reads 0.  ``trace.overhead_s`` is the
    signed difference of the traced and untraced median wall times, so it can
    be negative when the tracing costs less than the noise.
    """
    traced = [r for r in ok if r["trace"]]
    if not traced or not untraced:
        return {}
    samples = {
        name: [r["layers"][name] for r in traced if name in r["layers"]] for name in PER_LAYER
    }
    samples["trace.wall_s"] = [r["wall_s"] for r in traced]
    samples["trace.untraced_wall_s"] = [r["wall_s"] for r in untraced]
    samples["trace.unaccounted_s"] = [r["wall_s"] - r["accounted_s"] for r in traced]
    samples["cli.artifact_bytes"] = [r["artifact_bytes"] for r in traced]
    samples["cli.nonfinite_json_values"] = [r["nonfinite_json_values"] for r in traced]
    out = {name: (statistics.median(v), len(v)) for name, v in samples.items() if v}
    out["trace.overhead_s"] = (
        out["trace.wall_s"][0] - out["trace.untraced_wall_s"][0],
        min(len(traced), len(untraced)),
    )
    return {name: out[name] for name in PER_LAYER if name in out}


def report(workload: str, summary: dict, units: dict) -> None:
    print(f"{workload}: {summary['runs']} workload runs, {summary['attempted']} children")
    rows = dict(summary["metrics"])
    # failed over attempted; it stays out of the result line's metrics, which must not be 0
    rows["fail_ratio"] = (summary["failed"] / summary["attempted"], summary["attempted"])
    for name, (value, count) in rows.items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, 'ratio'):10s} n={count}")
    for message in summary["failures"]:
        print(f"  FAILED: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the carlemanlab pipeline.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carlemanlab" / "__init__.py").is_file():
        print(f"benchmark: the program is missing ({SRC / 'carlemanlab'})", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    (OUT / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    trace = bool(args.trace)
    units = PER_LAYER if trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        summary = measure(workload, args.seed, args.seconds, trace)
        report(workload, summary, units)
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, _) in summary["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
