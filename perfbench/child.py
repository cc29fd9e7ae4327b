"""One benchmark child: a fresh process that runs one workload once.

``run.py`` starts it with the monotonic time at which it spawned the process,
so ``setup_s`` covers interpreter start, the carlemanlab import and input
generation, up to the first call into a layer, and ``workload_end`` marks the
end of the workload's last call, before the checks.  Modes:

* ``run``: set up, run the workload (traced or not), check its outputs, hash
  its artifacts, and write ``result.json`` (plus ``trace.json`` when traced);
  a traced run also probes the known defects listed in ``NOTES.md``;
* ``setup``: set up and stop, to sample ``setup_s`` on its own.

The exit code is 0 when every call and check succeeded, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def artifact_record(directory: str) -> dict:
    """Hash, size and non-finite JSON value count of every artifact written."""
    digests, total_bytes, nonfinite = {}, 0, 0

    def count_constant(token: str) -> float:
        nonlocal nonfinite
        nonfinite += 1
        return float(token.replace("Infinity", "inf"))

    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            data = handle.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        total_bytes += len(data)
        if name.endswith(".json"):
            json.loads(data, parse_constant=count_constant)
    return {"digests": digests, "bytes": total_bytes, "nonfinite_json_values": nonfinite}


def layer_metrics(tracer) -> dict:
    """Per-layer numbers of one traced run (units are in ``BENCHMARK.json``)."""
    import tracing

    spans = tracer.spans
    stats = tracing.summarize(spans)

    def total(name: str) -> float:
        return stats[name]["total"] if name in stats else 0.0

    def per_call(name: str) -> float:
        return stats[name]["median"] if name in stats else 0.0

    def calls(name: str) -> int:
        return stats[name]["calls"] if name in stats else 0

    nnz = tracer.maxima["carleman.nnz"]
    out = {
        "propagator.evolve_s": total("propagator.evolve"),
        "propagator.step_s": per_call("propagator.step"),
        "propagator.steps": tracer.counts["propagator.steps"],
        "propagator.matvecs": tracing.operator_applications_in_evolve(spans),
        "propagator.growth_max": tracer.maxima["propagator.growth_max"],
        "carleman.matvec_s": per_call("carleman.matvec"),
        "carleman.apply_s": per_call("carleman.apply"),
        "carleman.apply_calls": calls("carleman.apply"),
        "carleman.to_sparse_s": total("carleman.to_sparse"),
        "carleman.total_dimension": tracer.maxima["carleman.total_dimension"],
        "carleman.nnz": nnz,
        "carleman.matvec_flops": 2 * nnz,
        "carleman.matvec_bytes": tracer.maxima["carleman.matvec_bytes"],
        "nonlinear_ode.lambda0_calls": calls("nonlinear_ode.lambda0"),
        "nonlinear_ode.lambda0_s": total("nonlinear_ode.lambda0"),
        "nonlinear_ode.spectral_norm_s": total("nonlinear_ode.spectral_norm"),
        "nonlinear_ode.reference_s": total("nonlinear_ode.reference"),
        "nonlinear_ode.rhs_evals": tracer.counts["nonlinear_ode.rhs_evals"],
        "bounds.report_s": total("bounds.report"),
        "bounds.component_s": total("bounds.component"),
        "bounds.f_fallbacks": len(tracer.fallback_cases),
        "pde.discretize_s": total("pde.discretize"),
        "pde.stability_report_s": total("pde.stability_report"),
        "stencil.laplacian_s": total("stencil.laplacian"),
        "cost.estimate_s": total("cost.estimate"),
        "cli.write_s": total("cli.write"),
    }
    for layer, seconds in tracing.layer_self_times(spans).items():
        out[f"self.{layer}_s"] = seconds
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--src", required=True, help="directory the program must be imported from")
    args = parser.parse_args()

    import numpy  # noqa: F401
    import carlemanlab
    from carlemanlab import cli  # noqa: F401  (imports every layer)

    import workloads

    src = os.path.realpath(args.src)
    if not os.path.realpath(carlemanlab.__file__).startswith(src + os.sep):
        print(f"carlemanlab imported from {carlemanlab.__file__}, not {src}", file=sys.stderr)
        return 2
    inputs_dir = os.path.join(args.out, "inputs")
    artifacts_dir = os.path.join(args.out, "artifacts")
    os.makedirs(inputs_dir)
    os.makedirs(artifacts_dir)
    inputs = workloads.build_inputs(args.workload, args.seed, inputs_dir)
    setup_end = time.monotonic()
    result: dict = {"setup_s": setup_end - args.spawned_at, "failures": []}

    if args.mode == "run":
        tracer = restore = None
        if args.trace:
            import tracing  # after set-up, so that untraced and traced set-ups match

            tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
            tracer.spans.append(["setup", args.spawned_at, setup_end, -1])
            restore = tracing.instrument(tracer)
            root = tracer.open("bench.workload")
        try:
            result["failures"] += workloads.run_workload(args.workload, inputs, artifacts_dir)
        except Exception:  # the run is reported as failed, with its traceback
            result["failures"].append(traceback.format_exc())
        finally:
            result["workload_end"] = time.monotonic()
            if tracer is not None:
                tracer.close(root)
                restore()
        if not result["failures"]:
            try:
                failures, result["level1_err"] = workloads.check(
                    args.workload, inputs, artifacts_dir
                )
                result["failures"] += failures
            except Exception:
                result["failures"].append(traceback.format_exc())
        artifacts = artifact_record(artifacts_dir)
        result["digests"] = artifacts["digests"]
        result["artifact_bytes"] = artifacts["bytes"]
        result["nonfinite_json_values"] = artifacts["nonfinite_json_values"]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["check_s"] = time.monotonic() - result["workload_end"]
        if tracer is not None:
            result["layers"] = layer_metrics(tracer)
            result["accounted_s"] = sum(
                v for k, v in result["layers"].items() if k.startswith("self.")
            )
            result["layers"].update(workloads.probe_known_defects())
            with open(os.path.join(args.out, "trace.json"), "w") as handle:
                json.dump(tracer.to_json(), handle)

    with open(os.path.join(args.out, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
