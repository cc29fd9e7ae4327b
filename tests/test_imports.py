"""What a fresh interpreter loads: scipy's ODE stack only for an ODE's reference run.

Each check runs in its own subprocess, because the pytest process has long
since imported every scipy module that any test needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

#: what ``import carlemanlab.cli`` leaves out; a PDE command needs none of them
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.sparse.linalg")


def loaded_after(script: str) -> dict:
    """Run ``script`` in a fresh interpreter and return the JSON value it prints last."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_defers_the_ode_stack():
    loaded = loaded_after(
        "import json, sys; import carlemanlab.cli; "
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
    )
    assert loaded == []


def test_pde_evolve_and_cost_never_load_the_ode_integrators(tmp_path):
    config = CONFIGS / "demo_n13.json"
    loaded = loaded_after(
        "import json, sys; from carlemanlab import cli; "
        f"codes = [cli.main([*c, '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) "
        "for c in ([], ['cost'])]; "
        f"print(json.dumps({{'codes': codes, 'loaded': [m for m in {DEFERRED!r} if m in sys.modules]}}))"
    )
    assert loaded == {"codes": [0, 0], "loaded": []}
    for name in ("evolve", "cost"):
        results = json.loads((tmp_path / f"demo_n13_{name}.json").read_text())["results"]
        assert results["reference_method"] == "ETDRK4"


def test_ode_evolve_loads_lsoda_when_it_runs(tmp_path):
    config = CONFIGS / "ode_coupled.json"
    loaded = loaded_after(
        "import json, sys; from carlemanlab import cli; "
        "before = 'scipy.integrate' in sys.modules; "
        f"code = cli.main(['--config', {str(config)!r}, '--out', {str(tmp_path)!r}]); "
        "print(json.dumps([before, code, 'scipy.integrate' in sys.modules]))"
    )
    assert loaded == [False, 0, True]
    results = json.loads((tmp_path / "ode_coupled_evolve.json").read_text())["results"]
    assert results["reference_method"] == "LSODA"
