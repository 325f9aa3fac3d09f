"""The package needs numpy only: importing it loads no scipy, and numpy is
the only declared runtime dependency.  Its Python floor and public names
are pinned."""

import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path
from types import ModuleType

import vortexsteer

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = ("import sys, vortexsteer; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert done.stdout.strip() == "[]"


def project_table() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_numpy_is_the_only_runtime_dependency():
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group(0)
             for d in project_table()["dependencies"]]
    assert names == ["numpy"]


def test_python_floor_is_the_benchmarks():
    # perfbench/run.py imports tomllib, new in Python 3.11
    assert project_table()["requires-python"] == ">=3.11"


def test_public_names():
    # the package's exports: every attribute of vortexsteer that is not a
    # submodule and not private
    names = sorted(name for name, value in vars(vortexsteer).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == [
        "BoundCurve", "ChannelModel", "CheatStrategy", "DensityMatrix",
        "MeasurementSet", "NoiseModel", "ReconstructionReport", "StateVector",
        "SteeringEstimate", "SteeringRunResult", "ThetaPolicy", "TomographySpec",
        "bound_curve", "deterministic_bound", "dynamic_rotation_run",
        "fidelity_pure", "loss_tolerant_bound", "platonic_set", "prepare_state",
        "purity", "receiver", "reconstruct", "run_experiment", "simulate_counts",
        "singlet_pol", "standard_settings", "steering_parameter_counts",
        "steering_parameter_exact", "sweep_theta", "visibility_for_fidelity",
        "werner_state",
    ]
