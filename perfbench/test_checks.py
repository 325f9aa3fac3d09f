"""Tests of the benchmark itself: every correctness check rejects a
deliberately wrong input, and a short run of every workload works end to
end.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
F = 0.977
V = checks.visibility(F)
DIRS3 = np.eye(3)[[2, 0, 1]]   # z, x, y
PSTAR3 = checks.best_payoffs(DIRS3)


def test_envelope_known_values():
    assert PSTAR3[1:] == pytest.approx([1, math.sqrt(2), math.sqrt(3)])
    assert checks.envelope(PSTAR3, 1.0) == pytest.approx(1 / math.sqrt(3))
    assert checks.envelope(PSTAR3, 1 / 3) == pytest.approx(1.0)
    # n xi = 1.35: mix a = 1 (weight 0.65) with a = 2 (weight 0.35)
    assert checks.envelope(PSTAR3, 0.45) == pytest.approx(
        (0.65 + 0.35 * math.sqrt(2)) / 1.35)


def test_bound_check_rejects_offset_of_1e_6():
    grid = [0.2, 1 / 3 + 1e-5, 0.5, 0.75, 1.0]
    values = [checks.envelope(PSTAR3, xi) for xi in grid]
    checks.check_bound_curve(PSTAR3, grid, values)
    for i in range(len(grid)):
        wrong = list(values)
        wrong[i] -= 1e-6
        with pytest.raises(checks.CheckFailed):
            checks.check_bound_curve(PSTAR3, grid, wrong)


def test_steering_check_rejects_bias_and_bad_verdict():
    se = 3e-4
    bound = checks.envelope(PSTAR3, 0.45)
    ok = dict(expected=V, efficiency=0.45, trials=10**6, pstar=PSTAR3,
              must_violate=True)
    checks.check_steering("ok", V + 5 * se, se, 0.45, bound, True, **ok)
    with pytest.raises(checks.CheckFailed):
        checks.check_steering("biased", V + 7 * se, se, 0.45, bound, True, **ok)
    with pytest.raises(checks.CheckFailed):
        checks.check_steering("verdict", V, se, 0.45, bound, False, **ok)
    with pytest.raises(checks.CheckFailed):
        checks.check_steering("bound", V, se, 0.45, bound + 1e-6, True, **ok)


def test_fidelity_check_rejects_offset_of_0_01():
    rho = checks.werner(V)
    psi = checks.singlet()
    checks.check_fidelity("ok", F, rho, rho, 100_000)
    # an estimate whose state is 0.01 too faithful
    off = checks.werner(checks.visibility(F + 0.01))
    with pytest.raises(checks.CheckFailed):
        checks.check_fidelity("state", float((psi @ off @ psi).real), off, rho,
                              100_000)
    # a reported fidelity 0.01 away from its own state
    with pytest.raises(checks.CheckFailed):
        checks.check_fidelity("reported", F + 0.01, rho, rho, 100_000)


def test_likelihood_check_prefers_the_fitted_state():
    projs = checks.tomography_projectors()
    rho = checks.werner(V)
    counts = np.random.default_rng(0).poisson(1000 * checks.born(rho, projs))
    with pytest.raises(checks.CheckFailed):
        checks.check_likelihood("worse", counts, checks.werner(0.5), rho, 1000)


def test_rerun_check_rejects_one_changed_byte(tmp_path):
    path = tmp_path / "tomo.json"
    original = b'{"fidelity": 0.9771}\n'
    path.write_bytes(original)
    checks.check_same_bytes(str(path), original)
    path.write_bytes(original.replace(b"1}", b"2}"))
    with pytest.raises(checks.CheckFailed):
        checks.check_same_bytes(str(path), original)


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         ["steer-campaign", "bound-scan", "tomo-batch", "cli-cold"])
def test_short_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    # the one known fault: a bound probe just above 1/3 in every bound-scan round
    if workload != "bound-scan":
        assert result["failed"] == 0, proc.stderr


def test_trace_counts_repeat_for_a_fixed_seed():
    counts = []
    for _ in range(2):
        proc = _run("tomo-batch", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["tomography.mle_iterations"] > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _run("bound-scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
