"""vortexsteer benchmark: one workload per invocation, run from the root of a
source checkout.

    python3 perfbench/run.py --workload steer-campaign --seed 1 \
        --seconds 20 --trace 0

Every workload runs in fresh worker processes (worker.py) that import the
package from ``src/`` of this checkout.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics:

* ``setup_s``: median, over several fresh processes, of the time from
  process launch until the workload's inputs are ready;
* ``peak_rss_mb``: peak resident memory of the measuring process (on
  cli-cold, of the largest command-line process);
* ``ops_per_s``: operations per round over the median round's program
  time (steering runs, bound points, reconstructions or commands, by
  workload).  Every round holds the same operations on fresh inputs; the
  median keeps the rare slow maximum-likelihood fits of tomo-batch from
  setting the figure.

With ``--trace 1`` it holds the per-layer metrics of one traced run.  The
lines before it repeat the metrics for people, with per-operation medians
and the run's provenance.  Set-up problems exit non-zero without a result.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tomllib

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("steer-campaign", "bound-scan", "tomo-batch", "cli-cold")
# set-up is timed in this many fresh processes per run and the median kept
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def provenance() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except OSError:
        sha = ""
    lines = 0
    for folder, _, files in os.walk(os.path.join(SRC, "vortexsteer")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {"git_sha": sha or "unknown", "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": os.cpu_count(), "src_lines": lines,
            "runtime_dependencies": len(deps)}


def launch(args, workdir: str, deadline: float, *, setup_only: bool = False):
    """Run one worker; return (launch-to-ready seconds scaled to reference
    speed by a reference process timed just before, result, stderr)."""
    slowness = speed.process() / speed.PROCESS_S
    cmd = [sys.executable]
    if args.trace and not setup_only:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(BENCH, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONNOUSERSITE="1")
    err_path = os.path.join(workdir, "worker.stderr")
    with open(err_path, "wb") as err:
        start = time.monotonic()
        # own session, so that a timeout also stops the commands it started
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=env, start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker passed the {RUN_LIMIT_S} s limit") from None
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{stderr[-3000:]}")
    result = json.loads(stdout.decode().splitlines()[-1])
    return (result["ready"] - start) / slowness, result, stderr


def declared_metrics() -> tuple[list[str], list[str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def measure(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    import tracer
    end_to_end, per_layer = declared_metrics()
    if args.trace:
        _, result, stderr = launch(args, workdir, deadline)
        metrics = dict(result["layers"])
        metrics.update(tracer.import_times(stderr))
        for line in result["top_functions"]:
            print("  " + line, file=sys.stderr)
        wanted = per_layer
    else:
        setups = [launch(args, workdir, deadline, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        ready, result, _ = launch(args, workdir, deadline)
        setups.append(ready)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "ops_per_s": (result["attempted"] / len(result["round_s"])
                          / statistics.median(result["scaled_round_s"]), "1/s"),
        }
        wanted = end_to_end
    if sorted(metrics) != sorted(wanted):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                         f"{sorted(wanted)}")
    return metrics, result


def main(argv=None) -> int:
    t0 = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "vortexsteer", "__init__.py")):
        print(f"error: no package source at {SRC}/vortexsteer; run from the "
              "root of a vortexsteer checkout", file=sys.stderr)
        return 2
    # one core for this process and all it starts, so that the reference
    # timings measure the core the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # one process, no extra threads: the package's matrices are too small
    # to gain from threaded BLAS, and idle BLAS threads only add noise
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    for folder in (SRC, BENCH):
        compileall.compile_dir(folder, quiet=2)
    print("provenance " + json.dumps(provenance()), file=sys.stderr)

    runs = os.path.join(BENCH, "_runs")
    os.makedirs(runs, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=runs) as workdir:
            metrics, result = measure(args, workdir, t0 + RUN_LIMIT_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for text in result["faults"] + result["wrong"]:
        print(f"check: {text}", file=sys.stderr)
    for label, median in result["op_median_s"].items():
        print(f"median {label}: {median:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        raw = result["attempted"] / statistics.median(result["round_s"]) / len(result["round_s"])
        print(f"{args.workload} ops_per_s before reference-speed scaling = {raw:.6g} 1/s")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
