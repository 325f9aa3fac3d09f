"""The four benchmark workloads.

A workload builds its fixed inputs once (set-up) and then hands out rounds.
Round r is a list of operations whose inputs come from (seed, r) only, so a
run repeats whole rounds of the same operations and the same seed gives the
same inputs.  Each operation is a call into the program, timed, and a check
of its output against checks.py, not timed.  Calls look functions up on the
vortexsteer modules at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
import tracer as tracing
from vortexsteer import experiment, qmath, steering, tomography
from vortexsteer import bounds as bd

FIDELITY = 0.977
V = checks.visibility(FIDELITY)
ETA = 0.45
TRIALS = 1_000_000


@dataclass
class Op:
    """One timed call and the check of its result.

    ``count`` is how many units of the workload's throughput metric the
    call produces (steering runs, bound points, reconstructions, commands).
    ``known_fault`` marks a call that fails its check every time because of
    a fault recorded in CHANGES.md; it counts as failed, not as incorrect.
    """

    label: str
    count: int
    call: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: bool = False


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def program_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 32, size=count)]


def xi_grid(rng: np.random.Generator, n: int, points: int) -> list[float]:
    """Strictly increasing grid: one point at or below 1/n, then a dense run
    from just above 1/n to exactly 1.  The first point above 1/n sits 1e-6
    to 1e-4 above it, outside the window where the bound LP is known to be
    inexact (see the fixed probe in BoundScan)."""
    below = float(rng.uniform(0.5, 1.0)) / n
    start = 1 / n + 10 ** float(rng.uniform(-6, -4))
    steps = rng.uniform(0.5, 1.5, size=points - 2)
    inner = start + (1 - start) * np.cumsum(steps) / steps.sum()
    return [below, start] + [float(x) for x in inner[:-1]] + [1.0]


class SteerCampaign:
    """n in {3, 6} x {vortex, polarization}: a fixed-angle sweep over
    0-90 degrees in 15 degree steps, one per-trial and one per-setting-block
    dynamically rotating run, all at F = 0.977, eta = 0.45, 1e6 trials."""

    runs_processes = False
    trace_rounds = 2
    THETAS = tuple(math.radians(t) for t in range(0, 91, 15))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.channel = experiment.ChannelModel(bob_efficiency=ETA)
        self.configs = []
        for n in (3, 6):
            mset = steering.platonic_set(n)
            dirs = mset.as_matrix()
            for kind in ("vortex", "polarization"):
                state = experiment.prepare_state(experiment.NoiseModel(werner_v=V), kind)
                self.configs.append((n, kind, mset, dirs, checks.best_payoffs(dirs), state))

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        ops = []
        for config in self.configs:
            s_sweep, s_trial, s_block = program_seeds(rng, 3)
            ops += [self._sweep(config, s_sweep),
                    self._dynamic(config, s_trial, block=False),
                    self._dynamic(config, s_block, block=True)]
        return ops

    def _check(self, label, result, config, seed, expected, must_violate):
        n, kind = config[0], config[1]
        checks.require((result.n, result.encoding_kind, result.trials, result.seed)
                       == (n, kind, TRIALS, seed), f"{label}: run metadata")
        est = result.estimate
        checks.check_steering(label, est.s_value, est.std_err,
                              est.announce_fraction, result.bound_at_observed_xi,
                              result.violated, expected=expected,
                              efficiency=ETA, trials=TRIALS, pstar=config[4],
                              must_violate=must_violate)

    def _sweep(self, config, seed) -> Op:
        n, kind, mset, dirs, _, state = config
        label = f"sweep n={n} {kind}"

        def check(results):
            checks.require(len(results) == len(self.THETAS), f"{label}: run count")
            for theta, result in zip(self.THETAS, results):
                expected = checks.expected_s(kind, V, dirs, theta)
                self._check(f"{label} theta={math.degrees(theta):g}", result,
                            config, result.seed, expected,
                            True if kind == "vortex" else None)

        return Op(label, len(self.THETAS),
                  lambda: experiment.sweep_theta(state, mset, self.channel,
                                                 self.THETAS, TRIALS, seed),
                  check)

    def _dynamic(self, config, seed, block: bool) -> Op:
        n, kind, mset, dirs, _, state = config
        label = f"dynamic n={n} {kind} {'block' if block else 'trial'}"
        if block:
            # run_experiment's documented draw order: Alice thinning (none at
            # efficiency 1), then one receiver angle per setting block
            thetas = np.random.default_rng(seed).uniform(0, math.pi / 2, size=n)
        else:
            thetas = None
        expected = checks.expected_s(kind, V, dirs, thetas)
        if kind == "vortex":
            must_violate = True
        else:
            must_violate = None if block else False
        return Op(label, 1,
                  lambda: experiment.dynamic_rotation_run(
                      state, mset, self.channel, TRIALS, seed,
                      per_setting_block=block),
                  lambda result: self._check(label, result, config, seed,
                                             expected, must_violate))


class BoundScan:
    """bound_curve for n in {3, 4, 6} on dense increasing xi grids, plus one
    fixed probe of a known LP inaccuracy just above 1/3."""

    runs_processes = False
    trace_rounds = 2
    POINTS = 40
    PROBE_XI = 1 / 3 + 1e-8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.sets = []
        for n in (3, 4, 6):
            mset = steering.platonic_set(n)
            self.sets.append((n, mset, checks.best_payoffs(mset.as_matrix())))

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        ops = [self._curve(n, mset, pstar, xi_grid(rng, n, self.POINTS))
               for n, mset, pstar in self.sets]
        n, mset, pstar = self.sets[0]
        return ops + [self._curve(n, mset, pstar, [self.PROBE_XI],
                                  known_fault=True)]

    @staticmethod
    def _curve(n, mset, pstar, grid, known_fault=False) -> Op:
        def check(curve):
            checks.require(curve.n == n and list(curve.xi_grid) == grid,
                           f"bound curve n={n}: grid not echoed")
            checks.check_bound_curve(pstar, grid, curve.c_values)

        label = f"bound probe n={n} xi={grid}" if known_fault else f"bound_curve n={n}"
        return Op(label, len(grid), lambda: bd.bound_curve(mset, grid), check,
                  known_fault)


class TomoBatch:
    """36-setting tomography of the F = 0.977 Werner state: noisy counts at
    1e5 and 1e3 per setting, one exact-count reconstruction and one of the
    singlet behind a receiver turned by 90 degrees."""

    runs_processes = False
    trace_rounds = 2
    NOISY = ((100_000, 6), (1_000, 1))
    ROTATED_COUNTS = 100_000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        projs = checks.tomography_projectors()
        self.specs = {}
        for c in {c for c, _ in self.NOISY} | {self.ROTATED_COUNTS}:
            spec = tomography.standard_settings(c)
            checks.require(np.allclose(np.array(spec.projectors), projs, atol=1e-15),
                           "36-setting spec differs from H V D A L R x H V D A L R")
            self.specs[c] = spec
        self.rho = checks.werner(V)
        self.rotated = checks.rotated_90(checks.werner(1.0))
        self.state = qmath.DensityMatrix(self.rho)
        self.rotated_state = qmath.DensityMatrix(self.rotated)
        self.target = qmath.StateVector(checks.singlet())
        self.exact_counts = 100_000 * checks.born(self.rho, projs)

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        ops = []
        for c, repeats in self.NOISY:
            for s in program_seeds(rng, repeats):
                ops.append(self._noisy(f"tomo noisy {c}", self.state, self.rho, c, s))
        ops.append(self._noisy("tomo rotated", self.rotated_state, self.rotated,
                               self.ROTATED_COUNTS, program_seeds(rng, 1)[0]))
        ops.append(Op("tomo exact", 1,
                      lambda: tomography.reconstruct(self.exact_counts,
                                                     self.specs[100_000],
                                                     target=self.target),
                      self._check_exact))
        return ops

    def _check_exact(self, report):
        dist = checks.trace_distance(report.rho_hat.entries, self.rho)
        checks.require(dist <= 1e-6, f"tomo exact: trace distance {dist!r}")

    def _noisy(self, label, state, rho_true, c, seed) -> Op:
        spec = self.specs[c]

        def call():
            counts = tomography.simulate_counts(state, spec, seed)
            return counts, tomography.reconstruct(counts, spec, target=self.target)

        def check(out):
            counts, report = out
            rho_hat = report.rho_hat.entries
            checks.check_fidelity(label, report.fidelity_to_target, rho_hat,
                                  rho_true, c)
            checks.check_likelihood(label, counts, rho_hat, rho_true, c)
            purity = float(np.trace(rho_hat @ rho_hat).real)
            checks.require(abs(report.purity - purity) <= 1e-9,
                           f"{label}: purity {report.purity!r} != {purity!r}")

        return Op(label, 1, call, check)


class CommandFailed(RuntimeError):
    """A command-line invocation exited with a non-zero code."""


class CliCold:
    """Each subcommand as a fresh ``python -m vortexsteer.cli`` process:
    bound (n=6), steer, sweep, dynamic, tomo, then a --config rerun of the
    tomo sidecar."""

    runs_processes = True
    trace_rounds = 1
    BOUND_POINTS = 84
    SWEEP_TRIALS = 500_000
    TOMO_COUNTS = 100_000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None
        self.peak_rss_kb = 0
        self.dirs3 = steering.platonic_set(3).as_matrix()
        self.pstar3 = checks.best_payoffs(self.dirs3)
        self.pstar6 = checks.best_payoffs(steering.platonic_set(6).as_matrix())
        # the vortex tomo command reconstructs the analyzer-frame logical
        # state, which equals the pre-encoding Werner state
        self.rho_tomo = checks.werner(V)
        self.tomo_bytes = b""

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _run(self, args: list[str]) -> None:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "vortexsteer.cli", *args]
        else:
            stats = self._path("trace_stats.json")
            cmd = [sys.executable, tracing.__file__, stats, *args]
        with open(self._path("stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            with open(self._path("stderr.txt")) as fh:
                raise CommandFailed(f"exit {code}: {fh.read()[-500:]}")
        if self.tracer is not None:
            with open(stats) as fh:
                self.tracer.merge(json.load(fh))

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r)
        grid = xi_grid(rng, 6, self.BOUND_POINTS)
        theta = int(rng.integers(0, 90))
        s_steer, s_sweep, s_dyn, s_tomo = program_seeds(rng, 4)
        common = ["--fidelity", str(FIDELITY), "--efficiency", str(ETA)]
        out = {name: self._path(name) for name in
               ("bound.csv", "steer.csv", "sweep.csv", "dynamic.csv", "tomo.json")}

        def vortex(_):
            return V

        def polarization(theta_deg):
            return checks.expected_s("polarization", V, self.dirs3,
                                     math.radians(float(theta_deg)))

        def check_tomo(_):
            checks.check_tomo_json(out["tomo.json"], self.rho_tomo,
                                   self.TOMO_COUNTS)
            with open(out["tomo.json"], "rb") as fh:
                self.tomo_bytes = fh.read()

        def command(label, args, check):
            return Op(label, 1, lambda: self._run(args), check)

        return [
            command("cli_bound_s", ["bound", "--n", "6", "--xi",
                              ",".join(repr(x) for x in grid),
                              "--output", out["bound.csv"]],
                    lambda _: checks.check_bound_csv(out["bound.csv"], grid,
                                                     self.pstar6)),
            command("cli_steer_s", ["steer", "--n", "3", "--encoding", "vortex", *common,
                              "--theta", str(theta), "--trials", str(TRIALS),
                              "--seed", str(s_steer), "--output", out["steer.csv"]],
                    lambda _: checks.check_run_csv(
                        out["steer.csv"], expected=vortex, efficiency=ETA,
                        trials=TRIALS, pstar=self.pstar3, must_violate=True)),
            command("cli_sweep_s", ["sweep", "--n", "3", "--encoding", "polarization",
                              *common, "--thetas", "0:90:15",
                              "--trials", str(self.SWEEP_TRIALS),
                              "--seed", str(s_sweep), "--output", out["sweep.csv"]],
                    lambda _: checks.check_run_csv(
                        out["sweep.csv"], expected=polarization, efficiency=ETA,
                        trials=self.SWEEP_TRIALS, pstar=self.pstar3,
                        must_violate=None)),
            command("cli_dynamic_s", ["dynamic", "--n", "3", "--encoding", "vortex",
                                *common, "--trials", str(TRIALS),
                                "--seed", str(s_dyn), "--output", out["dynamic.csv"]],
                    lambda _: checks.check_run_csv(
                        out["dynamic.csv"], expected=vortex, efficiency=ETA,
                        trials=TRIALS, pstar=self.pstar3, must_violate=True)),
            command("cli_tomo_s", ["tomo", "--encoding", "vortex",
                             "--fidelity", str(FIDELITY), "--seed", str(s_tomo),
                             "--output", out["tomo.json"]],
                    check_tomo),
            command("cli_rerun_s", ["--config", out["tomo.json"] + ".config.json"],
                    lambda _: checks.check_same_bytes(out["tomo.json"],
                                                      self.tomo_bytes)),
        ]


WORKLOADS = {
    "steer-campaign": SteerCampaign,
    "bound-scan": BoundScan,
    "tomo-batch": TomoBatch,
    "cli-cold": CliCold,
}
