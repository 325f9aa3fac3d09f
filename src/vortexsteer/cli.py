"""Command-line front end: bounds, steering runs, sweeps, and tomography.

Every command writes its result file atomically plus a JSON sidecar
(`<output>.config.json`) holding the fully resolved configuration including
the seed; re-running with ``vortexsteer --config <sidecar>`` reproduces the
result file byte for byte.

Angles on the command line are degrees; radians are used internally.
Grids are ``start:stop:step`` (inclusive endpoints) or comma-separated lists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bounds, encoding, experiment, steering, tomography
from .qmath import DensityMatrix

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

SWEEP_COLUMNS = ("theta_deg", "encoding", "n", "s_value", "std_err",
                 "announce_fraction", "bound", "violated")
BOUND_COLUMNS = ("xi", "c_n", "witness_pattern")

SAMPLING_COMMANDS = {"steer", "sweep", "dynamic", "tomo"}

# keys each command reads besides "command" and "seed"
_RUN_KEYS = ("output", "format", "n", "encoding", "efficiency", "trials")
CONFIG_KEYS = {
    "bound": ("output", "format", "n", "xi_grid"),
    "steer": _RUN_KEYS + ("theta_deg",),
    "sweep": _RUN_KEYS + ("thetas_deg",),
    "dynamic": _RUN_KEYS,
    "tomo": ("output", "encoding", "theta_deg", "counts_per_setting"),
}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"grid stop precedes start in {text!r}")
        # snap a float-drifted last point onto stop, within the same tolerance
        return [stop if abs(x - stop) <= 1e-9 * step else x
                for x in (start + i * step for i in range(count))]
    values = [float(p) for p in text.split(",") if p != ""]
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return values


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_table(config: dict, columns, rows) -> None:
    if config["format"] == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        records = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(records, sort_keys=True, indent=2) + "\n"
    _atomic_write(config["output"], text)


def _write_sidecar(config: dict) -> None:
    _atomic_write(config["output"] + ".config.json",
                  json.dumps(config, sort_keys=True, indent=2) + "\n")


def _resolve_visibility(config: dict) -> float:
    if config.get("visibility") is not None:
        return float(config["visibility"])
    if config.get("fidelity") is not None:
        return experiment.visibility_for_fidelity(float(config["fidelity"]))
    raise ValueError("one of --visibility / --fidelity is required")


def _witness_text(witness) -> str:
    parts = []
    for weight, strat in witness:
        pattern = "".join({1: "+", -1: "-", 0: "."}[a] for a in strat.answers)
        parts.append(f"{pattern}:{weight:.6f}")
    return ";".join(parts)


def _run_row(theta_label, result) -> tuple:
    est = result.estimate
    return (theta_label, result.encoding_kind, result.n, est.s_value,
            est.std_err, est.announce_fraction, result.bound_at_observed_xi,
            result.violated)


def cmd_bound(config: dict) -> None:
    mset = steering.platonic_set(config["n"])
    curve = bounds.bound_curve(mset, config["xi_grid"])
    rows = [(xi, c, _witness_text(w))
            for xi, c, w in zip(curve.xi_grid, curve.c_values, curve.witnesses)]
    _write_table(config, BOUND_COLUMNS, rows)
    _write_sidecar(config)


def _prepared_state(config: dict):
    noise = experiment.NoiseModel(werner_v=_resolve_visibility(config),
                                  dephasing=config.get("dephasing", 0.0))
    return experiment.prepare_state(noise, config["encoding"])


def _common_run_inputs(config: dict):
    if config["trials"] < 1:
        raise ValueError("trials must be positive")
    mset = steering.platonic_set(config["n"])
    channel = experiment.ChannelModel(
        bob_efficiency=config["efficiency"],
        alice_efficiency=config.get("alice_efficiency", 1.0))
    return mset, channel, _prepared_state(config)


def cmd_steer(config: dict) -> None:
    mset, channel, state = _common_run_inputs(config)
    theta = math.radians(config["theta_deg"])
    result = experiment.run_experiment(state, mset, channel,
                                       experiment.ThetaPolicy.fixed(theta),
                                       config["trials"], config["seed"])
    _write_table(config, SWEEP_COLUMNS, [_run_row(config["theta_deg"], result)])
    _write_sidecar(config)


def cmd_sweep(config: dict) -> None:
    mset, channel, state = _common_run_inputs(config)
    thetas_deg = config["thetas_deg"]
    results = experiment.sweep_theta(state, mset, channel,
                                     [math.radians(t) for t in thetas_deg],
                                     config["trials"], config["seed"])
    rows = [_run_row(t, r) for t, r in zip(thetas_deg, results)]
    _write_table(config, SWEEP_COLUMNS, rows)
    _write_sidecar(config)


def cmd_dynamic(config: dict) -> None:
    mset, channel, state = _common_run_inputs(config)
    result = experiment.dynamic_rotation_run(
        state, mset, channel, config["trials"], config["seed"],
        per_setting_block=config.get("block", False))
    _write_table(config, SWEEP_COLUMNS, [_run_row("dynamic", result)])
    _write_sidecar(config)


def cmd_tomo(config: dict) -> None:
    # the state Bob's rotated analyzer detects, renormalised to detection
    detected = encoding.receiver(config["encoding"]).detected_state(
        _prepared_state(config), math.radians(config["theta_deg"]))
    rho = DensityMatrix(detected / np.trace(detected).real)
    spec = tomography.standard_settings(config["counts_per_setting"])
    counts = tomography.simulate_counts(rho, spec, config["seed"])
    report = tomography.reconstruct(counts, spec, target=encoding.singlet_pol())
    payload = {
        "rho_hat": [[{"re": float(z.real), "im": float(z.imag)}
                     for z in row] for row in report.rho_hat.entries],
        "fidelity": report.fidelity_to_target,
        "purity": report.purity,
        "log_likelihood": report.log_likelihood,
    }
    _atomic_write(config["output"],
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _write_sidecar(config)


COMMANDS = {
    "bound": cmd_bound,
    "steer": cmd_steer,
    "sweep": cmd_sweep,
    "dynamic": cmd_dynamic,
    "tomo": cmd_tomo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexsteer",
        description="Vector vortex quantum steering simulator")
    parser.add_argument("--config", help="re-run from a config sidecar JSON")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, sampling=True):
        p.add_argument("--output", required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if sampling:
            p.add_argument("--n", type=int, default=3)
            p.add_argument("--encoding", choices=("vortex", "polarization"),
                           default="vortex")
            p.add_argument("--visibility", type=float)
            p.add_argument("--fidelity", type=float)
            p.add_argument("--efficiency", type=float, default=1.0,
                           help="Bob-side heralding efficiency (xi proxy)")
            p.add_argument("--alice-efficiency", type=float, default=1.0,
                           help="advanced: trusted-side efficiency, rate only")
            p.add_argument("--dephasing", type=float, default=0.0)
            p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("bound", help="loss-tolerant bound curve C_n(xi)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", required=True, help="grid start:stop:step or list")
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("steer", help="single fixed-orientation run")
    add_common(p)
    p.add_argument("--theta", type=float, default=0.0, help="degrees")
    p.add_argument("--trials", type=int, default=experiment.DEFAULT_TRIALS)

    p = sub.add_parser("sweep", help="orientation sweep")
    add_common(p)
    p.add_argument("--thetas", required=True, help="degrees grid or list")
    p.add_argument("--trials", type=int, default=experiment.DEFAULT_TRIALS)

    p = sub.add_parser("dynamic", help="dynamically rotating receiver")
    add_common(p)
    p.add_argument("--block", action="store_true",
                   help="redraw theta per setting block instead of per trial")
    p.add_argument("--trials", type=int, default=experiment.DEFAULT_TRIALS)

    p = sub.add_parser("tomo", help="simulated state tomography")
    add_common(p)
    p.add_argument("--theta", type=float, default=0.0, help="degrees")
    p.add_argument("--counts-per-setting", type=int, default=100_000)
    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    cmd = args.command
    config = {"command": cmd, "output": args.output, "format": args.format}
    if cmd == "bound":
        config.update(n=args.n, xi_grid=_parse_grid(args.xi))
        return config
    config.update(
        n=args.n, encoding=args.encoding, visibility=args.visibility,
        fidelity=args.fidelity, efficiency=args.efficiency,
        alice_efficiency=args.alice_efficiency, dephasing=args.dephasing,
        seed=args.seed,
    )
    if cmd == "steer":
        config.update(theta_deg=args.theta, trials=args.trials)
    elif cmd == "sweep":
        config.update(thetas_deg=_parse_grid(args.thetas), trials=args.trials)
    elif cmd == "dynamic":
        config.update(block=args.block, trials=args.trials)
    elif cmd == "tomo":
        config.update(theta_deg=args.theta,
                      counts_per_setting=args.counts_per_setting)
        config.pop("efficiency")
        config.pop("alice_efficiency")
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            if args.command is not None:
                raise ValueError("--config replaces the subcommand and flags")
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("sidecar must hold a JSON object")
            if config.get("command") not in COMMANDS:
                raise ValueError(f"sidecar has unknown command "
                                 f"{config.get('command')!r}")
            missing = [k for k in CONFIG_KEYS[config["command"]] if k not in config]
            if missing:
                raise ValueError(f"sidecar lacks {', '.join(missing)}")
        else:
            if args.command is None:
                parser.print_usage(sys.stderr)
                return EXIT_VALIDATION
            config = _config_from_args(args)
        if config["command"] in SAMPLING_COMMANDS and config.get("seed") is None:
            raise ValueError("seed is mandatory for sampling commands")
        COMMANDS[config["command"]](config)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
