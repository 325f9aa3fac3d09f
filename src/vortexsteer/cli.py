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
from collections import namedtuple

import numpy as np

from . import bounds, encoding, experiment, steering, tomography
from .qmath import DensityMatrix

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

SWEEP_COLUMNS = ("theta_deg", "encoding", "n", "s_value", "std_err",
                 "announce_fraction", "bound", "violated")
BOUND_COLUMNS = ("xi", "c_n", "witness_pattern")
MAX_GRID_POINTS = 10**6


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
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"grid start, stop and step must be finite in {text!r}")
        if step <= 0:
            raise ValueError("grid step must be positive")
        steps = (stop - start) / step + 1e-9
        if steps < 0:
            raise ValueError(f"grid stop precedes start in {text!r}")
        if steps >= MAX_GRID_POINTS:  # checked before any point is built
            raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        # snap a float-drifted last point onto stop, within the same tolerance
        return [stop if abs(x - stop) <= 1e-9 * step else x
                for x in (start + i * step for i in range(int(steps) + 1))]
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
    """loss-tolerant bound curve C_n(xi)"""
    mset = steering.platonic_set(config["n"])
    curve = bounds.bound_curve(mset, config["xi_grid"])
    rows = [(xi, c, _witness_text(w))
            for xi, c, w in zip(curve.xi_grid, curve.c_values, curve.witnesses)]
    _write_table(config, BOUND_COLUMNS, rows)


def _prepared_state(config: dict):
    if config["visibility"] is not None:
        visibility = float(config["visibility"])
    else:
        visibility = experiment.visibility_for_fidelity(float(config["fidelity"]))
    noise = experiment.NoiseModel(werner_v=visibility,
                                  dephasing=config["dephasing"])
    return experiment.prepare_state(noise, config["encoding"])


def _common_run_inputs(config: dict):
    mset = steering.platonic_set(config["n"])
    channel = experiment.ChannelModel(
        bob_efficiency=config["efficiency"],
        alice_efficiency=config["alice_efficiency"])
    return mset, channel, _prepared_state(config)


def cmd_steer(config: dict) -> None:
    """single fixed-orientation run"""
    mset, channel, state = _common_run_inputs(config)
    theta = math.radians(config["theta_deg"])
    result = experiment.run_experiment(state, mset, channel,
                                       experiment.ThetaPolicy.fixed(theta),
                                       config["trials"], config["seed"])
    _write_table(config, SWEEP_COLUMNS, [_run_row(config["theta_deg"], result)])


def cmd_sweep(config: dict) -> None:
    """orientation sweep"""
    mset, channel, state = _common_run_inputs(config)
    thetas_deg = config["thetas_deg"]
    results = experiment.sweep_theta(state, mset, channel,
                                     [math.radians(t) for t in thetas_deg],
                                     config["trials"], config["seed"])
    rows = [_run_row(t, r) for t, r in zip(thetas_deg, results)]
    _write_table(config, SWEEP_COLUMNS, rows)


def cmd_dynamic(config: dict) -> None:
    """dynamically rotating receiver"""
    mset, channel, state = _common_run_inputs(config)
    result = experiment.dynamic_rotation_run(
        state, mset, channel, config["trials"], config["seed"],
        per_setting_block=config["block"])
    _write_table(config, SWEEP_COLUMNS, [_run_row("dynamic", result)])


def cmd_tomo(config: dict) -> None:
    """simulated state tomography"""
    # the state Bob's rotated analyzer detects, renormalised to detection
    detected = encoding.receiver(config["encoding"]).detected_state(
        _prepared_state(config), math.radians(config["theta_deg"]))
    rho = DensityMatrix(detected / np.trace(detected).real)
    spec = tomography.standard_settings(config["counts_per_setting"])
    counts = tomography.simulate_counts(rho, spec, config["seed"])
    report = tomography.reconstruct(counts, spec, target=encoding.singlet_pol())
    if not report.converged:
        print(f"warning: tomography fit not certified (gap {report.gap:.3g} > "
              f"{tomography.GAP_TOL * counts.sum():.3g} after {report.iterations} "
              f"iterations)", file=sys.stderr)
    payload = {
        "rho_hat": [[{"re": float(z.real), "im": float(z.imag)}
                     for z in row] for row in report.rho_hat.entries],
        "fidelity": report.fidelity_to_target,
        "purity": report.purity,
        "log_likelihood": report.log_likelihood,
    }
    _atomic_write(config["output"],
                  json.dumps(payload, sort_keys=True, indent=2) + "\n")


COMMANDS = {
    "bound": cmd_bound,
    "steer": cmd_steer,
    "sweep": cmd_sweep,
    "dynamic": cmd_dynamic,
    "tomo": cmd_tomo,
}


# A command has the flag exactly when its sidecar has the key; n has two rows,
# as only bound requires it. kind: int (>= 0), float, str, bool, list (a grid)
# or a tuple of choices; None allows null. Other ranges are checked where used.
Key = namedtuple("Key", "name flag kind default commands help", defaults=(None,))
REQUIRED = ...  # default of a key with a required flag
_SAMPLING = ("steer", "sweep", "dynamic", "tomo")
_RUNS = ("steer", "sweep", "dynamic")
KEYS = (
    Key("output", "--output", str, REQUIRED, tuple(COMMANDS)),
    Key("format", "--format", ("csv", "json"), "csv", tuple(COMMANDS)),
    Key("n", "--n", int, REQUIRED, ("bound",)),
    Key("n", "--n", int, 3, _SAMPLING),
    Key("xi_grid", "--xi", list, REQUIRED, ("bound",),
        "grid start:stop:step or list"),
    Key("encoding", "--encoding", ("vortex", "polarization"), "vortex", _SAMPLING),
    Key("visibility", "--visibility", float, None, _SAMPLING),
    Key("fidelity", "--fidelity", float, None, _SAMPLING),
    Key("efficiency", "--efficiency", float, 1.0, _RUNS,
        "Bob-side heralding efficiency (xi proxy)"),
    Key("alice_efficiency", "--alice-efficiency", float, 1.0, _RUNS,
        "advanced: trusted-side efficiency, rate only"),
    Key("dephasing", "--dephasing", float, 0.0, _SAMPLING),
    Key("seed", "--seed", int, REQUIRED, _SAMPLING),
    Key("theta_deg", "--theta", float, 0.0, ("steer", "tomo"), "degrees"),
    Key("thetas_deg", "--thetas", list, REQUIRED, ("sweep",),
        "degrees grid or list"),
    Key("block", "--block", bool, False, ("dynamic",),
        "redraw theta per setting block instead of per trial"),
    Key("trials", "--trials", int, experiment.DEFAULT_TRIALS, _RUNS),
    Key("counts_per_setting", "--counts-per-setting", int, 100_000, ("tomo",)),
)
COMMAND_KEYS = {c: [key for key in KEYS if c in key.commands] for c in COMMANDS}
_KIND_TEXT = {int: "a non-negative integer", float: "a finite number",
              str: "a string", bool: "true or false",
              list: "a non-empty list of finite numbers"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexsteer",
        description="Vector vortex quantum steering simulator")
    parser.add_argument("--config", help="re-run from a config sidecar JSON")
    sub = parser.add_subparsers(dest="command")
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        for key in COMMAND_KEYS[command]:
            options = {"action": "store_true"} if key.kind is bool else dict(
                required=key.default is REQUIRED, default=key.default,
                type=key.kind if key.kind in (int, float) else None,
                choices=key.kind if isinstance(key.kind, tuple) else None)
            p.add_argument(key.flag, dest=key.name, help=key.help, **options)
    return parser


def _has_kind(value, kind) -> bool:
    # type(True) is not int; abs() <= max rejects NaN, inf and too large ints
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if kind is list:
        return type(value) is list and value != [] and all(
            _has_kind(x, float) for x in value)
    if kind is int:
        return type(value) is int and value >= 0
    return value in kind if isinstance(kind, tuple) else type(value) is kind


def _validate(config) -> None:
    """Check that every key of the command is present and well typed."""
    if not isinstance(config, dict):
        raise ValueError("sidecar must hold a JSON object")
    if config.get("command") not in tuple(COMMANDS):  # a list is unhashable
        raise ValueError(f"sidecar has unknown command "
                         f"{config.get('command')!r}")
    for key in COMMAND_KEYS[config["command"]]:
        if key.name not in config:
            raise ValueError(f"sidecar lacks {key.name}")
        value = config[key.name]
        if not (value is None and key.default is None or _has_kind(value, key.kind)):
            kind = _KIND_TEXT.get(key.kind) or "one of " + ", ".join(key.kind)
            raise ValueError(f"{key.name} must be {kind}, got {value!r}")
    if config["command"] in _SAMPLING and (
            (config["visibility"] is None) == (config["fidelity"] is None)):
        raise ValueError("exactly one of visibility and fidelity must be given")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            if args.command is not None:
                raise ValueError("--config replaces the subcommand and flags")
            with open(args.config) as fh:
                config = json.load(fh)
        elif args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        else:
            kinds = {key.name: key.kind for key in COMMAND_KEYS[args.command]}
            config = {"command": args.command} | {
                name: _parse_grid(value) if kinds[name] is list else value
                for name, value in vars(args).items() if name in kinds}
        _validate(config)
        COMMANDS[config["command"]](config)
        _atomic_write(config["output"] + ".config.json",
                      json.dumps(config, sort_keys=True, indent=2) + "\n")
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
