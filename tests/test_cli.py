import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexsteer import cli, encoding, experiment, tomography
from vortexsteer.qmath import DensityMatrix


ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return cli.main(argv)


def read_lines(path):
    return path.read_text().splitlines()


class TestBoundCommand:
    def test_curve_csv_monotone_and_endpoint(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["bound", "--n", "3", "--xi", "0.35:1.0:0.05",
                    "--output", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "xi,c_n,witness_pattern"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_unsupported_n_exits_2(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["bound", "--n", "5", "--xi", "0.5,1.0",
                    "--output", str(out)]) == 2
        assert not out.exists()

    def test_bad_grid_exits_2(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["bound", "--n", "3", "--xi", "1.0:0.5:0.1",
                    "--output", str(out)]) == 2

    @pytest.mark.parametrize("argv", [
        ["bound", "--n", "3", "--xi", "0.5:inf:0.1"],
        ["bound", "--n", "3", "--xi", "0.5:nan:0.1"],
        ["bound", "--n", "3", "--xi=-inf:1.0:0.1"],
        ["sweep", "--visibility", "0.9", "--seed", "1", "--thetas", "0:inf:10"],
        ["sweep", "--visibility", "0.9", "--seed", "1", "--thetas", "0:90:inf"],
    ], ids=["xi-stop-inf", "xi-stop-nan", "xi-start-inf", "thetas-stop-inf",
            "thetas-step-inf"])
    def test_non_finite_grid_exits_2(self, tmp_path, capsys, argv):
        assert run(argv + ["--output", str(tmp_path / "g.csv")]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_grid_point_cap_is_checked_before_building(self):
        assert len(cli._parse_grid("0:9:1")) == 10
        with pytest.raises(ValueError, match="more than"):
            cli._parse_grid(f"0:{cli.MAX_GRID_POINTS}:1")

    def test_float_drifted_grid_ends_exactly_at_stop(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["bound", "--n", "3", "--xi", "0.09:1.0:0.07",
                    "--output", str(out)]) == 0
        config = json.loads((tmp_path / "curve.csv.config.json").read_text())
        assert config["xi_grid"][-1] == 1.0
        assert read_lines(out)[-1].split(",")[0] == "1"


# C_n as JSON prints it in full, with the witness text, on one grid: xi below
# 1/n (n = 2, 3), the kink xi = 1/2, and floors n xi within SUPPORT_TOL above
# and below a hull vertex, where the witness keeps one strategy.
GOLDEN_BOUND_GRID = "0.3,0.5,0.5000000001,0.6666666667,0.9,0.9999999999,1"
GOLDEN_BOUND_ROWS = {
    2: [(0.3, 1.0, ".+:1.000000"),
        (0.5, 1.0, ".+:1.000000"),
        (0.5000000001, 0.9999999998828426, ".+:1.000000"),
        (0.6666666667, 0.8535533905713069, ".+:0.666667;++:0.333333"),
        (0.9, 0.7396504721658201, ".+:0.200000;++:0.800000"),
        (0.9999999999, 0.7071067812158369, "++:1.000000"),
        (1.0, 0.7071067811865476, "++:1.000000")],
    3: [(0.3, 1.0, "..+:1.000000"),
        (0.5, 0.8047378541243649, "..+:0.500000;.++:0.500000"),
        (0.5000000001, 0.8047378540462602, "..+:0.500000;.++:0.500000"),
        (0.6666666667, 0.707106781167084, ".++:1.000000"),
        (0.9, 0.6061850496333862, ".++:0.300000;+++:0.700000"),
        (0.9999999999, 0.5773502692155771, "+++:1.000000"),
        (1.0, 0.5773502691896257, "+++:1.000000")],
    4: [(0.3, 0.9388321936425753, "...+:0.800000;..+-:0.200000"),
        (0.5, 0.8164965809277261, "..+-:1.000000"),
        (0.5000000001, 0.8164965808320676, "..+-:1.000000"),
        (0.6666666667, 0.69692342504074, "..+-:0.666667;++--:0.333333"),
        (0.9, 0.6039220816049704, "..+-:0.200000;++--:0.800000"),
        (0.9999999999, 0.5773502692135405, "++--:1.000000"),
        (1.0, 0.5773502691896258, "++--:1.000000")],
    6: [(0.3, 0.8672451629795911, ".....+:0.200000;....+-:0.800000"),
        (0.5, 0.7946544722917662, "...+-+:1.000000"),
        (0.5000000001, 0.7946544722065955, "...+-+:1.000000"),
        (0.6666666667, 0.6881909602132599, "..+-+-:1.000000"),
        (0.9, 0.5724216178763993, "..+-+-:0.300000;++++++:0.700000"),
        (0.9999999999, 0.5393446629464009, "++++++:1.000000"),
        (1.0, 0.5393446629166316, "++++++:1.000000")],
}


@pytest.mark.parametrize("n", list(GOLDEN_BOUND_ROWS))
def test_bound_json_golden(tmp_path, n):
    out = tmp_path / "curve.json"
    assert run(["bound", "--n", str(n), "--xi", GOLDEN_BOUND_GRID, "--format", "json",
                "--output", str(out)]) == 0
    records = [{"c_n": c, "witness_pattern": w, "xi": xi}
               for xi, c, w in GOLDEN_BOUND_ROWS[n]]
    assert out.read_text() == json.dumps(records, sort_keys=True, indent=2) + "\n"


class TestSteerCommand:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["steer", "--n", "3", "--encoding", "vortex",
                  "--fidelity", "0.977", "--efficiency", "0.45",
                  "--theta", "25", "--trials", "100000", "--seed", "7"]
        assert run(common + ["--output", str(a)]) == 0
        assert run(common + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_trials_exits_2(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["steer", "--n", "3", "--visibility", "0.9",
                    "--trials", "0", "--seed", "1",
                    "--output", str(out)]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run(["steer", "--n", "3", "--visibility", "0.9",
                 "--output", str(out)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, value", [
        ("steer", "inf"), ("steer", "nan"), ("tomo", "nan"), ("tomo", "-inf")])
    def test_non_finite_theta_exits_2_naming_the_key(self, tmp_path, capsys,
                                                     command, value):
        assert run([command, "--visibility", "0.9", "--seed", "1",
                    f"--theta={value}", "--output", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: theta_deg ")

    @pytest.mark.parametrize("command, value", [("steer", "-1"), ("tomo", "-3")])
    def test_negative_seed_exits_2_naming_the_key(self, tmp_path, capsys,
                                                  command, value):
        assert run([command, "--visibility", "0.9", "--seed", value,
                    "--output", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: seed must be a non-negative integer, got {value}\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["steer", "dynamic"])
    def test_oversized_trials_exits_2_naming_the_key(self, tmp_path, capsys,
                                                     command):
        # numpy's samplers take 64-bit counts: 2**63 - 1 runs, 2**63 is refused
        out = tmp_path / "s.csv"
        argv = [command, "--fidelity", "0.977", "--seed", "1", "--output", str(out)]
        assert run(argv + ["--trials", str(2**63)]) == 2
        assert capsys.readouterr().err == (
            f"error: trials must be below 2**63, got {2**63}\n")
        assert not out.exists()
        assert run(argv + ["--trials", str(2**63 - 1)]) == 0

    def test_missing_visibility_and_fidelity_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["steer", "--n", "3", "--seed", "1",
                    "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: exactly one of visibility and fidelity must be given\n")


class TestSidecarRerun:
    def test_rerun_reproduces_output_byte_for_byte(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--n", "3", "--encoding", "vortex",
                    "--fidelity", "0.977", "--efficiency", "0.45",
                    "--thetas", "0:90:30", "--trials", "50000",
                    "--seed", "11", "--output", str(out)]) == 0
        original = out.read_bytes()
        sidecar = tmp_path / "sweep.csv.config.json"
        assert sidecar.exists()
        out.unlink()
        assert run(["--config", str(sidecar)]) == 0
        assert out.read_bytes() == original

    @pytest.mark.parametrize("retired", [{}, {"per_setting": True},
                                         {"per_setting": False}],
                             ids=["without", "strict", "average"])
    def test_old_bound_sidecar_reruns_without_its_retired_key(self, tmp_path,
                                                             retired):
        # result as written before the strict per-setting floor was retired,
        # from its sidecar with either value of "per_setting" or without it;
        # on every supported set the strict floor equals the average floor
        out = tmp_path / "old.csv"
        sidecar = tmp_path / "old.csv.config.json"
        sidecar.write_text(json.dumps({
            "command": "bound", "format": "csv", "n": 4, "output": str(out),
            "xi_grid": [0.2, 0.3, 0.45, 0.6, 1.0]} | retired))
        assert run(["--config", str(sidecar)]) == 0
        assert "per_setting" not in json.loads(sidecar.read_text())
        assert out.read_text() == (
            "xi,c_n,witness_pattern\n"
            "0.2,1,...+:1.000000\n"
            "0.3,0.938832193643,...+:0.800000;..+-:0.200000\n"
            "0.45,0.836885849714,...+:0.200000;..+-:0.800000\n"
            "0.6,0.736781143682,..+-:0.800000;++--:0.200000\n"
            "1,0.57735026919,++--:1.000000\n")

    def test_per_setting_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["bound", "--n", "3", "--xi", "0.5", "--per-setting",
                 "--output", str(tmp_path / "c.csv")])
        assert exc.value.code == 2

    def test_config_plus_subcommand_rejected(self, tmp_path):
        sidecar = tmp_path / "x.config.json"
        sidecar.write_text(json.dumps({"command": "bound"}))
        assert run(["--config", str(sidecar), "bound", "--n", "3",
                    "--xi", "1.0", "--output", str(tmp_path / "y.csv")]) == 2

    def test_missing_sidecar_exits_2(self):
        assert run(["--config", "/nonexistent/run.config.json"]) == 2

    def test_sidecar_with_unknown_command_exits_2(self, tmp_path):
        sidecar = tmp_path / "bad.config.json"
        sidecar.write_text(json.dumps({"command": "frobnicate"}))
        assert run(["--config", str(sidecar)]) == 2

    @pytest.mark.parametrize("command", [[], {}, None, 3])
    def test_sidecar_with_malformed_command_exits_2(self, tmp_path, command):
        sidecar = tmp_path / "bad.config.json"
        sidecar.write_text(json.dumps({"command": command}))
        assert run(["--config", str(sidecar)]) == 2

    @pytest.mark.parametrize("argv, key", [
        (["bound", "--n", "3", "--xi", "0.5,1.0"], "xi_grid"),
        (["steer", "--n", "3", "--fidelity", "0.977", "--trials", "1000",
          "--seed", "1"], "trials"),
    ], ids=["bound", "steer"])
    def test_sidecar_missing_a_key_exits_2(self, tmp_path, capsys, argv, key):
        out = tmp_path / "run.csv"
        assert run(argv + ["--output", str(out)]) == 0
        sidecar = tmp_path / "run.csv.config.json"
        config = json.loads(sidecar.read_text())
        del config[key]
        sidecar.write_text(json.dumps(config))
        capsys.readouterr()
        assert run(["--config", str(sidecar)]) == 2
        assert key in capsys.readouterr().err

    def test_sidecar_holding_a_list_exits_2(self, tmp_path, capsys):
        sidecar = tmp_path / "list.config.json"
        sidecar.write_text(json.dumps([{"command": "bound"}]))
        assert run(["--config", str(sidecar)]) == 2
        assert "JSON object" in capsys.readouterr().err


# one small run per command, and the keys its sidecar holds
COMMAND_ARGV = {
    "bound": ["bound", "--n", "3", "--xi", "0.5,1.0"],
    "steer": ["steer", "--visibility", "0.95", "--trials", "1000", "--seed", "1"],
    "sweep": ["sweep", "--visibility", "0.95", "--thetas", "0,30",
              "--trials", "1000", "--seed", "1"],
    "dynamic": ["dynamic", "--visibility", "0.95", "--trials", "1000",
                "--seed", "1"],
    "tomo": ["tomo", "--visibility", "0.95", "--counts-per-setting", "1000",
             "--seed", "1"],
}
RUN_SIDECAR_KEYS = {"command", "output", "format", "n", "encoding", "visibility",
             "fidelity", "efficiency", "alice_efficiency", "dephasing", "seed",
             "trials"}
SIDECAR_KEYS = {
    "bound": {"command", "output", "format", "n", "xi_grid"},
    "steer": RUN_SIDECAR_KEYS | {"theta_deg"},
    "sweep": RUN_SIDECAR_KEYS | {"thetas_deg"},
    "dynamic": RUN_SIDECAR_KEYS | {"block"},
    "tomo": {"command", "output", "encoding", "visibility", "fidelity",
             "dephasing", "seed", "theta_deg", "counts_per_setting"},
}
# the keys a tomo sidecar held beyond today's before tomo lost its unread
# format and n, and a value for each of tomo's retired keys
OLD_TOMO_KEYS = {"format": "csv", "n": 3}
TOMO_RETIRED_VALUES = {"efficiency": 0.45, "alice_efficiency": 0.3,
                       "format": "json", "n": 6}


def write_sidecar(tmp_path, command):
    out = tmp_path / f"{command}.out"
    assert run(COMMAND_ARGV[command] + ["--output", str(out)]) == 0
    return tmp_path / f"{command}.out.config.json"


class TestSidecarSchema:
    @pytest.mark.parametrize("command", sorted(SIDECAR_KEYS))
    def test_sidecar_key_set(self, tmp_path, command):
        sidecar = json.loads(write_sidecar(tmp_path, command).read_text())
        assert set(sidecar) == SIDECAR_KEYS[command]

    def test_flags_map_one_to_one_onto_sidecar_keys(self):
        sub, = (a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(SIDECAR_KEYS)
        for command, keys in SIDECAR_KEYS.items():
            actions = [a for a in sub.choices[command]._actions
                       if a.dest != "help"]
            assert all(len(a.option_strings) == 1 for a in actions)
            assert sorted(a.dest for a in actions) == sorted(keys - {"command"})

    @pytest.mark.parametrize("command", ["steer", "sweep", "dynamic", "tomo"])
    def test_encoding_choices_are_the_receiver_kinds(self, command):
        # the one list of kinds, in the command line's order
        sub, = (a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        action, = (a for a in sub.choices[command]._actions if a.dest == "encoding")
        assert action.choices == encoding.RECEIVER_KINDS == ("vortex", "polarization")

    @pytest.mark.parametrize("command", ["steer", "sweep", "dynamic", "tomo"])
    def test_visibility_with_fidelity_exits_2_naming_both(self, tmp_path, capsys,
                                                          command):
        out = tmp_path / "s.csv"
        assert run(COMMAND_ARGV[command] + ["--fidelity", "0.3",
                                            "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: exactly one of visibility and fidelity must be given\n")
        assert not out.exists()
        sidecar = write_sidecar(tmp_path, command)
        config = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(config | {"fidelity": 0.3}))
        assert run(["--config", str(sidecar)]) == 2
        assert capsys.readouterr().err == (
            "error: exactly one of visibility and fidelity must be given\n")

    @pytest.mark.parametrize("command, extra, named", [
        ("steer", {"trails": 5, "bogus": [1]}, "bogus"),  # the first, sorted
        ("steer", {"block": False}, "block"),             # another command's key
    ], ids=["misspelt", "other-command"])
    def test_sidecar_key_the_command_does_not_read_exits_2(self, tmp_path, capsys,
                                                           command, extra, named):
        sidecar = write_sidecar(tmp_path, command)
        out = tmp_path / f"{command}.out"
        out.unlink()
        sidecar.write_text(json.dumps(json.loads(sidecar.read_text()) | extra))
        before = sidecar.read_bytes()
        capsys.readouterr()
        assert run(["--config", str(sidecar)]) == 2
        assert capsys.readouterr().err == f"error: {named} is not a key of {command}\n"
        assert not out.exists()
        assert sidecar.read_bytes() == before

    @pytest.mark.parametrize("key", sorted(key for command, key in cli.RETIRED
                                           if command == "tomo"))
    def test_old_tomo_sidecar_reruns_without_its_retired_key(self, tmp_path, key):
        # a tomo sidecar as written before the key was retired reruns to the
        # same result, and the rerun rewrites it with today's keys
        sidecar = write_sidecar(tmp_path, "tomo")
        out = tmp_path / "tomo.out"
        result, current = out.read_bytes(), sidecar.read_bytes()
        old = json.loads(current) | OLD_TOMO_KEYS | {key: TOMO_RETIRED_VALUES[key]}
        sidecar.write_text(json.dumps(old))
        out.unlink()
        assert run(["--config", str(sidecar)]) == 0
        assert out.read_bytes() == result
        assert sidecar.read_bytes() == current

    def test_no_retired_key_is_a_live_key(self):
        for command, name in cli.RETIRED:
            assert name not in {key.name for key in cli.COMMAND_KEYS[command]}

    @pytest.mark.parametrize("flag", ["--efficiency", "--alice-efficiency",
                                      "--format", "--n"])
    def test_retired_tomo_flags_are_gone(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            run(COMMAND_ARGV["tomo"] + [flag, "0.3",
                                        "--output", str(tmp_path / "t.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, key, value, code", [
        ("steer", "trials", "1000", 2),
        ("steer", "trials", True, 2),
        ("steer", "trials", 1000.0, 2),
        ("steer", "seed", "x", 2),
        ("steer", "seed", True, 2),
        ("steer", "seed", None, 2),
        ("steer", "n", "3", 2),
        ("steer", "n", 3.0, 2),
        ("steer", "efficiency", "0.45", 2),
        ("steer", "theta_deg", "25", 2),
        ("steer", "theta_deg", math.nan, 2),
        ("steer", "theta_deg", 10**400, 2),
        ("steer", "format", "xml", 2),
        ("steer", "output", 5, 2),
        ("steer", "fidelity", "0.9", 2),
        ("steer", "dephasing", None, 2),
        ("dynamic", "block", "yes", 2),
        ("bound", "xi_grid", 0.5, 2),
        ("bound", "xi_grid", ["0.5"], 2),
        ("sweep", "thetas_deg", "0,30", 2),
        ("steer", "theta_deg", 25, 0),
        ("steer", "visibility", None, 0),
        ("steer", "fidelity", None, 0),
        ("bound", "xi_grid", [], 2),
        ("sweep", "thetas_deg", [], 2),
        ("steer", "seed", -1, 2),
        ("tomo", "seed", -3, 2),
        ("steer", "trials", 10**20, 2),
        ("dynamic", "trials", 2**63, 2),
    ])
    def test_sidecar_value_types(self, tmp_path, capsys, command, key, value,
                                 code):
        sidecar = write_sidecar(tmp_path, command)
        config = json.loads(sidecar.read_text())
        config[key] = value
        if (key, value) == ("visibility", None):
            config["fidelity"] = 0.977  # exactly one of the two is given
        sidecar.write_text(json.dumps(config))
        before = sidecar.read_bytes()
        capsys.readouterr()
        assert run(["--config", str(sidecar)]) == code
        if code == 2:
            assert capsys.readouterr().err.startswith(f"error: {key} ")
            assert sidecar.read_bytes() == before


class TestDynamicCommand:
    def test_csv_row_shape_and_verdict_fields(self, tmp_path):
        out = tmp_path / "dyn.csv"
        assert run(["dynamic", "--n", "3", "--encoding", "polarization",
                    "--fidelity", "0.977", "--efficiency", "0.45",
                    "--trials", "200000", "--seed", "5",
                    "--output", str(out)]) == 0
        header, row = read_lines(out)
        assert header == ",".join(cli.SWEEP_COLUMNS)
        fields = row.split(",")
        assert fields[0] == "dynamic"
        assert fields[1] == "polarization"
        assert fields[-1] in ("true", "false")
        assert fields[-1] == "false"  # averaged orientation kills steering


class TestTomoCommand:
    def test_json_payload_schema(self, tmp_path):
        out = tmp_path / "tomo.json"
        assert run(["tomo", "--encoding", "vortex", "--fidelity", "0.977",
                    "--counts-per-setting", "20000", "--seed", "3",
                    "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"rho_hat", "fidelity", "purity",
                                "log_likelihood"}
        rho = np.array([[cell["re"] + 1j * cell["im"] for cell in row]
                        for row in payload["rho_hat"]])
        assert rho.shape == (4, 4)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)
        assert abs(payload["fidelity"] - 0.977) < 0.01

    @pytest.mark.parametrize("encoding", ["polarization", "vortex"])
    def test_dephasing_lowers_fidelity(self, tmp_path, encoding):
        fidelities = []
        for dephasing in ("0", "0.5"):
            out = tmp_path / f"tomo-{dephasing}.json"
            assert run(["tomo", "--encoding", encoding, "--fidelity", "0.977",
                        "--dephasing", dephasing,
                        "--counts-per-setting", "20000", "--seed", "3",
                        "--output", str(out)]) == 0
            fidelities.append(json.loads(out.read_text())["fidelity"])
        assert fidelities[1] < fidelities[0] - 0.1

    def test_rerun_from_sidecar(self, tmp_path):
        out = tmp_path / "tomo.json"
        assert run(["tomo", "--encoding", "vortex", "--visibility", "0.9",
                    "--counts-per-setting", "10000", "--seed", "4",
                    "--output", str(out)]) == 0
        original = out.read_bytes()
        out.unlink()
        assert run(["--config", str(tmp_path / "tomo.json.config.json")]) == 0
        assert out.read_bytes() == original

    def test_uncertified_fit_warns_and_writes_the_same_files(self, tmp_path, capsys,
                                                             monkeypatch):
        out = tmp_path / "tomo.json"
        argv = ["tomo", "--encoding", "vortex", "--visibility", "0.9",
                "--counts-per-setting", "10000", "--seed", "4", "--output", str(out)]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""   # a certified fit says nothing
        monkeypatch.setattr(tomography, "MAX_ITERATIONS", 0)
        assert run(argv) == 0
        warning = re.fullmatch(r"warning: tomography fit not certified \(gap (\S+) > "
                               r"(\S+) after 0 iterations\)\n", capsys.readouterr().err)
        assert warning and float(warning[1]) > float(warning[2]) > 0
        # the result is the uncertified fit's, as without the warning
        rho = experiment.prepare_state(experiment.NoiseModel(werner_v=0.9), "vortex")
        detected = encoding.receiver("vortex").detected_state(rho, 0.0)
        spec = tomography.standard_settings(10_000)
        counts = tomography.simulate_counts(
            DensityMatrix(detected / np.trace(detected).real), spec, 4)
        report = tomography.reconstruct(counts, spec, target=encoding.singlet_pol())
        assert not report.converged
        payload = json.loads(out.read_text())
        assert (payload["log_likelihood"], payload["fidelity"]) == (
            report.log_likelihood, report.fidelity_to_target)
        result, sidecar = out.read_bytes(), (tmp_path / "tomo.json.config.json").read_bytes()
        assert run(["--config", str(tmp_path / "tomo.json.config.json")]) == 0
        assert capsys.readouterr().err.startswith("warning: tomography fit not certified")
        assert out.read_bytes() == result
        assert (tmp_path / "tomo.json.config.json").read_bytes() == sidecar


# Seeded rows, re-copied when each run became one multinomial draw of its
# setting-averaged table, judged by the pooled S' with the bound's slope in
# its sigma: a change to the draw order or to the Born table shows here.
GOLDEN_ROWS = {
    ("steer", "3", "vortex"):
        "25,vortex,3,0.969358527433,0.00190627970306,0.45037,0.847772959925,true",
    ("steer", "3", "polarization"):
        "25,polarization,3,0.738728734509,0.00351929608613,0.45026,0.847878879913,false",
    ("steer", "6", "vortex"):
        "25,vortex,6,0.969358527433,0.00123634046372,0.45037,0.80699587229,true",
    ("steer", "6", "polarization"):
        "25,polarization,6,0.738728734509,0.00320594998293,0.45026,0.807026247513,false",
    ("dynamic", "3", "vortex"):
        "dynamic,vortex,3,0.969131004464,0.00190931719743,0.45029,0.847849987512,true",
    ("dynamic", "3", "polarization"):
        "dynamic,polarization,3,-0.22805224809,0.00483292043963,0.45016,0.847975215731,false",
    ("dynamic", "6", "vortex"):
        "dynamic,vortex,6,0.969081997028,0.00124021885682,0.45087,0.806857989894,true",
    ("dynamic", "6", "polarization"):
        "dynamic,polarization,6,0.23075895838,0.00461107963663,0.4493,0.807291971683,false",
}
GOLDEN_SWEEP = [
    "0,vortex,4,0.886648683223,0.00256547817163,0.450337512054,0.836733039348,true",
    "45,vortex,4,0.884920191986,0.00258802767924,0.448303038643,0.837657644643,true",
    "90,vortex,4,0.888959760393,0.00253994872982,0.449905175425,0.836928823296,true",
]
# The same sweep as JSON, where every float prints in full: a change in the
# last digit of any estimate or bound shows here.
GOLDEN_SWEEP_JSON = [
    {"announce_fraction": 0.4503375120540019, "bound": 0.836733039347902,
     "encoding": "vortex", "n": 4, "s_value": 0.8866486832225591,
     "std_err": 0.002565478171629883, "theta_deg": 0.0, "violated": True},
    {"announce_fraction": 0.4483030386429313, "bound": 0.8376576446434358,
     "encoding": "vortex", "n": 4, "s_value": 0.8849201919857127,
     "std_err": 0.002588027679236258, "theta_deg": 45.0, "violated": True},
    {"announce_fraction": 0.4499051754254629, "bound": 0.836928823296488,
     "encoding": "vortex", "n": 4, "s_value": 0.8889597603926898,
     "std_err": 0.002539948729818894, "theta_deg": 90.0, "violated": True},
]
# Lossless polarization sweeps: every null entry of their tables is a
# rounding residue of about 1e-16, which the probability grid draws as exactly
# 0. Re-copied when the tables moved onto the grid: the residues had steered
# the multinomial draws. Re-copied again with the one-draw sampler: the pooled
# S' of a pure state at 90 degrees has p = 1/3 across settings, so sigma > 0.
GOLDEN_LOSSLESS_SWEEPS = {
    ("3", "--fidelity", "0.977"): [
        "0,polarization,3,0.96864,0.000785726099859,1,0.57735026919,true",
        "45,polarization,3,0.32556,0.00299000114783,1,0.57735026919,false",
        "90,polarization,3,-0.32316,0.00299260357281,1,0.57735026919,false",
    ],
    ("3", "--visibility", "1"): [
        "0,polarization,3,1,0,1,0.57735026919,true",
        "45,polarization,3,0.33578,0.0029786772091,1,0.57735026919,false",
        "90,polarization,3,-0.3334,0.00298134942602,1,0.57735026919,false",
    ],
    ("6", "--fidelity", "0.977"): [
        "0,polarization,6,0.96864,0.000785726099859,1,0.539344662917,true",
        "45,polarization,6,0.32556,0.00299000114783,1,0.539344662917,false",
        "90,polarization,6,-0.32316,0.00299260357281,1,0.539344662917,false",
    ],
    ("6", "--visibility", "1"): [
        "0,polarization,6,1,0,1,0.539344662917,true",
        "45,polarization,6,0.33578,0.0029786772091,1,0.539344662917,false",
        "90,polarization,6,-0.3334,0.00298134942602,1,0.539344662917,false",
    ],
}

# Vortex runs at n = 6 whose tables hold rounding residues: a pure state behind
# loss, and a lossless dephased sweep. Re-copied when the tables moved onto
# the probability grid, which draws the residues as exactly 0, and again with
# the one-draw sampler, whose sigma for S' = 1 behind loss is the bound's
# slope term.
GOLDEN_VORTEX_RESIDUE_RUNS = {
    "pure-lossy-steer": (
        ["steer", "--visibility", "1", "--efficiency", "0.45", "--theta", "25"],
        ["25,vortex,6,1,0.000437794434669,0.44851,0.807511493735,true"]),
    "lossless-dephased-sweep": (
        ["sweep", "--visibility", "1", "--dephasing", "0.3", "--efficiency", "1",
         "--thetas", "0,45,90"],
        ["0,vortex,6,0.79814,0.0019051838242,1,0.539344662917,true",
         "45,vortex,6,0.8015,0.00189102551543,1,0.539344662917,true",
         "90,vortex,6,0.80176,0.00188992302065,1,0.539344662917,true"]),
}


class TestSeededGoldenRows:
    @pytest.mark.parametrize("command, n, encoding_kind", list(GOLDEN_ROWS))
    def test_run_row(self, tmp_path, command, n, encoding_kind):
        out = tmp_path / "run.csv"
        extra = ["--theta", "25"] if command == "steer" else ["--block"]
        assert run([command, "--n", n, "--encoding", encoding_kind,
                    "--fidelity", "0.977", "--efficiency", "0.45",
                    "--trials", "100000", "--seed", "7", "--output", str(out)]
                   + extra) == 0
        assert read_lines(out) == [",".join(cli.SWEEP_COLUMNS),
                                   GOLDEN_ROWS[command, n, encoding_kind]]

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--n", "4", "--encoding", "vortex", "--fidelity", "0.96",
                    "--efficiency", "0.45", "--alice-efficiency", "0.8",
                    "--dephasing", "0.1", "--thetas", "0,45,90", "--trials", "100000",
                    "--seed", "7", "--output", str(out)]) == 0
        assert read_lines(out) == [",".join(cli.SWEEP_COLUMNS)] + GOLDEN_SWEEP

    def test_sweep_json_records(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--n", "4", "--encoding", "vortex", "--fidelity", "0.96",
                    "--efficiency", "0.45", "--alice-efficiency", "0.8",
                    "--dephasing", "0.1", "--thetas", "0,45,90", "--trials", "100000",
                    "--seed", "7", "--format", "json", "--output", str(out)]) == 0
        assert out.read_text() == json.dumps(GOLDEN_SWEEP_JSON, sort_keys=True,
                                             indent=2) + "\n"

    @pytest.mark.parametrize("n, noise, level", list(GOLDEN_LOSSLESS_SWEEPS))
    def test_lossless_polarization_sweep_rows(self, tmp_path, n, noise, level):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--n", n, "--encoding", "polarization", noise, level,
                    "--efficiency", "1", "--thetas", "0,45,90", "--trials", "100000",
                    "--seed", "7", "--output", str(out)]) == 0
        assert read_lines(out) == ([",".join(cli.SWEEP_COLUMNS)]
                                   + GOLDEN_LOSSLESS_SWEEPS[n, noise, level])

    @pytest.mark.parametrize("case", list(GOLDEN_VORTEX_RESIDUE_RUNS))
    def test_vortex_residue_rows(self, tmp_path, case):
        argv, rows = GOLDEN_VORTEX_RESIDUE_RUNS[case]
        out = tmp_path / "run.csv"
        assert run(argv + ["--n", "6", "--encoding", "vortex", "--trials", "100000",
                           "--seed", "7", "--output", str(out)]) == 0
        assert read_lines(out) == [",".join(cli.SWEEP_COLUMNS)] + rows


def test_no_arguments_prints_usage_and_exits_2(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["bound", "--n", "3", "--xi", "1:2"], "grid must be start:stop:step, got '1:2'"),
    (["bound", "--n", "3", "--xi", "0:1:0"], "grid step must be positive"),
    (["bound", "--n", "3", "--xi", ","], "empty grid ','"),
    (["steer", "--seed", "1", "--visibility", "1.5"], "werner_v must lie in [0, 1]"),
    (["steer", "--seed", "1", "--visibility", "1", "--dephasing", "2"],
     "dephasing must lie in [0, 1]"),
    (["steer", "--seed", "1", "--visibility", "1", "--efficiency", "0"],
     "bob_efficiency must lie in (0, 1]"),
    (["steer", "--seed", "1", "--visibility", "1", "--alice-efficiency", "1.5"],
     "alice_efficiency must lie in (0, 1]"),
    (["tomo", "--seed", "1", "--visibility", "1", "--counts-per-setting", "0"],
     "counts_per_setting must be positive"),
], ids=["grid-two-parts", "grid-zero-step", "grid-empty", "visibility", "dephasing",
        "efficiency", "alice-efficiency", "counts-per-setting"])
def test_out_of_range_input_exits_2_writing_nothing(tmp_path, capsys, argv, message):
    assert run(argv + ["--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_unexpected_exception_exits_1_writing_no_sidecar(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise RuntimeError("broken command")

    monkeypatch.setitem(cli.COMMANDS, "bound", broken)
    assert run(["bound", "--n", "3", "--xi", "0.5,1",
                "--output", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "runtime error: broken command\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, code", [(3, 0), (5, 2)])
def test_module_entry_point_exits_with_mains_code(tmp_path, n, code):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    out = tmp_path / "curve.csv"
    done = subprocess.run(
        [sys.executable, "-m", "vortexsteer.cli", "bound", "--n", str(n), "--xi", "0.5,1",
         "--output", str(out)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert done.returncode == code
    assert out.exists() == (code == 0)


def test_run_with_no_announced_event_warns_and_is_not_violated(tmp_path, capsys):
    # once a setting with no announced event exited 2; now only a run with no
    # announced event at all is undefined, and it is a result, not an error
    out = tmp_path / "steer.csv"
    assert run(["steer", "--visibility", "1", "--efficiency", "1e-12", "--trials", "10",
                "--seed", "1", "--output", str(out)]) == 0
    assert read_lines(out)[1] == "0,vortex,3,nan,nan,0,nan,false"
    assert capsys.readouterr().err == (
        "warning: run 0.0 announced no event: its s_value, std_err and bound are "
        "undefined (nan), and it is not violated\n")
    result = out.read_bytes()
    assert run(["--config", str(tmp_path / "steer.csv.config.json")]) == 0
    assert out.read_bytes() == result
    # JSON has no NaN, so the undefined values are null
    assert run(["steer", "--visibility", "1", "--efficiency", "1e-12", "--trials", "10",
                "--seed", "1", "--format", "json", "--output", str(tmp_path / "s.json")]) == 0
    record, = json.loads((tmp_path / "s.json").read_text(),
                         parse_constant=lambda name: pytest.fail(name))
    assert [record[c] for c in ("s_value", "std_err", "bound", "announce_fraction",
                                "violated")] == [None, None, None, 0.0, False]
