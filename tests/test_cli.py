import argparse
import json
import math
import re

import numpy as np
import pytest

from vortexsteer import cli, encoding, experiment, tomography
from vortexsteer.qmath import DensityMatrix


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

    def test_sidecar_with_retired_per_setting_key_reruns(self, tmp_path):
        # sidecar and result as written before the strict per-setting floor
        # was retired; on every supported set it equals the average floor
        out = tmp_path / "old.csv"
        sidecar = tmp_path / "old.csv.config.json"
        sidecar.write_text(json.dumps({
            "command": "bound", "format": "csv", "n": 4, "output": str(out),
            "per_setting": False, "xi_grid": [0.2, 0.3, 0.45, 0.6, 1.0]}))
        assert run(["--config", str(sidecar)]) == 0
        assert out.read_text() == (
            "xi,c_n,witness_pattern\n"
            "0.2,1,...+:1.000000\n"
            "0.3,0.938832193643,...+:0.800000;..+-:0.200000\n"
            "0.45,0.836885849714,...+:0.200000;..+-:0.800000\n"
            "0.6,0.736781143682,..+-:0.800000;++--:0.200000\n"
            "1,0.57735026919,++--:1.000000\n")

    def test_sidecar_asking_for_per_setting_floor_keeps_its_values(self, tmp_path):
        # the strict floor's values, as written before it was retired; the
        # witness column now holds the average floor's two-point mixture
        out = tmp_path / "old.csv"
        sidecar = tmp_path / "old.csv.config.json"
        sidecar.write_text(json.dumps({
            "command": "bound", "format": "csv", "n": 3, "output": str(out),
            "per_setting": True, "xi_grid": [0.35, 0.45, 0.7, 1.0]}))
        assert run(["--config", str(sidecar)]) == 0
        values = [line.split(",")[1] for line in read_lines(out)[1:]]
        assert values == ["0.972105407732", "0.848129442097",
                          "0.688570136616", "0.57735026919"]

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
    "tomo": {"command", "output", "format", "n", "encoding", "visibility",
             "fidelity", "dephasing", "seed", "theta_deg", "counts_per_setting"},
}


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

    @pytest.mark.parametrize("flag", ["--efficiency", "--alice-efficiency"])
    def test_tomo_efficiency_flags_are_gone(self, tmp_path, flag):
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


# Seeded rows as printed when the tallies were still drawn one setting at a
# time: a change to the draw order or to the Born table shows here.
GOLDEN_ROWS = {
    ("steer", "3", "vortex"):
        "25,vortex,3,0.970566978979,0.00113464224687,0.45054,0.847609367131,true",
    ("steer", "3", "polarization"):
        "25,polarization,3,0.738073394128,0.00308138717296,0.45077,0.847388232106,false",
    ("steer", "6", "vortex"):
        "25,vortex,6,0.968853554483,0.00116554416195,0.45118,0.806772656282,true",
    ("steer", "6", "polarization"):
        "25,polarization,6,0.736612999594,0.0031410043204,0.45148,0.806690186944,false",
    ("dynamic", "3", "vortex"):
        "dynamic,vortex,3,0.96808073374,0.00118084368176,0.45053,0.847618986819,true",
    ("dynamic", "3", "polarization"):
        "dynamic,polarization,3,-0.23443813596,0.00220156014105,0.45136,0.846822003253,false",
    ("dynamic", "6", "vortex"):
        "dynamic,vortex,6,0.968719857183,0.00116798567848,0.45121,0.806764404414,true",
    ("dynamic", "6", "polarization"):
        "dynamic,polarization,6,0.216332301342,0.00372532179911,0.45066,0.806915863235,false",
}
GOLDEN_SWEEP = [
    "0,vortex,4,0.883358960649,0.00247771956841,0.448195969893,0.837706536583,true",
    "45,vortex,4,0.885831512149,0.00245454789324,0.446989504235,0.838259076753,true",
    "90,vortex,4,0.877309129371,0.00253502916054,0.447197684284,0.838163521096,true",
]
# The same sweep as JSON, where every float prints in full: a change in the
# last digit of any estimate or bound shows here.
GOLDEN_SWEEP_JSON = [
    {"announce_fraction": 0.44819596989317334, "bound": 0.8377065365830425,
     "encoding": "vortex", "n": 4, "s_value": 0.8833589606489334,
     "std_err": 0.002477719568406629, "theta_deg": 0.0, "violated": True},
    {"announce_fraction": 0.4469895042345847, "bound": 0.8382590767526055,
     "encoding": "vortex", "n": 4, "s_value": 0.8858315121494538,
     "std_err": 0.002454547893240562, "theta_deg": 45.0, "violated": True},
    {"announce_fraction": 0.44719768428407447, "bound": 0.8381635210960724,
     "encoding": "vortex", "n": 4, "s_value": 0.8773091293714756,
     "std_err": 0.0025350291605404996, "theta_deg": 90.0, "violated": True},
]
# Lossless polarization sweeps: every null entry of their tables is a
# rounding residue of about 1e-16, which the multinomial draws still consume.
GOLDEN_LOSSLESS_SWEEPS = {
    ("3", "--fidelity", "0.977"): [
        "0,polarization,3,0.969140336605,0.000779532499971,1,0.57735026919,true",
        "45,polarization,3,0.324004857928,0.00262079281599,1,0.57735026919,false",
        "90,polarization,3,-0.323919135635,0.000760121218779,1,0.57735026919,false",
    ],
    ("3", "--visibility", "1"): [
        "0,polarization,3,1,0,1,0.57735026919,true",
        "45,polarization,3,0.32925807602,0.00258335985285,1,0.57735026919,false",
        "90,polarization,3,-0.333333333333,0,1,0.57735026919,false",
    ],
    ("6", "--fidelity", "0.977"): [
        "0,polarization,6,0.969203812386,0.00077870114196,1,0.539344662917,true",
        "45,polarization,6,0.320785673292,0.0028510696792,1,0.539344662917,false",
        "90,polarization,6,-0.321054014867,0.00236471918884,1,0.539344662917,false",
    ],
    ("6", "--visibility", "1"): [
        "0,polarization,6,1,0,1,0.539344662917,true",
        "45,polarization,6,0.331591678931,0.00282994425467,1,0.539344662917,false",
        "90,polarization,6,-0.330386165555,0.0023056967403,1,0.539344662917,false",
    ],
}

# Vortex runs at n = 6 whose tables hold rounding residues: a pure state behind
# loss, and a lossless dephased sweep, as the two-read-mode receiver draws them.
GOLDEN_VORTEX_RESIDUE_RUNS = {
    "pure-lossy-steer": (
        ["steer", "--visibility", "1", "--efficiency", "0.45", "--theta", "25"],
        ["25,vortex,6,1,0,0.45032,0.80700967737,true"]),
    "lossless-dephased-sweep": (
        ["sweep", "--visibility", "1", "--dephasing", "0.3", "--efficiency", "1",
         "--thetas", "0,45,90"],
        ["0,vortex,6,0.800076339106,0.00187602673148,1,0.539344662917,true",
         "45,vortex,6,0.801799034788,0.00186891318338,1,0.539344662917,true",
         "90,vortex,6,0.802511216647,0.00186835693409,1,0.539344662917,true"]),
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
