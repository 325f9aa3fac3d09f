import json
import math

import numpy as np
import pytest

from vortexsteer import cli


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

    def test_missing_visibility_and_fidelity_exits_2(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["steer", "--n", "3", "--seed", "1",
                    "--output", str(out)]) == 2


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


def test_no_arguments_prints_usage_and_exits_2(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err
