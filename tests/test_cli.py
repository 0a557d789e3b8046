import json
import math

import numpy as np
import pytest

from tripsim.cli import ExperimentConfig, main, run


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_paradox_defaults(self, capsys):
        code, out = _run(["paradox"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "tripsim/1"
        assert payload["xyy"] == payload["yxy"] == payload["yyx"] == -1.0
        assert payload["xxx"] == 1.0
        assert payload["contradiction"] is True

    def test_teleport_w_channel_example(self, capsys):
        code, out = _run(
            ["teleport", "--protocol", "w-channel", "--a", "0.577", "--b", "0.577", "--c", "0.577"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["success_probability"] - 2.0 / 3.0) < 1e-9
        for branch in payload["branches"]:
            assert 0.0 <= branch["p"] <= 1.0
            if branch["fidelity"] is not None:
                assert 0.0 <= branch["fidelity"] <= 1.0

    def test_surface_csv_shape_and_corner(self, capsys):
        code, out = _run(
            ["fidelity-surface", "--grid", "21", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,phi,avg_fidelity"
        assert len(lines) == 1 + 441
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[2]) - 2.0 / 3.0) < 1e-9

    def test_classify_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        amp = 1 / math.sqrt(2)
        path.write_text(json.dumps({"amplitudes": [[amp, 0]] + [[0, 0]] * 6 + [[amp, 0]]}))
        code, out = _run(["classify", "--state", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["tag"] == "genuine-ghz"
        assert payload["diagnostics"]["three_tangle"] == pytest.approx(1.0)

    def test_tables_match_protocol(self, capsys):
        code, out = _run(["tables", "--theta", "0.6", "--c0", "0.6", "--c1", "0.8"], capsys)
        assert code == 0
        payload = json.loads(out)
        s, c = math.sin(0.6), math.cos(0.6)
        row = payload["receiver_states"]["000"]
        np.testing.assert_allclose(
            [row[0][0], row[1][0]], [0.6 * s, 0.8 * c], atol=1e-12
        )
        assert payload["corrections"]["011"] == "XZ"
        pair = payload["pair_states"]["01"]
        np.testing.assert_allclose([pair[0][0], pair[3][0]], [0.8, 0.6], atol=1e-12)

    def test_noise_sweep_csv(self, capsys):
        code, out = _run(
            [
                "noise-sweep", "--protocol", "ghz-meas", "--channel", "bitflip",
                "--target", "3", "--grid", "0:0.2:0.1",
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,avg_fidelity"
        assert len(lines) == 4
        assert abs(float(lines[1].split(",")[1]) - 1.0) < 1e-9

    def test_twirl_history(self, capsys):
        code, out = _run(["twirl", "--samples", "100", "--invariant", "0.7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "werner"
        assert len(payload["trace_distance_history"]) == 10
        assert all(0.0 <= d <= 1.0 for _, d in payload["trace_distance_history"])


class TestDeterminismAndConfig:
    def test_reruns_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = main(
                ["--seed", "11", "--out", str(p), "twirl", "--samples", "120", "--d", "2"]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_noise_sweep_rerun_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(
                [
                    "noise-sweep", "--protocol", "w-channel", "--channel",
                    "amplitude-damping", "--target", "2", "--grid", "0:0.3:0.1",
                    "--seed", "9", "--format", "csv",
                    "--out", str(p),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_noise_sweep_does_not_depend_on_seed(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for seed, p in zip(("3", "4"), paths):
            argv = ["noise-sweep", "--protocol", "ghz-meas", "--channel", "depolarizing",
                    "--target", "2", "--grid", "0:1:0.5", "--seed", seed, "--out", str(p)]
            assert main(argv) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch, capsys):
        env_out, flag_out = tmp_path / "env.json", tmp_path / "flag.json"
        monkeypatch.setenv("TRIPSIM_SEED", "77")
        assert main(["--seed", "1", "--out", str(env_out), "twirl", "--samples", "60"]) == 0
        monkeypatch.delenv("TRIPSIM_SEED")
        assert main(["--seed", "77", "--out", str(flag_out), "twirl", "--samples", "60"]) == 0
        assert env_out.read_bytes() == flag_out.read_bytes()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["paradox", "--bogus", "1"]) == 2

    def test_bad_protocol_exits_2(self, capsys):
        assert main(["teleport", "--protocol", "swap"]) == 2

    def test_duplicate_noise_target_exits_2(self, capsys):
        assert main(["noise-sweep", "--protocol", "ghz-epr", "--target", "2,2"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_invariant_violation_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"amplitudes": [[1, 0]] * 8}))
        assert main(["classify", "--state", str(path)]) == 1
        err = capsys.readouterr().err
        assert "state-normalization" in err

    def test_csv_unsupported_for_paradox(self, capsys):
        assert main(["paradox", "--format", "csv"]) == 2

    def test_run_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            run(ExperimentConfig(command="mystery"))

    def test_seventeen_digit_floats_in_csv(self, capsys):
        code, out = _run(
            ["fidelity-surface", "--grid", "3", "--format", "csv"],
            capsys,
        )
        assert code == 0
        phi_of_second_row = out.strip().split("\n")[2].split(",")[1]
        assert phi_of_second_row == f"{math.pi / 4:.17g}"
