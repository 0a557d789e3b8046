import argparse
import cmath
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import chi_row, eta_row, tables_oracle
from tripsim import cli, noise, teleport
from tripsim.bases import ghz_basis
from tripsim.cli import ExperimentConfig, main, run
from tripsim.core import InvariantViolation, StateVector
from tripsim.noise import CHANNELS
from tripsim.teleport import PROTOCOL_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"
# The largest angle that the library and the command line accept: pi/2
# (1.5707963267948966) rounded up at the tenth decimal.
_HALF_PI_LIMIT = 1.5707963268


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

    @pytest.mark.parametrize(
        "theta, c0, c1",
        [
            (0.6, 0.6, 0.8),
            (0.0, 1.0, 0.0),
            (0.0, 0.6, -0.8j),
            (math.pi / 2, 0.6, 0.8j),
            (1.1, math.sqrt(0.3), math.sqrt(0.7) * cmath.exp(0.9j)),
        ],
        ids=[
            "theta-0.6", "theta-0-c1-zero", "theta-0-imaginary", "theta-half-pi", "theta-1.1-phase",
        ],
    )
    def test_tables_match_protocol(self, theta, c0, c1, capsys):
        argv = ["tables", f"--theta={theta!r}", f"--c0={complex(c0)!r}", f"--c1={complex(c1)!r}"]
        code, out = _run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        expected = tables_oracle(theta, c0, c1)
        for name, table in expected.items():
            assert list(payload[name]) == list(table)
            for key, want in table.items():
                got = payload[name][key]
                if name == "corrections":
                    assert got == want
                elif name == "fidelities":
                    assert (got is None) == (want is None)
                    assert got is None or abs(got - want) <= 1e-12
                else:
                    np.testing.assert_allclose(
                        [complex(re, im) for re, im in got], want, rtol=0, atol=1e-12
                    )
        # The closed-form rows, independent of both derivations.
        for key, row in payload["receiver_states"].items():
            m, n, j = map(int, key)
            np.testing.assert_allclose(
                [complex(re, im) for re, im in row], chi_row(m, n, j, c0, c1, theta), atol=1e-12
            )
        for key, row in payload["pair_states"].items():
            m, n = map(int, key)
            np.testing.assert_allclose(
                [complex(re, im) for re, im in row], eta_row(m, n, c0, c1), atol=1e-12
            )

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

    @pytest.mark.parametrize(
        "grid, last",
        [
            ("0.3:1:0.1", 1.0),  # the last point rounds to 1.0000000000000002
            ("0:1:0.15", 0.8999999999999999),  # 1.05 lies within half a step of stop
            ("0:0.5:0.3", 0.3),  # 0.6 lies within half a step of stop
            ("0:0.3:0.1", 0.3),  # the last point rounds to 0.30000000000000004
        ],
    )
    def test_noise_sweep_grid_never_passes_stop(self, grid, last, capsys):
        code, out = _run(
            ["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", grid, "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert float(out.strip().split("\n")[-1].split(",")[0]) == last

    @pytest.mark.parametrize("grid", ["0:2:0.5", "-0.5:1:0.5", "1.5:2:0.1"])
    def test_noise_grid_outside_unit_interval_is_refused_before_any_work(self, grid, monkeypatch, capsys):
        # Every channel parameter lies in [0, 1]; a point outside it is
        # refused with --grid named, before the bundle or W is built.
        calls = []
        monkeypatch.setattr(noise, "noisy_teleport_sweep", lambda *args, **kwargs: calls.append(args))
        params = {"protocol": "ghz-meas", "target": "1", "grid": grid}
        assert main(["noise-sweep", *(f"--{k}={v}" for k, v in params.items())]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --grid points must lie in [0, 1], got ")
        with pytest.raises(ValueError, match=r"^--grid points must lie in \[0, 1\], got "):
            run(ExperimentConfig("noise-sweep", params=params))
        assert calls == []

    def test_noise_grid_past_one_by_less_than_a_step_ends_at_one(self, capsys):
        code, out = _run(["noise-sweep", "--protocol", "ghz-meas", "--target", "1", "--grid", "0:1.02:0.5"], capsys)
        assert code == 0
        assert [row[0] for row in json.loads(out)["rows"]] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "flags, amplitudes",
        [(["0.8", "0.6", "0"], (0.8, 0.6, 0.0)), (["2", "1j", "2"], np.array([2, 1j, 2]) / 3.0)],
        ids=["unit", "scaled"],
    )
    def test_noise_sweep_takes_channel_amplitudes(self, flags, amplitudes, capsys):
        # The w-channel amplitudes are normalized as one vector, as teleport does.
        amps = [f"--{k}={v}" for k, v in zip("abc", flags)]
        argv = ["noise-sweep", "--protocol", "w-channel", "--target", "2", "--grid", "0:1:0.25", *amps]
        code, out = _run(argv, capsys)
        assert code == 0
        params = dict(zip("abc", (complex(v) for v in amplitudes)))
        rows = noise.noisy_teleport_sweep("w-channel", "bitflip", 2, np.linspace(0, 1, 5), params=params)
        assert json.loads(out)["rows"] == [list(row) for row in rows]
        # Not the sweep of the default, equal amplitudes.
        assert rows != noise.noisy_teleport_sweep("w-channel", "bitflip", 2, np.linspace(0, 1, 5))

    def test_noise_sweep_echoes_resolved_params(self, capsys):
        # The payload carries the parameters the sweep ran with, in the
        # form of the teleport payload: other amplitudes, other params.
        base = ["noise-sweep", "--protocol", "w-channel", "--target", "2", "--grid", "0:1:0.5"]
        amps = ["--a", "0.8", "--b", "0.6", "--c", "0"]
        echoed = []
        for flags in (amps, []):
            code, out = _run([*base, *flags], capsys)
            assert code == 0
            echoed.append(json.loads(out)["params"])
            code, out = _run(["teleport", "--protocol", "w-channel", *flags], capsys)
            assert json.loads(out)["params"] == echoed[-1]
        assert echoed[0] != echoed[1]
        code, out = _run(["noise-sweep", "--protocol", "ghz-via-3epr", "--target", "3", "--theta2", "0.5"], capsys)
        assert json.loads(out)["params"] == {"theta1": math.pi / 4, "theta2": 0.5, "theta3": math.pi / 4}

    def test_grid_point_cap_counts_emitted_points(self):
        # 1000.6 steps: 1001 points are emitted, so the grid is allowed.
        assert len(cli._parse_grid("0:1.0006:0.001")) == cli.MAX_SWEEP_POINTS
        with pytest.raises(ValueError, match="more than the 1001 allowed"):
            cli._parse_grid("0:1.001:0.001")

    def test_twirl_history(self, capsys):
        code, out = _run(["twirl", "--samples", "100", "--invariant", "0.7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "werner"
        assert len(payload["trace_distance_history"]) == 10
        assert all(0.0 <= d <= 1.0 for _, d in payload["trace_distance_history"])


def _payload(argv, capsys) -> dict:
    code, out = _run(argv, capsys)
    assert code == 0
    return json.loads(out)


class TestOneFormulaPerQuantity:
    """A quantity that two commands print comes from one formula, so both
    print the same bits."""

    def test_surface_points_are_the_noiseless_sweep_rows(self, capsys):
        surface = _payload(["fidelity-surface", "--grid", "21"], capsys)
        rng = np.random.default_rng(35)
        points = [(0, 0), (10, 10), (20, 20), *rng.integers(0, 21, size=(40, 2)).tolist()]
        for i, j in points:
            theta, phi = surface["theta_grid"][i], surface["phi_grid"][j]
            argv = ["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", "0:0:1",
                    f"--theta-channel={theta!r}", f"--theta-meas={phi!r}"]
            assert _payload(argv, capsys)["rows"] == [[0.0, surface["values"][i][j]]], (theta, phi)

    def test_library_surface_sweep_and_average_agree(self):
        rng = np.random.default_rng(36)
        thetas, phis = rng.uniform(0, math.pi / 2, 6), rng.uniform(0, math.pi / 2, 4)
        values = teleport.avg_fidelity_surface(thetas, phis).values
        for (i, theta), (j, phi) in itertools.product(enumerate(thetas), enumerate(phis)):
            params = {"theta_channel": theta, "theta_meas": phi}
            fbar = teleport.average_fidelity(teleport.protocol_bundle("ghz-meas", **params))
            assert noise.noisy_teleport_sweep("ghz-meas", "depolarizing", 3, [0.0], params=params) == [(0.0, fbar)]
            assert values[i, j] == fbar

    @staticmethod
    def _assert_tables_print_the_report(c0: str, c1: str, theta: str, capsys) -> dict:
        tables = _payload(["tables", f"--c0={c0}", f"--c1={c1}", f"--theta={theta}"], capsys)
        report = _payload(["teleport", "--protocol", "ghz-epr", f"--c0={c0}", f"--c1={c1}", f"--bob-theta={theta}"], capsys)
        keys = ["".join(map(str, branch["label"])) for branch in report["branches"]]
        assert list(tables["fidelities"]) == list(tables["corrections"]) == keys
        assert list(tables["fidelities"].values()) == [branch["fidelity"] for branch in report["branches"]]
        assert list(tables["corrections"].values()) == [branch["correction"] for branch in report["branches"]]
        return tables

    def test_tables_print_the_teleport_report(self, capsys):
        rng = np.random.default_rng(37)
        for _ in range(20):
            c0, c1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            theta = float(rng.uniform(0, math.pi / 2))
            self._assert_tables_print_the_report(repr(complex(c0)), repr(complex(c1)), repr(theta), capsys)
        tables = self._assert_tables_print_the_report("0.6", "0.8j", "0.3", capsys)
        assert tables["fidelities"]["001"] == 0.7390932818839198

    def test_tables_mark_dead_outcomes_as_the_report_does(self, capsys):
        # At this angle four outcomes have p = 5.6e-15, below the report's cut of 1e-14.
        tables = self._assert_tables_print_the_report("1", "0", "1.5e-7", capsys)
        assert [key for key, fid in tables["fidelities"].items() if fid is None] == ["000", "011", "100", "111"]

    @pytest.mark.parametrize(
        "argv, protocol, builds",
        [
            (["noise-sweep", "--protocol", "ghz-via-3epr", "--target", "3,4", "--grid", "0:1:0.5"], "ghz-via-3epr", 1),
            (["fidelity-surface", "--grid", "41"], "ghz-meas", 41),
            (["teleport", "--protocol", "ghz-via-3epr"], "ghz-via-3epr", 8),
        ],
        ids=["noise-sweep", "fidelity-surface", "teleport"],
    )
    def test_commands_build_only_the_resources_they_read(self, argv, protocol, builds, monkeypatch, capsys):
        # From a fresh table entry: the sweep reads its one resource, the surface
        # one per channel angle, and a report the resource at each corner.
        calls = []
        entry = teleport.PROTOCOLS[protocol]
        counted = dataclasses.replace(entry, resource=lambda x: calls.append(x) or entry.resource(x))
        monkeypatch.setitem(teleport.PROTOCOLS, protocol, counted)
        _payload(argv, capsys)
        assert len(calls) == builds


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

    @pytest.mark.parametrize(
        "protocol, flags, params",
        [
            ("ghz-epr", ["--c0", "0.6", "--c1", "0.8j", "--bob-theta", "0.3"], {"bob_theta": 0.3}),
            (
                "ghz-meas",
                ["--c0", "0.6", "--c1", "0.8j", "--theta-channel", "0.2", "--theta-meas", "1.1"],
                {"theta_channel": 0.2, "theta_meas": 1.1},
            ),
            (
                "epr-via-ghz",
                ["--a0", "0.6", "--a1", "0.8j", "--theta-channel", "0.4"],
                {"theta_channel": 0.4},
            ),
            (
                "ghz-via-3epr",
                ["--a0", "0.6", "--a1", "0.8j", "--theta1", "0.3", "--theta2", "0.5", "--theta3", "0.7"],
                {"theta1": 0.3, "theta2": 0.5, "theta3": 0.7},
            ),
            (
                "w-channel",
                ["--c0", "0.6", "--c1", "0.8j", "--a", "0.8", "--b", "0.6j", "--c", "0"],
                {"a": 0.8, "b": 0.6j, "c": 0.0},
            ),
        ],
        ids=["ghz-epr", "ghz-meas", "epr-via-ghz", "ghz-via-3epr", "w-channel"],
    )
    def test_each_protocol_takes_its_own_flags(self, protocol, flags, params, capsys):
        # Unit-norm amplitudes pass normalization unchanged, so the payload
        # is the library report of the same input and parameters.
        code, out = _run(["teleport", "--protocol", protocol, *flags], capsys)
        assert code == 0
        report = teleport.enumerate_branches(teleport.protocol_bundle(protocol, **params), 0.6, 0.8j)
        expected = {"schema": cli.SCHEMA_TAG, "command": "teleport", **report.to_dict()}
        assert json.loads(out) == json.loads(json.dumps(expected))

    def test_duplicate_noise_target_exits_2(self, capsys):
        assert main(["noise-sweep", "--protocol", "ghz-epr", "--target", "2,2"]) == 2
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["teleport", "--protocol", "ghz-meas", "--c0=nan", "--c1=0.6"], {}),
            (["classify", "--state", "flat.json"], {"flat.json": {"amplitudes": [0.5] * 16}}),
            (["twirl", "--samples", "0"], {}),
            (["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", "0:1:1e-4"], {}),
            (["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", "0:1:5e-324"], {}),
            (["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", "0:inf:0.1"], {}),
            (["fidelity-surface", "--grid", str(cli.MAX_SURFACE_GRID + 1)], {}),
            (["twirl", "--samples", str(cli.MAX_TWIRL_SAMPLES + 1)], {}),
            (["twirl", "--d", str(cli.MAX_TWIRL_D + 1), "--samples", "1"], {}),
            (["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", "1:0:0.1"], {}),
            (
                [
                    "noise-sweep", "--protocol", "ghz-meas", "--target", "3",
                    "--grid", "0.5:0.2:0.1", "--format", "csv",
                ],
                {},
            ),
            (["teleport", "--protocol", "ghz-epr", "--theta1", "0.3"], {}),
            (["teleport", "--protocol", "ghz-via-3epr", "--c0", "0.3"], {}),
            (["teleport", "--protocol", "ghz-meas", "--a", "0.5"], {}),
            (["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--theta1", "0.4"], {}),
            (["classify", "--state", "s.json"], {"s.json": {"amplitudes": [[0.25, 0]] * 7}}),
            (["classify", "--state", "s.json"], {"s.json": {"amplitudes": [[0.25, 0]] * 16}}),
            (["noise-sweep", "--protocol", "ghz-epr", "--target", "1", "--grid", "0:0:1", "--b", "0.3"], {}),
            (["teleport", "--protocol", "ghz-meas", "--theta-m", "0.3"], {}),
            (["--form=json", "paradox"], {}),
            (["classify", "--state", "s.json"], {"s.json": [[math.nan, 0]] + [[0.25, 0]] * 7}),
            (["classify", "--state", "s.json"], {"s.json": [[0.25, 0]] * 7 + [[0, -math.inf]]}),
            (["classify", "--state", "s.json"], {"s.json": [[10**400, 0]] + [[0.25, 0]] * 7}),
            # classify has no CSV form; this unnormalized state would exit 1.
            (["classify", "--state", "s.json", "--format", "csv"], {"s.json": [[1, 0]] * 8}),
            (["--out", "", "paradox"], {}),
            (["paradox", "--out", ""], {}),
        ],
        ids=[
            "nan-amplitude", "flat-state-file", "zero-samples", "noise-grid-too-fine",
            "noise-grid-subnormal-step", "noise-grid-infinite", "surface-grid-too-large",
            "too-many-twirl-samples", "twirl-d-too-large", "noise-grid-reversed",
            "noise-grid-empty-csv", "teleport-stray-angle", "teleport-stray-input-amplitude",
            "teleport-stray-channel-amplitude", "noise-sweep-stray-angle",
            "classify-seven-pairs", "classify-sixteen-pairs", "noise-sweep-b-prefix",
            "teleport-theta-m-prefix", "global-form-prefix", "classify-nan-amplitude",
            "classify-infinite-amplitude", "classify-huge-int-amplitude", "classify-csv-unnormalized",
            "empty-out-before-command", "empty-out-after-command",
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, argv, files, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, payload in files.items():
            (tmp_path / name).write_text(json.dumps(payload))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        if err.startswith("usage: tripsim"):
            # argparse refused a flag: usage, then "tripsim: error: ...".
            err = err.splitlines()[-1].removeprefix("tripsim: ")
        assert err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "amplitudes",
        [[[True, False]] + [[False, False]] * 7, [[1, 0], [0, False]] + [[0, 0]] * 6],
        ids=["all-bools", "one-bool"],
    )
    def test_bool_amplitude_is_refused(self, amplitudes, tmp_path, capsys):
        # JSON true is not the number 1 here, as in the payload schema.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(amplitudes))
        assert main(["classify", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: amplitudes must be a list of [re, im] pairs\n"

    @pytest.mark.parametrize("grid", ["0:1:0", "0:1:-0.1"])
    def test_non_positive_grid_step_names_the_flag(self, grid, capsys):
        assert main(["noise-sweep", "--protocol", "ghz-epr", "--target", "3", "--grid", grid]) == 2
        assert capsys.readouterr().err == f"error: --grid step must be positive, got {grid!r}\n"

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_cli_and_run_share_every_default(self, command, tmp_path, monkeypatch, capsys):
        # Only the flags a command cannot run without; every other one is
        # left to the default its command applies.
        monkeypatch.delenv("TRIPSIM_SEED", raising=False)
        required = {
            "teleport": {"protocol": "ghz-epr"},
            "classify": {"state": _ghz_state_file(tmp_path / "s.json")},
            "noise-sweep": {"protocol": "ghz-meas", "target": "3"},
        }.get(command, {})
        assert main([command, *(arg for k, v in required.items() for arg in (f"--{k}", v))]) == 0
        via_main = capsys.readouterr().out
        assert run(ExperimentConfig(command, params=required)) == 0
        assert capsys.readouterr().out == via_main

    def test_deeply_nested_state_file_exits_2(self, tmp_path, capsys):
        # json.dumps cannot write this; json.load hits the recursion limit.
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["classify", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("payload", [{}, {"amps": [[0.25, 0]] * 8}], ids=["empty", "amps-key"])
    def test_state_object_without_amplitudes_names_file_and_key(self, payload, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(payload))
        assert main(["classify", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and "amplitudes" in err

    @pytest.mark.parametrize("content", [b"\xff\xfe[]", b"[[1, 0] [0, 0]]"], ids=["not-utf-8", "not-json"])
    def test_unreadable_state_file_is_named(self, content, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(content)
        assert main(["classify", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")

    def test_csv_request_without_a_csv_form_never_runs_the_command(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(cli._COMMANDS, "paradox", lambda params, seed: calls.append(params) or {})
        assert main(["paradox", "--format", "csv"]) == 2
        assert calls == []
        assert capsys.readouterr().err == "error: command 'paradox' has no CSV form; use json\n"

    @pytest.mark.parametrize("where", ["before-command", "after-command"])
    @pytest.mark.parametrize("out", ["missing/x.json", "directory", "directory/"])
    def test_unwritable_out_never_runs_the_command(self, out, where, tmp_path, monkeypatch, capsys):
        # open() would refuse these paths too, but only after all the work.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "directory").mkdir()
        calls = []
        monkeypatch.setitem(cli._COMMANDS, "fidelity-surface", lambda params, seed: calls.append(params) or {})
        command = ["fidelity-surface", "--grid", "5"]
        argv = ["--out", out, *command] if where == "before-command" else [*command, "--out", out]
        assert main(argv) == 2
        with pytest.raises(ValueError, match=f"^--out must name a file in an existing directory, got '{out}'$"):
            run(ExperimentConfig("fidelity-surface", params={"grid": 5}, out=out))
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]

    def test_non_integer_env_seed_names_the_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("TRIPSIM_SEED", "abc")
        assert main(["paradox"]) == 2
        assert capsys.readouterr().err == "error: TRIPSIM_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "-5", "paradox"],
            ["--seed", "-5", "twirl", "--samples", "10"],
            ["tables", "--seed", "-5"],
            ["fidelity-surface", "--grid", "2", "--seed", "-5"],
        ],
    )
    def test_negative_seed_names_the_flag(self, argv, monkeypatch, capsys):
        monkeypatch.delenv("TRIPSIM_SEED", raising=False)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -5\n"

    def test_negative_env_seed_names_the_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("TRIPSIM_SEED", "-1")
        assert main(["paradox"]) == 2
        assert capsys.readouterr().err == "error: TRIPSIM_SEED must be a non-negative integer, got '-1'\n"

    # An empty entry is refused too, not dropped: "1,,2" is no list of indices.
    @pytest.mark.parametrize("text", ["x", "1.5", "1,a", "1,,2", "3,", ""])
    def test_non_integer_target_names_the_flag(self, text, capsys):
        assert main(["noise-sweep", "--protocol", "ghz-epr", "--target", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --target must list qubit indices INDEX[,INDEX...], got {text!r}\n"

    @pytest.mark.parametrize("value", ["1.5", "-0.5", "nan"])
    def test_invariant_outside_unit_interval_names_the_flag(self, value, monkeypatch, capsys):
        calls = []
        monkeypatch.setitem(cli._COMMANDS, "twirl", lambda params, seed: calls.append(params) or {})
        assert main(["twirl", f"--invariant={value}"]) == 2
        assert calls == []  # refused before any draw
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --invariant must lie in [0, 1], got {float(value)}\n"

    @pytest.mark.parametrize(
        "protocol, key",
        [
            (name, key)
            for name, entry in teleport.PROTOCOLS.items()
            for key, default in entry.params.items()
            if isinstance(default, float)
        ],
    )
    def test_angle_refusal_names_the_parameter(self, protocol, key, capsys):
        message = f"{key} must lie in [0, pi/2], got -0.5"
        with pytest.raises(ValueError) as refused:
            teleport.protocol_bundle(protocol, **{key: -0.5})
        assert str(refused.value) == message
        flag = f"--{key.replace('_', '-')}"
        for argv in (["teleport", "--protocol", protocol], ["noise-sweep", "--protocol", protocol, "--target", "3"]):
            assert main([*argv, flag, "-0.5"]) == 2
            assert capsys.readouterr().err == f"error: {flag} must lie in [0, 1.5707963268], got -0.5\n"

    def test_tables_angle_refusal_names_its_flag(self, capsys):
        # tables --theta is ghz-epr's bob_theta; the refusal names the flag.
        assert main(["tables", "--theta", "-0.5"]) == 2
        assert capsys.readouterr().err == "error: --theta must lie in [0, 1.5707963268], got -0.5\n"

    # Every angle flag, as (command, parameter, the command's required flags).
    _ANGLE_REQUESTS = [
        (command, key, ["--protocol", name, *(["--target", "3"] if command == "noise-sweep" else [])])
        for command in ("teleport", "noise-sweep")
        for name, entry in teleport.PROTOCOLS.items()
        for key, default in entry.params.items()
        if isinstance(default, float)
    ] + [("paradox", "theta", []), ("tables", "theta", [])]

    @pytest.mark.parametrize("command, key, required", _ANGLE_REQUESTS)
    def test_angle_flags_share_the_library_range(self, command, key, required, monkeypatch, capsys):
        # pi/2 and the slack above it are accepted by the flag and by the
        # library alike; the next float up is refused by both, by the flag
        # before any work.
        flag, above = cli._flag(key), math.nextafter(_HALF_PI_LIMIT, math.inf)
        library = lambda v: teleport.protocol_bundle(required[1], **{key: v}) if required else ghz_basis(v, (0, 0, 0))
        for value in (math.pi / 2, _HALF_PI_LIMIT):
            assert main([command, *required, f"{flag}={value!r}"]) == 0
            library(value)
        capsys.readouterr()
        with pytest.raises(ValueError) as refused:
            library(above)
        assert str(refused.value) == f"{key} must lie in [0, pi/2], got {above!r}"
        calls = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda params, seed: calls.append(params) or {})
        assert main([command, *required, f"{flag}={above!r}"]) == 2
        assert calls == []
        assert capsys.readouterr().err == f"error: {flag} must lie in [0, {_HALF_PI_LIMIT!r}], got {above!r}\n"

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


class TestNoSilentClamp:
    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport", "--protocol", "ghz-meas"],
            ["fidelity-surface", "--grid", "3"],
            ["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", "0:1:0.5"],
        ],
        ids=["teleport", "fidelity-surface", "noise-sweep"],
    )
    def test_scaled_correction_exits_1(self, argv, monkeypatch, capsys):
        # Scaling every ghz-meas correction by 1.1 scales the maximal
        # fidelity to 1.21; it must not be clamped to 1. The table is built
        # once per process, so the protocol entry gets the scaled copy.
        entry = teleport.PROTOCOLS["ghz-meas"]
        scaled = {
            label: dataclasses.replace(fix, matrix=1.1 * fix.matrix)
            for label, fix in entry.corrections().items()
        }
        monkeypatch.setitem(
            teleport.PROTOCOLS, "ghz-meas", dataclasses.replace(entry, corrections=lambda: scaled)
        )
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invariant violated [unit-interval]: ")
        assert "1.21" in captured.err


class TestAmplitudeScale:
    @pytest.mark.parametrize("scale", ["1e200", "1e-200", "5e-324"])
    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["teleport", "--protocol", "ghz-epr"], ("--c0", "--c1")),
            (["teleport", "--protocol", "w-channel"], ("--a", "--b", "--c")),
            (["tables"], ("--c0", "--c1")),
        ],
        ids=["teleport", "w-channel", "tables"],
    )
    def test_extreme_amplitudes_normalize_like_unit_ones(self, argv, flags, scale, capsys):
        unit = [arg for flag in flags for arg in (flag, "1")]
        scaled = [arg for flag in flags for arg in (flag, scale)]
        assert main(argv + unit) == 0
        expected = capsys.readouterr()
        assert main(argv + scaled) == 0
        assert capsys.readouterr() == expected


def _ghz_state_file(path) -> str:
    amp = 1 / math.sqrt(2)
    path.write_text(json.dumps({"amplitudes": [[amp, 0]] + [[0, 0]] * 6 + [[amp, 0]]}))
    return str(path)


class TestPayloadCheck:
    ARGV = {
        "paradox": ["paradox"],
        "teleport": ["teleport", "--protocol", "w-channel"],
        "fidelity-surface": ["fidelity-surface", "--grid", "3"],
        "twirl": ["twirl", "--samples", "20"],
        "classify": ["classify", "--state"],
        "noise-sweep": [
            "noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", "0:1:0.5",
        ],
        "tables": ["tables"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_real_payload_passes(self, command, tmp_path, capsys):
        assert sorted(self.ARGV) == sorted(cli._SCHEMAS) == sorted(cli._COMMANDS)
        argv = list(self.ARGV[command])
        if command == "classify":
            argv.append(_ghz_state_file(tmp_path / "s.json"))
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        cli._check(payload, cli._SCHEMAS[command])
        assert payload["schema"] == cli.SCHEMA_TAG
        assert payload["command"] == command

    def test_null_branch_fidelities_pass(self, capsys):
        # ghz-meas records its four lam != omega outcomes as dead branches.
        assert main(["teleport", "--protocol", "ghz-meas"]) == 0
        branches = json.loads(capsys.readouterr().out)["branches"]
        assert sum(b["fidelity"] is None for b in branches) == 4

    @pytest.mark.parametrize(
        "command, mutate",
        [
            ("paradox", lambda p: p.pop("contradiction")),
            ("teleport", lambda p: p.update(schema="tripsim/0")),
            ("teleport", lambda p: p["branches"][0].update(p=1.5)),
            ("teleport", lambda p: p.update(avg_fidelity=math.nan)),
            ("fidelity-surface", lambda p: p["values"][1].__setitem__(2, math.nan)),
            ("paradox", lambda p: p.update(xyy=True)),
            ("noise-sweep", lambda p: p["rows"].__setitem__(1, [0.5, 2.0])),
            ("teleport", lambda p: p["branches"][0].update(fidelity=1.25)),
            ("teleport", lambda p: p["branches"][0].update(fidelity="0.5")),
            ("teleport", lambda p: p.update(command="tables")),
            ("noise-sweep", lambda p: p["rows"][1].append(2.0)),
        ],
        ids=[
            "missing-key", "schema-tag", "p-1.5", "nan-avg-fidelity", "nan-surface-value",
            "bool-number", "noise-row", "branch-fidelity-1.25", "branch-fidelity-string",
            "teleport-wrong-command", "noise-row-third-item",
        ],
    )
    def test_mutated_payload_exits_1(self, command, mutate, monkeypatch, capsys):
        real = cli._COMMANDS[command]

        def mutated(params, seed):
            payload = real(params, seed)
            mutate(payload)
            return payload

        monkeypatch.setitem(cli._COMMANDS, command, mutated)
        assert main(self.ARGV[command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invariant violated [payload-schema]: payload-schema: $")

    @pytest.mark.parametrize("value", [True, math.nan, math.inf, -math.inf, "1", None])
    def test_number_is_a_finite_int_or_float(self, value):
        cli._check(3, {"type": "number"})
        cli._check(-0.5, {"type": "number"})
        with pytest.raises(InvariantViolation, match=r"payload-schema: \$: .* is not of type number"):
            cli._check(value, {"type": "number"})

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "number", "exclusiveMaximum": 1.0},
            {"type": "string"},
            {"oneOf": [{"type": "null"}, {"type": "number", "format": "float"}]},
            {"type": "array", "items": {"uniqueItems": True}},
            {"type": ["number", "string"]},
        ],
        ids=["keyword", "type-name", "inside-oneOf", "nested", "type-list"],
    )
    def test_unknown_keyword_raises(self, schema):
        with pytest.raises(InvariantViolation, match="unknown schema keywords"):
            cli._check([None] if schema.get("type") == "array" else None, schema)


class TestFlagDeclarations:
    @pytest.mark.parametrize(
        "command, params, refusal",
        [
            ("fidelity-surface", {"grid": 2.9}, r"--grid .*2\.9"),
            ("fidelity-surface", {"grid": True}, r"--grid .*True"),
            ("noise-sweep", {"protocol": "ghz-meas", "target": "3", "grid": 0.5}, r"--grid .*0\.5"),
            ("twirl", {"d": "3"}, r"--d .*'3'"),
            ("paradox", {"bogus": 1}, r"--bogus"),
            ("twirl", {"family": "foo"}, r"--family .*'foo'"),
            ("teleport", {}, r"--protocol"),
            ("twirl", {"invariant": 1.5}, r"^--invariant must lie in \[0, 1\], got 1\.5$"),
        ],
        ids=[
            "surface-float-grid", "surface-bool-grid", "noise-float-grid", "twirl-string-d",
            "paradox-unknown-key", "twirl-unknown-family", "teleport-without-protocol",
            "twirl-invariant-above-one",
        ],
    )
    def test_run_refuses_what_the_parser_refuses(self, command, params, refusal, capsys):
        # The refusal names the flag and the value refused.
        with pytest.raises(ValueError, match=refusal):
            run(ExperimentConfig(command, params=params))
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "field, value, refusal",
        [
            ("seed", -5, r"^--seed must be a non-negative integer, got -5$"),
            ("seed", 2.5, r"^--seed .*2\.5$"),
            ("seed", True, r"^--seed .*True$"),
            ("fmt", "xml", r"^--format .*'xml'$"),
            ("out", "pipe", r"^--out .*\d$"),
            ("out", "", r"^--out .*''$"),
        ],
        ids=["negative-seed", "float-seed", "bool-seed", "xml-format", "descriptor-out", "empty-out"],
    )
    def test_run_refuses_bad_config_fields(self, field, value, refusal, monkeypatch, capsys):
        # "pipe" stands for the write end of a pipe; no case may write to
        # it or close it.
        monkeypatch.delenv("TRIPSIM_SEED", raising=False)
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(ValueError, match=refusal):
                run(ExperimentConfig("paradox", **{field: write_end if value == "pipe" else value}))
            os.fstat(write_end)  # raises OSError if run closed it
            os.set_blocking(read_end, False)
            with pytest.raises(BlockingIOError):  # nothing was written to it
                os.read(read_end, 1)
        finally:
            os.close(read_end)
            with contextlib.suppress(OSError):
                os.close(write_end)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command, params, flag",
        [("paradox", {"theta": 10**400}, "--theta"), ("teleport", {"protocol": "ghz-epr", "c0": -(10**400)}, "--c0")],
        ids=["float-flag", "complex-flag"],
    )
    def test_int_beyond_the_float_range_names_the_flag(self, command, params, flag):
        with pytest.raises(ValueError, match=f"^{flag} must be finite, got ") as refused:
            run(ExperimentConfig(command, params=params))
        assert len(str(refused.value)) < 80

    # Every float and complex flag, of every command and among the global
    # flags, by the ExperimentConfig field that carries it.
    _REAL_FLAGS = [
        (command, key)
        for command, (_, flags) in cli._FLAGS.items()
        for key, spec in flags.items()
        if spec.get("type") in (float, complex)
    ] + [(None, key) for key, spec in cli._GLOBAL_FLAGS.items() if spec.get("type") in (float, complex)]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, key", _REAL_FLAGS)
    def test_non_finite_value_names_the_flag_before_any_work(self, command, key, value, monkeypatch):
        calls = []
        monkeypatch.setitem(cli._COMMANDS, command or "paradox", lambda params, seed: calls.append(params) or {})
        if command is None:
            config = ExperimentConfig("paradox", **{{"format": "fmt"}.get(key, key): value})
        else:
            flags = cli._FLAGS[command][1]
            required = {k: spec.get("choices", ["x"])[0] for k, spec in flags.items() if spec.get("required")}
            config = ExperimentConfig(command, params={**required, key: value})
        with pytest.raises(ValueError) as refused:
            run(config)
        assert str(refused.value).startswith(f"{cli._flag(key)} must ")
        assert calls == []

    def test_run_honours_the_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("TRIPSIM_SEED", "77")
        assert main(["--seed", "1", "twirl", "--samples", "60"]) == 0
        via_main = capsys.readouterr().out
        assert run(ExperimentConfig("twirl", params={"samples": 60}, seed=1)) == 0
        assert capsys.readouterr().out == via_main

    @pytest.mark.parametrize("env, refusal", [("abc", "an integer, got 'abc'"), ("-1", "a non-negative integer, got '-1'")])
    def test_run_refuses_a_bad_env_seed(self, env, refusal, monkeypatch, capsys):
        monkeypatch.setenv("TRIPSIM_SEED", env)
        with pytest.raises(ValueError, match=f"^TRIPSIM_SEED must be {refusal}$"):
            run(ExperimentConfig("paradox"))
        assert capsys.readouterr().out == ""

    def test_integer_state_is_refused_and_its_descriptor_left_open(self):
        read_end, write_end = os.pipe()
        os.close(write_end)
        try:
            with pytest.raises(ValueError, match="--state"):
                run(ExperimentConfig("classify", params={"state": read_end}))
            os.fstat(read_end)  # raises OSError if run closed it
        finally:
            os.close(read_end)

    def test_library_key_error_is_not_a_configuration_error(self, monkeypatch):
        # Bad input is refused with a ValueError; a KeyError is a bug and
        # propagates rather than exiting 2 as if the input were at fault.
        def broken(params, seed):
            raise KeyError("missing")

        monkeypatch.setitem(cli._COMMANDS, "paradox", broken)
        with pytest.raises(KeyError):
            main(["paradox"])

    def test_each_subparser_is_built_from_its_declaration(self, monkeypatch):
        def built(parser):
            actions = [a for a in parser._actions if a.dest not in ("help", "command")]
            return [(a.option_strings, a.default, a.required, a.choices, a.type) for a in actions]

        def declared(flags, default=lambda spec: spec.get("default")):
            return [
                ([cli._flag(key)], default(spec), spec.get("required", False), spec.get("choices"), spec.get("type"))
                for key, spec in flags.items()
            ]

        # argparse wraps help at the terminal width; at 40 columns the notes
        # always wrap, so each is looked for with the whitespace collapsed.
        monkeypatch.setenv("COLUMNS", "40")
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert list(subparsers) == list(cli._FLAGS) == list(cli._COMMANDS)
        # The global flags come first on the top parser, and on every
        # subparser with SUPPRESS, so that they do not clobber the top's.
        assert built(parser) == declared(cli._GLOBAL_FLAGS)
        suppressed = declared(cli._GLOBAL_FLAGS, lambda spec: argparse.SUPPRESS)
        for name, (summary, flags) in cli._FLAGS.items():
            sub = subparsers[name]
            assert built(sub) == suppressed + declared(flags), name
            for p in (parser, sub):
                helps = {a.dest: a.help for a in p._actions if a.dest in cli._GLOBAL_FLAGS}
                assert helps == {k: spec.get("help") for k, spec in cli._GLOBAL_FLAGS.items()}, name
            text = " ".join(sub.format_help().split())
            for key, spec in flags.items():
                if "default" in spec:
                    assert f"default: {spec['default']}" in text, (name, key)
                if "limits" in spec:
                    assert "from {} to {}".format(*spec["limits"]) in text, (name, key)

    @pytest.mark.parametrize(
        "argv", [[name, "--help"] for name in cli._COMMANDS] + [["--help"]], ids=[*cli._COMMANDS, "top-level"]
    )
    def test_help_exits_0_with_usage_on_stdout(self, argv, capsys):
        # argparse prints the help and raises SystemExit(0); main returns 0.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(" ".join(["usage: tripsim", *argv[:-1]]) + " ")
        assert captured.err == ""


def _fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``python -c ARGS...`` in a new interpreter that imports tripsim from src."""
    base = {k: v for k, v in os.environ.items() if k != "TRIPSIM_SEED"}
    return subprocess.run(
        [sys.executable, "-c", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**base, "PYTHONPATH": str(SRC), **env},
    )


class TestStartup:
    def test_paradox_loads_neither_jsonschema_nor_numpy_random(self):
        proc = _fresh(
            "import sys; from tripsim.cli import main; main(['paradox']); "
            "loaded = [m for m in ('jsonschema', 'numpy.random') if m in sys.modules]; "
            "print(loaded, file=sys.stderr)"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["contradiction"] is True
        assert proc.stderr.strip() == "[]"

    def test_seeded_twirl_is_byte_identical_across_processes(self):
        def twirl(seed: str, **env: str) -> str:
            proc = _fresh(
                "import sys; from tripsim.cli import main; sys.exit(main(sys.argv[1:]))",
                "--seed", seed, "twirl", "--samples", "40", "--d", "3", "--family", "isotropic",
                "--invariant", "0.4",
                **env,
            )
            assert proc.returncode == 0 and proc.stderr == ""
            return proc.stdout

        first = twirl("5")
        assert twirl("5") == first
        assert twirl("1", TRIPSIM_SEED="5") == first
        assert twirl("6") != first


# --- property: every request ends in a documented way -------------------

_AMP_FLAGS = {
    "ghz-epr": ("c0", "c1"),
    "ghz-meas": ("c0", "c1"),
    "w-channel": ("c0", "c1", "a", "b", "c"),
    "epr-via-ghz": ("a0", "a1"),
    "ghz-via-3epr": ("a0", "a1"),
}
_ANGLE_FLAGS = {
    "ghz-epr": ("bob-theta",),
    "ghz-meas": ("theta-channel", "theta-meas"),
    "w-channel": (),
    "epr-via-ghz": ("theta-channel",),
    "ghz-via-3epr": ("theta1", "theta2", "theta3"),
}
_RESOURCE_QUBITS = {
    "ghz-epr": (1, 3),
    "ghz-meas": (1, 3),
    "w-channel": (1, 3),
    "epr-via-ghz": (2, 4),
    "ghz-via-3epr": (3, 8),
}
_real = st.one_of(
    st.floats(0.0, math.pi / 2),
    st.floats(-1.0, 3.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_amp = st.one_of(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False),
    st.sampled_from([0j, complex(math.nan, 0.0)]),
)


def _flags(draw, names, values) -> list[str]:
    # "--name=value" keeps argparse from reading a negative value as a flag.
    chosen = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    return [f"--{name}={draw(values)!r}" for name in chosen]


@st.composite
def _requests(draw, state_dir: Path) -> list[str]:
    """One argv over every subcommand; bounded so each request is cheap,
    with out-of-range, non-finite and stray values mixed in."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    if command == "paradox":
        return ["paradox", *_flags(draw, ["theta"], _real)]
    if command == "fidelity-surface":
        return ["fidelity-surface", f"--grid={draw(st.integers(-1, 11))}"]
    if command == "twirl":
        return [
            "twirl",
            f"--family={draw(st.sampled_from(['werner', 'isotropic']))}",
            f"--d={draw(st.sampled_from([2, 3, 1]))}",
            f"--invariant={draw(st.one_of(st.floats(-0.2, 1.2), st.just(math.nan)))!r}",
            f"--samples={draw(st.integers(-1, 50))}",
        ]
    if command == "classify":
        pair = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
        amplitudes = draw(
            st.one_of(
                st.lists(pair, min_size=8, max_size=8),
                st.lists(pair, max_size=9),
                st.lists(st.floats(-1.0, 1.0), max_size=16),
                st.floats(-1.0, 1.0),
            )
        )
        path = state_dir / "state.json"
        path.write_text(json.dumps({"amplitudes": amplitudes}))
        return ["classify", f"--state={path}"]
    if command == "tables":
        return ["tables", *_flags(draw, ["c0", "c1"], _amp), *_flags(draw, ["theta"], _real)]
    protocol = draw(st.sampled_from(PROTOCOL_NAMES))
    angles = _flags(draw, _ANGLE_FLAGS[protocol], _real)
    if command == "teleport":
        stray = _flags(draw, ["theta1", "bob-theta"], _real)[:1]
        amps = _flags(draw, _AMP_FLAGS[protocol], _amp)
        return ["teleport", f"--protocol={protocol}", *amps, *angles, *stray]
    first, last = _RESOURCE_QUBITS[protocol]
    target = draw(st.lists(st.integers(first - 1, last + 1), min_size=1, max_size=2))
    start, stop = draw(st.floats(-0.05, 1.0)), draw(st.floats(0.0, 1.05))
    step = draw(st.floats(0.05, 1.0))
    return [
        "noise-sweep",
        f"--protocol={protocol}",
        f"--channel={draw(st.sampled_from(sorted(CHANNELS)))}",
        f"--target={','.join(map(str, target))}",
        f"--grid={start!r}:{stop!r}:{step!r}",
        *angles,
        *_flags(draw, ["a", "b", "c"] if protocol == "w-channel" else [], _amp),
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    start=st.floats(-2.0, 2.0),
    width=st.floats(0.0, 2.0),
    step=st.floats(2.5e-3, 2.0),  # at most 801 points
)
def test_grid_points_lie_in_start_stop(start, width, step):
    stop = start + width
    grid = cli._parse_grid(f"{start!r}:{stop!r}:{step!r}")
    assert grid[0] == start
    assert start <= grid.min() and grid.max() <= stop
    # No point that fits is dropped.
    assert stop - grid[-1] < step


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("property")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_request_ends_in_a_documented_way(data, state_dir):
    argv = data.draw(_requests(state_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error:", "invariant violated [", "usage:"))


def _csv_rows(argv, capsys) -> list[list[str]]:
    code, out = _run(["--format", "csv", *argv], capsys)
    assert code == 0
    return list(csv.reader(io.StringIO(out)))


class TestCsvForms:
    """Each CSV form is the JSON payload of the same request, row for row."""

    @pytest.mark.parametrize("protocol", ["ghz-meas", "w-channel"])
    def test_teleport_rows_are_the_json_branches(self, protocol, capsys):
        argv = ["teleport", "--protocol", protocol]
        branches = _payload(argv, capsys)["branches"]
        rows = _csv_rows(argv, capsys)
        assert rows[0] == ["label", "p", "correction", "fidelity", "success"]
        assert rows[1:] == [
            ["".join(map(str, b["label"])), cli._fmt17(b["p"]), b["correction"],
             "" if b["fidelity"] is None else cli._fmt17(b["fidelity"]), str(b["success"])]
            for b in branches
        ]
        if protocol == "ghz-meas":
            # Its four lam != omega outcomes are dead: an empty fidelity cell.
            assert sum(row[3] == "" for row in rows[1:]) == 4
        else:
            # Readout 1 is the failed branch: no correction, no success.
            failed = [row for row in rows[1:] if row[0].endswith("1")]
            assert len(failed) == 4 and all(row[2:5:2] == ["none", "False"] for row in failed)

    def test_twirl_rows_are_the_json_history(self, capsys):
        argv = ["--seed", "3", "twirl", "--family", "isotropic", "--d", "3", "--samples", "40"]
        history = _payload(argv, capsys)["trace_distance_history"]
        rows = _csv_rows(argv, capsys)
        assert rows[0] == ["samples", "trace_distance"]
        assert rows[1:] == [[str(n), cli._fmt17(dist)] for n, dist in history]
        assert len(rows) == 11


def _refuse_call(params, seed):
    raise AssertionError("the command ran on a request that run should have refused")


class TestParsedFlags:
    """``--target``, the sweep ``--grid`` and ``--state`` are parsed by their
    declarations, so ``run`` refuses a bad one before any command is called."""

    SWEEP = {"protocol": "ghz-meas", "target": "3"}

    @pytest.mark.parametrize("grid", ["0:1", "a:b:c"])
    def test_grid_without_three_fields_is_refused(self, grid, capsys):
        assert main(["noise-sweep", "--protocol", "ghz-meas", "--target", "3", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --grid must be start:stop:step, got {grid!r}\n"

    def test_vanishing_input_amplitudes_are_refused(self, capsys):
        assert main(["teleport", "--protocol", "ghz-epr", "--c0", "0", "--c1", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input amplitudes must not all vanish\n"

    @pytest.mark.parametrize(
        "command, params, refusal",
        [
            ("noise-sweep", {**SWEEP, "target": "3,"}, "--target must list qubit indices INDEX[,INDEX...], got '3,'"),
            ("noise-sweep", {**SWEEP, "grid": "0:2:0.5"}, "--grid points must lie in [0, 1], got 0.0 to 2.0"),
            ("noise-sweep", {**SWEEP, "grid": "0.5:0.2:0.1"},
             "--grid 0.5:0.2:0.1 has no points; stop must not lie below start"),
            ("classify", {"state": "no-key.json"}, "no-key.json: a state object needs an 'amplitudes' key"),
        ],
        ids=["target-empty-entry", "grid-past-one", "grid-without-points", "state-without-amplitudes"],
    )
    def test_refused_before_any_command(self, command, params, refusal, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no-key.json").write_text(json.dumps({"amps": [[1, 0]] * 8}))
        monkeypatch.setitem(cli._COMMANDS, command, _refuse_call)
        with pytest.raises(ValueError) as refused:
            run(ExperimentConfig(command, params))
        assert str(refused.value) == refusal

    def test_csv_classify_is_refused_before_the_state_file_is_read(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "classify", _refuse_call)
        config = ExperimentConfig("classify", {"state": str(tmp_path / "missing.json")}, fmt="csv")
        with pytest.raises(ValueError, match="^command 'classify' has no CSV form; use json$"):
            run(config)

    @pytest.mark.parametrize("given", [("target", "grid"), ("grid", "target")])
    def test_of_two_bad_flags_target_is_refused(self, given, monkeypatch, capsys):
        # --target is declared before --grid, whatever the order they are given in.
        monkeypatch.setitem(cli._COMMANDS, "noise-sweep", _refuse_call)
        bad = {"target": "3,", "grid": "0:2:1"}
        with pytest.raises(ValueError, match=r"^--target must list qubit indices"):
            run(ExperimentConfig("noise-sweep", {"protocol": "ghz-meas", **{k: bad[k] for k in given}}))
        argv = ["noise-sweep", "--protocol", "ghz-meas", *(arg for k in given for arg in (f"--{k}", bad[k]))]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --target must list qubit indices")

    def test_commands_receive_parsed_values(self, tmp_path, monkeypatch):
        received = {}
        for command in ("noise-sweep", "classify"):
            real = cli._COMMANDS[command]
            monkeypatch.setitem(
                cli._COMMANDS, command, lambda params, seed, real=real: received.update(params) or real(params, seed)
            )
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(ExperimentConfig("noise-sweep", {**self.SWEEP, "target": "3,1"})) == 0
            assert received["target"] == [3, 1]
            np.testing.assert_array_equal(received["grid"], cli._parse_grid("0:1:0.05"))
            assert run(ExperimentConfig("classify", {"state": _ghz_state_file(tmp_path / "s.json")})) == 0
            assert isinstance(received["state"], StateVector)

    @pytest.mark.parametrize(
        "envelope",
        [{"schema": cli.SCHEMA_TAG}, {"command": "paradox"}, {"schema": "tripsim/0"}, {"command": "tables"}],
        ids=["own-schema", "own-command", "other-schema", "other-command"],
    )
    def test_body_that_sets_an_envelope_key_is_refused(self, envelope, monkeypatch, capsys):
        # Even the values run itself writes: the envelope is run's alone.
        real = cli._COMMANDS["paradox"]
        monkeypatch.setitem(cli._COMMANDS, "paradox", lambda params, seed: {**real(params, seed), **envelope})
        with pytest.raises(InvariantViolation) as refused:
            run(ExperimentConfig("paradox"))
        assert refused.value.invariant == "payload-schema"
        assert capsys.readouterr().out == ""
