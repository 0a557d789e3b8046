"""How far the outputs of one tripsim source tree lie from another's.

    python tests/identity.py PARENT_SRC CHILD_SRC

Each argument is the ``src`` directory of a tree. The requests run once per
tree, each in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1``; then
every request prints one line: ``identical``, the largest absolute
difference of its numbers, or ``differs`` when anything but a number
differs (a label, a message, an exit status, a shape). A report's
``params`` are compared apart from the rest of it (``*-params/...``), so a
renamed parameter shows up on its own line.

The requests: seeded reports of all five protocols through the library
and through ``tripsim teleport``, with edge angles, the inputs |0> and |1>
and w-channel amplitudes with zeros mixed in; seeded reports of
``dataclasses.replace`` copies of bundles (``replaced-bundle/...``); the
branch factors with the correction stack the engine applies, the
resource response W and ``average_fidelity`` at default and other
parameters; a square fidelity surface and a non-square one (7 channel by 5
measurement angles, edge angles among them); noise sweeps of every protocol and
channel; ``tripsim noise-sweep`` of every protocol with its own flags;
``tripsim paradox``, ``tables``, ``classify`` (of state files written for
the run, malformed ones among them), ``twirl`` of both families and
``fidelity-surface`` as JSON and CSV, with fixed seeds; and seeded library
``diagnostics`` and ``twirl_report`` results; and refusals
(``refusal/...``): requests with a grid point outside [0, 1], an angle
outside [0, pi/2] or a non-finite flag, ``cli.run`` requests with a bad
``--target``, sweep ``--grid`` or ``--state`` file and with both
``--target`` and ``--grid`` bad, library noise sweeps with an
unknown channel kind or a grid point past 1, and ghz-meas copies whose
correction rule lacks the correction of a live outcome.
A CSV payload is compared cell by cell.

``python tests/identity.py src src`` checks that reruns in fresh processes
print the same bytes: every line must read ``identical``.
This file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile

REPORTS_PER_PROTOCOL = 300
REPLACED_PER_PROTOCOL = 100
EDGES = (0.0, math.pi / 2, math.pi / 4, 1e-9, math.pi / 2 - 1e-9)
# Full-register resource qubits and the other parameters of each protocol.
RESOURCE_QUBITS = {
    "ghz-epr": range(1, 4), "ghz-meas": range(1, 4), "epr-via-ghz": range(2, 5),
    "ghz-via-3epr": range(3, 9), "w-channel": range(1, 4),
}
OTHER_PARAMS = {
    "ghz-epr": {"bob_theta": 0.3}, "ghz-meas": {"theta_channel": 0.2, "theta_meas": 1.1},
    "epr-via-ghz": {"theta_channel": 0.4}, "ghz-via-3epr": {"theta1": 0.3, "theta3": 0.7},
    "w-channel": {"a": 0.8, "b": 0.6j, "c": 0.0},
}
CLI_FLAGS = {
    "ghz-epr": ["--bob-theta", "0.3"], "ghz-meas": ["--theta-channel", "0.2", "--theta-meas", "1.1"],
    "epr-via-ghz": ["--theta-channel", "0.4"], "ghz-via-3epr": ["--theta1", "0.3", "--theta3", "0.7"],
    "w-channel": ["--a", "2", "--b", "1j", "--c", "2"],
}


def _guarded(fn):
    """The call's result, or its exception's type and message."""
    try:
        return fn()
    except Exception as exc:  # an error is an output too
        return f"{type(exc).__name__}: {exc}"


def _angle(rng) -> float:
    return EDGES[rng.integers(len(EDGES))] if rng.random() < 0.5 else float(rng.uniform(0, math.pi / 2))


def _amps(rng, n: int) -> tuple:
    """n normalized amplitudes; for n = 2 often |0> or |1>, for n = 3 often with zeros."""
    if n == 2 and rng.random() < 0.4:
        return ((1.0, 0.0), (0.0, 1.0))[rng.integers(2)]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if n == 3:
        v[rng.random(n) < 1 / 3] = 0.0
        if not v.any():
            v[rng.integers(n)] = 1.0
    v /= math.sqrt(float((abs(v) ** 2).sum()))
    return tuple(complex(x) for x in v)


def _report_parts(report) -> tuple:
    if isinstance(report, str):
        return report, {}
    payload = report.to_dict()
    params = payload.pop("params")
    branches = [
        (b.outcome, b.probability, b.fidelity, b.correction, b.success,
         None if b.post_state is None else b.post_state.amplitudes)
        for b in report.branches
    ]
    sums = (report.avg_fidelity, report.avg_fidelity_traced, report.success_probability)
    return (payload, sums, branches), params


def _library_reports(teleport, InputQubit, protocol: str, rng):
    calls = {
        "ghz-epr": lambda c, a: teleport.teleport_ghz_epr(InputQubit(*c), a()),
        "ghz-meas": lambda c, a: teleport.teleport_ghz_measurement(InputQubit(*c), a(), a()),
        "epr-via-ghz": lambda c, a: teleport.teleport_epr_via_ghz(c, a()),
        "ghz-via-3epr": lambda c, a: teleport.teleport_ghz_via_3epr(c, (a(), a(), a())),
        "w-channel": lambda c, a: teleport.teleport_w_channel(InputQubit(*c), _amps(rng, 3)),
    }
    for _ in range(REPORTS_PER_PROTOCOL):
        c = _amps(rng, 2)
        yield _guarded(lambda: calls[protocol](c, lambda: _angle(rng)))


def _replaced_reports(teleport, protocol: str, rng):
    """Reports of ``dataclasses.replace`` copies of seeded bundles."""
    for _ in range(REPLACED_PER_PROTOCOL):
        if protocol == "w-channel":
            params = dict(zip("abc", _amps(rng, 3)))
        else:
            params = {k: _angle(rng) for k in teleport.PROTOCOLS[protocol].params}
        c = _amps(rng, 2)
        copy = lambda: dataclasses.replace(teleport.protocol_bundle(protocol, **params))
        yield _guarded(lambda: teleport.enumerate_branches(copy(), *c))


def _cli_argv(protocol: str, rng) -> list[str]:
    inputs = ("a0", "a1") if protocol in ("epr-via-ghz", "ghz-via-3epr") else ("c0", "c1")
    angles = {
        "ghz-epr": ("bob-theta",), "ghz-meas": ("theta-channel", "theta-meas"),
        "epr-via-ghz": ("theta-channel",), "ghz-via-3epr": ("theta1", "theta2", "theta3"),
        "w-channel": (),
    }[protocol]
    argv = ["teleport", "--protocol", protocol]
    argv += [f"--{k}={v!r}" for k, v in zip(inputs, _amps(rng, 2))]
    argv += [f"--{k}={_angle(rng)!r}" for k in angles]
    if protocol == "w-channel":
        argv += [f"--{k}={v!r}" for k, v in zip("abc", _amps(rng, 3))]
    return argv


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _cli_run(main, argv) -> tuple[tuple, object]:
    """(exit status, payload or stdout, stderr) and the payload's params. A
    CSV payload is a list of rows, each cell a number or a word."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        return (code, out.getvalue(), err.getvalue()), None
    if "csv" in argv:
        rows = [[_cell(x) for x in line.split(",")] for line in out.getvalue().splitlines()]
        return (code, rows, err.getvalue()), None
    payload = json.loads(out.getvalue())
    params = payload.pop("params", None)
    return (code, payload, err.getvalue()), params


def _state_files(rng) -> list[str]:
    """Three-qubit state files in the working directory: named classes,
    seeded random states, some with zero amplitudes, and malformed ones."""
    r = math.sqrt(0.5)
    named = {
        "ghz": [r, 0, 0, 0, 0, 0, 0, r], "w": [0, 3**-0.5, 3**-0.5, 0, 3**-0.5, 0, 0, 0],
        "product": [1, 0, 0, 0, 0, 0, 0, 0], "biseparable": [r, 0, 0, r, 0, 0, 0, 0],
        "seven-pairs": [1, 0, 0, 0, 0, 0, 0], "unnormalized": [1, 1, 0, 0, 0, 0, 0, 0],
    }
    for i in range(12):
        named[f"random-{i}"] = _amps(rng, 8) if i % 3 else _amps(rng, 3) + (0,) * 5
    for name, amps in named.items():
        with open(f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"amplitudes": [[complex(a).real, complex(a).imag] for a in amps]}, fh)
    return [f"{name}.json" for name in named]


def _other_commands(main, diagnostics, twirl_report, StateVector, np) -> dict:
    """The CLI commands besides teleport and noise-sweep, and the seeded
    library diagnostics and twirl reports."""
    outputs = {}
    run = lambda argv: _cli_run(main, argv)[0]
    outputs["cli-paradox"] = [run(["paradox", f"--theta={t!r}"]) for t in (*EDGES, 0.3)]
    rng = np.random.default_rng(7)
    outputs["cli-tables"] = [
        run(["tables", f"--c0={c0!r}", f"--c1={c1!r}", f"--theta={_angle(rng)!r}"])
        for c0, c1 in (_amps(rng, 2) for _ in range(12))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            outputs["cli-classify"] = [run(["classify", "--state", f]) for f in _state_files(rng)]
        finally:
            os.chdir(home)
    outputs["cli-twirl"] = [
        run(["--seed", str(seed), "twirl", "--family", family, "--d", str(d), "--samples", "300",
             "--invariant", str(invariant)])
        for seed, family, d, invariant in ((3, "werner", 2, 0.4), (4, "werner", 3, 0.9),
                                           (5, "isotropic", 2, 0.7), (6, "isotropic", 3, 0.2))
    ]
    outputs["cli-fidelity-surface/json"] = run(["fidelity-surface", "--grid", "21"])
    outputs["cli-fidelity-surface/csv"] = run(["--format", "csv", "fidelity-surface", "--grid", "21"])
    states = [StateVector(_amps(rng, 8) if i % 4 else _amps(rng, 3) + (0,) * 5) for i in range(200)]
    outputs["diagnostics"] = [
        (diag.to_dict(), diag.verdict().to_dict()) for diag in map(diagnostics, states)
    ]
    outputs["twirl-report"] = [
        _guarded(lambda: twirl_report(family, d, invariant, 200, np.random.default_rng(seed)))
        for seed, (family, d, invariant) in enumerate(
            (("werner", 2, 0.3), ("werner", 4, 0.6), ("isotropic", 2, 0.8), ("isotropic", 3, 0.1))
        )
    ]
    return outputs


def _refusals(main, run, ExperimentConfig, teleport, noise) -> dict:
    """Refused CLI requests, through ``main`` and through ``run``, library
    noise sweeps with an unknown channel kind or a grid point past 1, and
    ghz-meas copies without the correction of a live outcome through
    ``enumerate_branches`` and ``average_fidelity``."""
    outputs = {}
    for name, argv in (
        ("noise-grid-past-one", ["noise-sweep", "--protocol", "ghz-meas", "--target", "1", "--grid", "0:2:0.5"]),
        ("nan-input-amplitude", ["teleport", "--protocol", "ghz-epr", "--c0=nan"]),
        ("nan-angle", ["teleport", "--protocol", "ghz-meas", "--theta-channel=nan"]),
        ("infinite-channel-amplitude", ["teleport", "--protocol", "w-channel", "--a=inf"]),
        ("angle-past-half-pi", ["teleport", "--protocol", "ghz-meas", "--theta-channel", "2"]),
        ("paradox-angle-past-half-pi", ["paradox", "--theta", "2"]),
        ("tables-negative-angle", ["tables", "--theta=-1"]),
        ("noise-angle-past-half-pi",
         ["noise-sweep", "--protocol", "ghz-via-3epr", "--target", "4", "--theta1", "1.6"]),
    ):
        outputs[f"refusal/{name}"] = _cli_run(main, argv)[0]
    sweep = {"protocol": "ghz-meas", "target": "3"}
    with tempfile.TemporaryDirectory() as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            with open("no-amplitudes.json", "w", encoding="utf-8") as fh:
                json.dump({"amps": [[1, 0]] * 8}, fh)
            for name, command, params in (
                ("target-empty-entry", "noise-sweep", {**sweep, "target": "3,"}),
                ("grid-past-one", "noise-sweep", {**sweep, "grid": "0:2:0.5"}),
                ("state-without-amplitudes", "classify", {"state": "no-amplitudes.json"}),
                ("target-and-grid", "noise-sweep", {**sweep, "target": "3,", "grid": "0:2:1"}),
            ):
                outputs[f"refusal/run-{name}"] = _guarded(lambda: run(ExperimentConfig(command, params)))
        finally:
            os.chdir(home)
    for name, kind, grid in (("unknown-kind", "bogus", [0.1]),
                             ("point-past-one", "depolarizing", [0.1, 0.5, 1.5])):
        sweep = lambda: noise.noisy_teleport_sweep("ghz-via-3epr", kind, 3, grid)
        outputs[f"refusal/library-sweep-{name}"] = _guarded(sweep)
    bundle = teleport.protocol_bundle("ghz-meas")
    rule = bundle.protocol.corrections
    for label in ((0, 0, 0), (0, 1, 0)):
        corrections = lambda *bits: None if bits == label else rule(*bits)
        for path, call in (("enumerate", lambda b: _report_parts(teleport.enumerate_branches(b, 0.6, 0.8))[0]),
                           ("average", teleport.average_fidelity)):
            entry = dataclasses.replace(bundle.protocol, corrections=corrections)
            broken = dataclasses.replace(bundle, protocol=entry)
            outputs[f"refusal/no-correction-{''.join(map(str, label))}/{path}"] = _guarded(lambda: call(broken))
    return outputs


def worker(src: str) -> dict:
    """Every request's output on the tree at ``src``, by request name."""
    sys.path.insert(0, src)
    import numpy as np

    from tripsim import noise, teleport
    from tripsim.classify import diagnostics
    from tripsim.cli import ExperimentConfig, main, run
    from tripsim.core import InputQubit, StateVector
    from tripsim.twirl import twirl_report

    outputs = {}
    for k, protocol in enumerate(teleport.PROTOCOL_NAMES):
        rng = np.random.default_rng(1000 + k)
        parts = [_report_parts(r) for r in _library_reports(teleport, InputQubit, protocol, rng)]
        outputs[f"reports/{protocol}"] = [p[0] for p in parts]
        outputs[f"report-params/{protocol}"] = [p[1] for p in parts]
        replaced = _replaced_reports(teleport, protocol, np.random.default_rng(2000 + k))
        outputs[f"replaced-bundle/{protocol}"] = [_report_parts(r)[0] for r in replaced]
        runs = [_cli_run(main, _cli_argv(protocol, rng)) for _ in range(20)]
        outputs[f"cli-teleport/{protocol}"] = [r[0] for r in runs]
        outputs[f"cli-teleport-params/{protocol}"] = [r[1] for r in runs]
        for which, params in (("default", {}), ("other", OTHER_PARAMS[protocol])):
            bundle = teleport.protocol_bundle(protocol, **params)
            # C as W applies it.
            stack = teleport._correction_stack(bundle.protocol.fixes, bundle.protocol.n_input)
            outputs[f"factors/{protocol}/{which}"] = (teleport._branch_factors(bundle), stack)
            outputs[f"response/{protocol}/{which}"] = (
                teleport.resource_response(bundle), teleport.average_fidelity(bundle)
            )
        grid = np.linspace(0.0, 1.0, 11)
        targets = list(RESOURCE_QUBITS[protocol])
        for channel in sorted(noise.CHANNELS):
            for name, target in (("first", targets[0]), ("all", targets)):
                rows = _guarded(lambda: noise.noisy_teleport_sweep(protocol, channel, target, grid))
                outputs[f"sweep/{protocol}/{channel}/{name}"] = rows
        argv = ["noise-sweep", "--protocol", protocol, "--channel", "depolarizing",
                "--target", ",".join(map(str, targets)), "--grid", "0:1:0.1", *CLI_FLAGS[protocol]]
        outputs[f"cli-noise-sweep/{protocol}"], outputs[f"cli-noise-sweep-params/{protocol}"] = _cli_run(main, argv)
    angles = np.linspace(0.0, math.pi / 2, 16)
    outputs["surface"] = teleport.avg_fidelity_surface(angles).values
    phis = [0.0, math.pi / 12, math.pi / 4, 1.3, math.pi / 2]
    outputs["surface/non-square"] = teleport.avg_fidelity_surface([*EDGES, 0.3, 1.1], phis).values
    outputs["average-fidelity-ghz-meas"] = [
        teleport.average_fidelity_ghz_meas(t, p) for t in angles for p in angles[::5]
    ]
    outputs.update(_other_commands(main, diagnostics, twirl_report, StateVector, np))
    outputs.update(_refusals(main, run, ExperimentConfig, teleport, noise))
    return outputs


def _flatten(value, numbers: list, shape: list) -> None:
    """Split ``value`` into its floats, appended to ``numbers``, and the rest
    of it, appended to ``shape``."""
    import numpy as np

    if isinstance(value, np.ndarray):
        shape.append(("array", value.dtype.str, value.shape))
        numbers.extend(value.view(float).ravel().tolist() if value.dtype.kind == "c" else value.ravel().tolist())
    elif isinstance(value, (float, np.floating)):
        shape.append("float")
        numbers.append(float(value))
    elif isinstance(value, complex):
        shape.append("complex")
        numbers.extend((value.real, value.imag))
    elif isinstance(value, dict):
        shape.append(("dict", tuple(value)))
        for item in value.values():
            _flatten(item, numbers, shape)
    elif isinstance(value, (list, tuple)):
        shape.append((type(value).__name__, len(value)))
        for item in value:
            _flatten(item, numbers, shape)
    else:
        shape.append(value)


def distance(before, after) -> str:
    """``identical``, ``differs``, or the largest absolute difference."""
    import numpy as np

    parts = []
    for value in (before, after):
        numbers, shape = [], []
        _flatten(value, numbers, shape)
        parts.append((np.array(numbers, dtype=float), shape))
    (a, shape_a), (b, shape_b) = parts
    if shape_a != shape_b:
        return "differs"
    if a.tobytes() == b.tobytes():
        return "identical"
    both_nan = np.isnan(a) & np.isnan(b)
    with np.errstate(invalid="ignore"):
        gap = np.where(both_nan | (a == b), 0.0, np.abs(a - b))
    return f"max |diff| {gap.max():.2g}"


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        sys.stdout.buffer.write(pickle.dumps(worker(sys.argv[2])))
        return 0
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    outputs = []
    for src in sys.argv[1:]:
        run = subprocess.run(
            [sys.executable, __file__, "--worker", os.path.abspath(src)], env=env, capture_output=True
        )
        if run.returncode != 0:
            sys.stderr.write(run.stderr.decode())
            return run.returncode
        outputs.append(pickle.loads(run.stdout))
    before, after = outputs
    for name in dict.fromkeys([*before, *after]):
        if name not in before or name not in after:
            print(f"{name} only in {'CHILD' if name in after else 'PARENT'}")
        else:
            print(f"{name} {distance(before[name], after[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
