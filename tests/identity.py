"""Output digests of one tripsim source tree, for comparing two trees.

    python tests/identity.py SRC > digests.txt

SRC is the ``src`` directory of the tree to hash. The requests run in a
fresh interpreter with ``OPENBLAS_NUM_THREADS=1``, and each prints one line
``name sha256``; ``diff`` two such files to see which outputs a change
moved. A report's ``params`` are hashed apart from the rest of it
(``*-params/...``), so a renamed parameter shows up on its own line.

The requests: seeded reports of all five protocols through the library
and through ``tripsim teleport``, with edge angles, the inputs |0> and |1>
and w-channel amplitudes with zeros mixed in; the branch factors, the
resource response W and ``average_fidelity`` at default and other
parameters; a fidelity surface; and noise sweeps of every protocol and
channel. This file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

REPORTS_PER_PROTOCOL = 300
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


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


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


def _report_parts(report) -> tuple[tuple, dict]:
    if isinstance(report, str):
        return (report,), {}
    payload = report.to_dict()
    params = payload.pop("params")
    branches = [
        (b.outcome, repr(b.probability), repr(b.fidelity), b.correction, b.success,
         None if b.post_state is None else b.post_state.amplitudes.tobytes())
        for b in report.branches
    ]
    sums = (report.avg_fidelity, report.avg_fidelity_traced, report.success_probability)
    return (json.dumps(payload), repr(sums), branches), params


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


def _cli_run(main, argv) -> tuple[tuple, object]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        return (code, out.getvalue(), err.getvalue()), None
    payload = json.loads(out.getvalue())
    params = payload.pop("params")
    return (code, json.dumps(payload), err.getvalue()), params


def worker(src: str) -> None:
    sys.path.insert(0, src)
    import numpy as np

    from tripsim import noise, teleport
    from tripsim.cli import main
    from tripsim.core import InputQubit

    lines = []
    emit = lambda name, *parts: lines.append(f"{name} {_digest(*parts)}")
    for k, protocol in enumerate(teleport.PROTOCOL_NAMES):
        rng = np.random.default_rng(1000 + k)
        parts = [_report_parts(r) for r in _library_reports(teleport, InputQubit, protocol, rng)]
        emit(f"reports/{protocol}", [p[0] for p in parts])
        emit(f"report-params/{protocol}", json.dumps([p[1] for p in parts], default=repr))
        runs = [_cli_run(main, _cli_argv(protocol, rng)) for _ in range(20)]
        emit(f"cli-teleport/{protocol}", [r[0] for r in runs])
        emit(f"cli-teleport-params/{protocol}", json.dumps([r[1] for r in runs]))
        for which, params in (("default", {}), ("other", OTHER_PARAMS[protocol])):
            bundle = teleport.protocol_bundle(protocol, **params)
            factor, order, corrections = teleport._branch_factors(bundle)
            emit(f"factors/{protocol}/{which}", factor.tobytes(), order, corrections.tobytes())
            emit(f"response/{protocol}/{which}", teleport.resource_response(bundle).tobytes(),
                 repr(teleport.average_fidelity(bundle)))
        grid = np.linspace(0.0, 1.0, 11)
        targets = list(RESOURCE_QUBITS[protocol])
        for channel in sorted(noise.CHANNELS):
            for name, target in (("first", targets[0]), ("all", targets)):
                rows = _guarded(lambda: noise.noisy_teleport_sweep(protocol, channel, target, grid))
                emit(f"sweep/{protocol}/{channel}/{name}", rows)
    angles = np.linspace(0.0, math.pi / 2, 16)
    emit("surface", teleport.avg_fidelity_surface(angles).values.tobytes())
    emit("average-fidelity-ghz-meas",
         [repr(teleport.average_fidelity_ghz_meas(t, p)) for t in angles for p in angles[::5]])
    print("\n".join(lines))


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        worker(sys.argv[2])
        return 0
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    src = os.path.abspath(sys.argv[1])
    return subprocess.run([sys.executable, __file__, "--worker", src], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
