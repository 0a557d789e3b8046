"""Seeded inputs for the four workloads and the reference checks on outputs.

Everything here is generated from the workload seed alone; the program
under test sees only the resulting command lines, files and values.  The
reference checks use closed forms and invariants that do not depend on how
tripsim computes them, so they keep holding when sampled averages become
exact or a search becomes a derivation.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
from dataclasses import dataclass

import numpy as np

PROTOCOL_BRANCHES = {
    "ghz-epr": 8,
    "ghz-meas": 8,
    "epr-via-ghz": 8,
    "ghz-via-3epr": 64,
    "w-channel": 8,
}
PARTITIONS = ("A|BC", "B|AC", "C|AB")
STATE_CLASSES = ("fully-separable", "biseparable", "genuine-w", "genuine-ghz")

# The CLI averages noise-sweep rows over this many sampled inputs unless told
# otherwise; the depolarizing tolerance is this estimator's standard error.
SWEEP_INPUT_SAMPLES = 64
SWEEP_Z = 5.0
NOISE_SWEEP_GRID = "0:1:0.5"
SURFACE_GRID = 41
CLI_SURFACE_GRID = 11
CLI_TWIRL_SAMPLES = 500
SURFACE_TOL = 1e-6
ATOL = 1e-9

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Op:
    """One cold ``tripsim`` invocation and what its output must satisfy.

    ``expect[0]`` names the check; ``"error"`` means the request is
    malformed and must end with exit status 2 and an ``error:`` line.
    """

    label: str
    argv: tuple
    expect: tuple
    files: tuple = ()  # (name, text) pairs written to the working directory first


# --- seeded values ----------------------------------------------------------

def _angle(rng: random.Random, lo: float = 0.15, hi: float = math.pi / 2 - 0.15) -> float:
    return rng.uniform(lo, hi)


def _amp_pair(rng: random.Random) -> tuple[complex, complex]:
    t = rng.uniform(0.1, math.pi / 2 - 0.1)
    return (
        cmath.rect(math.cos(t), rng.uniform(0, 2 * math.pi)),
        cmath.rect(math.sin(t), rng.uniform(0, 2 * math.pi)),
    )


def _w_amps(rng: random.Random) -> tuple[complex, complex, complex]:
    mags = [rng.uniform(0.3, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(m * m for m in mags))
    return tuple(cmath.rect(m / norm, rng.uniform(0, 2 * math.pi)) for m in mags)


def twirl_invariant(family: str, d: int, rng: random.Random) -> float:
    """Werner weight p in [0, 1]; isotropic fidelity f in [1/d^2, 1]."""
    lo = 0.05 if family == "werner" else 1 / d**2 + 0.05
    return rng.uniform(lo, 0.95)


def _flag(name: str, value) -> str:
    # The "=" form keeps argparse from reading a negative value as a flag.
    return f"--{name}={value!r}"


def _haar(nrng: np.random.Generator) -> np.ndarray:
    z = nrng.standard_normal((2, 2)) + 1j * nrng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _local(nrng: np.random.Generator, amps: np.ndarray) -> np.ndarray:
    u = np.kron(_haar(nrng), np.kron(_haar(nrng), _haar(nrng)))
    return u @ amps


def class_state(kind: str, seed: int) -> tuple[np.ndarray, str | None, tuple, float]:
    """A three-qubit state of the given class under random local unitaries.

    Returns (amplitudes, partition, single-qubit purities, 3-tangle), the
    last three from closed forms of the canonical representative, which
    local unitaries leave unchanged.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    if kind == "fully-separable":
        amps = _local(nrng, np.eye(8, dtype=complex)[0])
        return amps, None, (1.0, 1.0, 1.0), 0.0
    if kind == "biseparable":
        k = rng.randrange(3)
        t = rng.uniform(0.3, math.pi / 4)
        pair = np.array([math.cos(t), 0, 0, math.sin(t)], dtype=complex)
        tensor = np.kron(np.array([1, 0], dtype=complex), pair).reshape(2, 2, 2)
        axes = [(0, 1, 2), (1, 0, 2), (1, 2, 0)][k]  # move the lone qubit to k
        amps = _local(nrng, np.transpose(tensor, axes).reshape(8))
        mixed = math.cos(t) ** 4 + math.sin(t) ** 4
        purities = tuple(1.0 if q == k else mixed for q in range(3))
        return amps, PARTITIONS[k], purities, 0.0
    if kind == "genuine-w":
        a, b, c = (abs(x) for x in _w_amps(rng))
        amps = np.zeros(8, dtype=complex)
        amps[0b100], amps[0b010], amps[0b001] = a, b, c
        purity = lambda x: (1 - x * x) ** 2 + x**4
        return _local(nrng, amps), None, (purity(a), purity(b), purity(c)), 0.0
    if kind == "genuine-ghz":
        t = rng.uniform(0.3, math.pi / 4)
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[7] = math.cos(t), math.sin(t)
        mixed = math.cos(t) ** 4 + math.sin(t) ** 4
        return _local(nrng, amps), None, (mixed,) * 3, math.sin(2 * t) ** 2
    raise ValueError(kind)


def _state_file(amps: np.ndarray) -> str:
    return json.dumps({"amplitudes": [[float(a.real), float(a.imag)] for a in amps]})


# --- cold workloads ---------------------------------------------------------

def _teleport_argv(protocol: str, rng: random.Random) -> tuple[tuple, tuple | None]:
    argv = ["teleport", "--protocol", protocol]
    w = None
    if protocol in ("ghz-epr", "ghz-meas", "w-channel"):
        c0, c1 = _amp_pair(rng)
        argv += [_flag("c0", c0), _flag("c1", c1)]
    else:
        a0, a1 = _amp_pair(rng)
        argv += [_flag("a0", a0), _flag("a1", a1)]
    if protocol == "ghz-epr":
        argv.append(_flag("bob-theta", _angle(rng)))
    elif protocol == "ghz-meas":
        argv += [_flag("theta-channel", _angle(rng)), _flag("theta-meas", _angle(rng))]
    elif protocol == "epr-via-ghz":
        argv.append(_flag("theta-channel", _angle(rng)))
    elif protocol == "ghz-via-3epr":
        argv += [_flag(f"theta{i}", _angle(rng)) for i in (1, 2, 3)]
    else:
        w = _w_amps(rng)
        argv += [_flag(k, v) for k, v in zip("abc", w)]
    return tuple(argv), w


def cli_mix_ops(seed: int) -> list[Op]:
    """Every subcommand once, plus three malformed requests."""
    rng = random.Random(f"cli-mix/{seed}")
    ops = []
    theta = _angle(rng)
    ops.append(Op("paradox", ("paradox", _flag("theta", theta)), ("paradox", theta)))
    for protocol in PROTOCOL_BRANCHES:
        argv, w = _teleport_argv(protocol, rng)
        ops.append(Op(f"teleport-{protocol}", argv, ("teleport", protocol, w)))
    c0, c1 = _amp_pair(rng)
    ops.append(Op("tables", ("tables", _flag("c0", c0), _flag("c1", c1)), ("tables",)))
    for i, kind in enumerate(STATE_CLASSES):
        amps, partition, _, _ = class_state(kind, rng.randrange(2**32))
        name = f"state-{i}.json"
        ops.append(
            Op(f"classify-{kind}", ("classify", "--state", name), ("classify", kind, partition),
               files=((name, _state_file(amps)),))
        )
    # The qudit dimension sets the cost of a twirl, so it is fixed per family
    # and the seed draws only the values.
    for family, d in (("werner", 2), ("isotropic", 3)):
        inv = round(twirl_invariant(family, d, rng), 6)
        ops.append(
            Op(f"twirl-{family}",
               ("twirl", "--family", family, "--d", str(d), _flag("invariant", inv),
                "--samples", str(CLI_TWIRL_SAMPLES), "--seed", str(rng.randrange(2**31))),
               ("twirl", family, d, inv, CLI_TWIRL_SAMPLES))
        )
    # ghz-epr laws that hold for every input: depolarizing noise on the
    # sender's or the receiver's GHZ qubit reaches the output as a uniform
    # Pauli mix, so F = 1 - p/2; a bit flip on the qubit read out in the X
    # basis changes nothing.
    channel, target, slope = rng.choice((("depolarizing", 1, 0.5), ("depolarizing", 3, 0.5), ("bitflip", 2, 0.0)))
    ops.append(
        Op("noise-sweep-4q",
           ("noise-sweep", "--protocol", "ghz-epr", "--channel", channel, "--target", str(target),
            "--grid", "0:1:0.25", "--seed", str(rng.randrange(2**31))),
           ("sweep", "linear", slope, 5))
    )
    ops.append(
        Op("fidelity-surface-csv",
           ("fidelity-surface", "--grid", str(CLI_SURFACE_GRID), "--format", "csv"),
           ("surface-csv", CLI_SURFACE_GRID))
    )
    # Malformed requests; each must be refused with exit status 2.
    c1 = _amp_pair(rng)[1]
    ops.append(
        Op("error-nan-amplitude",
           ("teleport", "--protocol", rng.choice(("ghz-epr", "ghz-meas", "w-channel")), "--c0=nan", _flag("c1", c1)),
           ("error",))
    )
    flat = [round(rng.uniform(-1, 1), 6) for _ in range(16)]
    ops.append(
        Op("error-flat-state-file", ("classify", "--state", "flat.json"), ("error",),
           files=(("flat.json", json.dumps({"amplitudes": flat})),))
    )
    q = rng.choice((1, 2, 3))
    ops.append(
        Op("error-duplicate-target",
           ("noise-sweep", "--protocol", "ghz-epr", "--target", f"{q},{q}", "--grid", "0:1:0.5"),
           ("error",))
    )
    return ops


def noise_sweep_ops(seed: int) -> list[Op]:
    rng = random.Random(f"noise-sweep/{seed}")
    channel = rng.choice(("bitflip", "depolarizing"))
    target = rng.randrange(3, 9)  # the six resource qubits of ghz-via-3epr
    argv = ("noise-sweep", "--protocol", "ghz-via-3epr", "--channel", channel,
            "--target", str(target), "--grid", NOISE_SWEEP_GRID, "--seed", str(rng.randrange(2**31)))
    law = "linear" if channel == "bitflip" else "depolarizing-ghz"
    return [Op(f"noise-sweep-{channel}-q{target}", argv, ("sweep", law, 1.0, 3))]


def surface_ops(seed: int) -> list[Op]:
    argv = ("fidelity-surface", "--grid", str(SURFACE_GRID), "--seed", str(seed))
    return [Op("fidelity-surface", argv, ("surface-json", SURFACE_GRID))]


COLD_WORKLOADS = {"cli-mix": cli_mix_ops, "noise-sweep": noise_sweep_ops, "surface": surface_ops}


# --- reference checks -------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _close(a: float, b: float, tol: float = ATOL) -> bool:
    return abs(a - b) <= tol


def paradox_reference(theta: float) -> dict:
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = math.cos(theta), math.sin(theta)
    ev = lambda s: float(np.vdot(psi, np.kron(PAULI[s[0]], np.kron(PAULI[s[1]], PAULI[s[2]])) @ psi).real)
    ref = {k: ev(k.upper()) for k in ("xyy", "yxy", "yyx", "xxx")}
    product = ref["xyy"] * ref["yxy"] * ref["yyx"]
    ref["contradiction"] = abs(product + 1) < 1e-9 and abs(ref["xxx"] - 1) < 1e-9
    return ref


def check_teleport_payload(payload: dict, protocol: str, w) -> str | None:
    branches = payload["branches"]
    if payload["protocol"] != protocol or len(branches) != PROTOCOL_BRANCHES[protocol]:
        return f"wrong protocol or branch count {len(branches)}"
    total = sum(b["p"] for b in branches)
    if not _close(total, 1.0):
        return f"branch probabilities sum to {total!r}"
    weighted = sum(b["p"] * b["fidelity"] for b in branches if b["fidelity"] is not None)
    if not _close(weighted, payload["avg_fidelity"]):
        return f"avg_fidelity {payload['avg_fidelity']!r} != sum p*F {weighted!r}"
    success = sum(b["p"] for b in branches if b["success"])
    if not _close(success, payload["success_probability"]):
        return "success_probability differs from the success branches"
    if w is not None:
        expected = 1 - abs(w[2]) ** 2 / sum(abs(x) ** 2 for x in w)
        if not _close(success, expected):
            return f"w-channel success {success!r} != 1-|c|^2 = {expected!r}"
    return None


def _sweep_tolerance(law: str, p: float) -> float:
    if law == "linear":
        return ATOL
    # Pauli noise on one resource qubit of ghz-via-3epr reaches one output
    # qubit as a Pauli error, so for input a0|000>+a1|111> with u = |a0|^2
    # uniform, F(u) = 1 - 3p/4 + (p/4)(2u-1)^2: mean 1 - 2p/3, standard
    # deviation p/(2 sqrt 45).  An exact average has zero error.
    sigma = p / (2 * math.sqrt(45))
    return SWEEP_Z * sigma / math.sqrt(SWEEP_INPUT_SAMPLES) + ATOL


def check_sweep(payload: dict, law: str, slope: float, points: int) -> str | None:
    rows = payload["rows"]
    grid = np.linspace(0.0, 1.0, points)
    if len(rows) != points or not all(_close(r[0], g) for r, g in zip(rows, grid)):
        return f"unexpected grid {[r[0] for r in rows]}"
    for p, f in rows:
        expected = 1 - slope * p if law == "linear" else 1 - 2 * p / 3
        if abs(f - expected) > _sweep_tolerance(law, p):
            return f"F({p}) = {f!r}, expected {expected!r}"
    return None


def check_surface(thetas, phis, values, n: int) -> str | None:
    grid = np.linspace(0.0, math.pi / 2, n)
    if len(thetas) != n or len(phis) != n or not np.allclose(thetas, grid, atol=1e-12, rtol=0) \
            or not np.allclose(phis, grid, atol=1e-12, rtol=0):
        return "unexpected angle grid"
    ref = 2 / 3 + np.outer(np.sin(2 * grid), np.sin(2 * grid)) / 3
    err = float(np.max(np.abs(np.asarray(values, dtype=float) - ref)))
    return None if err <= SURFACE_TOL else f"surface off the closed form by {err:.3g}"


def check_output(op: Op, rc, stdout: str, stderr: str) -> str | None:
    """None when the invocation behaved as expected, else why it did not."""
    kind = op.expect[0]
    if "Traceback" in stderr:
        return f"traceback on stderr (exit {rc})"
    if kind == "error":
        if rc != 2 or not any(line.startswith("error:") for line in stderr.splitlines()):
            return f"exit {rc} without an error: line; a malformed request must exit 2"
        return None
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[-200:]}"
    try:
        if kind == "surface-csv":
            rows = list(csv.reader(io.StringIO(stdout)))
            if rows[0] != ["theta", "phi", "avg_fidelity"]:
                return "bad CSV header"
            body = np.array([[float(x) for x in r] for r in rows[1:]])
            n = op.expect[1]
            if body.shape != (n * n, 3) or not np.all(np.isfinite(body)):
                return f"bad CSV shape {body.shape}"
            return check_surface(body[::n, 0], body[:n, 1], body[:, 2].reshape(n, n), n)
        payload = strict_json(stdout)
        if payload.get("schema") != "tripsim/1":
            return "missing schema tag"
        if kind == "paradox":
            ref = paradox_reference(op.expect[1])
            for k, v in ref.items():
                if (payload[k] != v) if k == "contradiction" else not _close(payload[k], v):
                    return f"paradox {k} = {payload[k]!r}, expected {v!r}"
            return None
        if kind == "teleport":
            return check_teleport_payload(payload, *op.expect[1:])
        if kind == "tables":
            fids = payload["fidelities"]
            if len(fids) != 8 or not all(f is not None and _close(f, 1.0) for f in fids.values()):
                return f"table fidelities {fids}"
            return None
        if kind == "classify":
            got = (payload["tag"], payload["partition"])
            return None if got == op.expect[1:] else f"classified {got}, built {op.expect[1:]}"
        if kind == "twirl":
            return check_twirl(payload, *op.expect[1:])
        if kind == "sweep":
            return check_sweep(payload, *op.expect[1:])
        if kind == "surface-json":
            return check_surface(payload["theta_grid"], payload["phi_grid"], payload["values"], op.expect[1])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    raise ValueError(f"unknown check {kind!r}")


def check_twirl(report: dict, family: str, d: int, invariant: float, samples: int) -> str | None:
    if (report["family"], report["d"], report["invariant"]) != (family, d, invariant):
        return "twirl report echoes other parameters"
    history = report["trace_distance_history"]
    checkpoints = sorted({max(1, samples * k // 10) for k in range(1, 11)})
    if [n for n, _ in history] != checkpoints:
        return "unexpected twirl checkpoints"
    if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for _, x in history):
        return "trace distance outside [0, 1]"
    return None


# --- warm library scan ------------------------------------------------------

SCAN_INPUTS = 12
SCAN_TWIRL_SAMPLES = 40
KRAUS_KINDS = ("bitflip", "phaseflip", "depolarizing", "amplitude-damping")


def library_scan_plan(seed: int) -> list[tuple[str, dict]]:
    """(kind, parameters) of every call in one pass of the library scan.

    The seed draws amplitudes, angles, states and targets; what sets the cost
    of a call (state class, channel kind, twirl family and dimension) cycles
    with the input index, so that every seed asks for the same work.
    """
    plan = []
    for i in range(SCAN_INPUTS):
        rng = random.Random(f"library-scan/{seed}/{i}")
        c0, c1 = _amp_pair(rng)
        a0, a1 = _amp_pair(rng)
        plan += [
            ("ghz-epr", {"input": (c0, c1), "bob_theta": _angle(rng)}),
            ("ghz-meas", {"input": (c0, c1), "theta_channel": _angle(rng), "theta_meas": _angle(rng)}),
            ("epr-via-ghz", {"input": (a0, a1), "theta_channel": _angle(rng)}),
            ("ghz-via-3epr", {"input": (a0, a1), "thetas": tuple(_angle(rng) for _ in range(3))}),
            ("w-channel", {"input": (c0, c1), "w": _w_amps(rng)}),
        ]
        kind = STATE_CLASSES[i % len(STATE_CLASSES)]
        state = {"class": kind, "seed": rng.randrange(2**32)}
        plan += [("classify", state), ("diagnostics", state), ("paradox", {"theta": _angle(rng)})]
        plan.append(("apply-channel", {
            "state": state, "channel": KRAUS_KINDS[i % len(KRAUS_KINDS)],
            "p": rng.uniform(0.0, 1.0), "target": rng.randrange(3),
        }))
        family, d = (("werner", 2), ("isotropic", 3), ("werner", 3), ("isotropic", 2))[i % 4]
        plan.append(("twirl", {
            "family": family, "d": d, "invariant": twirl_invariant(family, d, rng),
            "samples": SCAN_TWIRL_SAMPLES, "seed": rng.randrange(2**31),
        }))
    return plan


def kraus_reference(kind: str, p: float) -> list[np.ndarray]:
    """Textbook Kraus operators of the single-qubit channels."""
    if kind == "bitflip":
        return [math.sqrt(1 - p) * PAULI["I"], math.sqrt(p) * PAULI["X"]]
    if kind == "phaseflip":
        return [math.sqrt(1 - p) * PAULI["I"], math.sqrt(p) * PAULI["Z"]]
    if kind == "depolarizing":
        return [math.sqrt(1 - 3 * p / 4) * PAULI["I"]] + [math.sqrt(p / 4) * PAULI[s] for s in "XYZ"]
    return [np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex),
            np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)]


def channel_reference(rho: np.ndarray, kind: str, p: float, target: int) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in kraus_reference(kind, p):
        factors = [k if q == target else PAULI["I"] for q in range(3)]
        full = np.kron(factors[0], np.kron(factors[1], factors[2]))
        out += full @ rho @ full.conj().T
    return out


def plan_signature(workload: str, seed: int):
    """The generated inputs of a workload, as comparable data."""
    if workload == "library-scan":
        return library_scan_plan(seed)
    return COLD_WORKLOADS[workload](seed)
