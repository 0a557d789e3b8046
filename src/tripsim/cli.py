"""Command-line front end: experiment registry, deterministic seeding,
JSON/CSV emission, and numeric reproduction of the correction tables.

Exit codes: 0 on success, 1 when a library invariant is violated (the
violated invariant is named on stderr), 2 on configuration errors.
Reruns with the same configuration and seed are byte-identical; the
environment variable ``TRIPSIM_SEED`` overrides any configured seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import bases, noise, nonlocality, teleport
from .classify import classify as classify_state, diagnostics
from .core import InputQubit, InvariantViolation, StateVector, partial_inner, project, tensor
from .twirl import twirl_report

SCHEMA_TAG = "tripsim/1"

_UNIT = {"type": "number", "minimum": 0.0, "maximum": 1.0}
_SIGNED_UNIT = {"type": "number", "minimum": -1.0, "maximum": 1.0}

_SCHEMAS = {
    "paradox": {
        "type": "object",
        "required": ["schema", "command", "xyy", "yxy", "yyx", "xxx", "contradiction"],
        "properties": {
            "schema": {"const": SCHEMA_TAG},
            "xyy": _SIGNED_UNIT,
            "yxy": _SIGNED_UNIT,
            "yyx": _SIGNED_UNIT,
            "xxx": _SIGNED_UNIT,
            "contradiction": {"type": "boolean"},
        },
    },
    "teleport": {
        "type": "object",
        "required": ["schema", "protocol", "params", "branches", "avg_fidelity", "success_probability"],
        "properties": {
            "schema": {"const": SCHEMA_TAG},
            "avg_fidelity": _UNIT,
            "success_probability": _UNIT,
            "branches": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["label", "p", "correction", "fidelity"],
                    "properties": {
                        "p": _UNIT,
                        "fidelity": {"oneOf": [_UNIT, {"type": "null"}]},
                    },
                },
            },
        },
    },
    "fidelity-surface": {
        "type": "object",
        "required": ["schema", "command", "theta_grid", "phi_grid", "values"],
        "properties": {
            "schema": {"const": SCHEMA_TAG},
            "values": {"type": "array", "items": {"type": "array", "items": _UNIT}},
        },
    },
    "twirl": {
        "type": "object",
        "required": ["schema", "command", "family", "d", "invariant", "trace_distance_history"],
        "properties": {
            "schema": {"const": SCHEMA_TAG},
            "invariant": _UNIT,
        },
    },
    "classify": {
        "type": "object",
        "required": ["schema", "command", "tag", "partition", "borderline", "diagnostics"],
        "properties": {"schema": {"const": SCHEMA_TAG}},
    },
    "noise-sweep": {
        "type": "object",
        "required": ["schema", "command", "protocol", "channel", "target", "rows"],
        "properties": {
            "schema": {"const": SCHEMA_TAG},
            "rows": {
                "type": "array",
                "items": {"type": "array", "prefixItems": [_UNIT, _UNIT]},
            },
        },
    },
    "tables": {
        "type": "object",
        "required": ["schema", "command", "theta", "input", "pair_states", "receiver_states", "corrections", "corrected_states", "fidelities"],
        "properties": {"schema": {"const": SCHEMA_TAG}},
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    fmt: str = "json"


def _cvec(values) -> list[list[float]]:
    return [[complex(v).real, complex(v).imag] for v in values]


def _normalized_tuple(values, what: str) -> tuple[complex, ...]:
    vec = np.array([complex(v) for v in values])
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} amplitudes must be finite")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError(f"{what} amplitudes must not all vanish")
    return tuple(vec / norm)


# --- command payloads ----------------------------------------------------

def _cmd_paradox(params: dict, rng) -> dict:
    theta = float(params.get("theta", math.pi / 4))
    report = nonlocality.ghz_paradox(bases.ghz_basis(theta, (0, 0, 0)))
    return {"schema": SCHEMA_TAG, "command": "paradox", "theta": theta, **report.to_dict()}


_TELEPORT_KEYS = {
    "ghz-epr": {"protocol", "c0", "c1", "bob_theta"},
    "ghz-meas": {"protocol", "c0", "c1", "theta_channel", "theta_meas"},
    "w-channel": {"protocol", "c0", "c1", "a", "b", "c"},
    "epr-via-ghz": {"protocol", "a0", "a1", "theta_channel"},
    "ghz-via-3epr": {"protocol", "a0", "a1", "theta1", "theta2", "theta3"},
}


def _cmd_teleport(params: dict, rng) -> dict:
    protocol = params.get("protocol")
    if protocol not in teleport.PROTOCOL_NAMES:
        raise ValueError(f"--protocol must be one of {teleport.PROTOCOL_NAMES}")
    stray = set(params) - _TELEPORT_KEYS[protocol]
    if stray:
        raise ValueError(f"flags {sorted(stray)} do not apply to {protocol}")
    if protocol in ("ghz-epr", "ghz-meas", "w-channel"):
        c0, c1 = _normalized_tuple(
            (params.get("c0", 1 / math.sqrt(2)), params.get("c1", 1 / math.sqrt(2))),
            "input",
        )
        iq = InputQubit(c0, c1)
        if protocol == "ghz-epr":
            report = teleport.teleport_ghz_epr(iq, float(params.get("bob_theta", math.pi / 4)))
        elif protocol == "ghz-meas":
            report = teleport.teleport_ghz_measurement(
                iq,
                float(params.get("theta_channel", math.pi / 4)),
                float(params.get("theta_meas", math.pi / 4)),
            )
        else:
            channel_amps = _normalized_tuple(
                (
                    params.get("a", 1 / math.sqrt(3)),
                    params.get("b", 1 / math.sqrt(3)),
                    params.get("c", 1 / math.sqrt(3)),
                ),
                "channel",
            )
            report = teleport.teleport_w_channel(iq, channel_amps)
    else:
        a0, a1 = _normalized_tuple(
            (params.get("a0", 1 / math.sqrt(2)), params.get("a1", 1 / math.sqrt(2))),
            "input",
        )
        if protocol == "epr-via-ghz":
            report = teleport.teleport_epr_via_ghz(
                (a0, a1), float(params.get("theta_channel", math.pi / 4))
            )
        else:
            thetas = tuple(
                float(params.get(k, math.pi / 4)) for k in ("theta1", "theta2", "theta3")
            )
            report = teleport.teleport_ghz_via_3epr((a0, a1), thetas)
    return {"schema": SCHEMA_TAG, **report.to_dict()}


def _cmd_fidelity_surface(params: dict, rng) -> dict:
    n = int(params.get("grid", 21))
    if n < 2:
        raise ValueError(f"--grid must be >= 2, got {n}")
    grid = np.linspace(0.0, math.pi / 2, n)
    surface = teleport.avg_fidelity_surface(grid)
    return {
        "schema": SCHEMA_TAG,
        "command": "fidelity-surface",
        "theta_grid": [float(t) for t in surface.theta_grid],
        "phi_grid": [float(t) for t in surface.phi_grid],
        "values": [[float(v) for v in row] for row in surface.values],
    }


def _cmd_twirl(params: dict, rng) -> dict:
    report = twirl_report(
        family=params.get("family", "werner"),
        d=int(params.get("d", 2)),
        invariant=float(params.get("invariant", 0.5)),
        samples=int(params.get("samples", 2000)),
        rng=rng,
    )
    return {
        "schema": SCHEMA_TAG,
        "command": "twirl",
        "family": report["family"],
        "d": report["d"],
        "invariant": report["invariant"],
        "trace_distance_history": [[n, dist] for n, dist in report["trace_distance_history"]],
    }


def _load_state(path: str) -> StateVector:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    amps = payload["amplitudes"] if isinstance(payload, dict) else payload
    try:
        values = [complex(re, im) for re, im in amps]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: amplitudes must be a list of [re, im] pairs") from exc
    return StateVector(values)


def _cmd_classify(params: dict, rng) -> dict:
    path = params.get("state")
    if not path:
        raise ValueError("classify requires --state FILE")
    state = _load_state(path)
    verdict = classify_state(state)
    diag = diagnostics(state)
    return {
        "schema": SCHEMA_TAG,
        "command": "classify",
        "tag": verdict.tag,
        "partition": verdict.partition,
        "borderline": verdict.borderline,
        "diagnostics": diag.to_dict(),
    }


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"--grid must be start:stop:step, got {text!r}") from exc
    if step <= 0:
        raise ValueError("grid step must be positive")
    return np.arange(start, stop + step / 2, step)


def _cmd_noise_sweep(params: dict, rng) -> dict:
    protocol = params.get("protocol")
    if protocol not in teleport.PROTOCOL_NAMES:
        raise ValueError(f"--protocol must be one of {teleport.PROTOCOL_NAMES}")
    target = [int(t) for t in str(params.get("target", "")).split(",") if t != ""]
    if not target:
        raise ValueError("noise-sweep requires --target INDEX[,INDEX...]")
    grid = _parse_grid(params.get("grid", "0:1:0.05"))
    passthrough = {
        k: float(params[k])
        for k in ("bob_theta", "theta_channel", "theta_meas", "theta1", "theta2", "theta3")
        if k in params
    }
    rows = noise.noisy_teleport_sweep(
        protocol,
        params.get("channel", "bitflip"),
        target if len(target) > 1 else target[0],
        grid,
        params=passthrough or None,
    )
    return {
        "schema": SCHEMA_TAG,
        "command": "noise-sweep",
        "protocol": protocol,
        "channel": params.get("channel", "bitflip"),
        "target": target,
        "rows": [[p, min(max(f, 0.0), 1.0)] for p, f in rows],
    }


def _cmd_tables(params: dict, rng) -> dict:
    """Re-derive the branch tables of the Bell-plus-rotated-basis protocol
    for a supplied input and receiver angle, as numeric fixtures."""
    c0, c1 = _normalized_tuple(
        (params.get("c0", 1 / math.sqrt(2)), params.get("c1", 1 / math.sqrt(2))), "input"
    )
    theta = float(params.get("theta", math.pi / 4))
    iq = InputQubit(c0, c1)
    psi = tensor(iq.state(), bases.ghz_basis(math.pi / 4, (0, 0, 0)))
    x_pair = bases.bob_x_basis(theta)
    pair_states: dict[str, list] = {}
    receiver_states: dict[str, list] = {}
    corrected: dict[str, list] = {}
    fidelities: dict[str, float] = {}
    for m in (0, 1):
        for n in (0, 1):
            _, eta = project(psi, bases.bell2(math.pi / 4, (m, n)), (0, 1))
            pair_states[f"{m}{n}"] = _cvec(eta.amplitudes)
            for j in (0, 1):
                chi = partial_inner(eta, x_pair[j], (0,))
                key = f"{m}{n}{j}"
                receiver_states[key] = _cvec(chi.amplitudes)
                desc = teleport.GHZ_EPR_CORRECTIONS[(m, n, j)]
                fixed = teleport._compose(desc) @ chi.amplitudes
                corrected[key] = _cvec(fixed)
                norm2 = float(np.vdot(fixed, fixed).real)
                fidelities[key] = (
                    min(max(abs(np.vdot(iq.state().amplitudes, fixed)) ** 2 / norm2, 0.0), 1.0)
                    if norm2 > 1e-14
                    else None
                )
    return {
        "schema": SCHEMA_TAG,
        "command": "tables",
        "theta": theta,
        "input": _cvec([c0, c1]),
        "pair_states": pair_states,
        "receiver_states": receiver_states,
        "corrections": {
            f"{m}{n}{j}": teleport.GHZ_EPR_CORRECTIONS[(m, n, j)]
            for m in (0, 1)
            for n in (0, 1)
            for j in (0, 1)
        },
        "corrected_states": corrected,
        "fidelities": fidelities,
    }


_COMMANDS = {
    "paradox": _cmd_paradox,
    "teleport": _cmd_teleport,
    "fidelity-surface": _cmd_fidelity_surface,
    "twirl": _cmd_twirl,
    "classify": _cmd_classify,
    "noise-sweep": _cmd_noise_sweep,
    "tables": _cmd_tables,
}


# --- emission ------------------------------------------------------------

def _fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def _to_csv(command: str, payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "fidelity-surface":
        writer.writerow(["theta", "phi", "avg_fidelity"])
        for i, th in enumerate(payload["theta_grid"]):
            for j, ph in enumerate(payload["phi_grid"]):
                writer.writerow([_fmt17(th), _fmt17(ph), _fmt17(payload["values"][i][j])])
    elif command == "noise-sweep":
        writer.writerow(["p", "avg_fidelity"])
        for p, f in payload["rows"]:
            writer.writerow([_fmt17(p), _fmt17(f)])
    elif command == "teleport":
        writer.writerow(["label", "p", "correction", "fidelity", "success"])
        for b in payload["branches"]:
            writer.writerow(
                [
                    "".join(str(x) for x in b["label"]),
                    _fmt17(b["p"]),
                    b["correction"],
                    "" if b["fidelity"] is None else _fmt17(b["fidelity"]),
                    b["success"],
                ]
            )
    elif command == "twirl":
        writer.writerow(["samples", "trace_distance"])
        for n, dist in payload["trace_distance_history"]:
            writer.writerow([n, _fmt17(dist)])
    else:
        raise ValueError(f"command {command!r} has no CSV form; use json")
    return buf.getvalue()


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    if config.fmt not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {config.fmt!r}")
    rng = np.random.default_rng(config.seed)
    payload = _COMMANDS[config.command](config.params, rng)
    jsonschema.validate(payload, _SCHEMAS[config.command])
    if config.fmt == "csv":
        text = _to_csv(config.command, payload)
    else:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --- argument parsing ----------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripsim",
        description="Tripartite-entanglement experiments: bases, twirls, "
        "paradox reports, teleportation protocols, noise sweeps.",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (TRIPSIM_SEED overrides)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paradox", parents=[common], help="three-party local-realism paradox report")
    p.add_argument("--theta", type=float, default=math.pi / 4)

    p = sub.add_parser("teleport", parents=[common], help="run one protocol, emit the branch report")
    p.add_argument("--protocol", required=True, choices=teleport.PROTOCOL_NAMES)
    p.add_argument("--c0", type=complex, help="input amplitude (normalized with --c1)")
    p.add_argument("--c1", type=complex)
    p.add_argument("--a0", type=complex, help="pair/triple input amplitude")
    p.add_argument("--a1", type=complex)
    p.add_argument("--a", type=complex, help="single-excitation channel amplitudes")
    p.add_argument("--b", type=complex)
    p.add_argument("--c", type=complex)
    p.add_argument("--bob-theta", dest="bob_theta", type=float)
    p.add_argument("--theta-channel", dest="theta_channel", type=float)
    p.add_argument("--theta-meas", dest="theta_meas", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--theta3", type=float)

    p = sub.add_parser("fidelity-surface", parents=[common], help="input-averaged fidelity grid")
    p.add_argument("--grid", type=int, default=21)

    p = sub.add_parser("twirl", parents=[common], help="Monte-Carlo twirl against the analytic family")
    p.add_argument("--family", choices=("werner", "isotropic"), default="werner")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--invariant", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=2000)

    p = sub.add_parser("classify", parents=[common], help="classify a three-qubit pure state")
    p.add_argument("--state", required=True, help="JSON file with [re,im] amplitude pairs")

    p = sub.add_parser("noise-sweep", parents=[common], help="fidelity versus channel parameter")
    p.add_argument("--protocol", required=True, choices=teleport.PROTOCOL_NAMES)
    p.add_argument("--channel", choices=sorted(noise.CHANNELS), default="bitflip")
    p.add_argument("--target", required=True, help="resource qubit index (comma list allowed)")
    p.add_argument("--grid", default="0:1:0.05", help="start:stop:step")
    p.add_argument("--bob-theta", dest="bob_theta", type=float)
    p.add_argument("--theta-channel", dest="theta_channel", type=float)
    p.add_argument("--theta-meas", dest="theta_meas", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--theta3", type=float)

    p = sub.add_parser("tables", parents=[common], help="numeric branch tables for the Bell+rotated-basis protocol")
    p.add_argument("--c0", type=complex)
    p.add_argument("--c1", type=complex)
    p.add_argument("--theta", type=float, default=math.pi / 4)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    reserved = {"command", "seed", "out", "format"}
    params = {
        k: v for k, v in vars(args).items() if k not in reserved and v is not None
    }
    seed = int(os.environ.get("TRIPSIM_SEED", args.seed))
    return ExperimentConfig(
        command=args.command, params=params, seed=seed, out=args.out, fmt=args.format
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(config_from_args(args))
    except InvariantViolation as exc:
        print(f"invariant violated [{exc.invariant}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, jsonschema.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
