"""Command-line front end: experiment registry, deterministic seeding,
JSON/CSV emission, and numeric reproduction of the correction tables.

Each flag is declared once; ``run`` resolves a whole ``ExperimentConfig``
through the declarations before any command runs. Each command builds only
its own fields; ``run`` puts the envelope, ``"schema": "tripsim/1"`` and
``"command"`` naming the subcommand that ran, in front of them and checks
the command's schema before anything is written.

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
import numbers
import os
import reprlib
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bases, noise, nonlocality, teleport, twirl
from .classify import diagnostics
from .core import InvariantViolation, StateVector, clamp_unit

SCHEMA_TAG = "tripsim/1"

# Largest sizes a request may ask for, checked before anything is
# allocated; a larger request exits 2. Each is well above every size the
# README, the tests and the benchmark use.
MAX_SURFACE_GRID = 201  # fidelity-surface --grid: 201 x 201 angle pairs
MAX_SWEEP_POINTS = 1001  # noise-sweep --grid points, e.g. 0:1:0.001
MAX_TWIRL_SAMPLES = 20_000  # twirl --samples, ten times the default
MAX_TWIRL_D = 8  # twirl --d: 64 x 64 two-qudit operators

_UNIT = {"type": "number", "minimum": 0.0, "maximum": 1.0}
_SIGNED_UNIT = {"type": "number", "minimum": -1.0, "maximum": 1.0}

# Each command's own fields; ``run`` adds the envelope keys ``schema`` and ``command``.
_SCHEMAS = {
    "paradox": {
        "required": ["xyy", "yxy", "yyx", "xxx", "contradiction"],
        "properties": {
            "xyy": _SIGNED_UNIT,
            "yxy": _SIGNED_UNIT,
            "yyx": _SIGNED_UNIT,
            "xxx": _SIGNED_UNIT,
            "contradiction": {"type": "boolean"},
        },
    },
    "teleport": {
        "required": ["protocol", "params", "branches", "avg_fidelity", "success_probability"],
        "properties": {
            "avg_fidelity": _UNIT,
            "success_probability": _UNIT,
            "branches": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["label", "p", "correction", "fidelity"],
                    "properties": {
                        "p": _UNIT,
                        "fidelity": {**_UNIT, "type": ["number", "null"]},
                    },
                },
            },
        },
    },
    "fidelity-surface": {
        "required": ["theta_grid", "phi_grid", "values"],
        "properties": {
            "values": {"type": "array", "items": {"type": "array", "items": _UNIT}},
        },
    },
    "twirl": {
        "required": ["family", "d", "invariant", "trace_distance_history"],
        "properties": {"invariant": _UNIT},
    },
    "classify": {"required": ["tag", "partition", "borderline", "diagnostics"]},
    "noise-sweep": {
        "required": ["protocol", "params", "channel", "target", "rows"],
        "properties": {
            "rows": {"type": "array", "items": {"type": "array", "items": _UNIT}},
        },
    },
    "tables": {
        "required": [
            "theta", "input", "pair_states", "receiver_states", "corrections",
            "corrected_states", "fidelities",
        ],
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: _is_number(v) and math.isfinite(v),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}
_KEYWORDS = {"type", "required", "properties", "items", "minimum", "maximum"}


def _check(value, schema: dict, where: str = "$") -> None:
    """Check a payload against one of the schemas above.

    Interprets exactly the six keywords those schemas use: ``type``,
    ``required``, ``properties``, ``items``, ``minimum`` and ``maximum``.
    ``type`` is one type name or a list of them, any of which may match. A
    schema with any other keyword or type name raises, so no rule is
    skipped silently. A ``number`` is a finite int or float, never
    a bool; ``minimum`` and ``maximum`` apply to numbers only. Payloads are
    built by the library from range-checked inputs, so a mismatch is an
    ``InvariantViolation("payload-schema")``.
    """
    fail = lambda why: InvariantViolation("payload-schema", f"{where}: {why}")
    types = schema.get("type", ())
    types = (types,) if isinstance(types, str) else types
    unknown = sorted(schema.keys() - _KEYWORDS) + [f"type {t!r}" for t in types if t not in _TYPES]
    if unknown:
        raise fail(f"unknown schema keywords {unknown}")
    if types and not any(_TYPES[t](value) for t in types):
        raise fail(f"{reprlib.repr(value)} is not of type {' or '.join(types)}")
    if _is_number(value):
        if "minimum" in schema and not value >= schema["minimum"]:
            raise fail(f"{value!r} is below {schema['minimum']!r}")
        if "maximum" in schema and not value <= schema["maximum"]:
            raise fail(f"{value!r} is above {schema['maximum']!r}")
    if isinstance(value, dict):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            raise fail(f"missing required keys {missing}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{where}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{i}]")


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
    peak = np.abs(vec.view(float)).max()
    if peak == 0.0:
        raise ValueError(f"{what} amplitudes must not all vanish")
    if not 1e-100 <= peak <= 1e100:
        # Rescale first so that the norm neither overflows nor underflows.
        vec = (vec.view(float) / peak).view(complex)
    return tuple(vec / np.linalg.norm(vec))


# --- command payloads ----------------------------------------------------

# Each command's help line and flags, declared once next to the command. A flag
# is the keywords of ``add_argument`` plus ``limits``, an inclusive range, and
# ``parse``, which turns the checked value into what the command takes. From
# them ``_build_parser`` builds the subparsers and ``run`` resolves the params,
# so a call from Python is refused where the command line is, with its defaults.
_COMMANDS: dict = {}
_FLAGS: dict = {}


def _command(name: str, summary: str, **flags):
    def register(fn):
        _COMMANDS[name], _FLAGS[name] = fn, (summary, flags)
        return fn
    return register


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# --protocol and the parameters of the protocol table, each read as the
# type of its default: angles are floats in bases.ANGLE_LIMITS, channel
# amplitudes complex. teleport and noise-sweep hand them to protocol_bundle,
# which applies the defaults and refuses the parameters of other protocols.
_ANGLE = dict(type=float, limits=bases.ANGLE_LIMITS)
_TABLE_FLAG = {float: _ANGLE, complex: dict(type=complex, help="channel amplitude (normalized with the others)")}
_PROTOCOL_FLAGS = dict(
    protocol=dict(required=True, choices=teleport.PROTOCOL_NAMES),
    **{k: _TABLE_FLAG[type(v)] for p in teleport.PROTOCOLS.values() for k, v in p.params.items()},
)

# The seed, out and fmt of ExperimentConfig: flags given before or after the command.
_GLOBAL_FLAGS = dict(
    seed=dict(type=int, default=0, help="RNG seed (TRIPSIM_SEED overrides)"),
    out=dict(type=os.fspath, default=None, help="output path (default: stdout)"),
    format=dict(choices=("json", "csv"), default="json"),
)


@_command("paradox", "three-party local-realism paradox report", theta=dict(_ANGLE, default=math.pi / 4))
def _cmd_paradox(params: dict, seed: int) -> dict:
    report = nonlocality.ghz_paradox(bases.ghz_basis(params["theta"], (0, 0, 0)))
    return {"theta": params["theta"], **report.to_dict()}


def _input_pair(params: dict, keys=("c0", "c1")) -> tuple[complex, complex]:
    """Pop the input amplitude pair from ``params`` and normalize it."""
    amps = (params.pop(k, 1 / math.sqrt(2)) for k in keys)
    return teleport.coerce_pair(_normalized_tuple(amps, "input"))


def _normalize_channel(protocol: teleport.Protocol, params: dict) -> None:
    """Normalize the protocol's complex parameters, its channel amplitudes,
    in ``params`` as one vector; a missing one takes its default."""
    amps = {k: params.pop(k, v) for k, v in protocol.params.items() if isinstance(v, complex)}
    if amps:
        params.update(zip(amps, _normalized_tuple(amps.values(), "channel")))


@_command(
    "teleport", "run one protocol, emit the branch report",
    **_PROTOCOL_FLAGS,
    c0=dict(type=complex, help="input amplitude (normalized with --c1)"),
    c1=dict(type=complex),
    a0=dict(type=complex, help="pair/triple input amplitude"),
    a1=dict(type=complex),
)
def _cmd_teleport(params: dict, seed: int) -> dict:
    # A multi-qubit input takes --a0/--a1. What is left goes to
    # protocol_bundle, which refuses the parameters that do not belong.
    name = params.pop("protocol")
    protocol = teleport.PROTOCOLS[name]
    c0, c1 = _input_pair(params, ("a0", "a1") if protocol.n_input > 1 else ("c0", "c1"))
    _normalize_channel(protocol, params)
    report = teleport.enumerate_branches(teleport.protocol_bundle(name, **params), c0, c1)
    return report.to_dict()


@_command("fidelity-surface", "input-averaged fidelity grid",
          grid=dict(type=int, default=21, limits=(2, MAX_SURFACE_GRID)))
def _cmd_fidelity_surface(params: dict, seed: int) -> dict:
    grid = np.linspace(0.0, math.pi / 2, params["grid"])
    surface = teleport.avg_fidelity_surface(grid)
    return {
        "theta_grid": surface.theta_grid.tolist(),
        "phi_grid": surface.phi_grid.tolist(),
        "values": surface.values.tolist(),
    }


@_command(
    "twirl", "Monte-Carlo twirl against the analytic family",
    family=dict(choices=tuple(twirl.FAMILIES), default="werner"),
    d=dict(type=int, default=2, limits=(2, MAX_TWIRL_D)),
    invariant=dict(type=float, default=0.5, limits=(0, 1)),
    samples=dict(type=int, default=2000, limits=(1, MAX_TWIRL_SAMPLES)),
)
def _cmd_twirl(params: dict, seed: int) -> dict:
    return twirl.twirl_report(**params, rng=np.random.default_rng(seed))


def _load_state(path: str) -> StateVector:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: {exc}") from exc
    if isinstance(payload, dict) and "amplitudes" not in payload:
        raise ValueError(f"{path}: a state object needs an 'amplitudes' key")
    amps = payload["amplitudes"] if isinstance(payload, dict) else payload
    try:
        values = [complex(re, im) for re, im in amps]
        if not all(_is_number(x) for pair in amps for x in pair):
            raise TypeError("an amplitude component is not a number")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: amplitudes must be a list of [re, im] pairs") from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{path}: amplitudes must be finite") from exc
    if len(values) != 8:
        raise ValueError(f"{path}: a three-qubit state has 8 amplitude pairs, got {len(values)}")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: amplitudes must be finite")
    return StateVector(values)


@_command("classify", "classify a three-qubit pure state",
          state=dict(required=True, parse=_load_state, help="JSON file with [re,im] amplitude pairs"))
def _cmd_classify(params: dict, seed: int) -> dict:
    diag = diagnostics(params["state"])
    return {**diag.verdict().to_dict(), "diagnostics": diag.to_dict()}


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"--grid must be start:stop:step, got {text!r}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"--grid values must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"--grid step must be positive, got {text!r}")
    if not stop >= start:
        raise ValueError(f"--grid {text} has no points; stop must not lie below start")
    # The points start + i*step that do not pass stop. A billionth of a step
    # of slack keeps the division's rounding from dropping the last point,
    # and a point past stop by that slack alone is emitted as stop.
    span = (stop - start) / step + 1e-9
    if span >= MAX_SWEEP_POINTS:
        raise ValueError(f"--grid {text} has {span + 1:.3g} points, more than the {MAX_SWEEP_POINTS} allowed")
    return np.minimum(start + step * np.arange(math.floor(span) + 1), stop)


def _parse_targets(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"--target must list qubit indices INDEX[,INDEX...], got {text!r}") from None


def _sweep_grid(text: str) -> np.ndarray:
    grid = _parse_grid(text)
    if not 0 <= grid[0] <= grid[-1] <= 1:
        raise ValueError(f"--grid points must lie in [0, 1], got {grid[0]} to {grid[-1]}")
    return grid


@_command(
    "noise-sweep", "fidelity versus channel parameter",
    **_PROTOCOL_FLAGS,
    channel=dict(choices=sorted(noise.CHANNELS), default="bitflip"),
    target=dict(required=True, parse=_parse_targets, help="resource qubit index (comma list allowed)"),
    grid=dict(default="0:1:0.05", parse=_sweep_grid, help="start:stop:step"),
)
def _cmd_noise_sweep(params: dict, seed: int) -> dict:
    # Every flag but these four is a protocol parameter; protocol_bundle checks it.
    protocol, channel, target, grid = map(params.pop, ("protocol", "channel", "target", "grid"))
    _normalize_channel(teleport.PROTOCOLS[protocol], params)
    rows = noise.noisy_teleport_sweep(protocol, channel, target, grid, params=params)
    resolved = teleport.protocol_bundle(protocol, **params).params
    return {
        "protocol": protocol,
        "params": {k: teleport._jsonable(v) for k, v in resolved.items()},
        "channel": channel,
        "target": target,
        "rows": [[p, clamp_unit(f, "noise-sweep fidelity")] for p, f in rows],
    }


@_command(
    "tables", "numeric branch tables for the Bell+rotated-basis protocol",
    c0=dict(type=complex), c1=dict(type=complex), theta=dict(_ANGLE, default=math.pi / 4),
)
def _cmd_tables(params: dict, seed: int) -> dict:
    """Branch tables of the Bell-plus-rotated-basis protocol (ghz-epr) for a
    supplied input and receiver angle. Labels, corrections, probabilities p_l and fidelities
    are the branch report's, so p < 1e-14 gives fidelity ``None`` as in ``teleport``.

    The states are read off the Kraus stack K_l and the correction stack C: corrected states K_l c,
    receiver states C_l† K_l c and, for Bell outcome (m, n), the pair state sum_j |x_j> ⊗ C_l† K_l c
    by completeness of the receiver basis x; each is scaled by 1/sqrt(p_mn = sum_j p_(m,n,j)).
    """
    c = np.array(_input_pair(params))
    bundle = teleport.protocol_bundle("ghz-epr", bob_theta=params["theta"])
    report = teleport.enumerate_branches(bundle, *c)
    fixed = bundle.protocol.kraus(bundle.coords) @ c
    corrections = teleport._correction_stack(bundle.protocol.fixes, bundle.protocol.n_input)
    chi = np.stack([matrix.conj().T @ row for matrix, row in zip(corrections, fixed)])
    # Outcomes run in (m, n, j) order, so p_mn sums consecutive pairs of outcomes.
    p_mn = np.array([branch.probability for branch in report.branches]).reshape(4, 2).sum(axis=1)
    scale = 1 / np.sqrt(p_mn.repeat(2))[:, None]
    fixed, chi = fixed * scale, chi * scale
    x_pair = [x.amplitudes for x in bases.bob_x_basis(params["theta"])]
    tables = {k: {} for k in ("pair_states", "receiver_states", "corrections", "corrected_states", "fidelities")}
    for l, branch in enumerate(report.branches):
        m, n, j = branch.outcome
        key = f"{m}{n}{j}"
        if j == 0:
            eta = np.kron(x_pair[0], chi[l]) + np.kron(x_pair[1], chi[l + 1])
            tables["pair_states"][f"{m}{n}"] = _cvec(eta)
        tables["receiver_states"][key] = _cvec(chi[l])
        tables["corrections"][key] = branch.correction
        tables["corrected_states"][key] = _cvec(fixed[l])
        tables["fidelities"][key] = branch.fidelity
    return {"theta": params["theta"], "input": _cvec(c), **tables}


# --- emission ------------------------------------------------------------

def _fmt17(x: float) -> str:
    return f"{float(x):.17g}"


# The CSV rows, header first, of each command that has a CSV form. run
# refuses a CSV request for any other command before that command runs.
_CSV_ROWS = {
    "fidelity-surface": lambda payload: [["theta", "phi", "avg_fidelity"]] + [
        [_fmt17(th), _fmt17(ph), _fmt17(v)]
        for th, row in zip(payload["theta_grid"], payload["values"]) for ph, v in zip(payload["phi_grid"], row)],
    "noise-sweep": lambda payload: [[noise.CHANNELS[payload["channel"]][0], "avg_fidelity"]] + [
        [_fmt17(p), _fmt17(f)] for p, f in payload["rows"]],
    "teleport": lambda payload: [["label", "p", "correction", "fidelity", "success"]] + [
        ["".join(map(str, b["label"])), _fmt17(b["p"]), b["correction"],
         "" if b["fidelity"] is None else _fmt17(b["fidelity"]), b["success"]] for b in payload["branches"]],
    "twirl": lambda payload: [["samples", "trace_distance"]] + [
        [n, _fmt17(dist)] for n, dist in payload["trace_distance_history"]],
}


# What a value of each flag type may be, as the parser reads them: an int is no float,
# a number no string, a bool no number, and a path (--out) a str or an os.PathLike.
_KINDS = {int: numbers.Integral, float: numbers.Real, complex: numbers.Complex, str: str, os.fspath: (str, os.PathLike)}


def _resolve(command: str, flags: dict, params: dict) -> dict:
    """A fresh dict of ``params`` checked against ``flags``, those of
    ``command``; each missing optional flag takes its declared default."""
    missing = [_flag(k) for k, spec in flags.items() if spec.get("required") and k not in params]
    if missing:
        raise ValueError(f"{command} requires {', '.join(missing)}")
    resolved = {k: spec["default"] for k, spec in flags.items() if "default" in spec}
    for key, value in params.items():
        spec, flag = flags.get(key), _flag(key)
        if spec is None:
            raise ValueError(f"{command} has no flag {flag}")
        kind = spec.get("type", str)
        if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
            raise ValueError(f"{flag} must be of type {kind.__name__}, got {value!r}")
        try:
            value = resolved[key] = kind(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{flag} must be finite, got {reprlib.repr(value)}") from None
        if "choices" in spec and value not in spec["choices"]:
            raise ValueError(f"{flag} must be one of {', '.join(spec['choices'])}, got {value!r}")
        if "limits" in spec and not spec["limits"][0] <= value <= spec["limits"][1]:
            raise ValueError("{} must lie in [{}, {}], got {}".format(flag, *spec["limits"], value))
        if kind in (float, complex) and not np.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    # After every check, in declaration order: of two bad flags the first declared is refused.
    for key, spec in flags.items():
        if "parse" in spec:
            resolved[key] = spec["parse"](resolved[key])
    return resolved


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    if config.command not in _COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    # An unset field (None) takes its flag's default, as on the command line.
    fields = {"seed": config.seed, "out": config.out, "format": config.fmt}
    options = _resolve(config.command, _GLOBAL_FLAGS, {k: v for k, v in fields.items() if v is not None})
    env = os.environ.get("TRIPSIM_SEED")
    source, given = ("--seed", options["seed"]) if env is None else ("TRIPSIM_SEED", env)
    try:
        seed = int(given)
    except ValueError:
        raise ValueError(f"TRIPSIM_SEED must be an integer, got {given!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {given!r}")
    out = options["out"]
    # open() would refuse a directory or a missing parent too, but only after the command has run.
    if out is not None and (not out or os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ValueError(f"--out must name a file in an existing directory, got {out!r}")
    if options["format"] == "csv" and config.command not in _CSV_ROWS:
        raise ValueError(f"command {config.command!r} has no CSV form; use json")
    body = _COMMANDS[config.command](_resolve(config.command, _FLAGS[config.command][1], config.params), seed)
    if body.keys() & {"schema", "command"}:
        raise InvariantViolation("payload-schema", "$: a command body must not set schema or command")
    payload = {"schema": SCHEMA_TAG, "command": config.command, **body}
    _check(payload, _SCHEMAS[config.command])
    if options["format"] == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_CSV_ROWS[config.command](payload))
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --- argument parsing ----------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: a prefix such as --b must not
    # silently stand for --bob-theta.
    parser = argparse.ArgumentParser(
        prog="tripsim",
        allow_abbrev=False,
        description="Tripartite-entanglement experiments: bases, twirls, "
        "paradox reports, teleportation protocols, noise sweeps.",
    )
    # The global flags are accepted after the subcommand too; SUPPRESS keeps
    # the subparser from clobbering values given before it.
    common = argparse.ArgumentParser(add_help=False)
    for key, spec in _GLOBAL_FLAGS.items():
        parser.add_argument(_flag(key), **spec)
        common.add_argument(_flag(key), **{**spec, "default": argparse.SUPPRESS})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags) in _FLAGS.items():
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, help=summary)
        for key, spec in flags.items():
            # Each flag's help line states its default and its range.
            notes = [spec.get("help"), "default: %(default)s" if "default" in spec else None]
            notes.append("from {} to {}".format(*spec["limits"]) if "limits" in spec else None)
            keywords = {k: v for k, v in spec.items() if k not in ("limits", "parse")}
            p.add_argument(_flag(key), **{**keywords, "help": "; ".join(filter(None, notes))})
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    params = {k: v for k, v in vars(args).items() if k in _FLAGS[args.command][1] and v is not None}
    return ExperimentConfig(args.command, params, args.seed, out=args.out, fmt=args.format)


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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
