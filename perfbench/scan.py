"""The library-scan workload: warm calls into tripsim's library API.

Usage:
  python3 scan.py --seed N --setup
      import tripsim.cli and make the first call of each teleport protocol,
      which runs the cached correction searches; then exit.
  python3 scan.py --seed N --seconds S --trace 0|1 --result FILE
      after that set-up, repeat the seeded pass of calls until S seconds
      have passed and write latencies, failures and spans to FILE.

One client calls one function at a time (a closed loop).  Inputs are built
before the clock starts, so a latency is the call alone.  With --trace 1,
untraced and traced passes alternate, so that the tracing overhead is the
ratio of their medians.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

import workloads
from tracer import Tracer

FUNCS = {
    "ghz-epr": ("tripsim.teleport", "teleport_ghz_epr"),
    "ghz-meas": ("tripsim.teleport", "teleport_ghz_measurement"),
    "epr-via-ghz": ("tripsim.teleport", "teleport_epr_via_ghz"),
    "ghz-via-3epr": ("tripsim.teleport", "teleport_ghz_via_3epr"),
    "w-channel": ("tripsim.teleport", "teleport_w_channel"),
    "classify": ("tripsim.classify", "classify"),
    "diagnostics": ("tripsim.classify", "diagnostics"),
    "paradox": ("tripsim.nonlocality", "ghz_paradox"),
    "apply-channel": ("tripsim.noise", "apply_channel"),
    "twirl": ("tripsim.twirl", "twirl_report"),
}
MAX_FAILURES_KEPT = 20


def _call(kind: str, args: tuple):
    module, name = FUNCS[kind]
    # Looked up per call so that the tracer's wrappers are the ones called.
    return getattr(sys.modules[module], name)(*args)


class Call:
    """One planned call: its arguments, built ahead, and its check."""

    def __init__(self, kind: str, params: dict):
        from tripsim.core import DensityOp, InputQubit, StateVector
        from tripsim.noise import make_channel

        self.kind, self.params = kind, params
        self.args_factory = None
        if kind in workloads.PROTOCOL_BRANCHES:
            pair = params["input"]
            inp = InputQubit(*pair) if kind in ("ghz-epr", "ghz-meas", "w-channel") else pair
            rest = {
                "ghz-epr": (params.get("bob_theta"),),
                "ghz-meas": (params.get("theta_channel"), params.get("theta_meas")),
                "epr-via-ghz": (params.get("theta_channel"),),
                "ghz-via-3epr": (params.get("thetas"),),
                "w-channel": (params.get("w"),),
            }[kind]
            self.args = (inp, *rest)
        elif kind in ("classify", "diagnostics", "apply-channel"):
            state = params if kind != "apply-channel" else params["state"]
            amps, self.partition, self.purities, self.tangle = workloads.class_state(
                state["class"], state["seed"]
            )
            self.cls = state["class"]
            if kind == "apply-channel":
                self.rho = np.outer(amps, amps.conj())
                channel = make_channel(params["channel"], params["p"])
                self.args = (DensityOp(self.rho), channel, params["target"])
            else:
                self.args = (StateVector(amps),)
        elif kind == "paradox":
            amps = np.zeros(8, dtype=complex)
            amps[0], amps[7] = math.cos(params["theta"]), math.sin(params["theta"])
            self.args = (StateVector(amps),)
        elif kind == "twirl":
            p = params
            self.args_factory = lambda: (
                p["family"], p["d"], p["invariant"], p["samples"], np.random.default_rng(p["seed"])
            )
        else:
            raise ValueError(f"unknown call kind {kind!r}")

    def make_args(self) -> tuple:
        return self.args_factory() if self.args_factory else self.args

    def check(self, result) -> str | None:
        kind, p = self.kind, self.params
        if kind in workloads.PROTOCOL_BRANCHES:
            if len(result.branches) != workloads.PROTOCOL_BRANCHES[kind]:
                return f"{len(result.branches)} branches"
            if abs(result.total_probability - 1.0) > workloads.ATOL:
                return f"branch probabilities sum to {result.total_probability!r}"
            if abs(result.avg_fidelity - result.avg_fidelity_traced) > 1e-12:
                return "the two fidelity accountings differ by more than 1e-12"
            if kind == "w-channel":
                w = p["w"]
                expected = 1 - abs(w[2]) ** 2 / sum(abs(x) ** 2 for x in w)
                if abs(result.success_probability - expected) > workloads.ATOL:
                    return f"success probability {result.success_probability!r} != {expected!r}"
            return None
        if kind == "classify":
            got = (result.tag, result.partition)
            return None if got == (self.cls, self.partition) else f"classified {got}, built {self.cls}"
        if kind == "diagnostics":
            if not np.allclose(result.single_qubit_purities, self.purities, atol=workloads.ATOL, rtol=0):
                return f"purities {result.single_qubit_purities} != {self.purities}"
            if abs(result.three_tangle - self.tangle) > workloads.ATOL:
                return f"3-tangle {result.three_tangle!r} != {self.tangle!r}"
            return None
        if kind == "paradox":
            got = result.to_dict()
            for k, v in workloads.paradox_reference(p["theta"]).items():
                if (got[k] != v) if k == "contradiction" else abs(got[k] - v) > workloads.ATOL:
                    return f"paradox {k} = {got[k]!r}, expected {v!r}"
            return None
        if kind == "apply-channel":
            ref = workloads.channel_reference(self.rho, p["channel"], p["p"], p["target"])
            err = float(np.max(np.abs(result.matrix - ref)))
            return None if err <= 1e-12 else f"channel output off the reference by {err:.3g}"
        return workloads.check_twirl(result, p["family"], p["d"], p["invariant"], p["samples"])


def first_calls(plan: list[tuple[str, dict]]) -> None:
    """The first call of each protocol in this process, with the first inputs."""
    seen = set()
    for kind, params in plan:
        if kind in workloads.PROTOCOL_BRANCHES and kind not in seen:
            seen.add(kind)
            _call(kind, Call(kind, params).make_args())


def run(seed: int, seconds: float, trace: bool) -> dict:
    import tripsim.cli  # noqa: F401  (set-up pays for the same import as the CLI)

    plan = workloads.library_scan_plan(seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.recording = False  # first calls count only as first calls
        tracer.install()
    first_calls(plan)
    if tracer:
        tracer.fold()
        tracer.uninstall()
        tracer.recording = True
    calls = [Call(kind, params) for kind, params in plan]

    clock = time.perf_counter
    deadline = clock() + seconds
    latencies, passes, failures = [], [], []
    attempted = failed = 0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        for call in calls:
            args = call.make_args()
            t0 = clock()
            root = tracer.open_root("harness.op", t0) if traced else None
            try:
                result, error = _call(call.kind, args), None
            except Exception as exc:  # a failed call is counted, not fatal
                result, error = None, f"raised {exc!r}"
            t1 = clock()
            if traced:
                tracer.close_root(root, t1)
                tracer.fold()
            wall += t1 - t0
            attempted += 1
            if not traced:
                latencies.append(1e3 * (t1 - t0))
            if error is None:
                error = call.check(result)
            if error is not None:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append(f"{call.kind} {call.params}: {error}")
        if traced:
            tracer.uninstall()
        passes.append([traced, 1e3 * wall])
        if clock() >= deadline and (tracer is None or len(passes) >= 2):
            break
    return {
        "latencies_ms": latencies,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "ops_per_pass": len(calls),
        "snapshot": tracer.snapshot() if tracer else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.setup:
        import tripsim.cli  # noqa: F401

        first_calls(workloads.library_scan_plan(args.seed))
        return 0
    if not args.result:
        parser.error("--result is required unless --setup is given")
    result = run(args.seed, args.seconds, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
