"""tripsim benchmark: four workloads, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

    cli-mix       cold ``tripsim`` processes covering every subcommand, with
                  three malformed requests that must be refused
    noise-sweep   cold 9-qubit ``noise-sweep --protocol ghz-via-3epr``
    surface       cold ``fidelity-surface --grid 41`` emitted as JSON
    library-scan  warm calls into the library API from one process

The package is run from the checkout's own ``src/``; nothing is installed.
A cold operation is one fresh interpreter running the console script's
entry point.  One client runs one operation at a time (a closed loop), and
the fixed operation list generated from the seed is repeated until S
seconds have passed.  Every output is checked against a reference.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from runs under the span recorder (tracer.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary.
``correct`` is false when a well-formed request produced a wrong or missing
result; a malformed request that is not refused counts in ``failed``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

import workloads
from tracer import Aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6
# A library-scan run is this many worker processes, each measuring for an
# equal share of the run less the time a worker takes to start.
SCAN_SLICES = 3
SCAN_WORKER_START_S = 1.5
RUN_BUDGET_S = 170.0  # every run must end well within three minutes
# The highest percentile with at least ten samples beyond it at the run
# length in BENCHMARK.json.  The cold single-command workloads run too few
# operations for any percentile above the median to qualify, so their tail
# is reported at the median.
TAIL_PERCENTILE = {"cli-mix": 80, "noise-sweep": 50, "surface": 50, "library-scan": 99}
WORKLOADS = tuple(TAIL_PERCENTILE)


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TRIPSIM_SEED", None)  # it would override the generated --seed
    return env


def provenance(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def blas_threads():
    """OpenBLAS's thread count as numpy loaded it, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timed_process(argv, env, cwd, stdout, stderr, timeout):
    """Run a process to completion; (exit status or None on timeout, seconds).

    The wait blocks in waitpid: ``Popen.wait(timeout=...)`` polls with
    sleeps of up to 50 ms, which would quantize every latency.  A timer
    kills the process instead if it outlives the timeout.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
        killer.join()
    dt = time.perf_counter() - t0
    return (None if rc == -signal.SIGKILL and dt >= timeout else rc), dt


def measure_setup(argv, env, cwd, budget_end, repeats) -> list[float]:
    """Seconds for a fresh interpreter to get ready, once per repeat."""
    times = []
    for _ in range(repeats):
        rc, dt = timed_process(argv, env, cwd, subprocess.DEVNULL, subprocess.DEVNULL,
                               budget_end - time.perf_counter())
        if rc != 0:
            raise BenchError(f"set-up command {argv[1:]} exited with {rc}")
        times.append(dt)
    return times


class Run:
    """What one run observed."""

    def __init__(self):
        self.latencies_ms: list[float] = []  # untraced operations
        self.ops_per_pass = 0
        self.passes: list[tuple[bool, float]] = []  # (traced, wall seconds)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures of well-formed requests
        self.failures: Counter[str] = Counter()
        self.trace = Aggregate()
        self.out_bytes = 0

    def record(self, label: str, error: str | None, malformed: bool) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.wrong += not malformed
            self.failures[f"{label}: {error}"] += 1

    def walls(self, traced: bool) -> list[float]:
        return [w for t, w in self.passes if t == traced]


def write_inputs(ops, work: Path) -> None:
    for op in ops:
        for name, text in op.files:
            (work / name).write_text(text, encoding="utf-8")


def cold_pass(ops, traced, run, work, env, budget_end) -> None:
    """Run the operation list once, one fresh process per operation."""
    entry = [sys.executable, "-c", "import sys; from tripsim.cli import main; sys.exit(main())"]
    out_path, err_path, trace_path = work / "stdout", work / "stderr", work / "trace.json"
    run.ops_per_pass = len(ops)
    wall = 0.0
    for op in ops:
        if traced:
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "launch.py"), str(trace_path), "--", *op.argv]
        else:
            argv = [*entry, *op.argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            rc, dt = timed_process(argv, env, work, out, err, budget_end - time.perf_counter())
        if rc is None:
            raise BenchError(f"{op.label} did not finish within the run's time budget")
        wall += dt
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        run.record(op.label, workloads.check_output(op, rc, stdout, stderr), op.expect[0] == "error")
        if traced:
            run.out_bytes += out_path.stat().st_size
            if trace_path.exists():
                run.trace.add(json.loads(trace_path.read_text(encoding="utf-8")))
        else:
            run.latencies_ms.append(1e3 * dt)
    run.passes.append((traced, wall))


def scan_slice(seed, seconds, trace, run, work, env, budget_end) -> None:
    """One library-scan worker process, repeating its pass for ``seconds``."""
    result_path = work / "scan.json"
    argv = [sys.executable, str(HERE / "scan.py"), "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--result", str(result_path)]
    rc, _ = timed_process(argv, env, work, subprocess.DEVNULL, None, budget_end - time.perf_counter())
    if rc != 0:
        raise BenchError(f"library-scan worker exited with {rc}")
    data = json.loads(result_path.read_text(encoding="utf-8"))
    run.latencies_ms += data["latencies_ms"]
    run.ops_per_pass = data["ops_per_pass"]
    passes = [(traced, ms / 1e3) for traced, ms in data["passes"]]
    run.passes += passes
    run.attempted += data["attempted"]
    run.failed += data["failed"]
    run.wrong += data["failed"]
    run.failures.update(data["failures"])
    if data["snapshot"]:
        run.trace.add(data["snapshot"])
        traced_wall = sum(w for traced, w in passes if traced)
        if abs(data["snapshot"]["self_s"] - traced_wall) > 1e-6 * (1 + traced_wall):
            raise BenchError("span self times do not sum to the traced wall time")


def end_to_end(workload: str, setup: list[float], run: Run) -> tuple[dict, list[str]]:
    lat = run.latencies_ms
    walls = run.walls(False)
    q = TAIL_PERCENTILE[workload]
    tail = float(np.percentile(lat, q))
    beyond = sum(1 for x in lat if x > tail)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_ms": float(np.percentile(lat, 50)),
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {len(walls)} passes of {run.ops_per_pass} operations",
        "op_p50_ms": f"n={len(lat)}",
        "op_tail_ms": f"p{q}, n={len(lat)}, {beyond} beyond",
        "peak_rss_mb": "max over child processes",
    }
    lines = [f"{name} = {v:.6g}  ({notes[name]})" for name, v in values.items()]
    lines.append(
        f"failed_frac = {run.failed / max(run.attempted, 1):.6g}  ({run.failed}/{run.attempted} operations)"
    )
    return values, lines


def per_layer(workload: str, run: Run) -> tuple[dict, list[str]]:
    untraced, traced = run.walls(False), run.walls(True)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    values = run.trace.per_layer(len(traced), run.out_bytes / max(len(traced), 1), overhead)
    lines = [f"{name} = {v:.6g}" for name, v in values.items()]
    lines.append(
        f"({len(traced)} traced and {len(untraced)} untraced passes; per-layer values are per "
        f"traced pass, teleport.first_call_ms per process)"
    )
    if workload != "library-scan":
        outside = 1e3 * (sum(traced) - run.trace.root_s) / len(traced)
        lines.append(f"(interpreter start-up and imports outside any span: {outside:.1f} ms per pass)")
    return values, lines


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    budget_end = time.perf_counter() + RUN_BUDGET_S
    if not (SRC / "tripsim" / "__init__.py").is_file():
        print(f"error: no tripsim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    if workloads.plan_signature(args.workload, args.seed) != workloads.plan_signature(args.workload, args.seed):
        raise BenchError("the same seed generated two different operation lists")
    print("provenance " + json.dumps(provenance(args.workload, args.seed)))

    env = child_env()
    run, setup = Run(), []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        if args.workload == "library-scan":
            probe = [sys.executable, str(HERE / "scan.py"), "--seed", str(args.seed), "--setup"]
        else:
            probe = [sys.executable, "-c", "import tripsim.cli"]
            ops = workloads.COLD_WORKLOADS[args.workload](args.seed)
            write_inputs(ops, work)
        # An untimed probe lets Python write its bytecode caches, which a user
        # pays for once, not per command.
        measure_setup(probe, env, work, budget_end, 1)
        # Rounds of one set-up probe and one pass (or one worker slice) spread
        # every metric over the whole run, so that a slow spell of a shared
        # machine moves medians less.
        if args.workload == "library-scan":
            slice_s = max(args.seconds / SCAN_SLICES - SCAN_WORKER_START_S, 1.0)
            for _ in range(SCAN_SLICES):
                if not args.trace:
                    setup += measure_setup(probe, env, work, budget_end, 1)
                scan_slice(args.seed, slice_s, args.trace, run, work, env, budget_end)
        else:
            deadline = time.perf_counter() + args.seconds
            while True:
                if not args.trace:
                    setup += measure_setup(probe, env, work, budget_end, 1)
                traced = args.trace and len(run.passes) % 2 == 1
                cold_pass(ops, traced, run, work, env, budget_end)
                kinds = {traced for traced, _ in run.passes}
                if time.perf_counter() >= deadline and len(kinds) == 1 + args.trace:
                    break
        if not args.trace and len(setup) < SETUP_REPEATS:
            setup += measure_setup(probe, env, work, budget_end, SETUP_REPEATS - len(setup))

    if args.trace:
        values, lines = per_layer(args.workload, run)
    else:
        values, lines = end_to_end(args.workload, setup, run)
    if set(values) != set(declared):
        raise BenchError(f"metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json")
    lines += [f"failed {n}x {why}" for why, n in run.failures.most_common(20)]
    for line in lines:
        print(f"{args.workload}: {line}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
