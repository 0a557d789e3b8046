"""Span recorder that times calls into tripsim's layers from outside.

Every public function of a layer module is replaced, in every ``tripsim.*``
namespace that binds it, by a wrapper that records a span: name, start,
end and parent.  Spans of one operation stay in memory until the operation
ends; ``fold`` then turns them into per-function totals (calls, inclusive
time, self time) so that long runs keep bounded memory.  A function that no
longer exists is simply not wrapped, so its metrics read zero instead of
failing the run.

Self time is a span's duration minus the durations of its direct children.
Calls are strictly nested in one thread, so children never overlap and the
self times of all spans add up to the duration of the root spans; ``fold``
checks that identity.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("cli", "core", "bases", "twirl", "nonlocality", "teleport", "classify", "noise")
TELEPORT_PREFIX = "teleport.teleport_"


def _observe_report(counts, args, result):
    branches = getattr(result, "branches", ())
    counts["teleport.branches"] = counts.get("teleport.branches", 0) + len(branches)
    live = sum(1 for b in branches if b.fidelity is not None and b.success)
    counts["teleport.live_branches"] = counts.get("teleport.live_branches", 0) + live


def _observe_density(counts, args, result):
    n_total = getattr(args[0], "n_total", None) if args else None
    if n_total is not None:
        # Computed, not measured: one complex128 density matrix on n qubits.
        counts["noise.density_bytes"] = counts.get("noise.density_bytes", 0) + 16 * 4**n_total


def _observe_sweep(counts, args, result):
    counts["noise.sweep_points"] = counts.get("noise.sweep_points", 0) + len(result)


_OBSERVERS = {
    "teleport.average_fidelity_density": _observe_density,
    "noise.noisy_teleport_sweep": _observe_sweep,
}


class Tracer:
    """Wraps tripsim's public functions and aggregates their spans."""

    def __init__(self):
        self._spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.recording = True
        self.first_calls: dict[str, float] = {}  # seconds, first call in this process
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s, warm_calls, warm_s]
        self.counts: dict[str, int] = {}
        self.root_s = 0.0
        self.self_s = 0.0

    def install(self) -> None:
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "tripsim" or name.startswith("tripsim."))
        ]
        for layer in LAYERS:
            # sys.modules, not attribute access: the package rebinds
            # ``tripsim.classify`` to the function of that name.
            module = sys.modules.get(f"tripsim.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
                            self._patches.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        counts = self.counts
        observe = _OBSERVERS.get(name)
        if name.startswith(TELEPORT_PREFIX):
            observe = _observe_report

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None and self.recording:
                observe(counts, args, result)
            return result

        return traced

    def open_root(self, name: str, start: float) -> int:
        """Start a root span at a caller-supplied clock reading."""
        self._spans.append([name, start, 0.0, -1])
        self._stack.append(len(self._spans) - 1)
        return self._stack[-1]

    def close_root(self, index: int, end: float) -> None:
        self._stack.pop()
        self._spans[index][2] = end

    def fold(self) -> None:
        """Fold the spans of the finished operation into the totals."""
        spans = self._spans
        if self._stack:
            raise RuntimeError("fold called with open spans")
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        root_s = self_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            self_s += own
            if parent < 0:
                root_s += dur
            first = name not in self.first_calls
            if first:
                self.first_calls[name] = dur
            if self.recording:
                row = self.totals.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
                row[0] += 1
                row[1] += dur
                row[2] += own
                if not first:
                    row[3] += 1
                    row[4] += dur
        if abs(self_s - root_s) > 1e-9 * (1 + len(spans)):
            raise RuntimeError(
                f"span self times sum to {self_s!r} s but root spans cover {root_s!r} s"
            )
        if self.recording:
            self.root_s += root_s
            self.self_s += self_s
        spans.clear()

    def snapshot(self) -> dict:
        return {
            "first_calls": dict(self.first_calls),
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "self_s": self.self_s,
        }


class Aggregate:
    """Sums tracer snapshots from one or many processes of a traced run."""

    def __init__(self):
        self.first_calls: dict[str, list[float]] = {}
        self.totals: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.root_s = 0.0
        self.self_s = 0.0

    def add(self, snap: dict) -> None:
        for name, dur in snap["first_calls"].items():
            self.first_calls.setdefault(name, []).append(dur)
        for name, row in snap["totals"].items():
            acc = self.totals.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, v in snap["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + v
        self.root_s += snap["root_s"]
        self.self_s += snap["self_s"]

    def per_layer(self, passes: int, out_bytes: float, overhead_frac: float) -> dict:
        """Per-layer metrics, per pass of the workload's operation list.

        ``teleport.first_call_ms`` is per process instead: the sum over the
        ``teleport_*`` functions of the median duration of their first call.
        """
        if abs(self.self_s - self.root_s) > 1e-6 * (1 + self.root_s):
            raise RuntimeError("aggregated self times do not sum to the traced wall time")
        passes = max(passes, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            rows = [row for name, row in self.totals.items() if name.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(r[0] for r in rows) / passes
            out[f"{layer}.self_ms"] = 1e3 * sum(r[2] for r in rows) / passes
        tele = [row for name, row in self.totals.items() if name.startswith(TELEPORT_PREFIX)]
        warm_calls = sum(r[3] for r in tele)
        out["teleport.first_call_ms"] = 1e3 * sum(
            statistics.median(durs)
            for name, durs in self.first_calls.items()
            if name.startswith(TELEPORT_PREFIX)
        )
        out["teleport.call_ms"] = 1e3 * sum(r[4] for r in tele) / warm_calls if warm_calls else 0.0
        branches = self.counts.get("teleport.branches", 0)
        out["teleport.live_branch_ratio"] = (
            self.counts.get("teleport.live_branches", 0) / branches if branches else 0.0
        )
        inclusive = lambda name: 1e3 * self.totals.get(name, [0, 0.0])[1] / passes
        out["teleport.density_ms"] = inclusive("teleport.average_fidelity_density")
        out["teleport.surface_ms"] = inclusive("teleport.avg_fidelity_surface")
        out["noise.sweep_points"] = self.counts.get("noise.sweep_points", 0) / passes
        out["noise.density_bytes"] = self.counts.get("noise.density_bytes", 0) / passes
        out["cli.out_bytes"] = out_bytes
        out["twirl.haar_draws"] = self.totals.get("core.haar_unitary", [0])[0] / passes
        out["trace.overhead_frac"] = overhead_frac
        return out
