"""Classification of three-qubit pure states by purity pattern and 3-tangle.

For pure states the discrimination is exactly decidable at machine
precision: a qubit with unit reduced purity factors out, and among the
genuinely entangled remainder the degree-4 polynomial invariant (the
3-tangle) separates the two inequivalent classes — nonzero for the
GHZ-like class, identically zero for the single-excitation class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityOp, PAULI_Y, StateVector, partial_trace

EPS = 1e-9

FULLY_SEPARABLE = "fully-separable"
BISEPARABLE = "biseparable"
GENUINE_W = "genuine-w"
GENUINE_GHZ = "genuine-ghz"

_PARTITIONS = ("A|BC", "B|AC", "C|AB")

_YY = np.kron(PAULI_Y, PAULI_Y)
_YY.setflags(write=False)


@dataclass(frozen=True)
class EntClass:
    """Classification tag, the split partition when biseparable, and a
    borderline flag for states within EPS of a decision threshold."""

    tag: str
    partition: str | None = None
    borderline: bool = False

    def to_dict(self) -> dict:
        return {"tag": self.tag, "partition": self.partition, "borderline": self.borderline}


@dataclass(frozen=True)
class ReducedDiagnostics:
    """Single-qubit purities, pair concurrences (AB, AC, BC), and 3-tangle."""

    single_qubit_purities: tuple[float, float, float]
    pair_concurrences: tuple[float, float, float]
    three_tangle: float

    def to_dict(self) -> dict:
        return {
            "single_qubit_purities": list(self.single_qubit_purities),
            "pair_concurrences": list(self.pair_concurrences),
            "three_tangle": self.three_tangle,
        }


def concurrence(rho: DensityOp | np.ndarray) -> float:
    """Spin-flip concurrence of a two-qubit (possibly mixed) state."""
    mat = rho.matrix if isinstance(rho, DensityOp) else np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 operator, got {mat.shape}")
    flipped = _YY @ mat.conj() @ _YY
    eigs = np.sort(np.linalg.eigvals(mat @ flipped).real)[::-1]
    # Null modes come back as O(eps) values whose square roots would inject
    # ~1e-8 noise into the subtraction; flush them before taking roots.
    floor = max(eigs[0], 0.0) * 1e-12
    roots = np.sqrt(np.clip(np.where(eigs < floor, 0.0, eigs), 0.0, None))
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def three_tangle(s: StateVector) -> float:
    """Degree-4 polynomial invariant (hyperdeterminant magnitude, times 4)."""
    if s.num_qubits != 3:
        raise ValueError(f"three_tangle needs a 3-qubit state, got {s.num_qubits}")
    a = s.amplitudes.reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(min(1.0, 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)))


def diagnostics(s: StateVector) -> ReducedDiagnostics:
    """Purities tr(rho_k^2), pair concurrences, and the 3-tangle."""
    if s.num_qubits != 3:
        raise ValueError(f"diagnostics needs a 3-qubit state, got {s.num_qubits}")
    rho = DensityOp.from_pure(s)
    purities = tuple(partial_trace(rho, [q]).purity() for q in range(3))
    pairs = ((0, 1), (0, 2), (1, 2))
    concurrences = tuple(concurrence(partial_trace(rho, pair)) for pair in pairs)
    return ReducedDiagnostics(purities, concurrences, three_tangle(s))


def classify(s: StateVector) -> EntClass:
    """Decide fully separable / biseparable(partition) / genuine W / genuine GHZ."""
    diag = diagnostics(s)
    pure_flags = [p > 1.0 - EPS for p in diag.single_qubit_purities]
    if all(pure_flags):
        return EntClass(FULLY_SEPARABLE)
    if sum(pure_flags) == 1:
        return EntClass(BISEPARABLE, partition=_PARTITIONS[pure_flags.index(True)])
    tangle = diag.three_tangle
    borderline = (
        any(1.0 - 2.0 * EPS < p <= 1.0 - EPS for p in diag.single_qubit_purities)
        or 0.0 < tangle < 2.0 * EPS
    )
    if tangle > EPS:
        return EntClass(GENUINE_GHZ, borderline=borderline)
    return EntClass(GENUINE_W, borderline=borderline)
