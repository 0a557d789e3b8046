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

from .core import DensityOp, StateVector, _reduced_matrix, _string_matrix, check_density

EPS = 1e-9

FULLY_SEPARABLE = "fully-separable"
BISEPARABLE = "biseparable"
GENUINE_W = "genuine-w"
GENUINE_GHZ = "genuine-ghz"

_PARTITIONS = ("A|BC", "B|AC", "C|AB")

_YY = _string_matrix("Y", "Y")


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

    def verdict(self) -> EntClass:
        """The :func:`classify` decision, read off these diagnostics."""
        return _decide(self.single_qubit_purities, self.three_tangle)


def concurrence(rho: DensityOp | np.ndarray) -> float | np.ndarray:
    """Spin-flip concurrence of a two-qubit (possibly mixed) state, or their array for a (..., 4, 4) stack."""
    mat = rho.matrix if isinstance(rho, DensityOp) else np.asarray(rho, dtype=complex)
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 operator, got {mat.shape}")
    flipped = _YY @ mat.conj() @ _YY
    eigs = np.sort(np.linalg.eigvals(mat @ flipped).real)[..., ::-1]
    # Null modes come back as O(eps) values whose square roots would inject
    # ~1e-8 noise into the subtraction; flush them before taking roots.
    floor = np.maximum(eigs[..., :1], 0.0) * 1e-12
    roots = np.sqrt(np.clip(np.where(eigs < floor, 0.0, eigs), 0.0, None))
    gap = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    values = np.where(gap > 0.0, gap, 0.0)
    return float(values) if mat.ndim == 2 else values


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


_SINGLES = ((0,), (1,), (2,))
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _projector(s: StateVector) -> np.ndarray:
    if s.num_qubits != 3:
        raise ValueError(f"diagnostics needs a 3-qubit state, got {s.num_qubits}")
    return np.outer(s.amplitudes, s.amplitudes.conj())


def _reductions(rho: np.ndarray, keeps) -> np.ndarray:
    """The reductions of ``rho`` onto each qubit tuple of ``keeps``, stacked
    and checked in one :func:`check_density` call."""
    stack = np.stack([_reduced_matrix(rho, keep) for keep in keeps])
    check_density(stack)
    return stack


def _purities(rho: np.ndarray) -> tuple[float, float, float]:
    """Single-qubit purities tr(rho_k^2)."""
    singles = _reductions(rho, _SINGLES)
    return tuple(np.trace(singles @ singles, axis1=1, axis2=2).real.tolist())


def diagnostics(s: StateVector) -> ReducedDiagnostics:
    """Purities tr(rho_k^2), pair concurrences, and the 3-tangle."""
    rho = _projector(s)
    purities = _purities(rho)
    concurrences = tuple(concurrence(_reductions(rho, _PAIRS)).tolist())
    return ReducedDiagnostics(purities, concurrences, three_tangle(s))


def classify(s: StateVector) -> EntClass:
    """Decide fully separable / biseparable(partition) / genuine W / genuine GHZ
    from the single-qubit purities and the 3-tangle; no concurrence is needed."""
    return _decide(_purities(_projector(s)), three_tangle(s))


def _decide(purities, tangle: float) -> EntClass:
    pure_flags = [p > 1.0 - EPS for p in purities]
    if all(pure_flags):
        return EntClass(FULLY_SEPARABLE)
    if sum(pure_flags) == 1:
        return EntClass(BISEPARABLE, partition=_PARTITIONS[pure_flags.index(True)])
    borderline = (
        any(1.0 - 2.0 * EPS < p <= 1.0 - EPS for p in purities)
        or 0.0 < tangle < 2.0 * EPS
    )
    if tangle > EPS:
        return EntClass(GENUINE_GHZ, borderline=borderline)
    return EntClass(GENUINE_W, borderline=borderline)
