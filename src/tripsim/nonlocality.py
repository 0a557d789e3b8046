"""Pauli-string expectations and the three-party local-realism paradox report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import StateVector, _string_matrix

_EIGEN_ATOL = 1e-9


@dataclass(frozen=True)
class PauliString:
    """One Pauli letter per qubit, e.g. "XYY" on a three-qubit register."""

    letters: str

    def __post_init__(self):
        bad = set(self.letters) - set("IXYZ")
        if bad or not self.letters:
            raise ValueError(f"letters must be a nonempty string over IXYZ, got {self.letters!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def matrix(self) -> np.ndarray:
        """The Kronecker product of the letters' matrices, built once per
        letter string and shared read-only."""
        return _string_matrix(*self.letters)


@dataclass(frozen=True)
class ParadoxReport:
    """The four product expectations and the contradiction verdict.

    ``lhv_product`` is the xyy*yxy*yyx product: under pre-assigned local
    values with m^2 = 1 it would have to equal the xxx expectation, so
    ``contradiction`` is set when the product is -1 while xxx is +1.
    """

    xyy: float
    yxy: float
    yyx: float
    xxx: float
    lhv_product: float
    contradiction: bool

    def to_dict(self) -> dict:
        return {
            "xyy": self.xyy,
            "yxy": self.yxy,
            "yyx": self.yyx,
            "xxx": self.xxx,
            "lhv_product": self.lhv_product,
            "contradiction": self.contradiction,
        }


def pauli_expectation(s: StateVector, p: PauliString | str) -> float:
    """<s| P |s> for a Pauli string P; real because P is Hermitian."""
    if isinstance(p, str):
        p = PauliString(p)
    if len(p) != s.num_qubits:
        raise ValueError(
            f"string length {len(p)} does not match register size {s.num_qubits}"
        )
    return float(np.vdot(s.amplitudes, p.matrix() @ s.amplitudes).real)


def ghz_paradox(s: StateVector) -> ParadoxReport:
    """Evaluate XYY, YXY, YYX, XXX and flag the local-realism contradiction."""
    if s.num_qubits != 3:
        raise ValueError(f"paradox report needs a 3-qubit state, got {s.num_qubits}")
    xyy = pauli_expectation(s, "XYY")
    yxy = pauli_expectation(s, "YXY")
    yyx = pauli_expectation(s, "YYX")
    xxx = pauli_expectation(s, "XXX")
    product = xyy * yxy * yyx
    contradiction = abs(product + 1.0) < _EIGEN_ATOL and abs(xxx - 1.0) < _EIGEN_ATOL
    return ParadoxReport(xyy, yxy, yyx, xxx, product, contradiction)
