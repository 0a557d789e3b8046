"""Constructors for the parametrized entangled bases used by the protocols.

Families exposed here:

* ``general_bell`` — the d-level generalization with per-column amplitude
  table beta, ``sum_k w_d^{mk} beta_{km} |k, k+n mod d>``;
* ``bell2`` — the four two-qubit states cos/sin-parametrized by theta;
* ``ghz_basis`` — the eight three-qubit states
  ``sum_j (-1)^{mu j} b_{mu+j} |j, j+lambda, j+omega>`` with
  ``b0 = cos(theta)``, ``b1 = sin(theta)``;
* ``w_basis`` — the eight-member single-excitation family over (theta, phi);
* ``bob_x_basis`` — the single-qubit rotated pair with the *opposite*
  convention ``b0 = sin(theta)``, ``b1 = cos(theta)``.

``basis_family`` reads each family from one table entry; it refuses extra parameters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import InvariantViolation, NORM_ATOL, StateVector, _check_norms, within


ANGLE_LIMITS = (0, 1.5707963268)  # [0, pi/2], rounded up at the 10th decimal; the CLI angle flags' range too


def _check_angle(name: str, value: float) -> float:
    value = float(value)
    if not ANGLE_LIMITS[0] <= value <= ANGLE_LIMITS[1]:
        raise ValueError(f"{name} must lie in [0, pi/2], got {value}")
    return value


def _cos_sin(name: str, theta: float) -> tuple[float, float]:
    """The coordinates (cos theta, sin theta) of the angle ``name`` in [0, pi/2]."""
    theta = _check_angle(name, theta)
    return math.cos(theta), math.sin(theta)


@dataclass(frozen=True)
class BellLabel:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"labels must be nonnegative, got {self}")


@dataclass(frozen=True)
class GhzLabel:
    mu: int
    lam: int
    omega: int

    def __post_init__(self):
        for bit in (self.mu, self.lam, self.omega):
            if bit not in (0, 1):
                raise ValueError(f"GHZ label bits must be 0 or 1, got {self}")


@dataclass(frozen=True)
class GeneralBellSpec:
    """Level count d and the real coefficient table beta[k, m] (column per m)."""

    d: int
    beta: np.ndarray

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"level count must be >= 2, got {self.d}")
        beta = np.array(self.beta, dtype=float)
        if beta.shape != (self.d, self.d):
            raise ValueError(f"beta must be {self.d}x{self.d}, got {beta.shape}")
        col_norms = (beta**2).sum(axis=0)
        if not within(col_norms, 1.0, NORM_ATOL):
            raise InvariantViolation(
                "bell-column-normalization",
                f"beta columns have squared norms {col_norms}",
            )
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def maximal(cls, d: int) -> "GeneralBellSpec":
        return cls(d, np.full((d, d), 1.0 / math.sqrt(d)))

    @classmethod
    def two_qubit(cls, theta: float) -> "GeneralBellSpec":
        """d=2 table whose columns are (cos, sin) and (sin, cos)."""
        c, s = math.cos(theta), math.sin(theta)
        return cls(2, np.array([[c, s], [s, c]]))


@dataclass(frozen=True)
class WChannelSpec:
    """Single-excitation channel amplitudes a|100> + b|010> + c|001>."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        norm2 = abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2
        _check_norms((norm2,), "w-channel-normalization", "|a|^2+|b|^2+|c|^2 =")

    def state(self) -> StateVector:
        amps = np.zeros(8, dtype=complex)
        amps[0b100] = self.a
        amps[0b010] = self.b
        amps[0b001] = self.c
        return StateVector(amps)


def general_bell(spec: GeneralBellSpec, label: BellLabel) -> np.ndarray:
    """Two-qudit basis vector sum_k w_d^{mk} beta_{km} |k, k+n mod d>.

    Returns raw amplitudes of length d**2 (index d*k + l) so that d > 2
    works; wrap the d = 2 case via :func:`bell2` for a StateVector.
    """
    d = spec.d
    if not (0 <= label.m < d and 0 <= label.n < d):
        raise ValueError(f"label {label} out of range for d={d}")
    omega = np.exp(2j * math.pi / d)
    amps = np.zeros(d * d, dtype=complex)
    for k in range(d):
        amps[d * k + (k + label.n) % d] = omega ** (label.m * k) * spec.beta[k, label.m]
    return amps


# Each family member below is linear in the coordinates b = (cos theta,
# sin theta) of its angle; the ``_*_member`` forms take b itself, so that
# b can also be an exact unit vector (cos(pi/2) is 6.1e-17, not 0).

def bell2(theta: float, label: BellLabel | tuple[int, int]) -> StateVector:
    """The four two-qubit states of the theta-parametrized pair basis."""
    return _bell2_member(_cos_sin("theta", theta), label)


def _bell2_member(b, label: BellLabel | tuple[int, int]) -> StateVector:
    if isinstance(label, tuple):
        label = BellLabel(*label)
    if label.m not in (0, 1) or label.n not in (0, 1):
        raise ValueError(f"two-qubit labels must be bits, got {label}")
    c, s = b
    return StateVector(general_bell(GeneralBellSpec(2, np.array([[c, s], [s, c]])), label))


def ghz_basis(theta: float, label: GhzLabel | tuple[int, int, int]) -> StateVector:
    """Three-qubit basis member sum_j (-1)^{mu j} b_{mu+j} |j, j+lam, j+omega>."""
    return _ghz_member(_cos_sin("theta", theta), label)


def _ghz_member(b, label: GhzLabel | tuple[int, int, int]) -> StateVector:
    if isinstance(label, tuple):
        label = GhzLabel(*label)
    amps = np.zeros(8, dtype=complex)
    for j in (0, 1):
        idx = (j << 2) | ((j ^ label.lam) << 1) | (j ^ label.omega)
        amps[idx] = (-1) ** (label.mu * j) * b[label.mu ^ j]
    return StateVector(amps)


# Eight-member single-excitation family, one row per k: list of
# (bitstring, sign, weight) with weights taken from (sin t cos p,
# sin t sin p, cos t). The k = 4 and k = 8 members carry the sign layout
# that keeps each quadruple orthonormal for every (theta, phi).
_W_TABLE = {
    1: (("001", +1, "sc"), ("010", +1, "ss"), ("100", +1, "c")),
    2: (("001", +1, "ss"), ("010", -1, "sc"), ("111", +1, "c")),
    3: (("100", -1, "ss"), ("010", +1, "c"), ("111", +1, "sc")),
    4: (("100", -1, "sc"), ("001", +1, "c"), ("111", -1, "ss")),
    5: (("110", +1, "sc"), ("101", +1, "ss"), ("011", +1, "c")),
    6: (("110", +1, "ss"), ("101", -1, "sc"), ("000", +1, "c")),
    7: (("011", -1, "ss"), ("101", +1, "c"), ("000", +1, "sc")),
    8: (("011", -1, "sc"), ("110", +1, "c"), ("000", -1, "ss")),
}


def _w_amplitudes(theta: float, phi: float, k: int) -> np.ndarray:
    weights = {
        "sc": math.sin(theta) * math.cos(phi),
        "ss": math.sin(theta) * math.sin(phi),
        "c": math.cos(theta),
    }
    amps = np.zeros(8, dtype=complex)
    for bits, sign, w in _W_TABLE[k]:
        amps[int(bits, 2)] = sign * weights[w]
    return amps


def _w_family(theta: float, phi: float) -> np.ndarray:
    """Member k's amplitudes in row k-1; angles where the Gram matrix fails
    the 1e-9 identity check are rejected (none are expected for real ones)."""
    family = np.stack([_w_amplitudes(theta, phi, k) for k in range(1, 9)])
    gram = family @ family.conj().T
    if not within(gram, np.eye(8), 1e-9):
        raise InvariantViolation(
            "w-basis-orthonormality", f"Gram check failed at theta={theta}, phi={phi}"
        )
    return family


def w_basis(theta: float, phi: float, k: int) -> StateVector:
    """k-th member (1..8) of the single-excitation-family basis."""
    _check_angle("theta", theta)
    _check_angle("phi", phi)
    if k not in range(1, 9):
        raise ValueError(f"k must be in 1..8, got {k}")
    return StateVector(_w_family(theta, phi)[k - 1])


def bob_x_basis(theta: float) -> tuple[StateVector, StateVector]:
    """Single-qubit pair (|x0>, |x1>) defined by |0> = sin t|x0> + cos t|x1>,
    |1> = cos t|x0> - sin t|x1>; the relation is its own inverse."""
    return _bob_x_member(_cos_sin("theta", theta))


def _bob_x_member(b) -> tuple[StateVector, StateVector]:
    c, s = b
    return StateVector([s, c]), StateVector([c, -s])


def basis_json(family: str, **params) -> dict:
    """JSON-ready dump of a family: {family, params, vectors: [[re, im], ...]}."""
    members = basis_family(family, **params)
    return {
        "family": family,
        "params": {k: float(v) for k, v in params.items()},
        "vectors": {
            label: [[z.real, z.imag] for z in member.amplitudes]
            for label, member in members
        },
    }


# Each family: its parameters with their defaults, and its members as (label, state) pairs.
_FAMILIES = {
    "bell": ({"theta": math.pi / 4}, lambda theta: [
        (f"{m}{n}", bell2(theta, (m, n))) for m, n in itertools.product((0, 1), repeat=2)
    ]),
    "ghz": ({"theta": math.pi / 4}, lambda theta: [
        ("".join(map(str, bits)), ghz_basis(theta, bits)) for bits in itertools.product((0, 1), repeat=3)
    ]),
    "w": ({"theta": math.acos(1.0 / math.sqrt(3.0)), "phi": math.pi / 4}, lambda theta, phi: [
        (str(k), StateVector(row))
        for k, row in enumerate(_w_family(_check_angle("theta", theta), _check_angle("phi", phi)), 1)
    ]),
    "bob-x": ({"theta": math.pi / 4}, lambda theta: list(zip(("x0", "x1"), bob_x_basis(theta)))),
}


def basis_family(family: str, **params) -> list[tuple[str, StateVector]]:
    """All members of a named family as (label, state) pairs."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown basis family {family!r}")
    defaults, members = _FAMILIES[family]
    unknown = params.keys() - defaults.keys()
    if unknown:
        raise ValueError(f"parameters {sorted(unknown)} do not apply to {family}")
    return members(**{**defaults, **params})
