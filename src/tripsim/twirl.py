"""Two-qudit twirling-invariant families and the Monte-Carlo twirl oracle.

The flip operator and the projectors are built explicitly from their dyad
sums rather than from permutation tricks, so the construction mirrors the
defining expressions term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import BellLabel, GeneralBellSpec, general_bell, ghz_basis
from .core import DensityOp, check_density, haar_unitaries


@dataclass(frozen=True)
class WernerParams:
    d: int
    p: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"level count must be >= 2, got {self.d}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class IsotropicParams:
    d: int
    f: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"level count must be >= 2, got {self.d}")
        if not 0.0 <= self.f <= 1.0:
            raise ValueError(f"f must lie in [0, 1], got {self.f}")
        if self.f < 1.0 / (self.d * self.d) - 1e-12:
            raise ValueError(f"f must lie in [1/d^2, 1] = [{1.0 / (self.d * self.d)}, 1], got {self.f}")


@dataclass(frozen=True)
class GenWerner3Q:
    p: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


def flip_operator(d: int) -> np.ndarray:
    """V = sum_{jk} |jk><kj| on the d x d two-qudit space."""
    v = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            v[d * j + k, d * k + j] = 1.0
    return v


def symmetric_projector(d: int) -> np.ndarray:
    return (np.eye(d * d, dtype=complex) + flip_operator(d)) / 2.0


def antisymmetric_projector(d: int) -> np.ndarray:
    return (np.eye(d * d, dtype=complex) - flip_operator(d)) / 2.0


def max_entangled_projector(d: int) -> np.ndarray:
    """Rank-one projector onto the maximally entangled (0,0) basis state."""
    vec = general_bell(GeneralBellSpec.maximal(d), BellLabel(0, 0))
    return np.outer(vec, vec.conj())


def werner(params: WernerParams) -> DensityOp:
    """(1-p) 2/(d^2+d) P+  +  p 2/(d^2-d) P-."""
    d = params.d
    plus = symmetric_projector(d)
    minus = antisymmetric_projector(d)
    mat = (1.0 - params.p) * 2.0 / (d * d + d) * plus + params.p * 2.0 / (d * d - d) * minus
    return DensityOp(mat)


def isotropic(params: IsotropicParams) -> DensityOp:
    """(1-f)/(d^2-1) 1  +  (f d^2 - 1)/(d^2-1) P00; IsotropicParams refuses f < 1/d^2 (P00 weight < 0)."""
    d = params.d
    eye = np.eye(d * d, dtype=complex)
    p00 = max_entangled_projector(d)
    mat = (1.0 - params.f) / (d * d - 1) * eye + (params.f * d * d - 1) / (d * d - 1) * p00
    return DensityOp(mat)


def gen_werner_3q(params: GenWerner3Q) -> DensityOp:
    """p |psi000(theta)><psi000(theta)|  +  (1-p)/8 1_8."""
    pure = ghz_basis(params.theta, (0, 0, 0)).amplitudes
    mat = params.p * np.outer(pure, pure.conj()) + (1.0 - params.p) / 8.0 * np.eye(8)
    return DensityOp(mat)


def werner_invariant(rho: DensityOp) -> float:
    """tr(P- rho), the quantity preserved by correlated-unitary averaging."""
    return float(np.trace(antisymmetric_projector(_two_qudit_dim(rho)) @ rho.matrix).real)


def isotropic_invariant(rho: DensityOp) -> float:
    """tr(P00 rho), the quantity preserved by unitary-conjugate averaging."""
    return float(np.trace(max_entangled_projector(_two_qudit_dim(rho)) @ rho.matrix).real)


def _two_qudit_dim(rho: DensityOp) -> int:
    d = int(round(math.sqrt(rho.dim)))
    if d * d != rho.dim:
        raise ValueError(f"twirl needs a two-qudit operator, got dim {rho.dim}")
    return d


# Entries of complex scratch per block of draws: the stacked U⊗V array of a
# block never holds more than this many.
_BLOCK_ENTRIES = 4096


def _conjugated(rho: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(U⊗V) rho (U⊗V)† for each of the n stacked pairs, as an (n, D, D) array."""
    n, d = u.shape[:2]
    # Same products as np.kron(u, v), entry for entry.
    big = (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(n, d * d, d * d)
    left = big @ rho
    # In place, so the call holds three arrays of the block's size.
    return left @ np.conjugate(big, out=big).swapaxes(1, 2)


def _haar_averages(
    rho: DensityOp, samples: int, rng, conjugate_second: bool, checkpoints: int
) -> list[tuple[int, np.ndarray]]:
    """Running averages of (U⊗V) rho (U⊗V)† over ``samples`` Haar draws U,
    with V = U* or U, taken at ``checkpoints`` evenly spaced draw counts;
    the last is the full average.

    Draws come in blocks of at most ``_BLOCK_ENTRIES // d**4`` from one
    generator stream; the running sum is carried term by term with
    ``cumsum``, so every average equals the one-draw-at-a-time sum exactly.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    d = _two_qudit_dim(rho)
    stops = sorted({max(1, samples * k // checkpoints) for k in range(1, checkpoints + 1)})
    block = max(1, _BLOCK_ENTRIES // d**4)
    total = np.zeros((d * d, d * d), dtype=complex)
    averages = []
    for start in range(0, samples, block):
        n = min(block, samples - start)
        u = haar_unitaries(d, n, rng)
        running = _conjugated(rho.matrix, u, u.conj() if conjugate_second else u)
        running[0] += total
        np.cumsum(running, axis=0, out=running)
        averages += [
            (stop, running[stop - start - 1] / stop)
            for stop in stops
            if start < stop <= start + n
        ]
        total = running[-1].copy()
    return averages


def _twirl(rho: DensityOp, samples: int, rng, conjugate_second: bool) -> np.ndarray:
    return _haar_averages(rho, samples, rng, conjugate_second, checkpoints=1)[-1][1]


def twirl_uu(rho: DensityOp, samples: int, rng: np.random.Generator) -> DensityOp:
    """Empirical average of (U⊗U) rho (U⊗U)† over Haar draws."""
    return DensityOp(_twirl(rho, samples, rng, conjugate_second=False))


def twirl_uustar(rho: DensityOp, samples: int, rng: np.random.Generator) -> DensityOp:
    """Empirical average of (U⊗U*) rho (U⊗U*)† over Haar draws."""
    return DensityOp(_twirl(rho, samples, rng, conjugate_second=True))


def trace_distance(a: DensityOp, b: DensityOp) -> float:
    """(1/2) ||a - b||_1 for Hermitian operands."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(eigs).sum())


# Each family: its analytic member at (d, invariant), and whether it twirls with U ⊗ U*.
FAMILIES = {
    "werner": (lambda d, invariant: werner(WernerParams(d, invariant)), False),
    "isotropic": (lambda d, invariant: isotropic(IsotropicParams(d, invariant)), True),
}


def twirl_report(
    family: str, d: int, invariant: float, samples: int, rng: np.random.Generator
) -> dict:
    """Run a Monte-Carlo twirl against the matching analytic state.

    Starts from the analytic family member itself (a fixed point of the
    exact average) and records the trace distance of the running empirical
    average at ten evenly spaced checkpoints. Raises ``InvariantViolation``
    if a checkpoint average is not a density operator.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    member, conjugate_second = FAMILIES[family]
    target = member(d, invariant)
    stops, averages = zip(*_haar_averages(target, samples, rng, conjugate_second, 10))
    # One stacked check and one stacked eigvalsh: the same values, bit for
    # bit, as DensityOp and trace_distance applied checkpoint by checkpoint.
    averages = np.stack(averages)
    check_density(averages)
    distances = 0.5 * np.abs(np.linalg.eigvalsh(averages - target.matrix)).sum(axis=-1)
    history = [(stop, float(dist)) for stop, dist in zip(stops, distances)]
    return {
        "family": family,
        "d": d,
        "invariant": invariant,
        "trace_distance_history": history,
    }
