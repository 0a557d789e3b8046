"""Dense complex linear algebra over small multi-qubit registers.

Conventions used by the whole package:

* Registers are big-endian: qubit 0 is the leftmost ket label and the most
  significant bit of the amplitude index, so ``|01>`` is ``(0, 1, 0, 0)``.
* All values are immutable after construction; every operation here is a
  pure function, safe to share across threads.
* Normalization is checked to 1e-9 at construction; internal algebra is
  expected to hold 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REGISTER_CAP = 12
# Norm checks read ``not abs(x - 1) <= NORM_ATOL`` so that NaN fails them.
NORM_ATOL = 1e-9
HERM_ATOL = 1e-9
PSD_ATOL = 1e-9

# Squared-norm level below which a projection residual is pure rounding
# noise and renormalizing it would manufacture garbage.
_ZERO_RESIDUAL_CUT = 1e-24

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class InvariantViolation(ValueError):
    """A value failed one of its declared invariants.

    Carries the invariant name so callers (notably the CLI) can report
    which contract was broken.
    """

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


class RegisterCapacityError(InvariantViolation):
    """Tensor product would exceed the dense register cap."""

    def __init__(self, requested: int):
        super().__init__(
            "register-capacity",
            f"requested {requested} qubits, dense cap is {REGISTER_CAP}",
        )


def _num_qubits_for(size: int) -> int:
    n = size.bit_length() - 1
    if size <= 0 or (1 << n) != size:
        raise InvariantViolation(
            "state-dimension", f"amplitude length {size} is not a power of two"
        )
    return n


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class StateVector:
    """Normalized pure state on ``num_qubits`` qubits.

    ``num_qubits == 0`` is allowed and denotes the scalar state ``[1]``,
    the neutral element of :func:`tensor`.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        self.num_qubits = _num_qubits_for(amps.size)
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_ATOL:
            raise InvariantViolation(
                "state-normalization", f"squared norm {norm2!r} differs from 1"
            )
        self.amplitudes = _frozen(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def computational(cls, num_qubits: int, index: int) -> "StateVector":
        """Basis ket ``|index>`` on a ``num_qubits`` register."""
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    def __repr__(self) -> str:
        return f"StateVector({self.num_qubits} qubits, {self.amplitudes!r})"


class UnnormalizedState:
    """Raw projection residual; may be (numerically) zero."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes, num_qubits: int | None = None):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        self.num_qubits = (
            _num_qubits_for(amps.size) if num_qubits is None else num_qubits
        )
        self.amplitudes = _frozen(amps)

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def is_zero(self) -> bool:
        return self.norm_squared < _ZERO_RESIDUAL_CUT

    def normalized(self) -> StateVector:
        n2 = self.norm_squared
        if n2 < _ZERO_RESIDUAL_CUT:
            raise InvariantViolation(
                "state-normalization", "cannot normalize a zero residual"
            )
        return StateVector(self.amplitudes / math.sqrt(n2))


@dataclass(frozen=True)
class InputQubit:
    """Normalized amplitude pair (c0, c1); the state a protocol carries."""

    c0: complex
    c1: complex

    def __post_init__(self):
        norm2 = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if not abs(norm2 - 1.0) <= NORM_ATOL:
            raise InvariantViolation(
                "input-normalization", f"|c0|^2+|c1|^2 = {norm2!r} differs from 1"
            )

    def state(self) -> StateVector:
        return StateVector([self.c0, self.c1])

    def density(self) -> np.ndarray:
        c = np.array([self.c0, self.c1], dtype=complex)
        return np.outer(c, c.conj())


class DensityOp:
    """Hermitian, PSD, trace-one operator (qubit registers or qudit pairs)."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation("density-shape", f"matrix shape {m.shape} not square")
        if not np.allclose(m, m.conj().T, atol=HERM_ATOL, rtol=0.0):
            raise InvariantViolation("density-hermitian", "matrix is not Hermitian to 1e-9")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= NORM_ATOL:
            raise InvariantViolation("density-trace", f"trace {tr!r} differs from 1")
        if float(np.linalg.eigvalsh(m).min()) < -PSD_ATOL:
            raise InvariantViolation(
                "density-positivity", "matrix has an eigenvalue below -1e-9"
            )
        self.dim = m.shape[0]
        self.matrix = _frozen(m)

    @classmethod
    def from_pure(cls, s: StateVector) -> "DensityOp":
        return cls(np.outer(s.amplitudes, s.amplitudes.conj()))

    @property
    def num_qubits(self) -> int:
        return _num_qubits_for(self.dim)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def __repr__(self) -> str:
        return f"DensityOp(dim={self.dim})"


@dataclass(frozen=True)
class LocalOperator:
    """Operator acting on the listed target qubits (or unbound if None).

    ``targets=None`` leaves the operator unbound to a register, which is
    how non-power-of-two dimensions (qudit twirls) are carried.
    """

    matrix: np.ndarray
    targets: tuple[int, ...] | None = None
    unitary: bool = True

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantViolation("operator-shape", f"matrix shape {m.shape} not square")
        object.__setattr__(self, "matrix", _frozen(m))
        if self.targets is not None:
            targets = tuple(int(t) for t in self.targets)
            object.__setattr__(self, "targets", targets)
            if len(set(targets)) != len(targets):
                raise InvariantViolation("operator-targets", f"duplicate targets {targets}")
            if m.shape[0] != 1 << len(targets):
                raise InvariantViolation(
                    "operator-dimension",
                    f"matrix dim {m.shape[0]} does not match 2^{len(targets)} targets",
                )
        if self.unitary:
            gram = m.conj().T @ m
            if not np.allclose(gram, np.eye(m.shape[0]), atol=HERM_ATOL, rtol=0.0):
                raise InvariantViolation(
                    "operator-unitarity", "unitary flag set but U†U != 1 to 1e-9"
                )


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt spectrum and orthonormal bases for one bipartition."""

    coefficients: np.ndarray
    left_basis: tuple[np.ndarray, ...]
    right_basis: tuple[np.ndarray, ...]

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.coefficients > 1e-9))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; b's qubit labels follow a's."""
    n = a.num_qubits + b.num_qubits
    if n > REGISTER_CAP:
        raise RegisterCapacityError(n)
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def _check_targets(n: int, targets) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise IndexError(f"overlapping targets {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise IndexError(f"target {t} out of range for {n} qubits")
    return targets


def apply_local(op: LocalOperator, s: StateVector) -> StateVector:
    """Apply ``1 ⊗ … ⊗ U ⊗ … ⊗ 1`` to a state; norm is preserved."""
    if not op.unitary:
        raise InvariantViolation(
            "operator-unitarity", "apply_local requires a unitary operator"
        )
    n = s.num_qubits
    if op.targets is None:
        if op.matrix.shape[0] != s.dim:
            raise InvariantViolation(
                "operator-dimension", "unbound operator dimension does not match state"
            )
        return StateVector(op.matrix @ s.amplitudes)
    targets = _check_targets(n, op.targets)
    k = len(targets)
    psi = np.moveaxis(s.amplitudes.reshape([2] * n), targets, range(k))
    psi = (op.matrix @ psi.reshape(1 << k, -1)).reshape([2] * n)
    psi = np.moveaxis(psi, range(k), targets)
    return StateVector(psi.reshape(-1))


def partial_inner(s: StateVector, basis_state: StateVector, targets) -> UnnormalizedState:
    """``<basis|_targets |s>`` as an unnormalized state on the other qubits.

    Targets pair up with basis_state's qubits in the order given; the
    untouched qubits keep their ascending order.
    """
    n = s.num_qubits
    targets = _check_targets(n, targets)
    k = basis_state.num_qubits
    if k != len(targets):
        raise IndexError(
            f"basis state has {k} qubits but {len(targets)} targets were given"
        )
    psi = np.moveaxis(s.amplitudes.reshape([2] * n), targets, range(k))
    bra = basis_state.amplitudes.conj().reshape([2] * k)
    residual = np.tensordot(bra, psi, axes=(tuple(range(k)), tuple(range(k))))
    return UnnormalizedState(residual.reshape(-1), n - k)


def project(
    s: StateVector, basis_state: StateVector, targets
) -> tuple[float, StateVector | UnnormalizedState]:
    """Projective-measurement branch: (probability, renormalized residual).

    A zero-probability branch returns the zero-flagged residual instead of
    dividing by zero; callers can skip it via ``post.is_zero``.
    """
    residual = partial_inner(s, basis_state, targets)
    probability = residual.norm_squared
    if residual.is_zero:
        return probability, residual
    return probability, residual.normalized()


def partial_trace(rho: DensityOp, keep) -> DensityOp:
    """Reduced operator on the kept qubits, in the order they are listed."""
    keep = tuple(int(q) for q in keep)
    if not keep:
        raise ValueError("keep must list at least one qubit")
    n = rho.num_qubits
    if len(set(keep)) != len(keep):
        raise IndexError(f"overlapping keep indices {keep}")
    for q in keep:
        if not 0 <= q < n:
            raise IndexError(f"keep index {q} out of range for {n} qubits")
    t = rho.matrix.reshape([2] * (2 * n))
    subs = list(range(2 * n))
    for q in range(n):
        if q not in keep:
            subs[n + q] = subs[q]
    out = [q for q in keep] + [n + q for q in keep]
    k = len(keep)
    reduced = np.einsum(t, subs, out).reshape(1 << k, 1 << k)
    return DensityOp(reduced)


def fidelity_pure(rho: DensityOp, target: StateVector) -> float:
    """Overlap ``<target| rho |target>`` in [0, 1]."""
    if rho.dim != target.dim:
        raise ValueError(
            f"dimension mismatch: rho dim {rho.dim}, target dim {target.dim}"
        )
    value = float(np.vdot(target.amplitudes, rho.matrix @ target.amplitudes).real)
    return min(max(value, 0.0), 1.0)


def schmidt_decompose(s: StateVector, left) -> SchmidtData:
    """Schmidt decomposition across the bipartition (left | rest).

    The state reconstructs as ``sum_j sqrt(lambda_j) |left_j> ⊗ |right_j>``
    with the coefficients descending and summing to 1.
    """
    n = s.num_qubits
    left = _check_targets(n, left)
    if not left or len(left) == n:
        raise ValueError("bipartition must leave qubits on both sides")
    right = tuple(q for q in range(n) if q not in left)
    psi = np.moveaxis(s.amplitudes.reshape([2] * n), left, range(len(left)))
    mat = psi.reshape(1 << len(left), 1 << len(right))
    u, sv, vh = np.linalg.svd(mat, full_matrices=False)
    return SchmidtData(
        coefficients=_frozen(sv**2),
        left_basis=tuple(_frozen(u[:, j].copy()) for j in range(sv.size)),
        right_basis=tuple(_frozen(vh[j, :].copy()) for j in range(sv.size)),
    )


def haar_unitary(d: int, rng: np.random.Generator) -> LocalOperator:
    """Haar-distributed d×d unitary (QR of a complex Gaussian, phases fixed)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return LocalOperator(q, targets=None, unitary=True)
