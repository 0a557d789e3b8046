"""Shared test utilities: random states, an independent operator-lifting
oracle built by basis-index enumeration, and a density-matrix protocol
oracle (both deliberately not the library path)."""

import numpy as np

from tripsim.core import InputQubit, StateVector


def random_state(rng: np.random.Generator, num_qubits: int) -> StateVector:
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return StateVector(v / np.linalg.norm(v))


def random_input(rng: np.random.Generator) -> InputQubit:
    u = rng.random()
    phase = 2 * np.pi * rng.random()
    return InputQubit(np.sqrt(u), np.sqrt(1 - u) * np.exp(1j * phase))


def eta_row(m, n, a0, a1) -> np.ndarray:
    """Expected post-pair-measurement state, row (m, n) of the lookup."""
    vec = np.zeros(4, dtype=complex)
    vec[0b00 if n == 0 else 0b11] = a0
    vec[0b11 if n == 0 else 0b00] = (-1) ** m * a1
    return vec


def chi_row(m, n, j, a0, a1, theta) -> np.ndarray:
    """Expected unnormalized receiver state for outcome (m, n, j)."""
    import math

    s, c = math.sin(theta), math.cos(theta)
    rows = {
        (0, 0, 0): [a0 * s, a1 * c],
        (0, 0, 1): [a0 * c, -a1 * s],
        (0, 1, 0): [a1 * s, a0 * c],
        (0, 1, 1): [a1 * c, -a0 * s],
        (1, 0, 0): [a0 * s, -a1 * c],
        (1, 0, 1): [a0 * c, a1 * s],
        (1, 1, 0): [-a1 * s, a0 * c],
        (1, 1, 1): [-a1 * c, -a0 * s],
    }
    return np.array(rows[(m, n, j)], dtype=complex)


def lift_operator(op: np.ndarray, targets, n: int) -> np.ndarray:
    """Dense n-qubit matrix acting with `op` on `targets`, by enumerating
    basis indices bit by bit (big-endian: qubit 0 = most significant)."""
    targets = list(targets)
    k = len(targets)
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_col = 0
        for q in targets:
            sub_col = (sub_col << 1) | bits[q]
        for sub_row in range(1 << k):
            amp = op[sub_row, sub_col]
            if amp == 0:
                continue
            new_bits = list(bits)
            for i, q in enumerate(targets):
                new_bits[q] = (sub_row >> (k - 1 - i)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out


# The six octahedron inputs +-z, +-x, +-y; their mean of any degree-(2, 2)
# polynomial in (c, c*) is its Haar average.
OCTAHEDRON = (
    (1.0, 0.0),
    (0.0, 1.0),
    (np.sqrt(0.5), np.sqrt(0.5)),
    (np.sqrt(0.5), -np.sqrt(0.5)),
    (np.sqrt(0.5), 1j * np.sqrt(0.5)),
    (np.sqrt(0.5), -1j * np.sqrt(0.5)),
)


def six_state_mean(oracle, bundle, resource_rho) -> float:
    """Exact input average of an oracle(bundle, rho, c0, c1) fidelity."""
    return float(np.mean([oracle(bundle, resource_rho, c0, c1) for c0, c1 in OCTAHEDRON]))


def average_fidelity_density(bundle, resource_rho: np.ndarray, c0, c1) -> float:
    """Branch-summed fidelity with the resource given as a density matrix.

    Mirrors the pure-state enumeration but carries the protocol through
    operator algebra, so a noisy (mixed) resource is handled exactly.
    """
    in_amps = bundle.input_state(c0, c1).amplitudes
    rho = np.kron(np.outer(in_amps, in_amps.conj()), resource_rho)
    n = bundle.n_total
    k = len(bundle.meas_targets)
    t = rho.reshape([2] * (2 * n))
    target = bundle.target_state(c0, c1).amplitudes
    total = 0.0
    for label, bvec in bundle.outcomes:
        corr = bundle.corrections.get(label)
        if corr is None:
            continue
        b = bvec.amplitudes.reshape([2] * k)
        rows_removed = np.tensordot(b.conj(), t, axes=(tuple(range(k)), bundle.meas_targets))
        col_positions = tuple((n - k) + q for q in bundle.meas_targets)
        reduced = np.tensordot(rows_removed, b, axes=(col_positions, tuple(range(k))))
        dim = 1 << (n - k)
        branch_op = reduced.reshape(dim, dim)
        corrected = corr.matrix @ branch_op @ corr.matrix.conj().T
        total += float(np.vdot(target, corrected @ target).real)
    return total
