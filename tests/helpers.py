"""Shared test utilities: random states, an independent operator-lifting
oracle built by basis-index enumeration, a density-matrix protocol oracle
and a looped correction search (all deliberately not the library path)."""

import itertools

import numpy as np

from tripsim.core import InputQubit, StateVector
from tripsim.teleport import (
    _DEGENERATE_CUT,
    _PROBE_PAIRS,
    _Correction,
    _columns,
    _kraus_stack,
    _kron_letters,
    _residuals,
)


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


def search_pauli_correction(samples, width: int) -> _Correction:
    """Exhaustive search over Pauli strings of the given width, one
    candidate at a time.

    Picks the candidate maximizing the worst-case fidelity across the
    probe samples; ties resolve to the fewest non-identity factors, then
    lexicographic order, so the lookup is deterministic.
    """
    candidates = sorted(
        itertools.product("IXYZ", repeat=width),
        key=lambda ls: (sum(ch != "I" for ch in ls), ls),
    )
    best: _Correction | None = None
    best_score = -1.0
    for letters in candidates:
        mat = _kron_letters(letters)
        score = min(
            abs(np.vdot(target, mat @ residual)) ** 2 / np.vdot(residual, residual).real
            for residual, target in samples
        )
        if score > best_score + 1e-12:
            best_score = score
            desc = letters[0] if width == 1 else "⊗".join(letters)
            best = _Correction(desc, mat)
    assert best is not None
    return best


def looped_corrections(bundle) -> dict:
    """Per-outcome lookup of a correction-free bundle, searched outcome by
    outcome over the probe inputs for which the outcome is live."""
    width = bundle.n_total - len(bundle.meas_targets)
    probes = np.array(_PROBE_PAIRS, dtype=complex)
    residuals, probs = _residuals(_kraus_stack(bundle, bundle.resource.amplitudes[None]), probes)
    targets = probes @ _columns(bundle.target_state).T
    per_label: dict[tuple, list] = {}
    for n, target in enumerate(targets):
        for i, (label, _) in enumerate(bundle.outcomes):
            if probs[n, i] > _DEGENERATE_CUT:
                per_label.setdefault(label, []).append((residuals[0, n, i], target))
    return {
        label: search_pauli_correction(samples, width)
        for label, samples in per_label.items()
    }
