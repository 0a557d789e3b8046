"""Shared test utilities: random states, an independent operator-lifting
oracle built by basis-index enumeration, a density-matrix protocol oracle,
a looped correction search, a one-draw-at-a-time twirl and a projection
oracle for the branch tables and per-reduction classification diagnostics
(all deliberately not the library path)."""

import cmath
import dataclasses
import itertools
import math

import numpy as np

from tripsim.bases import bell2, bob_x_basis, ghz_basis
from tripsim.classify import ReducedDiagnostics, concurrence, three_tangle
from tripsim.core import DensityOp, InputQubit, StateVector, _string_matrix, partial_inner, partial_trace, project, tensor
from tripsim.teleport import (
    GHZ_EPR_CORRECTIONS,
    _DEGENERATE_CUT,
    _Correction,
)


def with_entry(bundle, **changes):
    """A copy of ``bundle`` whose table entry has the fields ``changes``, as
    ``dataclasses.replace`` takes them: the builders ``outcomes`` and
    ``corrections`` are functions. The new entry builds its own corners."""
    return dataclasses.replace(bundle, protocol=dataclasses.replace(bundle.protocol, **changes))


def repetition(n: int, c0: complex, c1: complex) -> np.ndarray:
    """The amplitudes of c0|0...0> + c1|1...1> on n qubits, the input
    encoding every protocol carries."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[0], amps[-1] = c0, c1
    return amps


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


def tables_oracle(theta, c0, c1) -> dict:
    """The five branch tables of the ghz-epr protocol, by projecting
    c ⊗ GHZ onto each maximal Bell outcome (normalized pair state) and
    taking the inner product with each receiver basis state."""
    iq = InputQubit(c0, c1)
    psi = tensor(iq.state(), ghz_basis(math.pi / 4, (0, 0, 0)))
    x_pair = bob_x_basis(theta)
    names = ("pair_states", "receiver_states", "corrections", "corrected_states", "fidelities")
    tables = {name: {} for name in names}
    for m in (0, 1):
        for n in (0, 1):
            _, eta = project(psi, bell2(math.pi / 4, (m, n)), (0, 1))
            tables["pair_states"][f"{m}{n}"] = eta.amplitudes
            for j in (0, 1):
                key = f"{m}{n}{j}"
                chi = partial_inner(eta, x_pair[j], (0,)).amplitudes
                desc = GHZ_EPR_CORRECTIONS[(m, n, j)]
                fixed = _string_matrix(desc) @ chi
                norm2 = float(np.vdot(fixed, fixed).real)
                tables["receiver_states"][key] = chi
                tables["corrections"][key] = desc
                tables["corrected_states"][key] = fixed
                tables["fidelities"][key] = (
                    abs(np.vdot(iq.state().amplitudes, fixed)) ** 2 / norm2
                    if norm2 > 1e-14
                    else None
                )
    return tables


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


def _dense_layout(protocol: str, params: dict):
    """Input qubit count, the resource amplitudes (qubits after the input),
    the receiving qubits, and each outcome as its label and the (bra,
    full-register qubits) factors of its measurement, built from the bases."""
    bell = {(m, n): bell2(math.pi / 4, (m, n)).amplitudes for m in (0, 1) for n in (0, 1)}
    bits = lambda k: itertools.product((0, 1), repeat=k)
    if protocol == "ghz-epr":
        x_pair = [x.amplitudes for x in bob_x_basis(params["bob_theta"])]
        outcomes = [((m, n, j), [(bell[m, n], (0, 1)), (x_pair[j], (2,))]) for m, n, j in bits(3)]
        return 1, ghz_basis(math.pi / 4, (0, 0, 0)).amplitudes, (3,), outcomes
    if protocol == "ghz-meas":
        outcomes = [(lab, [(ghz_basis(params["theta_meas"], lab).amplitudes, (0, 1, 2))]) for lab in bits(3)]
        return 1, ghz_basis(params["theta_channel"], (0, 0, 0)).amplitudes, (3,), outcomes
    if protocol == "epr-via-ghz":
        outcomes = [(lab, [(ghz_basis(math.pi / 4, lab).amplitudes, (0, 1, 2))]) for lab in bits(3)]
        return 2, ghz_basis(params["theta_channel"], (0, 0, 0)).amplitudes, (3, 4), outcomes
    if protocol == "ghz-via-3epr":
        resource = np.array([1.0 + 0j])
        for key in ("theta1", "theta2", "theta3"):
            resource = np.kron(resource, bell2(params[key], (0, 0)).amplitudes)
        pairs = ((0, 3), (1, 5), (2, 7))
        outcomes = [
            (lab, [(bell[lab[2 * i : 2 * i + 2]], pairs[i]) for i in range(3)]) for lab in bits(6)
        ]
        return 3, resource, (4, 6, 8), outcomes
    if protocol == "w-channel":
        resource = np.zeros(8, dtype=complex)
        resource[[0b100, 0b010, 0b001]] = params["a"], params["b"], params["c"]
        kets = np.eye(2, dtype=complex)
        outcomes = [((m, n, q), [(bell[m, n], (0, 1)), (kets[q], (3,))]) for m, n, q in bits(3)]
        return 1, resource, (2,), outcomes
    raise ValueError(protocol)


def dense_branches(protocol: str, params: dict, corrections: dict, a0, a1) -> dict:
    """Probability and fidelity of every outcome of a protocol for the input
    a0|0...0> + a1|1...1>, on the full register: each measured bra's
    projector, each correction and the target projector are lifted with
    :func:`lift_operator`. Outcomes without a correction keep the identity."""
    n_in, resource, kept, outcomes = _dense_layout(protocol, params)
    psi = np.kron(repetition(n_in, a0, a1), resource)
    n = n_in + int(resource.size).bit_length() - 1
    target = repetition(len(kept), a0, a1)
    lifted = {}

    def lift(op, qubits):
        key = (op.tobytes(), qubits)
        if key not in lifted:
            lifted[key] = lift_operator(op, qubits, n)
        return lifted[key]

    on_target = lift(np.outer(target, target.conj()), kept)
    branches = {}
    for label, factors in outcomes:
        phi = psi
        for bra, qubits in factors:
            phi = lift(np.outer(bra, bra.conj()), qubits) @ phi
        fix = corrections.get(label)
        if fix is not None:
            phi = lift(fix.matrix, kept) @ phi
        p = float(np.vdot(phi, phi).real)
        branches[label] = (p, float(np.vdot(phi, on_target @ phi).real) / p if p > 0 else None)
    return branches


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
    entry = bundle.protocol
    target = repetition(entry.n_input, c0, c1)
    rho = np.kron(np.outer(target, target.conj()), resource_rho)
    n = bundle.n_total
    k = len(entry.meas_targets)
    t = rho.reshape([2] * (2 * n))
    total = 0.0
    for label, bvec in bundle.outcomes:
        corr = bundle.protocol.corrections().get(label)
        if corr is None:
            continue
        b = bvec.amplitudes.reshape([2] * k)
        rows_removed = np.tensordot(b.conj(), t, axes=(tuple(range(k)), entry.meas_targets))
        col_positions = tuple((n - k) + q for q in entry.meas_targets)
        reduced = np.tensordot(rows_removed, b, axes=(col_positions, tuple(range(k))))
        dim = 1 << (n - k)
        branch_op = reduced.reshape(dim, dim)
        corrected = corr.matrix @ branch_op @ corr.matrix.conj().T
        total += float(np.vdot(target, corrected @ target).real)
    return total


def _residuals(stack: np.ndarray, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals K c of shape (inputs, outcomes, dim) and the outcome
    probabilities p[input, outcome]."""
    residuals = np.einsum("ldc,nc->nld", stack, inputs)
    probs = (residuals.real**2 + residuals.imag**2).sum(axis=2)
    return residuals, probs


# Inputs that certify a correction lookup; both components nonzero and
# phases generic so a candidate only scores 1 if it works for every input.
PROBE_PAIRS = (
    (1 / math.sqrt(2), 1 / math.sqrt(2)),
    (math.sqrt(0.3), math.sqrt(0.7)),
    (math.sqrt(0.8), math.sqrt(0.2) * cmath.exp(0.9j)),
    (0.6, 0.8j),
    (math.sqrt(0.45), math.sqrt(0.55) * cmath.exp(-2.1j)),
)


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
        mat = _string_matrix(*letters)
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
    width = bundle.n_total - len(bundle.protocol.meas_targets)
    probes = np.array(PROBE_PAIRS, dtype=complex)
    residuals, probs = _residuals(bundle.protocol.kraus(bundle.coords), probes)
    targets = [repetition(bundle.protocol.n_input, c0, c1) for c0, c1 in probes]
    per_label: dict[tuple, list] = {}
    for n, target in enumerate(targets):
        for i, (label, _) in enumerate(bundle.outcomes):
            if probs[n, i] > _DEGENERATE_CUT:
                per_label.setdefault(label, []).append((residuals[n, i], target))
    return {
        label: search_pauli_correction(samples, width)
        for label, samples in per_label.items()
    }


def looped_haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed d×d unitary: QR of a complex Gaussian whose real
    then imaginary block come from two ``standard_normal`` calls, with the
    phases of R's diagonal fixed."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def looped_haar_averages(rho, samples, rng, conjugate_second, checkpoints):
    """Running twirl averages of (U⊗V) rho (U⊗V)†, V = U* or U, one draw and
    one ``np.kron`` at a time, at ``checkpoints`` evenly spaced draw counts."""
    d = int(round(math.sqrt(rho.dim)))
    stops = sorted({max(1, samples * k // checkpoints) for k in range(1, checkpoints + 1)})
    acc = np.zeros((d * d, d * d), dtype=complex)
    averages = []
    done = 0
    for stop in stops:
        for _ in range(stop - done):
            u = looped_haar_unitary(d, rng)
            big = np.kron(u, u.conj() if conjugate_second else u)
            acc += big @ rho.matrix @ big.conj().T
        done = stop
        averages.append((stop, acc / stop))
    return averages


def looped_diagnostics(s: StateVector) -> ReducedDiagnostics:
    """Purities, pair concurrences and 3-tangle with one checked
    ``partial_trace`` per reduction."""
    rho = DensityOp.from_pure(s)
    purities = tuple(partial_trace(rho, [q]).purity() for q in range(3))
    pairs = ((0, 1), (0, 2), (1, 2))
    concurrences = tuple(concurrence(partial_trace(rho, pair)) for pair in pairs)
    return ReducedDiagnostics(purities, concurrences, three_tangle(s))
