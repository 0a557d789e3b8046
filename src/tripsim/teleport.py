"""Teleportation protocols as exhaustively enumerated branch simulations.

Every protocol is expressed as one joint projective measurement with a
product basis (Bell pairs, the three-qubit basis, a rotated single-qubit
basis, computational kets), a per-outcome correction lookup, and a target
state to score against. A bundle compiles to one stack of logical Kraus
operators (:func:`_kraus_stack`) that serves the per-input reports, the
correction search, the exact input averages and the noise sweeps.
Branches are enumerated in lexicographic label order. Two fidelity
accountings are kept side by side: the sum of ``tr(rho_in rho~_f)`` over
unnormalized corrected branch operators, and the probability-weighted sum
of normalized branch fidelities; they must coincide.

Register convention: input qubits first, resource qubits after, so e.g.
the measurement-based single-qubit protocol lives on qubits (0 | 1 2 3)
with the receiver holding qubit 3.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .bases import WChannelSpec, bell2, bob_x_basis, ghz_basis
from .core import PAULIS, InputQubit, InvariantViolation, StateVector, tensor

_MAX = math.pi / 4
_DEGENERATE_CUT = 1e-14

PROTOCOL_NAMES = ("ghz-epr", "ghz-meas", "epr-via-ghz", "ghz-via-3epr", "w-channel")

# Inputs used to certify correction lookups; both components nonzero and
# phases generic so a candidate only scores 1 if it works for every input.
_PROBE_PAIRS = (
    (1 / math.sqrt(2), 1 / math.sqrt(2)),
    (math.sqrt(0.3), math.sqrt(0.7)),
    (math.sqrt(0.8), math.sqrt(0.2) * cmath.exp(0.9j)),
    (0.6, 0.8j),
    (math.sqrt(0.45), math.sqrt(0.55) * cmath.exp(-2.1j)),
)


@dataclass(frozen=True)
class BranchRecord:
    """One measurement outcome: label, weight, correction, delivered state."""

    outcome: tuple
    probability: float
    correction: str
    post_state: StateVector | None
    fidelity: float | None
    success: bool = True


@dataclass(frozen=True)
class TeleportReport:
    protocol: str
    params: dict
    branches: tuple[BranchRecord, ...]
    avg_fidelity: float
    avg_fidelity_traced: float
    success_probability: float

    @property
    def total_probability(self) -> float:
        return float(sum(b.probability for b in self.branches))

    def to_dict(self) -> dict:
        unit = lambda v: None if v is None else min(max(float(v), 0.0), 1.0)
        return {
            "protocol": self.protocol,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "branches": [
                {
                    "label": list(b.outcome),
                    "p": unit(b.probability),
                    "correction": b.correction,
                    "fidelity": unit(b.fidelity),
                    "success": b.success,
                }
                for b in self.branches
            ],
            "avg_fidelity": unit(self.avg_fidelity),
            "success_probability": unit(self.success_probability),
        }


@dataclass(frozen=True)
class FidelitySurface:
    """Input-averaged fidelity over a (channel angle × measurement angle) grid."""

    theta_grid: np.ndarray
    phi_grid: np.ndarray
    values: np.ndarray


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    return v


@dataclass(frozen=True)
class _Correction:
    desc: str
    matrix: np.ndarray
    success: bool = True


@dataclass(frozen=True)
class ProtocolBundle:
    """Everything needed to enumerate one protocol's branches."""

    name: str
    params: dict
    n_input: int
    resource: StateVector
    meas_targets: tuple[int, ...]
    outcomes: tuple[tuple[tuple, StateVector], ...]
    corrections: dict
    input_state: Callable
    target_state: Callable

    @property
    def n_total(self) -> int:
        return self.n_input + self.resource.num_qubits


def _compose(letters: str) -> np.ndarray:
    """Same-qubit Pauli product, leftmost factor applied last ("ZX" = Z·X)."""
    if letters in ("", "I", "none"):
        return np.eye(2, dtype=complex)
    return reduce(lambda a, b: a @ b, (PAULIS[ch] for ch in letters))


def _kron_letters(letters) -> np.ndarray:
    return reduce(np.kron, (PAULIS[ch] for ch in letters))


def _pair_state(c0: complex, c1: complex) -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = c0
    amps[0b11] = c1
    return StateVector(amps)


def _ghz_input_state(c0: complex, c1: complex) -> StateVector:
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = c0
    amps[0b111] = c1
    return StateVector(amps)


def _single_state(c0: complex, c1: complex) -> StateVector:
    return StateVector([c0, c1])


def coerce_pair(pair) -> tuple[complex, complex]:
    """Accept an InputQubit or a normalized 2-sequence of amplitudes."""
    if not isinstance(pair, InputQubit):
        c0, c1 = (complex(x) for x in pair)
        pair = InputQubit(c0, c1)
    return complex(pair.c0), complex(pair.c1)


# --- the Kraus-stack engine --------------------------------------------

def _columns(make_state: Callable) -> np.ndarray:
    """The linear map (c0, c1) -> make_state(c0, c1) as a (dim, 2) matrix."""
    return np.stack([make_state(1, 0).amplitudes, make_state(0, 1).amplitudes], axis=1)


def _kraus_stack(bundle: ProtocolBundle, resource_terms: np.ndarray) -> np.ndarray:
    """Logical Kraus operators K[j, l] = C_l (<b_l| ⊗ 1)(E ⊗ |R_j>).

    E encodes the input amplitudes into the input register and R_j runs
    over the rows of ``resource_terms``, pure (possibly unnormalized)
    resource states. The shape is (terms, outcomes, 2^(n - k), 2), so the
    corrected residual of outcome l for input c is ``K[j, l] @ c``.
    Outcomes without a correction keep the identity; :func:`_require_corrections`
    rejects any of them that is live.
    """
    n, k = bundle.n_total, len(bundle.meas_targets)
    n_terms, n_outcomes = len(resource_terms), len(bundle.outcomes)
    joint = np.einsum("ic,jr->jirc", _columns(bundle.input_state), resource_terms)
    joint = joint.reshape((n_terms,) + (2,) * n + (2,))
    bras = np.stack([bvec.amplitudes for _, bvec in bundle.outcomes]).conj()
    raw = np.tensordot(
        bras.reshape((n_outcomes,) + (2,) * k),
        joint,
        axes=(tuple(range(1, k + 1)), tuple(t + 1 for t in bundle.meas_targets)),
    )
    raw = raw.reshape(n_outcomes, n_terms, -1, 2).swapaxes(0, 1)
    identity = np.eye(raw.shape[2], dtype=complex)
    corrections = np.stack(
        [
            bundle.corrections[label].matrix if label in bundle.corrections else identity
            for label, _ in bundle.outcomes
        ]
    )
    return corrections @ raw


def _residuals(stack: np.ndarray, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals K c of shape (terms, inputs, outcomes, dim) and the outcome
    probabilities p[input, outcome], summed over the resource terms."""
    residuals = np.einsum("jldc,nc->jnld", stack, inputs)
    probs = (residuals.real**2 + residuals.imag**2).sum(axis=(0, 3))
    return residuals, probs


def _require_corrections(bundle: ProtocolBundle, probs: np.ndarray) -> None:
    for i, (label, _) in enumerate(bundle.outcomes):
        if label not in bundle.corrections and probs[:, i].max() >= _DEGENERATE_CUT:
            raise InvariantViolation(
                "correction-coverage", f"{bundle.name} has no correction for live outcome {label}"
            )


# --- correction search -------------------------------------------------

def _searched_corrections(bundle: ProtocolBundle) -> dict:
    """Build the per-outcome lookup by probing a correction-free bundle.

    Exhaustive search over the Pauli strings of the receiver width, scored
    in one batch: a candidate's score for an outcome is its worst-case
    fidelity across the probes for which that outcome is live. The first
    candidate in (fewest non-identity factors, lexicographic) order whose
    score is within 1e-12 of the best wins, so the lookup is deterministic.
    Outcomes that no probe reaches get no entry.
    """
    width = bundle.n_total - len(bundle.meas_targets)
    candidates = sorted(
        itertools.product("IXYZ", repeat=width),
        key=lambda ls: (sum(ch != "I" for ch in ls), ls),
    )
    matrices = np.stack([_kron_letters(letters) for letters in candidates])
    probes = np.array(_PROBE_PAIRS, dtype=complex)
    residuals, probs = _residuals(_kraus_stack(bundle, bundle.resource.amplitudes[None]), probes)
    targets = probes @ _columns(bundle.target_state).T
    overlaps = np.einsum(
        "ni,cij,nlj->cnl", targets.conj(), matrices, residuals[0], optimize=True
    )
    live = probs > _DEGENERATE_CUT
    scores = (overlaps.real**2 + overlaps.imag**2) / np.where(live, probs, 1.0)
    worst = np.where(live, scores, np.inf).min(axis=1)
    chosen = (worst >= worst.max(axis=0) - 1e-12).argmax(axis=0)
    table = {}
    for i, (label, _) in enumerate(bundle.outcomes):
        if live[:, i].any():
            letters = candidates[chosen[i]]
            desc = letters[0] if width == 1 else "⊗".join(letters)
            table[label] = _Correction(desc, matrices[chosen[i]])
    return table


# --- bundle builders ---------------------------------------------------

# Receiver-side lookup for the Bell-measurement + rotated-single-qubit
# protocol, keyed by (m, n, j); products apply right factor first.
GHZ_EPR_CORRECTIONS = {
    (0, 0, 0): "I",
    (0, 0, 1): "Z",
    (0, 1, 0): "X",
    (0, 1, 1): "XZ",
    (1, 0, 0): "Z",
    (1, 0, 1): "I",
    (1, 1, 0): "ZX",
    (1, 1, 1): "X",
}


def _bell_outcomes(theta: float):
    return [((m, n), bell2(theta, (m, n))) for m in (0, 1) for n in (0, 1)]


def _ghz_outcomes(theta: float):
    return [
        ((mu, lam, om), ghz_basis(theta, (mu, lam, om)))
        for mu in (0, 1)
        for lam in (0, 1)
        for om in (0, 1)
    ]


def _ghz_epr_bundle(bob_theta: float) -> ProtocolBundle:
    x_pair = bob_x_basis(bob_theta)
    outcomes = tuple(
        ((m, n, j), tensor(bell, x_pair[j]))
        for (m, n), bell in _bell_outcomes(_MAX)
        for j in (0, 1)
    )
    corrections = {
        label: _Correction(desc, _compose(desc))
        for label, desc in GHZ_EPR_CORRECTIONS.items()
    }
    return ProtocolBundle(
        name="ghz-epr",
        params={"bob_theta": bob_theta},
        n_input=1,
        resource=ghz_basis(_MAX, (0, 0, 0)),
        meas_targets=(0, 1, 2),
        outcomes=outcomes,
        corrections=corrections,
        input_state=_single_state,
        target_state=_single_state,
    )


def _ghz_meas_bundle(theta_channel: float, theta_meas: float) -> ProtocolBundle:
    corrections = {}
    for mu, lam, om in itertools.product((0, 1), repeat=3):
        desc = "Z" * mu + "X" * lam or "I"
        corrections[(mu, lam, om)] = _Correction(desc, _compose(desc))
    return ProtocolBundle(
        name="ghz-meas",
        params={"theta_channel": theta_channel, "theta_meas": theta_meas},
        n_input=1,
        resource=ghz_basis(theta_channel, (0, 0, 0)),
        meas_targets=(0, 1, 2),
        outcomes=tuple(_ghz_outcomes(theta_meas)),
        corrections=corrections,
        input_state=_single_state,
        target_state=_single_state,
    )


def _epr_via_ghz_bundle(theta_channel: float, corrections=None) -> ProtocolBundle:
    return ProtocolBundle(
        name="epr-via-ghz",
        params={"theta_channel": theta_channel},
        n_input=2,
        resource=ghz_basis(theta_channel, (0, 0, 0)),
        meas_targets=(0, 1, 2),
        outcomes=tuple(_ghz_outcomes(_MAX)),
        corrections=corrections if corrections is not None else {},
        input_state=_pair_state,
        target_state=_pair_state,
    )


@lru_cache(maxsize=1)
def _epr_via_ghz_corrections():
    return _searched_corrections(_epr_via_ghz_bundle(_MAX))


def _three_epr_bundle(thetas: tuple[float, float, float], corrections=None) -> ProtocolBundle:
    resource = reduce(tensor, (bell2(t, (0, 0)) for t in thetas))
    bells = dict(_bell_outcomes(_MAX))
    outcomes = tuple(
        (
            label,
            reduce(tensor, (bells[label[2 * i : 2 * i + 2]] for i in range(3))),
        )
        for label in itertools.product((0, 1), repeat=6)
    )
    return ProtocolBundle(
        name="ghz-via-3epr",
        params={"thetas": thetas},
        n_input=3,
        resource=resource,
        meas_targets=(0, 3, 1, 5, 2, 7),
        outcomes=outcomes,
        corrections=corrections if corrections is not None else {},
        input_state=_ghz_input_state,
        target_state=_ghz_input_state,
    )


@lru_cache(maxsize=1)
def _three_epr_corrections():
    return _searched_corrections(_three_epr_bundle((_MAX, _MAX, _MAX)))


def _w_channel_bundle(a: complex, b: complex, c: complex, corrections=None) -> ProtocolBundle:
    computational = (StateVector([1, 0]), StateVector([0, 1]))
    outcomes = tuple(
        ((m, n, q), tensor(bell, computational[q]))
        for (m, n), bell in _bell_outcomes(_MAX)
        for q in (0, 1)
    )
    return ProtocolBundle(
        name="w-channel",
        params={"a": a, "b": b, "c": c},
        n_input=1,
        resource=WChannelSpec(a, b, c).state(),
        meas_targets=(0, 1, 3),
        outcomes=outcomes,
        corrections=corrections if corrections is not None else {},
        input_state=_single_state,
        target_state=_single_state,
    )


@lru_cache(maxsize=1)
def _w_channel_corrections():
    """Success-branch lookup searched at the symmetric channel; outcomes
    where the last channel qubit reads 1 deliver nothing and get no
    correction attempt."""
    symmetric = 1 / math.sqrt(3)
    searched = _searched_corrections(_w_channel_bundle(symmetric, symmetric, symmetric))
    table = {}
    for m in (0, 1):
        for n in (0, 1):
            table[(m, n, 0)] = searched[(m, n, 0)]
            table[(m, n, 1)] = _Correction("none", np.eye(2, dtype=complex), success=False)
    return table


def protocol_bundle(name: str, **params) -> ProtocolBundle:
    """Registry entry point; unknown protocols or parameter keys are rejected."""
    if name == "ghz-epr":
        _allow(params, {"bob_theta"})
        return _ghz_epr_bundle(float(params.get("bob_theta", _MAX)))
    if name == "ghz-meas":
        _allow(params, {"theta_channel", "theta_meas"})
        return _ghz_meas_bundle(
            float(params.get("theta_channel", _MAX)), float(params.get("theta_meas", _MAX))
        )
    if name == "epr-via-ghz":
        _allow(params, {"theta_channel"})
        return _epr_via_ghz_bundle(
            float(params.get("theta_channel", _MAX)), _epr_via_ghz_corrections()
        )
    if name == "ghz-via-3epr":
        _allow(params, {"theta1", "theta2", "theta3"})
        thetas = tuple(float(params.get(k, _MAX)) for k in ("theta1", "theta2", "theta3"))
        return _three_epr_bundle(thetas, _three_epr_corrections())
    if name == "w-channel":
        _allow(params, {"a", "b", "c"})
        symmetric = 1 / math.sqrt(3)
        return _w_channel_bundle(
            complex(params.get("a", symmetric)),
            complex(params.get("b", symmetric)),
            complex(params.get("c", symmetric)),
            _w_channel_corrections(),
        )
    raise ValueError(f"unknown protocol {name!r}")


def _allow(params: dict, keys: set):
    unknown = set(params) - keys
    if unknown:
        raise ValueError(f"unknown parameter keys {sorted(unknown)}")


# --- enumeration -------------------------------------------------------

def _enumerate(bundle: ProtocolBundle, c0: complex, c1: complex) -> TeleportReport:
    target = bundle.target_state(c0, c1).amplitudes
    stack = _kraus_stack(bundle, bundle.resource.amplitudes[None])
    residuals, probs = _residuals(stack, np.array([[c0, c1]], dtype=complex))
    _require_corrections(bundle, probs)
    records = []
    sum_weighted = 0.0
    sum_traced = 0.0
    success_p = 0.0
    for (label, _), corrected, p in zip(bundle.outcomes, residuals[0, 0], probs[0]):
        p = float(p)
        corr = bundle.corrections.get(label)
        if p < _DEGENERATE_CUT:
            records.append(
                BranchRecord(
                    outcome=label,
                    probability=p,
                    correction=corr.desc if corr else "n/a",
                    post_state=None,
                    fidelity=None,
                    success=corr.success if corr else True,
                )
            )
            continue
        sum_traced += abs(np.vdot(target, corrected)) ** 2
        post = StateVector(corrected / math.sqrt(p))
        fid = min(max(abs(np.vdot(target, post.amplitudes)) ** 2, 0.0), 1.0)
        sum_weighted += p * fid
        if corr.success:
            success_p += p
        records.append(BranchRecord(label, p, corr.desc, post, fid, corr.success))
    return TeleportReport(
        protocol=bundle.name,
        params=bundle.params,
        branches=tuple(records),
        avg_fidelity=sum_weighted,
        avg_fidelity_traced=float(sum_traced),
        success_probability=success_p,
    )


def teleport_ghz_epr(input_qubit: InputQubit, bob_theta: float) -> TeleportReport:
    """Maximal three-qubit channel, Bell measurement by the sender, rotated
    single-qubit measurement by the intermediary, lookup correction by the
    receiver; eight branches labeled (m, n, j)."""
    return _enumerate(_ghz_epr_bundle(bob_theta), input_qubit.c0, input_qubit.c1)


def teleport_ghz_measurement(
    input_qubit: InputQubit, theta_channel: float, theta_meas: float
) -> TeleportReport:
    """Three-qubit channel at theta_channel, joint three-qubit measurement at
    theta_meas, correction Z^mu X^lam; outcomes with lam != omega carry zero
    probability and are recorded as degenerate."""
    return _enumerate(
        _ghz_meas_bundle(theta_channel, theta_meas), input_qubit.c0, input_qubit.c1
    )


def teleport_epr_via_ghz(input_pair, theta_channel: float) -> TeleportReport:
    """Teleport an entangled pair a0|00> + a1|11> through a three-qubit
    channel: maximal three-qubit measurement on (0,1,2), searched two-qubit
    Pauli correction on the receiving pair."""
    c0, c1 = coerce_pair(input_pair)
    bundle = _epr_via_ghz_bundle(theta_channel, _epr_via_ghz_corrections())
    return _enumerate(bundle, c0, c1)


def teleport_ghz_via_3epr(input_ghz, channels: tuple[float, float, float]) -> TeleportReport:
    """Teleport a0|000> + a1|111> through three pair channels with Bell
    measurements on (0,3), (1,5), (2,7); 64 branches, searched per-qubit
    Pauli corrections on the receiving triple (4,6,8)."""
    c0, c1 = coerce_pair(input_ghz)
    bundle = _three_epr_bundle(tuple(float(t) for t in channels), _three_epr_corrections())
    return _enumerate(bundle, c0, c1)


def teleport_w_channel(input_qubit: InputQubit, w) -> TeleportReport:
    """Probabilistic single-qubit teleport through a single-excitation
    channel: Bell measurement on (0,1), computational readout of the last
    channel qubit; readout 1 means no teleport (success=False)."""
    if isinstance(w, WChannelSpec):
        a, b, c = w.a, w.b, w.c
    else:
        a, b, c = (complex(x) for x in w)
        WChannelSpec(a, b, c)
    bundle = _w_channel_bundle(a, b, c, _w_channel_corrections())
    return _enumerate(bundle, input_qubit.c0, input_qubit.c1)


# --- input averaging ---------------------------------------------------

# The six octahedron states +-z, +-x, +-y. The branch-summed fidelity is a
# degree-(2, 2) polynomial in (c, c*), so its mean over these six inputs
# equals the Haar average exactly (Nielsen, Phys. Lett. A 303, 249 (2002);
# Horodecki, Horodecki and Horodecki, PRA 60, 1888 (1999)).
_OCTAHEDRON = (
    (1.0, 0.0),
    (0.0, 1.0),
    (math.sqrt(0.5), math.sqrt(0.5)),
    (math.sqrt(0.5), -math.sqrt(0.5)),
    (math.sqrt(0.5), 1j * math.sqrt(0.5)),
    (math.sqrt(0.5), -1j * math.sqrt(0.5)),
)

# Resource terms evaluated per stack, so many-term noise expansions stay
# within a few megabytes.
_TERM_CHUNK = 64


def _term_fidelities(bundle: ProtocolBundle, resource_terms: np.ndarray) -> np.ndarray:
    """Exact input-averaged branch-summed fidelity of each resource term.

    Row j of ``resource_terms`` is a pure (possibly unnormalized) resource
    term N_j|R>; entry j of the result is its six-state mean fidelity.
    Raises ``InvariantViolation("correction-coverage")`` if an outcome
    without a correction is live for any term and averaged input.
    """
    inputs = np.array(_OCTAHEDRON, dtype=complex)
    targets = inputs @ _columns(bundle.target_state).T
    per_term = []
    probs = np.zeros((len(inputs), len(bundle.outcomes)))
    for start in range(0, len(resource_terms), _TERM_CHUNK):
        stack = _kraus_stack(bundle, resource_terms[start : start + _TERM_CHUNK])
        residuals, chunk_probs = _residuals(stack, inputs)
        overlaps = np.einsum("nd,jnld->jnl", targets.conj(), residuals)
        per_term.append((overlaps.real**2 + overlaps.imag**2).sum(axis=(1, 2)))
        probs += chunk_probs
    _require_corrections(bundle, probs)
    return np.concatenate(per_term) / len(inputs)


def average_fidelity(bundle: ProtocolBundle, resource_terms=None) -> float:
    """Exact input-averaged branch-summed fidelity of a protocol bundle.

    ``resource_terms`` lists pure resource terms N_j|R> (rows) whose
    projectors sum to a mixed resource; by default the bundle's own pure
    resource. Raises ``InvariantViolation("correction-coverage")`` if an
    outcome without a correction is live for any of the averaged inputs.
    """
    if resource_terms is None:
        resource_terms = bundle.resource.amplitudes[None]
    return float(_term_fidelities(bundle, resource_terms).sum())


def average_fidelity_ghz_meas(theta_channel: float, theta_meas: float) -> float:
    """Exact input-averaged fidelity of the measurement protocol."""
    return average_fidelity(_ghz_meas_bundle(theta_channel, theta_meas))


def closed_form_avg_fidelity(theta_channel: float, theta_meas: float) -> float:
    """2/3 + (1/3) sin(2 theta_channel) sin(2 theta_meas)."""
    return 2.0 / 3.0 + math.sin(2.0 * theta_channel) * math.sin(2.0 * theta_meas) / 3.0


def avg_fidelity_surface(theta_grid, phi_grid=None) -> FidelitySurface:
    """Input-averaged fidelity over a grid of (channel, measurement) angles.

    One Kraus stack per measurement angle carries every channel angle as a
    resource term; ``values[i, j]`` belongs to (theta_grid[i], phi_grid[j]).
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    phi_grid = theta_grid if phi_grid is None else np.asarray(phi_grid, dtype=float)
    for grid in (theta_grid, phi_grid):
        if grid.min() < 0.0 or grid.max() > math.pi / 2 + 1e-12:
            raise ValueError("grid angles must lie in [0, pi/2]")
    channels = np.stack([ghz_basis(th, (0, 0, 0)).amplitudes for th in theta_grid])
    values = np.stack(
        [_term_fidelities(_ghz_meas_bundle(_MAX, ph), channels) for ph in phi_grid], axis=1
    )
    return FidelitySurface(theta_grid, phi_grid, np.clip(values, 0.0, 1.0))
