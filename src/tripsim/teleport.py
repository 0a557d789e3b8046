"""Teleportation protocols as exhaustively enumerated branch simulations.

Every protocol is one joint projective measurement with a product basis
(Bell pairs, the three-qubit basis, a rotated single-qubit basis,
computational kets) and a per-outcome correction lookup; the receiver
should end up holding the input encoding, the repetition code
c0|0...0> + c1|1...1> on the input qubits (:func:`_encoding`). Every input
qubit is measured, so each outcome bra contracts the encoding to a
resource-independent factor (:func:`_branch_factors`). On a resource it
gives the Kraus stack (:meth:`Protocol.kraus`) behind the per-input reports;
on the resource basis, in closed form, the resource response W behind the
exact input averages and the noise sweeps.
Each protocol is one entry of the table :data:`PROTOCOLS`. Its coordinate
map takes the parameters to coordinate vectors, (cos theta, sin theta) per
angle or the channel amplitudes (a, b, c), in each of which the resource
and the outcome bras are linear. So the Kraus stack is a weighted sum of
the stacks at the corners, the combinations of exact unit coordinate
vectors, which each entry builds once per process, on first use
(:attr:`Protocol.corners`). A bundle (:func:`protocol_bundle`) is its table
entry, its parameters and their coordinates: it builds its resource and
outcome states only when they are read, and its Kraus stack is one product
of the corner weights with the corners. A ``teleport_*`` call is
``enumerate_branches(protocol_bundle(...))`` and builds no resource or
outcome state. W and the noise sweeps never read a stack.
Each correction is the description its entry's rule prints (:func:`_correction_stack`).
Branches are enumerated in lexicographic label order, with two fidelity
accountings side by side that must coincide: the sum of ``tr(rho_in rho~_f)``
over unnormalized corrected branches, and the probability-weighted sum of
normalized branch fidelities. The post-states of the live branches are
built as one checked :meth:`StateVector.stack`, and the branch sums are
left folds, so reports carry the same bits on every Python version.

Register convention: input qubits first, resource qubits after, so e.g.
the measurement-based single-qubit protocol lives on qubits (0 | 1 2 3)
with the receiver holding qubit 3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np

from .bases import WChannelSpec, _bell2_member, _bob_x_member, _cos_sin, _ghz_member, bell2, ghz_basis
from .core import DensityOp, InputQubit, InvariantViolation, StateVector, _string_matrix, clamp_unit, tensor

_MAX = math.pi / 4
_DEGENERATE_CUT = 1e-14

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
        return _left_fold(b.probability for b in self.branches)

    def to_dict(self) -> dict:
        unit = lambda v: None if v is None else clamp_unit(v, "teleport payload value")
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
    return v


@dataclass(frozen=True)
class ProtocolBundle:
    """One protocol at resolved parameters: its table entry, its name, the
    parameters and their coordinates (:attr:`Protocol.coordinates`). The
    resource and the outcomes are built from the coordinates when first
    read; the layout, the input encoding and the corrections are the
    entry's."""

    protocol: Protocol
    name: str
    params: dict
    coords: dict

    @cached_property
    def resource(self) -> StateVector:
        return self.protocol.resource(self.coords)

    @cached_property
    def outcomes(self) -> tuple[tuple[tuple, StateVector], ...]:
        return self.protocol.outcomes(self.coords)

    @property
    def n_total(self) -> int:
        """Read off the layout: the inputs, then the resource, whose unmeasured qubits are the n_input receivers."""
        return self.protocol.n_input + len(self.protocol.meas_targets)


@lru_cache(maxsize=None)
def _encoding(n: int) -> np.ndarray:
    """The input encoding of every protocol, the repetition code (c0, c1) ->
    c0|0...0> + c1|1...1> on n qubits, as a read-only (2^n, 2) matrix."""
    columns = np.zeros((1 << n, 2), dtype=complex)
    columns[0, 0] = columns[-1, 1] = 1
    columns.setflags(write=False)
    return columns


def coerce_pair(pair) -> tuple[complex, complex]:
    """Accept an InputQubit or a normalized 2-sequence of amplitudes."""
    if not isinstance(pair, InputQubit):
        c0, c1 = (complex(x) for x in pair)
        pair = InputQubit(c0, c1)
    return complex(pair.c0), complex(pair.c1)


# --- the branch-map engine ---------------------------------------------

def _branch_factors(bundle: ProtocolBundle):
    """The resource-independent part of every branch map.

    Precondition: the bundle measures all of its input qubits. Then the
    outcome bra <b_l| contracts the input encoding E to B[l, m, c], where m
    runs over the measured resource qubits, and for a resource R

        K_l(R) c = C_l sum_m (B_l c)[m] R[m, u]

    with u the unmeasured resource qubits, in ascending order, and C_l the
    correction, which only the label decides (:func:`_correction_stack`).
    Returns B as (outcomes, 2^|m|, 2) and the resource qubit order (m, u).
    """
    n_in, targets = bundle.protocol.n_input, bundle.protocol.meas_targets
    bras = np.array([bvec.amplitudes for _, bvec in bundle.outcomes]).conj()
    encoding = _encoding(n_in).reshape((2,) * n_in + (2,))
    factor = np.tensordot(
        bras.reshape((len(bras),) + (2,) * len(targets)),
        encoding,
        axes=([targets.index(q) + 1 for q in range(n_in)], list(range(n_in))),
    )
    measured = tuple(q - n_in for q in targets if q >= n_in)
    kept = tuple(q - n_in for q in range(n_in, bundle.n_total) if q not in targets)
    return factor.reshape(len(bras), -1, 2), measured + kept


def _contract(factors: tuple, resource: StateVector) -> np.ndarray:
    """The uncorrected Kraus stack sum_m (B_l c)[m] R[m, u] of the branch
    factors ``factors`` (see :func:`_branch_factors`) on the resource ``resource``."""
    factor, order = factors
    amps = resource.amplitudes.reshape((2,) * len(order))
    amps = amps.transpose(order).reshape(factor.shape[1], -1)
    return np.einsum("lmc,mu->luc", factor, amps)


def _correction_stack(fixes, n: int) -> np.ndarray:
    """The stack C of the corrections described by ``fixes`` on n receiver qubits: the Kronecker product of each
    one's ``⊗``-separated Pauli products (:func:`core._string_matrix`), the identity for ``None`` and ``"none"``."""
    identity = ("",) * n
    return np.array([_string_matrix(*(identity if fix in (None, "none") else fix.split("⊗"))) for fix in fixes])


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


# Outcome bases that do not depend on a call's parameters are built once
# per process and shared; their amplitudes are read-only.

@lru_cache(maxsize=1)
def _bell_outcomes():
    """The four maximal Bell outcomes, labeled (m, n)."""
    return tuple(((m, n), bell2(_MAX, (m, n))) for m in (0, 1) for n in (0, 1))


def _ghz_outcomes(b):
    """The eight three-qubit outcomes at coordinates ``b``, labeled (mu, lam, omega)."""
    return tuple((label, _ghz_member(b, label)) for label in itertools.product((0, 1), repeat=3))


@lru_cache(maxsize=1)
def _maximal_ghz_outcomes():
    return _ghz_outcomes(_cos_sin("theta", _MAX))


def _product(*bases):
    """The product basis of (label, state) bases, each in lexicographic label
    order: labels joined, states tensored left to right, in that order too."""
    return tuple(
        (sum((label for label, _ in members), ()), reduce(tensor, (state for _, state in members)))
        for members in itertools.product(*bases)
    )


@lru_cache(maxsize=1)
def _three_bell_outcomes():
    """The 64 outcomes of three maximal Bell measurements, labeled
    (m1, n1, m2, n2, m3, n3)."""
    return _product(_bell_outcomes(), _bell_outcomes(), _bell_outcomes())


@lru_cache(maxsize=1)
def _w_channel_outcomes():
    """A maximal Bell outcome times a computational readout, labeled (m, n, q)."""
    return _product(_bell_outcomes(), (((0,), StateVector([1, 0])), ((1,), StateVector([0, 1]))))


def _ghz_epr_outcomes(b):
    """A maximal Bell outcome times the receiver's rotated basis, labeled (m, n, j)."""
    return _product(_bell_outcomes(), tuple(zip([(0,), (1,)], _bob_x_member(b))))


def _pauli_fix(xs, z: int) -> str:
    """X on each receiver qubit whose bit in ``xs`` is set; for odd ``z``, one
    Z on the last X-carrying qubit (making it Y), else on the last qubit. On
    the repetition-code states these protocols deliver, every Z placement
    acts alike; this is the one with the fewest non-identity factors, then
    first in I < X < Y < Z order."""
    letters = ["X" if x else "I" for x in xs]
    if z:
        q = max((i for i, ch in enumerate(letters) if ch == "X"), default=len(letters) - 1)
        letters[q] = "Y" if letters[q] == "X" else "Z"
    return "⊗".join(letters)


@dataclass(frozen=True)
class Protocol:
    """What one protocol is made of: its parameters, each mapped to its
    default, whose type is the parameter's type; its layout, the input qubits
    (which carry the repetition code :func:`_encoding`) and the measured
    ones; its coordinate map; builders of the resource and the outcomes from
    the coordinates; and its correction rule, from label bits to a description or ``None``.

    The coordinate map checks the resolved parameters and maps them to
    coordinate vectors: (cos theta, sin theta) per angle, or the channel
    amplitudes (a, b, c). The resource and the outcome bras are linear in
    each vector, so the Kraus stack is a sum of the :attr:`corners` weighted
    by products of coordinates, one from each vector (:meth:`kraus`).
    """

    params: dict
    n_input: int
    meas_targets: tuple[int, ...]
    coordinates: Callable[[dict], dict]
    resource: Callable[[dict], StateVector]
    outcomes: Callable[[dict], tuple]
    corrections: Callable[..., str | None]

    @cached_property
    def _corner_pass(self) -> tuple[tuple[ProtocolBundle, tuple], ...]:
        """Built once per protocol: each corner's bundle, at exact unit coordinate vectors, and its factors."""
        vectors = self.coordinates(self.params)
        units = itertools.product(*(np.eye(len(v)).tolist() for v in vectors.values()))
        bundles = (ProtocolBundle(self, "", self.params, dict(zip(vectors, unit))) for unit in units)
        return tuple((b, _branch_factors(b)) for b in bundles)

    @cached_property
    def corners(self) -> tuple[tuple, np.ndarray]:
        """The outcome labels, and the Kraus stacks at the corners of :attr:`_corner_pass`, one read-only
        (corners, outcomes, dim, 2) array: C from :attr:`fixes`, read first, on each corner's factors and resource."""
        labels = tuple(label for label, _ in self._corner_pass[0][0].outcomes)
        corrections = _correction_stack(self.fixes, self.n_input)
        stacks = corrections @ np.stack([_contract(factors, b.resource) for b, factors in self._corner_pass])
        stacks.setflags(write=False)
        return labels, stacks

    @cached_property
    def fixes(self) -> tuple:
        """Each outcome's correction description in outcome order, or ``None`` where the rule gives none.
        Built once per protocol; raises ``InvariantViolation("correction-coverage")``
        if an outcome without one has a nonzero branch factor B_l at some corner,
        read off :attr:`_corner_pass` with no contraction. B is linear in each
        coordinate vector, so no other outcome is ever live, even under noise."""
        labels = [label for label, _ in self._corner_pass[0][0].outcomes]
        fixes = tuple(self.corrections(*label) for label in labels)
        live = np.any([factors[0].any(axis=(1, 2)) for _, factors in self._corner_pass], axis=0)
        for label, fix, is_live in zip(labels, fixes, live):
            if is_live and fix is None:
                raise InvariantViolation("correction-coverage", f"no correction for live outcome {label}")
        return fixes

    def kraus(self, coords: dict) -> np.ndarray:
        """Logical Kraus operators K[l] = C_l (<b_l| ⊗ 1)(E ⊗ |R>) of the resource
        R at ``coords``, shape (outcomes, 2^(n - k), 2): outcome l's corrected
        residual for input c is ``K[l] @ c``; C_l = 1 for an outcome without a
        correction (:attr:`fixes`, read by :attr:`corners`, rejects a live one).
        One product of the corner weights with the corner stacks."""
        weights = np.array([math.prod(w) for w in itertools.product(*coords.values())])
        corners = self.corners[1]
        return (weights @ corners.reshape(len(weights), -1)).reshape(corners.shape[1:])


def _angles(params: dict) -> dict:
    return {k: _cos_sin(k, v) for k, v in params.items()}


def _w_amplitudes(params: dict) -> dict:
    spec = WChannelSpec(**params)
    return {"w": (spec.a, spec.b, spec.c)}


PROTOCOLS: dict[str, Protocol] = {
    "ghz-epr": Protocol(
        {"bob_theta": _MAX}, 1, (0, 1, 2), _angles,
        lambda x: ghz_basis(_MAX, (0, 0, 0)),
        lambda x: _ghz_epr_outcomes(x["bob_theta"]),
        lambda *label: GHZ_EPR_CORRECTIONS.get(label),
    ),
    "ghz-meas": Protocol(
        {"theta_channel": _MAX, "theta_meas": _MAX}, 1, (0, 1, 2), _angles,
        lambda x: _ghz_member(x["theta_channel"], (0, 0, 0)),
        lambda x: _ghz_outcomes(x["theta_meas"]),
        # Z^mu X^lam for outcome (mu, lam, omega).
        lambda mu, lam, om: "Z" * mu + "X" * lam or "I",
    ),
    "epr-via-ghz": Protocol(
        {"theta_channel": _MAX}, 2, (0, 1, 2), _angles,
        lambda x: _ghz_member(x["theta_channel"], (0, 0, 0)),
        lambda x: _maximal_ghz_outcomes(),
        # X⊗X for omega = 1 and one Z for mu = 1 on outcome (mu, lam, omega);
        # the outcomes with lam = 1 are dead and have none.
        lambda mu, lam, om: None if lam else _pauli_fix((om, om), mu),
    ),
    "ghz-via-3epr": Protocol(
        {"theta1": _MAX, "theta2": _MAX, "theta3": _MAX}, 3, (0, 3, 1, 5, 2, 7),
        _angles, lambda x: reduce(tensor, (_bell2_member(b, (0, 0)) for b in x.values())),
        lambda x: _three_bell_outcomes(),
        # X on receiver i for n_i = 1 and one Z for odd m1 + m2 + m3 on
        # outcome (m1, n1, m2, n2, m3, n3).
        lambda m1, n1, m2, n2, m3, n3: _pauli_fix((n1, n2, n3), m1 ^ m2 ^ m3),
    ),
    "w-channel": Protocol(
        dict.fromkeys("abc", complex(1 / math.sqrt(3))), 1, (0, 1, 3),
        _w_amplitudes, lambda x: WChannelSpec(*x["w"]).state(),
        lambda x: _w_channel_outcomes(),
        # X^(1-n) Z^m, up to phase, on outcome (m, n, 0). Readout q = 1
        # delivers nothing, so it gets no correction attempt and fails.
        lambda m, n, q: "none" if q else _pauli_fix((1 - n,), m),
    ),
}
PROTOCOL_NAMES = tuple(PROTOCOLS)


def protocol_bundle(name: str, **params) -> ProtocolBundle:
    """Registry entry point; unknown protocols or parameter keys are rejected.

    A missing parameter takes its default, and each value is converted to
    the type of its default. The bundle holds the table entry, the
    resolved parameters and their coordinates; it builds no state.
    """
    protocol = PROTOCOLS.get(name)
    if protocol is None:
        raise ValueError(f"unknown protocol {name!r}")
    unknown = params.keys() - protocol.params.keys()
    if unknown:
        raise ValueError(f"parameters {sorted(unknown)} do not apply to {name}")
    resolved = {k: type(v)(params.get(k, v)) for k, v in protocol.params.items()}
    return ProtocolBundle(protocol, name, resolved, protocol.coordinates(resolved))


# --- enumeration -------------------------------------------------------

def _left_fold(values) -> float:
    """Sum in order with one rounding per term. The built-in ``sum``
    compensates float rounding from Python 3.12 on; this fold gives the
    same bits on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


def enumerate_branches(bundle: ProtocolBundle, c0: complex, c1: complex) -> TeleportReport:
    """Every branch of a bundle for the input (c0, c1), which must be a
    normalized :class:`StateVector`, in outcome order: the rows of its Kraus
    stack (:meth:`Protocol.kraus`) applied to it, labeled by the corners.

    The live residuals are normalized in one division and checked as one
    :meth:`StateVector.stack`; a NaN weight counts as live, so it reaches
    that check and raises ``state-normalization``. The branch fidelities
    are one product of the normalized rows with the target, and
    ``avg_fidelity_traced`` comes from the unnormalized rows. Raises
    ``InvariantViolation("correction-coverage")`` as :attr:`Protocol.fixes`.
    """
    labels, fixes = bundle.protocol.corners[0], bundle.protocol.fixes
    c = StateVector([c0, c1]).amplitudes
    target = _encoding(bundle.protocol.n_input) @ c
    residuals = bundle.protocol.kraus(bundle.coords) @ c
    probs = (residuals.real**2 + residuals.imag**2).sum(axis=1)
    live = ~(probs < _DEGENERATE_CUT)
    rows = residuals[live]
    normalized = rows / np.sqrt(probs[live])[:, None]
    posts = StateVector.stack(normalized)
    amplitudes = normalized @ target.conj()
    fids = clamp_unit(amplitudes.real**2 + amplitudes.imag**2, "branch fidelity").tolist()
    delivered = iter(zip(posts, fids))
    records = []
    for label, fix, p, is_live in zip(labels, fixes, probs.tolist(), live.tolist()):
        post, fid = next(delivered) if is_live else (None, None)
        records.append(BranchRecord(label, p, "n/a" if fix is None else fix, post, fid, fix != "none"))
    kept = [b for b in records if b.fidelity is not None]
    overlaps = rows @ target.conj()
    return TeleportReport(
        protocol=bundle.name,
        params=bundle.params,
        branches=tuple(records),
        avg_fidelity=_left_fold(b.probability * b.fidelity for b in kept),
        avg_fidelity_traced=float(np.vdot(overlaps, overlaps).real),
        success_probability=_left_fold(b.probability for b in kept if b.success),
    )


def teleport_ghz_epr(input_qubit: InputQubit, bob_theta: float) -> TeleportReport:
    """Maximal three-qubit channel, Bell measurement by the sender, rotated
    single-qubit measurement by the intermediary, lookup correction by the
    receiver; eight branches labeled (m, n, j)."""
    return enumerate_branches(protocol_bundle("ghz-epr", bob_theta=bob_theta), input_qubit.c0, input_qubit.c1)


def teleport_ghz_measurement(
    input_qubit: InputQubit, theta_channel: float, theta_meas: float
) -> TeleportReport:
    """Three-qubit channel at theta_channel, joint three-qubit measurement at
    theta_meas, correction Z^mu X^lam; outcomes with lam != omega carry zero
    probability and are recorded as degenerate."""
    bundle = protocol_bundle("ghz-meas", theta_channel=theta_channel, theta_meas=theta_meas)
    return enumerate_branches(bundle, input_qubit.c0, input_qubit.c1)


def teleport_epr_via_ghz(input_pair, theta_channel: float) -> TeleportReport:
    """Teleport an entangled pair a0|00> + a1|11> through a three-qubit
    channel: maximal three-qubit measurement on (0,1,2), two-qubit Pauli
    correction (:func:`_pauli_fix`) on the receiving pair."""
    bundle = protocol_bundle("epr-via-ghz", theta_channel=theta_channel)
    return enumerate_branches(bundle, *coerce_pair(input_pair))


def teleport_ghz_via_3epr(input_ghz, channels: tuple[float, float, float]) -> TeleportReport:
    """Teleport a0|000> + a1|111> through three pair channels with Bell
    measurements on (0,3), (1,5), (2,7); 64 branches, per-qubit Pauli
    corrections (:func:`_pauli_fix`) on the receiving triple (4,6,8)."""
    channels = tuple(channels)
    if len(channels) != 3:
        raise ValueError(f"ghz-via-3epr takes three channel angles, got {len(channels)}")
    bundle = protocol_bundle("ghz-via-3epr", **dict(zip(("theta1", "theta2", "theta3"), channels)))
    return enumerate_branches(bundle, *coerce_pair(input_ghz))


def teleport_w_channel(input_qubit: InputQubit, w) -> TeleportReport:
    """Probabilistic single-qubit teleport through a single-excitation
    channel: Bell measurement on (0,1), computational readout of the last
    channel qubit; readout 1 means no teleport (success=False)."""
    a, b, c = (w.a, w.b, w.c) if isinstance(w, WChannelSpec) else w
    return enumerate_branches(protocol_bundle("w-channel", a=a, b=b, c=c), input_qubit.c0, input_qubit.c1)


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


def resource_response(bundle: ProtocolBundle) -> np.ndarray:
    """The resource response W: the exact input-averaged branch-summed
    fidelity of a resource density rho is sum(W * rho), linear in rho.

    W = (1/6) sum_{n,l} a a^† over the octahedron inputs c_n and outcomes
    l, with a[r] = <t_n| K_l(|r>) c_n for the resource basis states |r>.
    The bundle must measure all of its input qubits: then the factors B of
    :func:`_branch_factors` and the corrections C of :attr:`Protocol.fixes`, read
    first, give a[(m, u)] = (B_l c_n)[m] <t_n|C_l|u>. Raises
    ``InvariantViolation("correction-coverage")`` as :attr:`Protocol.fixes`, before any work.
    """
    corrections = _correction_stack(bundle.protocol.fixes, bundle.protocol.n_input)  # coverage first
    inputs = np.array(_OCTAHEDRON, dtype=complex)
    factor, order = _branch_factors(bundle)
    fed = np.einsum("lmc,nc->nlm", factor, inputs)
    targets = inputs @ _encoding(bundle.protocol.n_input).T
    delivered = np.einsum("nd,ldu->nlu", targets.conj(), corrections)
    a = np.einsum("nlm,nlu->munl", fed, delivered).reshape((2,) * len(order) + (len(inputs), -1))
    a = a.transpose(*np.argsort(order), -2, -1).reshape(1 << len(order), len(inputs), -1)
    return np.einsum("rnl,snl->rs", a, a.conj()) / len(inputs)


def average_fidelity(bundle: ProtocolBundle, rho=None) -> float:
    """Exact input-averaged branch-summed fidelity of a protocol bundle.

    ``rho`` is a resource density, a :class:`DensityOp` or an array held to
    its invariants, by default the projector onto the bundle's own pure
    resource. Raises ``ValueError`` when its dimension is not the
    resource's, and ``InvariantViolation("correction-coverage")`` as
    :attr:`Protocol.fixes`.
    """
    response = resource_response(bundle)
    if rho is None:
        rho = np.outer(bundle.resource.amplitudes, bundle.resource.amplitudes.conj())
    else:
        rho = (rho if isinstance(rho, DensityOp) else DensityOp(rho)).matrix
        if rho.shape != response.shape:
            raise ValueError(f"rho has dimension {rho.shape[0]}, the resource {response.shape[0]}")
    return float((response * rho).sum(axis=(-2, -1)).real)


def average_fidelity_ghz_meas(theta_channel: float, theta_meas: float) -> float:
    """Exact input-averaged fidelity of the measurement protocol."""
    bundle = protocol_bundle("ghz-meas", theta_channel=theta_channel, theta_meas=theta_meas)
    return average_fidelity(bundle)


def closed_form_avg_fidelity(theta_channel: float, theta_meas: float) -> float:
    """2/3 + (1/3) sin(2 theta_channel) sin(2 theta_meas)."""
    return 2.0 / 3.0 + math.sin(2.0 * theta_channel) * math.sin(2.0 * theta_meas) / 3.0


def avg_fidelity_surface(theta_grid, phi_grid=None) -> FidelitySurface:
    """Input-averaged fidelity over a grid of (channel, measurement) angles.

    Column j is sum(W_phi * rho_theta) over the stacked channel projectors rho_theta, as :func:`average_fidelity`
    reads it, so ``values[i, j]`` is ``average_fidelity_ghz_meas(theta_grid[i], phi_grid[j])`` clamped onto
    [0, 1]. Both come from ghz-meas bundles, which check every theta, then every phi; each grid is non-empty and 1-D.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    phi_grid = theta_grid if phi_grid is None else np.asarray(phi_grid, dtype=float)
    for name, grid in (("theta_grid", theta_grid), ("phi_grid", phi_grid)):
        if grid.ndim != 1 or not grid.size:
            raise ValueError(f"{name} must be a non-empty 1-D array, got shape {grid.shape}")
    channels = [protocol_bundle("ghz-meas", theta_channel=th).resource.amplitudes for th in theta_grid]
    rhos = np.stack([np.outer(amps, amps.conj()) for amps in channels])
    bundles = [protocol_bundle("ghz-meas", theta_meas=ph) for ph in phi_grid]
    values = np.stack([(resource_response(bundle) * rhos).sum(axis=(-2, -1)).real for bundle in bundles], axis=1)
    return FidelitySurface(theta_grid, phi_grid, clamp_unit(values, "surface fidelity"))
