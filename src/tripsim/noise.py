"""Kraus-channel noise on protocol resources, with fidelity-vs-noise sweeps.

Noise is applied to the resource state after preparation and before any
measurement. A sweep builds the protocol's resource response W once
(:func:`tripsim.teleport.resource_response`); per channel parameter it
applies the channel to the resource density, target qubit by target
qubit, and reads the exact input-averaged fidelity off as sum(W * rho).
Each channel is applied as one linear map on the target qubit's row and
column index pair: its 4 x 4 transfer matrix, built with the channel.
Each channel kind is one ``CHANNELS`` entry, checked by ``make_channel`` alone.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import DensityOp, InvariantViolation, PAULI_X, PAULI_Y, PAULI_Z, _check_targets, within
from .teleport import ProtocolBundle, protocol_bundle, resource_response

_COMPLETENESS_ATOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """A completeness-satisfying set of single-qubit Kraus matrices, with
    its read-only transfer matrix S[(a, d), (b, c)] = sum_k K_k[a, b]
    conj(K_k[d, c])."""

    kind: str
    parameter: float
    kraus: tuple[np.ndarray, ...]
    transfer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not mats or any(k.shape != (2, 2) for k in mats):
            raise ValueError("a channel takes one or more single-qubit (2 x 2) Kraus matrices")
        object.__setattr__(self, "kraus", mats)
        acc = sum(k.conj().T @ k for k in mats)
        if not within(acc, np.eye(2), _COMPLETENESS_ATOL):
            raise InvariantViolation(
                "kraus-completeness", "sum K†K differs from identity beyond 1e-12"
            )
        stack = np.array(mats)
        transfer = np.einsum("kab,kdc->adbc", stack, stack.conj()).reshape(4, 4)
        transfer.setflags(write=False)
        object.__setattr__(self, "transfer", transfer)


CHANNELS = {
    "bitflip": ("p", lambda p: (math.sqrt(1.0 - p) * np.eye(2), math.sqrt(p) * PAULI_X)),
    "phaseflip": ("p", lambda p: (math.sqrt(1.0 - p) * np.eye(2), math.sqrt(p) * PAULI_Z)),
    "depolarizing": ("p", lambda p: (
        math.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2),
        math.sqrt(p / 4.0) * PAULI_X,
        math.sqrt(p / 4.0) * PAULI_Y,
        math.sqrt(p / 4.0) * PAULI_Z,
    )),
    "amplitude-damping": ("gamma", lambda gamma: (
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    )),
}


def make_channel(kind: str, parameter: float) -> KrausChannel:
    """``CHANNELS[kind]`` is (parameter name, Kraus builder); ``parameter`` lies in [0, 1]."""
    if kind not in CHANNELS:
        raise ValueError(f"unknown channel kind {kind!r}; known: {sorted(CHANNELS)}")
    name, kraus = CHANNELS[kind]
    parameter = float(parameter)
    if not 0.0 <= parameter <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {parameter}")
    return KrausChannel(kind, parameter, kraus(parameter))


bit_flip = functools.partial(make_channel, "bitflip")
phase_flip = functools.partial(make_channel, "phaseflip")
depolarizing = functools.partial(make_channel, "depolarizing")
amplitude_damping = functools.partial(make_channel, "amplitude-damping")


def _apply_kraus_1q(mat: np.ndarray, n: int, transfer: np.ndarray, q: int) -> np.ndarray:
    """sum_i K_i rho K_i† with each K acting on qubit q of an n-qubit rho,
    as one product of the channel's transfer matrix with the (row q,
    column q) index pair of rho."""
    order = (q, n + q) + tuple(i for i in range(2 * n) if i not in (q, n + q))
    t = mat.reshape((2,) * (2 * n)).transpose(order).reshape(4, -1)
    out = (transfer @ t).reshape((2,) * (2 * n)).transpose(np.argsort(order))
    return out.reshape(mat.shape)


def apply_channel(rho: DensityOp, ch: KrausChannel, target: int) -> DensityOp:
    """Apply a single-qubit channel to one qubit of a register state."""
    n = rho.num_qubits
    (target,) = _check_targets(n, (target,))
    return DensityOp(_apply_kraus_1q(rho.matrix, n, ch.transfer, target))


def _resource_targets(bundle: ProtocolBundle, target) -> tuple[int, ...]:
    """Validate full-register indices, at least one, and map them to
    resource-local ones; a non-integer index is a TypeError."""
    targets = tuple(operator.index(t) for t in np.atleast_1d(target))
    if not targets:
        raise ValueError(f"{bundle.name} needs at least one noise target")
    lo, hi = bundle.protocol.n_input, bundle.n_total
    for t in targets:
        if not lo <= t < hi:
            raise ValueError(
                f"target {t} is not a resource qubit of {bundle.name} "
                f"(valid range {lo}..{hi - 1})"
            )
    if len(set(targets)) != len(targets):
        raise ValueError(f"noise targets must be distinct, got {list(targets)}")
    return tuple(t - lo for t in targets)


def noisy_teleport_sweep(
    protocol: str,
    channel_kind: str,
    target,
    p_grid,
    params: dict | None = None,
) -> list[tuple[float, float]]:
    """Exact input-averaged protocol fidelity after noising the designated resource
    qubit(s), one row (p, fidelity) per point of the 1-D ``p_grid``. Every point's channel
    is built, and so checked, before W (:func:`resource_response`); an empty grid builds no W."""
    bundle = protocol_bundle(protocol, **(params or {}))
    local_targets = _resource_targets(bundle, target)
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1:
        raise ValueError(f"p_grid must be a 1-D array, got shape {p_grid.shape}")
    channels = [make_channel(channel_kind, p) for p in p_grid.tolist()]
    if not channels:
        return []
    response = resource_response(bundle)
    n, amps = bundle.resource.num_qubits, bundle.resource.amplitudes
    pure = np.outer(amps, amps.conj())
    rows: list[tuple[float, float]] = []
    for ch in channels:
        rho = pure
        for q in local_targets:
            rho = _apply_kraus_1q(rho, n, ch.transfer, q)
        rows.append((ch.parameter, float((response * rho).sum(axis=(-2, -1)).real)))
    return rows
