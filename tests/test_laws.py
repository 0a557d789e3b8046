"""Stated laws that join the paper's two halves, as cross-module oracles.

Each side of a law is read from its own module (``nonlocality``,
``classify``, ``twirl``, ``noise``, ``teleport``) or from a table in this
file, so the laws share no code with the resource response W beyond
``core``.
"""

import math

import numpy as np
import pytest

from tripsim import twirl
from tripsim.bases import ghz_basis
from tripsim.classify import three_tangle
from tripsim.noise import noisy_teleport_sweep
from tripsim.nonlocality import ghz_paradox
from tripsim.teleport import average_fidelity, avg_fidelity_surface, protocol_bundle

_EDGE_ANGLES = (0.0, math.pi / 2, math.pi / 4, 1e-9, math.pi / 2 - 1e-9, math.pi / 12, 5 * math.pi / 12)


def test_one_sin_2theta_across_paradox_tangle_and_teleport():
    # For |GHZ_theta> = cos theta |000> + sin theta |111>: Mermin's
    # M = <XXX> - <XYY> - <YXY> - <YYX> = 4 sin 2theta, the 3-tangle
    # tau = sin^2 2theta, and the measurement protocol through it at
    # phi = pi/4 averages 2/3 + sqrt(tau)/3.
    thetas = np.concatenate([_EDGE_ANGLES, np.random.default_rng(10).uniform(0, math.pi / 2, 60)])
    averages = avg_fidelity_surface(thetas, [math.pi / 4]).values[:, 0]
    for theta, average in zip(thetas.tolist(), averages.tolist()):
        state = ghz_basis(theta, (0, 0, 0))
        paradox = ghz_paradox(state)
        mermin = paradox.xxx - paradox.xyy - paradox.yxy - paradox.yyx
        tau = three_tangle(state)
        assert abs(mermin - 4 * math.sin(2 * theta)) <= 1e-15, theta
        assert abs(tau - math.sin(2 * theta) ** 2) <= 1e-15, theta
        assert abs(average - (2 / 3 + math.sqrt(tau) / 3)) <= 1e-15, theta


# The (I, X, Y, Z) probabilities of each Pauli channel at parameter p.
_PAULI_PROBABILITIES = {
    "bitflip": lambda p: (1 - p, p, 0.0, 0.0),
    "phaseflip": lambda p: (1 - p, 0.0, 0.0, p),
    "depolarizing": lambda p: (1 - 3 * p / 4, p / 4, p / 4, p / 4),
}
_NOISELESS = (1.0, 0.0, 0.0, 0.0)
# I, X, Y, Z as (x bit, z bit) codes: a product of Paulis, up to phase, XORs the codes.
_CODES = (0b00, 0b10, 0b11, 0b01)


def _composed(first, second) -> list:
    """The (I, X, Y, Z) probabilities of two independent Pauli errors on one qubit pair, as one Pauli."""
    out = [0.0] * 4
    for i, p in enumerate(first):
        for j, q in enumerate(second):
            out[_CODES.index(_CODES[i] ^ _CODES[j])] += p * q
    return out


@pytest.mark.parametrize("channel", sorted(_PAULI_PROBABILITIES))
@pytest.mark.parametrize(
    "targets", [[4], [4, 6, 8], [3, 6], [3, 4], [3, 4, 5, 6, 7, 8]], ids=["4", "4-6-8", "3-6", "3-4", "all"]
)
def test_pauli_noise_on_three_pairs_follows_the_pair_law(channel, targets):
    # Teleporting through a Bell-diagonal pair applies its Pauli channel to the
    # qubit; the repetition code passes an even number of Z errors, makes an odd
    # number a logical Z and X or Y on all three a logical X or Y, each of average
    # fidelity 1/3, while any other X or Y pattern leaves the code space:
    # F = (2/3) prod(a + z) + (1/3) prod(a - z) + (1/3) prod(x + y) over the pairs.
    for p, average in noisy_teleport_sweep("ghz-via-3epr", channel, targets, np.linspace(0, 1, 21)):
        per_qubit = {q: _PAULI_PROBABILITIES[channel](p) if q in targets else _NOISELESS for q in range(3, 9)}
        pairs = [_composed(per_qubit[q], per_qubit[q + 1]) for q in (3, 5, 7)]
        law = (
            2 / 3 * math.prod(a + z for a, x, y, z in pairs)
            + 1 / 3 * math.prod(a - z for a, x, y, z in pairs)
            + 1 / 3 * math.prod(x + y for a, x, y, z in pairs)
        )
        assert abs(average - law) <= 2e-15, p


def test_depolarized_receivers_are_an_isotropic_resource():
    # Depolarizing p on each receiver turns each pair into the isotropic state
    # of singlet fraction f = 1 - 3p/4, built by twirl.
    bundle = protocol_bundle("ghz-via-3epr")
    for p, average in noisy_teleport_sweep("ghz-via-3epr", "depolarizing", [4, 6, 8], np.linspace(0, 1, 41)):
        pair = twirl.isotropic(twirl.IsotropicParams(2, 1 - 3 * p / 4)).matrix
        assert abs(average - average_fidelity(bundle, np.kron(np.kron(pair, pair), pair))) <= 2e-15, p
