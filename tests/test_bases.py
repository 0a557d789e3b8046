import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state
from tripsim import bases
from tripsim.bases import (
    BellLabel,
    GeneralBellSpec,
    GhzLabel,
    WChannelSpec,
    basis_family,
    basis_json,
    bell2,
    bob_x_basis,
    general_bell,
    ghz_basis,
    w_basis,
)
from tripsim.core import DensityOp, InvariantViolation, partial_inner, partial_trace

ANGLES = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


class TestGeneralBell:
    def test_maximal_d2_is_epr(self):
        vec = general_bell(GeneralBellSpec.maximal(2), BellLabel(0, 0))
        np.testing.assert_allclose(vec, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_parametrized_family_d2(self):
        theta = 0.37
        c, s = math.cos(theta), math.sin(theta)
        spec = GeneralBellSpec.two_qubit(theta)
        expected = {
            (0, 0): [c, 0, 0, s],
            (0, 1): [0, c, s, 0],
            (1, 0): [s, 0, 0, -c],
            (1, 1): [0, s, -c, 0],
        }
        for (m, n), amps in expected.items():
            np.testing.assert_allclose(
                general_bell(spec, BellLabel(m, n)), amps, atol=1e-15
            )

    def test_qutrit_element(self):
        vec = general_bell(GeneralBellSpec.maximal(3), BellLabel(1, 1))
        w3 = cmath.exp(2j * math.pi / 3)
        expected = np.zeros(9, dtype=complex)
        expected[3 * 0 + 1] = 1 / math.sqrt(3)
        expected[3 * 1 + 2] = w3 / math.sqrt(3)
        expected[3 * 2 + 0] = w3**2 / math.sqrt(3)
        np.testing.assert_allclose(vec, expected, atol=1e-15)

    def test_unnormalized_column_rejected(self):
        with pytest.raises(InvariantViolation, match="bell-column"):
            GeneralBellSpec(2, np.array([[1.0, 0.5], [1.0, 0.5]]))

    def test_maximal_family_orthonormal_and_mixed_reductions(self):
        for d in (2, 3):
            spec = GeneralBellSpec.maximal(d)
            family = [
                general_bell(spec, BellLabel(m, n)) for m in range(d) for n in range(d)
            ]
            gram = np.array([[np.vdot(a, b) for b in family] for a in family])
            np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)
            for vec in family:
                reduced = np.einsum(
                    "ab,cb->ac", vec.reshape(d, d), vec.reshape(d, d).conj()
                )
                np.testing.assert_allclose(reduced, np.eye(d) / d, atol=1e-12)


class TestBell2:
    def test_singlet(self):
        np.testing.assert_allclose(
            bell2(math.pi / 4, (1, 1)).amplitudes,
            np.array([0, 1, -1, 0]) / math.sqrt(2),
            atol=1e-15,
        )

    def test_theta_zero(self):
        np.testing.assert_allclose(bell2(0.0, (0, 0)).amplitudes, [1, 0, 0, 0])

    def test_gram_identity(self):
        family = np.stack(
            [bell2(0.3, (m, n)).amplitudes for m in (0, 1) for n in (0, 1)]
        )
        np.testing.assert_allclose(family @ family.conj().T, np.eye(4), atol=1e-12)


class TestGhzBasis:
    def test_maximal_member(self):
        np.testing.assert_allclose(
            ghz_basis(math.pi / 4, (0, 0, 0)).amplitudes,
            np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2),
        )

    def test_full_explicit_list(self):
        theta = 0.81
        c, s = math.cos(theta), math.sin(theta)
        expected = {
            (0, 0, 0): {0b000: c, 0b111: s},
            (0, 0, 1): {0b001: c, 0b110: s},
            (0, 1, 0): {0b010: c, 0b101: s},
            (0, 1, 1): {0b011: c, 0b100: s},
            (1, 0, 0): {0b000: s, 0b111: -c},
            (1, 0, 1): {0b001: s, 0b110: -c},
            (1, 1, 0): {0b010: s, 0b101: -c},
            (1, 1, 1): {0b011: s, 0b100: -c},
        }
        for label, entries in expected.items():
            amps = np.zeros(8, dtype=complex)
            for idx, val in entries.items():
                amps[idx] = val
            np.testing.assert_allclose(ghz_basis(theta, label).amplitudes, amps, atol=1e-15)

    def test_degenerate_angle(self):
        amps = ghz_basis(0.0, (0, 1, 0)).amplitudes
        np.testing.assert_allclose(amps, np.eye(8)[0b010])

    def test_maximal_members_have_mixed_reductions(self):
        for theta_fn, label in ((ghz_basis, (0, 0, 0)), (ghz_basis, (1, 0, 1))):
            state = theta_fn(math.pi / 4, label)
            rho = DensityOp.from_pure(state)
            for q in range(3):
                np.testing.assert_allclose(
                    partial_trace(rho, (q,)).matrix, np.eye(2) / 2, atol=1e-12
                )


class TestWBasis:
    def test_symmetric_member(self):
        state = w_basis(math.acos(1 / math.sqrt(3)), math.pi / 4, 1)
        expected = np.zeros(8)
        expected[0b001] = expected[0b010] = expected[0b100] = 1 / math.sqrt(3)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_pairwise_orthogonality(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            th, ph = rng.uniform(0.05, 1.5, 2)
            assert abs(np.vdot(w_basis(th, ph, 1).amplitudes, w_basis(th, ph, 2).amplitudes)) < 1e-12

    def test_degenerate_angle_member_six(self):
        np.testing.assert_allclose(w_basis(0.0, 0.9, 6).amplitudes, np.eye(8)[0])

    def test_no_extremal_support_for_k1_k5(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            th, ph = rng.uniform(0.05, 1.5, 2)
            for k in (1, 5):
                amps = w_basis(th, ph, k).amplitudes
                assert abs(amps[0b000]) < 1e-15
                assert abs(amps[0b111]) < 1e-15

    def test_invalid_member_index(self):
        with pytest.raises(ValueError):
            w_basis(0.3, 0.3, 9)


class TestBobBasis:
    def test_maximal_angle(self):
        x0, _ = bob_x_basis(math.pi / 4)
        np.testing.assert_allclose(x0.amplitudes, np.array([1, 1]) / math.sqrt(2))

    def test_extreme_angle(self):
        x0, x1 = bob_x_basis(math.pi / 2)
        np.testing.assert_allclose(x0.amplitudes, [1, 0], atol=1e-15)
        np.testing.assert_allclose(x1.amplitudes, [0, -1], atol=1e-15)

    def test_completeness(self):
        x0, x1 = bob_x_basis(0.42)
        resolution = np.outer(x0.amplitudes, x0.amplitudes.conj()) + np.outer(
            x1.amplitudes, x1.amplitudes.conj()
        )
        np.testing.assert_allclose(resolution, np.eye(2), atol=1e-12)

    def test_defining_relations(self):
        theta = 0.77
        x0, x1 = bob_x_basis(theta)
        s, c = math.sin(theta), math.cos(theta)
        np.testing.assert_allclose(
            s * x0.amplitudes + c * x1.amplitudes, [1, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            c * x0.amplitudes - s * x1.amplitudes, [0, 1], atol=1e-12
        )


@settings(max_examples=50, deadline=None)
@given(theta=ANGLES)
def test_bell2_gram_identity_any_angle(theta):
    family = np.stack([bell2(theta, (m, n)).amplitudes for m in (0, 1) for n in (0, 1)])
    assert np.abs(family @ family.conj().T - np.eye(4)).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(theta=ANGLES, phi=ANGLES)
def test_w_and_ghz_gram_identity_any_angles(theta, phi):
    ghz_family = np.stack(
        [
            ghz_basis(theta, (mu, lam, om)).amplitudes
            for mu in (0, 1)
            for lam in (0, 1)
            for om in (0, 1)
        ]
    )
    assert np.abs(ghz_family @ ghz_family.conj().T - np.eye(8)).max() < 1e-12
    w_family = np.stack([w_basis(theta, phi, k).amplitudes for k in range(1, 9)])
    assert np.abs(w_family @ w_family.conj().T - np.eye(8)).max() < 1e-12


def test_measurement_completeness_for_every_family():
    rng = np.random.default_rng(10)
    for family_name, params, n in (
        ("bell", {"theta": 0.4}, 2),
        ("ghz", {"theta": 1.1}, 3),
        ("w", {"theta": 0.8, "phi": 0.2}, 3),
        ("bob-x", {"theta": 0.6}, 1),
    ):
        members = basis_family(family_name, **params)
        for _ in range(20):
            s = random_state(rng, n)
            total = sum(
                partial_inner(s, member, tuple(range(n))).norm_squared
                for _, member in members
            )
            assert abs(total - 1.0) < 1e-12


def test_basis_json_dump():
    payload = basis_json("bell", theta=0.4)
    assert payload["family"] == "bell"
    assert payload["params"] == {"theta": 0.4}
    assert set(payload["vectors"]) == {"00", "01", "10", "11"}
    vec = payload["vectors"]["00"]
    assert vec[0] == [math.cos(0.4), 0.0]
    assert all(len(entry) == 2 for entry in vec)


@pytest.mark.parametrize("build", [basis_family, basis_json], ids=["family", "json"])
@pytest.mark.parametrize(
    "family, params, refusal",
    [
        ("bell", {"phi": 0.3}, "parameters ['phi'] do not apply to bell"),
        ("w", {"bob_theta": 1}, "parameters ['bob_theta'] do not apply to w"),
        ("bob-x", {"theta": 0.2, "phi": 0.1, "k": 2}, "parameters ['k', 'phi'] do not apply to bob-x"),
        ("ghz", {"Theta": 0.2}, "parameters ['Theta'] do not apply to ghz"),
        ("wstate", {}, "unknown basis family 'wstate'"),
        ("w", {"theta": 2.0}, "theta must lie in [0, pi/2], got 2.0"),
        ("w", {"phi": -0.1}, "phi must lie in [0, pi/2], got -0.1"),
    ],
    ids=[
        "bell-phi", "w-bob-theta", "bob-x-two-extra", "ghz-misspelt-theta", "unknown-family",
        "w-theta-range", "w-phi-range",
    ],
)
def test_basis_family_refusals(build, family, params, refusal):
    # A parameter the family does not take is refused, not silently dropped
    # (and, in basis_json, not echoed as if it had been applied); an angle
    # out of range is refused as w_basis refuses it.
    with pytest.raises(ValueError) as refused:
        build(family, **params)
    assert str(refused.value) == refusal


def test_w_channel_spec_normalization():
    with pytest.raises(InvariantViolation):
        WChannelSpec(1.0, 1.0, 1.0)
    with pytest.raises(InvariantViolation):
        WChannelSpec(math.nan, 0.0, 0.0)
    state = WChannelSpec(1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3)).state()
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_w_family_builds_its_rows_once(monkeypatch):
    # The eight members share one build and one Gram check; one build
    # per member would make 64 row builds.
    calls = []
    build = bases._w_amplitudes
    monkeypatch.setattr(bases, "_w_amplitudes", lambda *args: calls.append(args) or build(*args))
    members = basis_family("w", theta=0.8, phi=0.2)
    assert len(calls) == 8
    assert [label for label, _ in members] == [str(k) for k in range(1, 9)]
    for k, (_, member) in enumerate(members, 1):
        np.testing.assert_array_equal(member.amplitudes, w_basis(0.8, 0.2, k).amplitudes)


@pytest.mark.parametrize(
    "build, refusal",
    [
        (lambda: BellLabel(-1, 0), "labels must be nonnegative, got BellLabel(m=-1, n=0)"),
        (lambda: GeneralBellSpec(1, np.ones((1, 1))), "level count must be >= 2, got 1"),
        (lambda: GeneralBellSpec(2, np.eye(3)), "beta must be 2x2, got (3, 3)"),
        (lambda: general_bell(GeneralBellSpec.maximal(3), BellLabel(3, 0)), "label BellLabel(m=3, n=0) out of range for d=3"),
        (lambda: general_bell(GeneralBellSpec.maximal(2), BellLabel(0, 2)), "label BellLabel(m=0, n=2) out of range for d=2"),
        (lambda: bell2(0.3, (2, 0)), "two-qubit labels must be bits, got BellLabel(m=2, n=0)"),
    ],
    ids=["negative-label", "one-level", "beta-shape", "label-m-range", "label-n-range", "bell2-label"],
)
def test_bell_refusals(build, refusal):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == refusal


def test_angle_range_rejected():
    with pytest.raises(ValueError):
        bell2(2.0, (0, 0))
    with pytest.raises(ValueError):
        GhzLabel(0, 2, 0)
