import dataclasses
import functools
import itertools
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PROBE_PAIRS, chi_row, dense_branches, eta_row, looped_corrections, random_input, repetition, with_entry
from tripsim import noise, teleport
from tripsim.bases import bell2, bob_x_basis, ghz_basis
from tripsim.core import PAULIS, DensityOp, InputQubit, InvariantViolation, StateVector, _string_matrix, partial_inner, project, tensor
from tripsim.noise import noisy_teleport_sweep
from tripsim.teleport import (
    GHZ_EPR_CORRECTIONS,
    PROTOCOL_NAMES,
    average_fidelity,
    average_fidelity_ghz_meas,
    avg_fidelity_surface,
    closed_form_avg_fidelity,
    coerce_pair,
    enumerate_branches,
    protocol_bundle,
    teleport_epr_via_ghz,
    teleport_ghz_epr,
    teleport_ghz_measurement,
    teleport_ghz_via_3epr,
    teleport_w_channel,
)

MAX = math.pi / 4


# The expected branch states (eta_row, chi_row in helpers) are independent
# fixtures, written out row by row, that the simulation must reproduce
# entrywise.
def _branch_map(report):
    return {b.outcome: b for b in report.branches}


class TestGhzEprTables:
    def test_pair_states_match_rows(self):
        rng = np.random.default_rng(0)
        psi_base = ghz_basis(MAX, (0, 0, 0))
        for _ in range(100):
            iq = random_input(rng)
            psi = tensor(iq.state(), psi_base)
            for m, n in itertools.product((0, 1), repeat=2):
                prob, post = project(psi, bell2(MAX, (m, n)), (0, 1))
                assert abs(prob - 0.25) < 1e-12
                np.testing.assert_allclose(
                    post.amplitudes, eta_row(m, n, iq.c0, iq.c1), atol=1e-12
                )

    def test_receiver_states_match_rows(self):
        rng = np.random.default_rng(1)
        psi_base = ghz_basis(MAX, (0, 0, 0))
        for _ in range(100):
            iq = random_input(rng)
            theta = rng.uniform(0.1, math.pi / 2 - 0.1)
            x_pair = bob_x_basis(theta)
            psi = tensor(iq.state(), psi_base)
            for m, n, j in itertools.product((0, 1), repeat=3):
                _, eta = project(psi, bell2(MAX, (m, n)), (0, 1))
                chi = partial_inner(eta, x_pair[j], (0,))
                np.testing.assert_allclose(
                    chi.amplitudes, chi_row(m, n, j, iq.c0, iq.c1, theta), atol=1e-12
                )

    def test_corrections_match_rows_and_restore_input_at_max(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            iq = random_input(rng)
            theta = rng.uniform(0.1, math.pi / 2 - 0.1)
            report = teleport_ghz_epr(iq, theta)
            for (m, n, j), branch in _branch_map(report).items():
                desc = GHZ_EPR_CORRECTIONS[(m, n, j)]
                assert branch.correction == desc
                # Full-protocol residuals carry the 1/2 from the pair
                # measurement on top of the tabulated receiver state.
                expected = _string_matrix(desc) @ chi_row(m, n, j, iq.c0, iq.c1, theta) / 2.0
                scaled = math.sqrt(branch.probability) * branch.post_state.amplitudes
                np.testing.assert_allclose(scaled, expected, atol=1e-12)
            maximal = teleport_ghz_epr(iq, MAX)
            for branch in maximal.branches:
                assert abs(branch.fidelity - 1.0) < 1e-12

    def test_basis_state_input_teleports_exactly_any_angle(self):
        iq = InputQubit(1.0, 0.0)
        for theta in (0.3, MAX, 1.2):
            report = teleport_ghz_epr(iq, theta)
            for branch in report.branches:
                if branch.fidelity is not None:
                    assert abs(branch.fidelity - 1.0) < 1e-12

    def test_superseded_row_variant_rejected(self):
        # Known-bad fixture: writing the shared-pair ket as |k, k+n> instead
        # of |k+n, k+n| puts the n=1 rows on the wrong kets entirely.
        rng = np.random.default_rng(3)
        iq = random_input(rng)
        psi = tensor(iq.state(), ghz_basis(MAX, (0, 0, 0)))
        bad_row = np.zeros(4, dtype=complex)
        bad_row[0b01] = iq.c0
        bad_row[0b10] = iq.c1
        _, post = project(psi, bell2(MAX, (0, 1)), (0, 1))
        assert np.abs(post.amplitudes - bad_row).max() > 0.1

    def test_lookup_is_the_unique_maximizer_up_to_phase(self):
        # At the maximal receiver angle, each table entry must reach branch
        # fidelity 1 for every probe input, and every one- or two-factor
        # Pauli product that also reaches 1 must equal it up to phase.
        probes = [InputQubit(0.6, 0.8j), InputQubit(math.sqrt(0.3), math.sqrt(0.7)),
                  InputQubit(1 / math.sqrt(2), 1j / math.sqrt(2))]
        candidates = ["I", "X", "Y", "Z"] + [
            a + b for a in "XYZ" for b in "XYZ" if a != b
        ]
        for (m, n, j), desc in GHZ_EPR_CORRECTIONS.items():
            table_mat = _string_matrix(desc)
            winners = []
            for cand in candidates:
                mat = _string_matrix(cand)
                worst = min(
                    abs(np.vdot(iq.state().amplitudes,
                                mat @ chi_row(m, n, j, iq.c0, iq.c1, MAX))) ** 2
                    / np.linalg.norm(chi_row(m, n, j, iq.c0, iq.c1, MAX)) ** 2
                    for iq in probes
                )
                if worst > 1.0 - 1e-12:
                    winners.append(mat)
            assert winners, (m, n, j)
            for mat in winners:
                overlap = abs(np.trace(table_mat.conj().T @ mat)) / 2.0
                assert abs(overlap - 1.0) < 1e-12


class TestGhzMeasurement:
    def test_branch_operator_matches_formula(self):
        tc, tm = 0.6, 1.0
        iq = InputQubit(math.sqrt(0.3), math.sqrt(0.7) * np.exp(0.4j))
        report = teleport_ghz_measurement(iq, tc, tm)
        b0, b1 = math.cos(tm), math.sin(tm)
        be0, be1 = math.cos(tc), math.sin(tc)
        c0, c1 = iq.c0, iq.c1
        branch = _branch_map(report)[(0, 0, 0)]
        rho = branch.probability * np.outer(
            branch.post_state.amplitudes, branch.post_state.amplitudes.conj()
        )
        expected = np.array(
            [
                [b0**2 * be0**2 * abs(c0) ** 2, b0 * b1 * be0 * be1 * c0 * np.conj(c1)],
                [b0 * b1 * be0 * be1 * c1 * np.conj(c0), b1**2 * be1**2 * abs(c1) ** 2],
            ]
        )
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_branch_operator_111_matches_formula(self):
        tc, tm = 0.6, 1.0
        iq = InputQubit(math.sqrt(0.3), math.sqrt(0.7) * np.exp(0.4j))
        report = teleport_ghz_measurement(iq, tc, tm)
        b0, b1 = math.cos(tm), math.sin(tm)
        be0, be1 = math.cos(tc), math.sin(tc)
        c0, c1 = iq.c0, iq.c1
        branch = _branch_map(report)[(1, 1, 1)]
        assert branch.correction == "ZX"
        # Undo the correction to recover the raw branch operator: the basis
        # weights swap between |0><0| and |1><1| and the cross term flips sign.
        pre = _string_matrix("ZX").conj().T @ (
            math.sqrt(branch.probability) * branch.post_state.amplitudes
        )
        rho = np.outer(pre, pre.conj())
        expected = np.array(
            [
                [b0**2 * be0**2 * abs(c1) ** 2, -b0 * b1 * be0 * be1 * c1 * np.conj(c0)],
                [-b0 * b1 * be0 * be1 * c0 * np.conj(c1), b1**2 * be1**2 * abs(c0) ** 2],
            ]
        )
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_mismatched_readout_bits_are_degenerate(self):
        report = teleport_ghz_measurement(InputQubit(0.6, 0.8), 0.7, 0.5)
        for (mu, lam, om), branch in _branch_map(report).items():
            if lam != om:
                assert branch.probability < 1e-14
                assert branch.fidelity is None
            else:
                assert branch.probability > 1e-14

    def test_maximal_settings_teleport_perfectly(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            report = teleport_ghz_measurement(random_input(rng), MAX, MAX)
            assert abs(report.avg_fidelity - 1.0) < 1e-12

    def test_the_two_accountings_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            report = teleport_ghz_measurement(
                random_input(rng), rng.uniform(0, math.pi / 2), rng.uniform(0, math.pi / 2)
            )
            assert abs(report.avg_fidelity - report.avg_fidelity_traced) < 1e-12

    def test_branch_sum_matches_corrected_cross_term_law(self):
        # The branch algebra sums to |c0|^4 + |c1|^4 + 2|c0 c1|^2 sin(2 tc) sin(2 tm):
        # the cross term carries sin factors, 4x the raw weight product.
        rng = np.random.default_rng(7)
        for _ in range(20):
            iq = random_input(rng)
            tc, tm = rng.uniform(0.0, math.pi / 2, 2)
            report = teleport_ghz_measurement(iq, tc, tm)
            p0, p1 = abs(iq.c0) ** 2, abs(iq.c1) ** 2
            law = p0**2 + p1**2 + 2 * p0 * p1 * math.sin(2 * tc) * math.sin(2 * tm)
            assert abs(report.avg_fidelity - law) < 1e-12

    def test_product_channel_averages_to_classical_bound(self):
        assert abs(average_fidelity_ghz_meas(0.0, 0.9) - 2.0 / 3.0) < 1e-9

    def test_maximal_branch_trace_value(self):
        # At maximal angles the uncorrected branch contributes
        # (|c0|^2 + |c1|^2)^2 / 4 = 1/4 to the trace accounting.
        iq = InputQubit(math.sqrt(0.3), math.sqrt(0.7) * np.exp(1.3j))
        report = teleport_ghz_measurement(iq, MAX, MAX)
        branch = _branch_map(report)[(0, 0, 0)]
        value = branch.probability * branch.fidelity
        assert abs(value - (abs(iq.c0) ** 2 + abs(iq.c1) ** 2) ** 2 / 4.0) < 1e-12


class TestFidelitySurface:
    def test_matches_closed_form_on_grid(self):
        grid = np.linspace(0.0, math.pi / 2, 41)
        surface = avg_fidelity_surface(grid)
        closed = np.array(
            [[closed_form_avg_fidelity(t, p) for p in grid] for t in grid]
        )
        assert np.abs(surface.values - closed).max() < 1e-12

    def test_corners(self):
        assert abs(average_fidelity_ghz_meas(MAX, MAX) - 1.0) < 1e-12
        for phi in (0.0, 0.4, MAX):
            assert abs(average_fidelity_ghz_meas(0.0, phi) - 2.0 / 3.0) < 1e-12

    def test_interior_point(self):
        value = average_fidelity_ghz_meas(math.pi / 8, math.pi / 8)
        assert abs(value - (2.0 / 3.0 + 1.0 / 6.0)) < 1e-9

    def test_symmetry_and_range(self):
        grid = np.linspace(0.0, math.pi / 2, 9)
        surface = avg_fidelity_surface(grid)
        assert np.abs(surface.values - surface.values.T).max() < 1e-12
        assert surface.values.min() >= 0.0 and surface.values.max() <= 1.0

    def test_non_square_grid_is_theta_by_phi(self):
        thetas = np.linspace(0.0, math.pi / 2, 5)
        phis = np.array([0.1, 0.5, 1.3])
        surface = avg_fidelity_surface(thetas, phis)
        assert surface.values.shape == (5, 3)
        per_point = np.array(
            [[average_fidelity_ghz_meas(t, p) for p in phis] for t in thetas]
        )
        assert _bits_equal(surface.values, per_point)

    def test_grid_41_is_average_fidelity_bit_for_bit(self):
        # One contraction, sum(W * rho), for the surface and the per-point average.
        grid = np.linspace(0.0, math.pi / 2, 41)
        per_point = np.array([[average_fidelity_ghz_meas(t, p) for p in grid] for t in grid])
        assert _bits_equal(avg_fidelity_surface(grid).values, per_point)

    @pytest.mark.parametrize(
        "thetas, phis, bad",
        [
            ([0.0, 2.0], None, 2.0),
            ([0.0, 0.5, 1.0], [0.3, 1.7], 1.7),
            ([0.0, math.nan], None, math.nan),
            ([0.2, 0.4], [0.1, math.nan], math.nan),
            ([-1e-3, 0.5], None, -1e-3),
        ],
        ids=["theta-2", "phi-only-non-square", "nan-theta", "nan-phi", "theta-below-zero"],
    )
    def test_rejects_out_of_range_grid(self, thetas, phis, bad):
        # One angle rule, protocol_bundle's, and its message names the value.
        with pytest.raises(ValueError, match=re.escape(f"got {bad}")):
            avg_fidelity_surface(np.array(thetas), None if phis is None else np.array(phis))

    @pytest.mark.parametrize(
        "thetas, phis, name, shape",
        [
            ([], None, "theta_grid", (0,)),
            ([[0.1, 0.2]], None, "theta_grid", (1, 2)),
            ([0.1, 0.2], [], "phi_grid", (0,)),
            ([0.1, 0.2], [[0.3], [0.4]], "phi_grid", (2, 1)),
        ],
        ids=["empty-theta", "2d-theta", "empty-phi", "2d-phi"],
    )
    def test_rejects_empty_or_non_1d_grid(self, thetas, phis, name, shape):
        message = f"{name} must be a non-empty 1-D array, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            avg_fidelity_surface(np.array(thetas), None if phis is None else np.array(phis))


class TestEprViaGhz:
    def test_live_outcomes_and_intermediate_states(self):
        a0, a1 = math.sqrt(0.4), math.sqrt(0.6) * np.exp(0.3j)
        tc = 0.8
        be = (math.cos(tc), math.sin(tc))
        psi = tensor(StateVector([a0, 0, 0, a1]), ghz_basis(tc, (0, 0, 0)))
        for mu, lam, om in itertools.product((0, 1), repeat=3):
            residual = partial_inner(psi, ghz_basis(MAX, (mu, lam, om)), (0, 1, 2))
            if lam == 1:
                assert residual.norm_squared < 1e-28
                continue
            expected = np.zeros(4, dtype=complex)
            expected[0b00 if om == 0 else 0b11] = a0 * be[om]
            expected[0b11 if om == 0 else 0b00] = (-1) ** mu * a1 * be[om ^ 1]
            np.testing.assert_allclose(
                residual.amplitudes, expected / math.sqrt(2), atol=1e-12
            )

    def test_basis_pair_teleports_exactly_any_angle(self):
        for tc in (0.2, MAX, 1.3):
            report = teleport_epr_via_ghz((1.0, 0.0), tc)
            for branch in report.branches:
                if branch.fidelity is not None:
                    assert abs(branch.fidelity - 1.0) < 1e-12

    def test_maximal_settings_all_branches_perfect(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pair = random_input(rng)
            report = teleport_epr_via_ghz(pair, MAX)
            live = [b for b in report.branches if b.fidelity is not None]
            assert len(live) == 4
            for branch in live:
                assert abs(branch.fidelity - 1.0) < 1e-12
                assert abs(branch.probability - 0.25) < 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            report = teleport_epr_via_ghz(random_input(rng), rng.uniform(0.1, 1.4))
            assert abs(report.total_probability - 1.0) < 1e-12


class TestGhzVia3Epr:
    def test_all_zero_outcome_formula_general_channels(self):
        a0, a1 = math.sqrt(0.7), math.sqrt(0.3) * np.exp(1.1j)
        thetas = (0.5, 0.9, 1.2)
        weights = [(math.cos(t), math.sin(t)) for t in thetas]
        bundle = protocol_bundle(
            "ghz-via-3epr", theta1=thetas[0], theta2=thetas[1], theta3=thetas[2]
        )
        psi = tensor(StateVector(repetition(3, a0, a1)), bundle.resource)
        for label in [(0,) * 6, (1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1)]:
            m = (label[0], label[2], label[4])
            nn = (label[1], label[3], label[5])
            bell_vec = {lbl: vec for lbl, vec in bundle.outcomes}[label]
            residual = partial_inner(psi, bell_vec, bundle.protocol.meas_targets)
            expected = np.zeros(8, dtype=complex)
            for i, amp in ((0, a0), (1, a1)):
                idx = ((i ^ nn[0]) << 2) | ((i ^ nn[1]) << 1) | (i ^ nn[2])
                sign = (-1) ** (i * sum(m))
                expected[idx] = (
                    sign
                    * amp
                    * weights[0][i ^ nn[0]]
                    * weights[1][i ^ nn[1]]
                    * weights[2][i ^ nn[2]]
                )
            np.testing.assert_allclose(
                residual.amplitudes, expected / (2 * math.sqrt(2)), atol=1e-12
            )

    def test_maximal_all_zero_outcome_needs_no_correction(self):
        report = teleport_ghz_via_3epr((0.6, 0.8), (MAX, MAX, MAX))
        branch = _branch_map(report)[(0,) * 6]
        assert branch.correction == "I⊗I⊗I"
        assert abs(branch.fidelity - 1.0) < 1e-12

    def test_maximal_channels_teleport_perfectly(self):
        rng = np.random.default_rng(10)
        pair = random_input(rng)
        report = teleport_ghz_via_3epr(pair, (MAX, MAX, MAX))
        assert len(report.branches) == 64
        assert abs(report.avg_fidelity - 1.0) < 1e-12

    def test_basis_input_every_branch(self):
        report = teleport_ghz_via_3epr((1.0, 0.0), (0.4, MAX, 1.0))
        for branch in report.branches:
            if branch.fidelity is not None:
                assert abs(branch.fidelity - 1.0) < 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(11)
        report = teleport_ghz_via_3epr(
            random_input(rng), tuple(rng.uniform(0.1, 1.4, 3))
        )
        assert abs(report.total_probability - 1.0) < 1e-12

    @pytest.mark.parametrize("channels", [(MAX, MAX), (MAX, MAX, MAX, MAX)])
    def test_channel_count_other_than_three_is_refused(self, channels):
        with pytest.raises(ValueError, match="three channel angles"):
            teleport_ghz_via_3epr((0.6, 0.8), channels)


class TestWChannel:
    def test_plus_outcome_branch_state(self):
        a, b, c = math.sqrt(0.2), math.sqrt(0.3), math.sqrt(0.5)
        iq = InputQubit(0.6, 0.8)
        report = teleport_w_channel(iq, (a, b, c))
        branch = _branch_map(report)[(0, 1, 0)]
        expected = np.array([iq.c0 * a, iq.c1 * b])
        scaled = math.sqrt(branch.probability) * branch.post_state.amplitudes
        np.testing.assert_allclose(scaled, expected / math.sqrt(2), atol=1e-12)

    def test_symmetric_channel_success_probability(self):
        rng = np.random.default_rng(12)
        w = (1 / math.sqrt(3),) * 3
        for _ in range(20):
            report = teleport_w_channel(random_input(rng), w)
            assert abs(report.success_probability - 2.0 / 3.0) < 1e-12

    def test_equal_leading_amplitudes_give_perfect_success_branches(self):
        a = b = math.sqrt(0.3)
        c = math.sqrt(1.0 - 2 * 0.3)
        rng = np.random.default_rng(13)
        for _ in range(10):
            report = teleport_w_channel(random_input(rng), (a, b, c))
            for branch in report.branches:
                if branch.success and branch.fidelity is not None:
                    assert abs(branch.fidelity - 1.0) < 1e-12

    def test_failure_branches_deliver_input_independent_state(self):
        rng = np.random.default_rng(14)
        w = (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))
        reference = None
        for _ in range(10):
            report = teleport_w_channel(random_input(rng), w)
            for branch in report.branches:
                if not branch.success and branch.post_state is not None:
                    vec = branch.post_state.amplitudes
                    np.testing.assert_allclose(np.abs(vec), [1.0, 0.0], atol=1e-12)
                    reference = vec
        assert reference is not None

    def test_success_probability_is_input_and_phase_independent(self):
        w = (math.sqrt(0.45), math.sqrt(0.35), math.sqrt(0.2))
        expected = 0.45 + 0.35
        for iq in (InputQubit(1, 0), InputQubit(0.6, 0.8j), InputQubit(0.28, math.sqrt(1 - 0.28**2) * np.exp(2.2j))):
            report = teleport_w_channel(iq, w)
            assert abs(report.success_probability - expected) < 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(15)
        report = teleport_w_channel(
            random_input(rng), (math.sqrt(0.5), math.sqrt(0.25), math.sqrt(0.25))
        )
        assert abs(report.total_probability - 1.0) < 1e-12


def test_coerce_pair_accepts_both_forms():
    c0, c1 = coerce_pair(InputQubit(0.6, 0.8))
    assert (c0, c1) == (0.6 + 0j, 0.8 + 0j)
    with pytest.raises(Exception):
        coerce_pair((1.0, 1.0))


def test_unknown_protocol_and_params_rejected():
    with pytest.raises(ValueError):
        protocol_bundle("swap")
    with pytest.raises(ValueError):
        protocol_bundle("ghz-meas", bogus=1.0)


def test_live_outcome_without_correction_is_an_invariant_violation():
    bundle = protocol_bundle("ghz-meas")
    corrections = dict(bundle.protocol.corrections())
    del corrections[(0, 0, 0)]
    broken = with_entry(bundle, corrections=lambda: corrections)
    with pytest.raises(InvariantViolation, match="correction-coverage"):
        enumerate_branches(broken, 0.6, 0.8)
    with pytest.raises(InvariantViolation, match="correction-coverage"):
        average_fidelity(broken)


def test_outcome_live_only_under_noise_needs_a_correction():
    # ghz-meas's (0, 1, 0) has p = 0 for every input at every angle, but a
    # nonzero branch factor B, so a noisy resource makes it live. A table
    # without its correction fails on first use, through either path.
    bundle = protocol_bundle("ghz-meas")
    corrections = dict(bundle.protocol.corrections())
    del corrections[(0, 1, 0)]
    for call in (lambda b: enumerate_branches(b, 0.6, 0.8), average_fidelity):
        broken = with_entry(bundle, corrections=lambda: corrections)
        with pytest.raises(InvariantViolation, match=r"^correction-coverage: no correction for live outcome \(0, 1, 0\)$"):
            call(broken)


def test_epr_via_ghz_lacks_corrections_exactly_where_b_vanishes():
    # Its outcomes (mu, 1, omega) have no correction, and their branch
    # factor is bit for bit zero at every corner: the rule needs no cut.
    entry = teleport.PROTOCOLS["epr-via-ghz"]
    labels = entry.corners[0]
    assert [label for label, fix in zip(labels, entry.fixes, strict=True) if fix is None] == [
        label for label in labels if label[1] == 1
    ]
    vectors = entry.coordinates(entry.params)
    for unit in itertools.product(*(np.eye(len(v)).tolist() for v in vectors.values())):
        bundle = teleport.ProtocolBundle(entry, "epr-via-ghz", entry.params, dict(zip(vectors, unit)))
        for label, row in zip(labels, teleport._branch_factors(bundle)[0], strict=True):
            assert (row.tobytes() == bytes(row.nbytes)) == (label[1] == 1), label


def test_nan_branch_weight_is_an_invariant_violation():
    # A NaN weight fails every comparison; the branch cut must send it to
    # the normalization check rather than record the branch as dead.
    bundle = protocol_bundle("ghz-meas")
    corrections = dict(bundle.protocol.corrections())
    corr = corrections[(0, 0, 0)]
    corrections[(0, 0, 0)] = dataclasses.replace(corr, matrix=np.full_like(corr.matrix, np.nan))
    broken = with_entry(bundle, corrections=lambda: corrections)
    with np.errstate(invalid="ignore"), pytest.raises(InvariantViolation, match="state-normalization"):
        enumerate_branches(broken, 0.6, 0.8)


@pytest.mark.parametrize("protocol", ["epr-via-ghz", "ghz-via-3epr", "w-channel"])
def test_correction_rules_match_exhaustive_search(protocol):
    # The stated rules (_pauli_fix) must give what an exhaustive search over
    # Pauli strings picks on a correction-free copy of the bundle.
    bundle = with_entry(protocol_bundle(protocol), corrections=lambda: {})
    if protocol == "w-channel":
        # Readout q = 1 delivers nothing, so no Pauli string corrects it.
        entry = bundle.protocol
        bundle = with_entry(bundle, outcomes=lambda x: tuple(o for o in entry.outcomes(x) if o[0][2] == 0))
    searched = looped_corrections(bundle)
    shipped = {label: c for label, c in protocol_bundle(protocol).protocol.corrections().items() if c.success}
    assert shipped.keys() == searched.keys()
    for label, corr in searched.items():
        assert shipped[label].desc == corr.desc
        assert shipped[label].matrix.tobytes() == corr.matrix.tobytes()


def _described_matrix(desc: str) -> np.ndarray:
    # The matrix a printed description names, parsed here: "none" is the
    # identity; otherwise each ⊗-separated factor is the product of its
    # Pauli letters, and the factors are Kronecker multiplied in order.
    if desc == "none":
        return np.eye(2, dtype=complex)
    factors = [functools.reduce(np.matmul, (PAULIS[ch] for ch in factor)) for factor in desc.split("⊗")]
    return functools.reduce(np.kron, factors)


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_every_correction_is_its_printed_description(protocol):
    # Every entry of every table, w-channel's failed readout included: the
    # applied matrix is the one its description names, bit for bit, and a
    # report prints that description for the outcome ("n/a" for none).
    table = protocol_bundle(protocol).protocol.corrections()
    assert table
    for label, corr in table.items():
        assert corr.success == (corr.desc != "none"), label
        assert not corr.matrix.flags.writeable, label
        assert corr.matrix.tobytes() == _described_matrix(corr.desc).tobytes(), (label, corr.desc)
    report = enumerate_branches(protocol_bundle(protocol), 0.6, 0.8)
    for branch in report.to_dict()["branches"]:
        label = tuple(branch["label"])
        assert branch["correction"] == (table[label].desc if label in table else "n/a")


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_every_shipped_correction_is_perfect(protocol):
    # At the default (maximal) resources, every live outcome that counts as
    # a success delivers each probe input exactly.
    bundle = protocol_bundle(protocol)
    for c0, c1 in PROBE_PAIRS:
        report = enumerate_branches(bundle, c0, c1)
        live = [b for b in report.branches if b.fidelity is not None and b.success]
        assert live and all(b.fidelity >= 1 - 1e-12 for b in live), (c0, c1)


# Outcome bases that do not depend on a call's parameters are built once per
# process and shared between calls.
_CACHED_BASES = (
    teleport._bell_outcomes,
    teleport._maximal_ghz_outcomes,
    teleport._three_bell_outcomes,
    teleport._w_channel_outcomes,
)


def test_cached_outcome_bras_are_read_only():
    for cached in _CACHED_BASES:
        outcomes = cached()
        assert cached() is outcomes
        for _, bra in outcomes:
            assert not bra.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                bra.amplitudes[0] = 0.0


# Correction tables are parameter-free too: one per protocol and process,
# shared by every bundle whatever its angles.
_CACHED_TABLES = {name: teleport.PROTOCOLS[name].corrections for name in PROTOCOL_NAMES}
_BUNDLE_PARAMS = (
    {},
    {"ghz-epr": {"bob_theta": 0.3}, "ghz-meas": {"theta_channel": 0.2, "theta_meas": 1.1},
     "epr-via-ghz": {"theta_channel": 0.4}, "ghz-via-3epr": {"theta1": 0.3, "theta3": 0.7},
     "w-channel": {"a": 0.8, "b": 0.6j, "c": 0.0}},
)


def test_correction_tables_are_shared_across_calls_and_angles():
    for protocol, cached in _CACHED_TABLES.items():
        table = cached()
        assert cached() is table
        for params in _BUNDLE_PARAMS:
            assert protocol_bundle(protocol, **params.get(protocol, {})).protocol.corrections() is table


_ANGLE_SETS = (
    {"ghz-epr": (0.3,), "ghz-meas": (0.2, 1.1), "epr-via-ghz": (0.4,),
     "ghz-via-3epr": ((0.3, 0.5, 0.7),), "w-channel": ((0.5, 0.5, math.sqrt(0.5)),)},
    {"ghz-epr": (MAX,), "ghz-meas": (MAX, MAX), "epr-via-ghz": (MAX,),
     "ghz-via-3epr": ((MAX, MAX, MAX),), "w-channel": ((1 / math.sqrt(3),) * 3,)},
    {"ghz-epr": (1.2,), "ghz-meas": (1.4, 0.1), "epr-via-ghz": (0.05,),
     "ghz-via-3epr": ((1.5, 0.0, MAX),), "w-channel": ((0.8, 0.6j, 0.0),)},
)


def _report_bytes(protocol: str, args: tuple) -> bytes:
    c0, c1 = 0.6, 0.8j
    if protocol == "ghz-epr":
        report = teleport_ghz_epr(InputQubit(c0, c1), *args)
    elif protocol == "ghz-meas":
        report = teleport_ghz_measurement(InputQubit(c0, c1), *args)
    elif protocol == "epr-via-ghz":
        report = teleport_epr_via_ghz((c0, c1), *args)
    elif protocol == "ghz-via-3epr":
        report = teleport_ghz_via_3epr((c0, c1), *args)
    else:
        report = teleport_w_channel(InputQubit(c0, c1), *args)
    return _bytes_of(report)


def _bytes_of(report) -> bytes:
    states = b"".join(b.post_state.amplitudes.tobytes() for b in report.branches if b.post_state)
    traced = repr(report.avg_fidelity_traced).encode()
    return json.dumps(report.to_dict()).encode() + traced + states


def _cold_reports(i: int) -> dict:
    """Reports of angle set ``i`` from a new interpreter, where every cached
    basis is built for that set alone."""
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, json; sys.path[:0] = sys.argv[1:3]; import test_teleport as t; "
            "print(json.dumps({p: t._report_bytes(p, t._ANGLE_SETS[int(sys.argv[3])][p]).hex()"
            " for p in t.PROTOCOL_NAMES}))",
            str(tests.parent / "src"), str(tests), str(i),
        ],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return {protocol: bytes.fromhex(h) for protocol, h in json.loads(proc.stdout).items()}


def test_shared_bases_give_the_same_reports_in_any_call_order():
    cold = [_cold_reports(i) for i in range(len(_ANGLE_SETS))]
    # One process, protocols and angle sets alternating from call to call.
    for order in ([0, 1, 2], [2, 0, 1]):
        for i in order:
            for protocol in PROTOCOL_NAMES:
                assert _report_bytes(protocol, _ANGLE_SETS[i][protocol]) == cold[i][protocol]


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh_entry(protocol: str, monkeypatch, **changes) -> teleport.Protocol:
    """A copy of the protocol's table entry with the fields ``changes`` and
    no corners built yet, in place of the entry for the rest of the test."""
    entry = dataclasses.replace(teleport.PROTOCOLS[protocol], **changes)
    monkeypatch.setitem(teleport.PROTOCOLS, protocol, entry)
    return entry


def _table_stack(bundle) -> np.ndarray:
    """The correction stack C of the bundle's table entry, in its outcome order."""
    entry = bundle.protocol
    return teleport._correction_stack(map(entry.corrections().get, (label for label, _ in bundle.outcomes)), entry.n_input)


def _count_calls(name: str, monkeypatch) -> list:
    """One entry per later call of ``teleport.<name>``."""
    calls, real = [], getattr(teleport, name)
    monkeypatch.setattr(teleport, name, lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_shared_factors_are_built_once_read_only_and_exact(protocol, monkeypatch):
    entry = _fresh_entry(protocol, monkeypatch)
    built = _count_calls("_branch_factors", monkeypatch)
    corners = entry.corners[1]
    # One build of the branch factors per corner.
    assert len(built) == len(corners)
    assert not corners.flags.writeable
    # Each corner is the contraction of a bundle at that corner alone, with
    # its own factors, corrected by the table's stack C.
    vectors = entry.coordinates(entry.params)
    units = itertools.product(*(np.eye(len(v)).tolist() for v in vectors.values()))
    for corner, unit in zip(corners, units, strict=True):
        bundle = teleport.ProtocolBundle(entry, protocol, entry.params, dict(zip(vectors, unit)))
        assert _bits_equal(corner, _table_stack(bundle) @ teleport._contract(teleport._branch_factors(bundle), bundle.resource))


@pytest.mark.parametrize("order", [("corners", "fixes"), ("fixes", "corners")], ids=["corners-first", "fixes-first"])
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_corners_and_fixes_share_one_factor_pass(protocol, order, monkeypatch):
    # One corner pass per entry: the branch factors are built once per
    # corner in total, whichever of corners and fixes is read first, and
    # fixes alone contracts nothing.
    entry = _fresh_entry(protocol, monkeypatch)
    built, contracted = _count_calls("_branch_factors", monkeypatch), _count_calls("_contract", monkeypatch)
    getattr(entry, order[0])
    assert len(built) == _CORNERS[protocol]
    assert len(contracted) == (_CORNERS[protocol] if order[0] == "corners" else 0)
    getattr(entry, order[1])
    assert len(built) == len(contracted) == _CORNERS[protocol]
    # The first call of a teleport_* function on a fresh entry builds no more.
    entry = _fresh_entry(protocol, monkeypatch)
    built.clear()
    _PUBLIC_CALLS[protocol]((0.6, 0.8j), dict(entry.params))
    assert len(built) == _CORNERS[protocol]


def test_corner_passes_hold_only_the_branch_factors():
    # The correction stack C depends on the labels alone, so no corner
    # keeps one: each corner's factors are B and the resource qubit order.
    held = {}
    for protocol, entry in teleport.PROTOCOLS.items():
        entry.corners, entry.fixes
        for _, factors in entry._corner_pass:
            factor, order = factors
            assert isinstance(factor, np.ndarray) and factor.shape[::2] == (len(entry.fixes), 2)
            assert isinstance(order, tuple) and all(type(q) is int for q in order)
        held[protocol] = sum(factors[0].nbytes for _, factors in entry._corner_pass)
    assert held["ghz-via-3epr"] == 8 * 16 * 1024
    assert sum(held.values()) == 138 * 1024


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_response_checks_coverage_before_its_own_factors(protocol, monkeypatch):
    # W reads the entry's corrections first: on a fresh entry whose table
    # lacks a live outcome's, it raises after the corner pass builds its
    # factors and before it builds the bundle's own.
    table = dict(teleport.PROTOCOLS[protocol].corrections())
    label = min(table)
    del table[label]
    _fresh_entry(protocol, monkeypatch, corrections=lambda: table)
    built = _count_calls("_branch_factors", monkeypatch)
    bundle = protocol_bundle(protocol)
    with pytest.raises(InvariantViolation, match=rf"^correction-coverage: no correction for live outcome {re.escape(str(label))}$"):
        teleport.resource_response(bundle)
    assert len(built) == _CORNERS[protocol]


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_coverage_is_decided_once_per_entry(protocol, monkeypatch):
    # The first call reads the correction table through the entry; later
    # calls zip the entry's fixes with the labels and never read it again.
    calls, real = [], teleport.PROTOCOLS[protocol].corrections
    _fresh_entry(protocol, monkeypatch, corrections=lambda: calls.append(1) or real())
    bundle = protocol_bundle(protocol)
    enumerate_branches(bundle, 0.6, 0.8)
    assert calls
    calls.clear()
    for _ in range(4):
        enumerate_branches(bundle, 0.6, 0.8)
    assert calls == []


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_replaced_bundles_build_their_own_factors(protocol):
    bundle = protocol_bundle(protocol)
    entry = bundle.protocol
    # Outcomes in another order, or other measured qubits: the copy's entry
    # builds its factors and stack from its own states.
    reordered = with_entry(bundle, outcomes=lambda x: entry.outcomes(x)[::-1])
    moved = with_entry(bundle, meas_targets=entry.meas_targets[::-1])
    for replaced in (reordered, moved):
        factor, _ = teleport._branch_factors(replaced)
        stack = _table_stack(replaced)
        assert factor.flags.writeable and stack.flags.writeable
    # The reversed outcomes give the reversed factors and Kraus stack.
    built, flipped = teleport._branch_factors(bundle), teleport._branch_factors(reordered)
    assert _bits_equal(built[0][::-1], flipped[0]) and _bits_equal(_table_stack(bundle)[::-1], _table_stack(reordered))
    kraus = entry.kraus(bundle.coords)
    assert np.abs(reordered.protocol.kraus(reordered.coords) - kraus[::-1]).max() <= 1e-15
    # A correction-free copy: C is the identity.
    stack = _table_stack(with_entry(bundle, corrections=lambda: {}))
    assert _bits_equal(stack, np.broadcast_to(np.eye(stack.shape[1], dtype=complex), stack.shape))


def test_branch_sums_are_left_folds_on_every_python(monkeypatch):
    # From Python 3.12 the built-in sum compensates float rounding. The
    # report must not follow it: with sum replaced by a fully compensated
    # sum, each of the three sums must still be the plain left fold.
    def compensated(values, start=0.0):
        return math.fsum(itertools.chain((start,), values))

    monkeypatch.setattr(teleport, "sum", compensated, raising=False)
    report = teleport_ghz_via_3epr((0.6, 0.8j), (0.3, 0.5, 0.7))

    def left(values):
        total = 0.0
        for v in values:
            total += v
        return total

    live = [b for b in report.branches if b.fidelity is not None]
    terms = [b.probability * b.fidelity for b in live]
    # This input tells the two folds apart.
    assert left(terms) != math.fsum(terms)
    assert report.avg_fidelity == left(terms)
    assert report.success_probability == left(b.probability for b in live if b.success)
    assert report.total_probability == left(b.probability for b in report.branches)


# --- random parameters of all five protocols ----------------------------------

_PARAM_KEYS = {
    "ghz-epr": ("bob_theta",),
    "ghz-meas": ("theta_channel", "theta_meas"),
    "epr-via-ghz": ("theta_channel",),
    "ghz-via-3epr": ("theta1", "theta2", "theta3"),
    "w-channel": ("a", "b", "c"),
}
_PUBLIC_CALLS = {
    "ghz-epr": lambda c, p: teleport_ghz_epr(InputQubit(*c), p["bob_theta"]),
    "ghz-meas": lambda c, p: teleport_ghz_measurement(InputQubit(*c), p["theta_channel"], p["theta_meas"]),
    "epr-via-ghz": lambda c, p: teleport_epr_via_ghz(c, p["theta_channel"]),
    "ghz-via-3epr": lambda c, p: teleport_ghz_via_3epr(c, (p["theta1"], p["theta2"], p["theta3"])),
    "w-channel": lambda c, p: teleport_w_channel(InputQubit(*c), (p["a"], p["b"], p["c"])),
}
_angles = st.one_of(
    st.sampled_from((0.0, MAX, math.pi / 2, 1e-9, math.pi / 2 - 1e-9)), st.floats(0.0, math.pi / 2)
)
_parts = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


def _normalized(values) -> tuple:
    norm = math.sqrt(sum(abs(v) ** 2 for v in values))
    return tuple(v / norm for v in values)


_amplitudes = st.lists(st.builds(complex, _parts, _parts), min_size=3, max_size=3).filter(
    lambda v: sum(abs(x) ** 2 for x in v) > 1e-6
).map(_normalized)
_inputs = st.one_of(
    st.sampled_from(((1.0, 0.0), (0.0, 1.0))),
    st.tuples(st.builds(complex, _parts, _parts), st.builds(complex, _parts, _parts))
    .filter(lambda v: abs(v[0]) ** 2 + abs(v[1]) ** 2 > 1e-6)
    .map(_normalized),
)


@st.composite
def _protocol_params(draw) -> tuple[str, dict]:
    """A protocol and a value for each of its parameters."""
    protocol = draw(st.sampled_from(PROTOCOL_NAMES))
    if protocol == "w-channel":
        return protocol, dict(zip("abc", draw(_amplitudes)))
    return protocol, {k: draw(_angles) for k in _PARAM_KEYS[protocol]}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(request=_protocol_params(), pair=_inputs)
def test_report_params_rebuild_the_same_report(request, pair):
    # A report's params are what protocol_bundle takes: they rebuild a
    # bundle whose report has the same bytes.
    protocol, params = request
    report = _PUBLIC_CALLS[protocol](pair, params)
    rebuilt = enumerate_branches(protocol_bundle(report.protocol, **report.params), *coerce_pair(pair))
    assert _bytes_of(rebuilt) == _bytes_of(report)


def _nielsen_average(bundle) -> float:
    """Nielsen's average fidelity sum_l (|Tr A_l|^2 + ||A_l||_F^2) / 6 with
    A_l = T^dagger K_l (Phys. Lett. A 303, 249 (2002)). T is the input
    encoding; each K_l is projected out of the full register state."""
    entry = bundle.protocol
    n, k = bundle.n_total, len(entry.meas_targets)
    encoding = np.stack([repetition(entry.n_input, 1, 0), repetition(entry.n_input, 0, 1)], axis=1)
    registers = [np.kron(column, bundle.resource.amplitudes).reshape((2,) * n) for column in encoding.T]
    total = 0.0
    for label, bra in bundle.outcomes:
        bra = bra.amplitudes.conj().reshape((2,) * k)
        axes = (list(range(k)), list(entry.meas_targets))
        residual = np.stack([np.tensordot(bra, psi, axes=axes).reshape(-1) for psi in registers], axis=1)
        corr = bundle.protocol.corrections().get(label)
        a = encoding.conj().T @ (residual if corr is None else corr.matrix @ residual)
        total += (abs(np.trace(a)) ** 2 + np.vdot(a, a).real) / 6
    return total


@settings(max_examples=250, deadline=None, derandomize=True)
@given(request=_protocol_params())
def test_average_fidelity_matches_nielsen_formula(request):
    protocol, params = request
    bundle = protocol_bundle(protocol, **params)
    assert abs(average_fidelity(bundle) - _nielsen_average(bundle)) <= 1e-13


@pytest.mark.parametrize(
    "rho, invariant",
    [
        (1.0, "density-shape"),
        (np.ones(8), "density-shape"),
        (2 * np.eye(8), "density-trace"),
        (np.full((8, 8), np.nan), "density-hermitian"),
    ],
    ids=["scalar", "vector", "trace-two", "nan"],
)
def test_average_fidelity_holds_rho_to_density_invariants(rho, invariant):
    with pytest.raises(InvariantViolation, match=invariant):
        average_fidelity(protocol_bundle("ghz-meas"), rho)


def test_average_fidelity_takes_a_density_op():
    bundle = protocol_bundle("ghz-meas")
    pure = DensityOp.from_pure(bundle.resource)
    assert average_fidelity(bundle, pure) == average_fidelity(bundle, pure.matrix) == average_fidelity(bundle)


def test_average_fidelity_rejects_a_density_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 4, the resource 8"):
        average_fidelity(protocol_bundle("ghz-meas"), DensityOp(np.eye(4) / 4))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(request=_protocol_params(), pair=_inputs)
def test_branches_match_dense_full_register_lifting(request, pair):
    # The public calls against the dense oracle of tests/helpers.py, which
    # lifts every projector and correction to the full register and never
    # touches the corner stacks.
    protocol, params = request
    report = _PUBLIC_CALLS[protocol](pair, params)
    dense = dense_branches(protocol, params, teleport.PROTOCOLS[protocol].corrections(), *pair)
    assert [b.outcome for b in report.branches] == list(dense)
    for b in report.branches:
        p, fidelity = dense[b.outcome]
        assert abs(b.probability - p) <= 1e-12
        if p > 1e-12:
            assert b.fidelity is not None
        if p < 1e-16:
            assert b.fidelity is None
        # Below 1e-6 a normalized branch amplifies rounding beyond 1e-12.
        if p > 1e-6:
            assert abs(b.fidelity - fidelity) <= 1e-12


_CORNERS = {"ghz-epr": 2, "ghz-meas": 4, "epr-via-ghz": 2, "ghz-via-3epr": 8, "w-channel": 3}


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_corner_stacks_are_read_only_exact_and_built_once(protocol, monkeypatch):
    # A fresh copy of the table entry contracts one Kraus stack per corner
    # on its first call and none after, whatever the angles and inputs.
    entry = _fresh_entry(protocol, monkeypatch)
    built = _count_calls("_contract", monkeypatch)
    rng = np.random.default_rng(41)
    for _ in range(5):
        params = {k: float(rng.uniform(0, math.pi / 2)) for k in _PARAM_KEYS[protocol]}
        if protocol == "w-channel":
            params = dict(zip("abc", _normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))))
        pair = _normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        _PUBLIC_CALLS[protocol](pair, params)
        enumerate_branches(protocol_bundle(protocol, **params), *pair)
    labels, corners = entry.corners
    assert len(built) == len(corners) == _CORNERS[protocol]
    assert entry.corners[1] is corners
    assert labels == tuple(label for label, _ in protocol_bundle(protocol).outcomes)
    assert not corners.flags.writeable
    with pytest.raises(ValueError):
        corners[0, 0, 0, 0] = 0.0
    # Built from exact unit coordinates, with no cos(pi/2) = 6.1e-17 residue.
    # Shown where the outcome bras are exact: a maximal Bell bra carries the
    # 1.2e-16 imaginary part of exp(i pi).
    if protocol in ("ghz-meas", "epr-via-ghz"):
        parts = corners.view(float)
        assert not parts[np.abs(parts) < 1e-12].any()


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_bundles_averages_and_sweeps_build_no_corners(protocol, monkeypatch):
    # A bundle records its coordinates; W, the averages, the surface and the
    # sweeps never read a Kraus stack, so they build no corners.
    entry = _fresh_entry(protocol, monkeypatch)
    built = _count_calls("_contract", monkeypatch)
    bundle = protocol_bundle(protocol, **_BUNDLE_PARAMS[1][protocol])
    average_fidelity(bundle)
    noisy_teleport_sweep(protocol, "depolarizing", range(entry.n_input, bundle.n_total), [0.0, 0.3, 1.0])
    if protocol == "ghz-meas":
        avg_fidelity_surface(np.linspace(0.0, math.pi / 2, 5))
    assert not built and "corners" not in vars(entry)
    # The stack is read off the corners on demand.
    kraus = bundle.protocol.kraus(bundle.coords)
    assert len(built) == _CORNERS[protocol]
    copy = dataclasses.replace(bundle)
    assert _bits_equal(kraus, copy.protocol.kraus(copy.coords))


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_response_and_sweep_targets_build_no_resource(protocol, monkeypatch):
    # A bundle's qubit count is its layout's, so W, the coverage pass behind it
    # and the sweep's target check never build a resource state they do not read.
    builds = []
    real = teleport.PROTOCOLS[protocol].resource
    _fresh_entry(protocol, monkeypatch, resource=lambda x: builds.append(x) or real(x))
    bundle = protocol_bundle(protocol, **_BUNDLE_PARAMS[1][protocol])
    teleport.resource_response(bundle)
    noise._resource_targets(bundle, range(bundle.protocol.n_input, bundle.n_total))
    assert not builds
    assert bundle.n_total == bundle.protocol.n_input + bundle.resource.num_qubits


@settings(max_examples=100, deadline=None, derandomize=True)
@given(request=_protocol_params(), pair=_inputs)
def test_replaced_bundles_keep_their_coordinates(request, pair):
    # A copy made by dataclasses.replace is the same entry at the same
    # coordinates: the same Kraus stack and report, bit for bit.
    protocol, params = request
    bundle = protocol_bundle(protocol, **params)
    copy = dataclasses.replace(bundle)
    assert _bits_equal(bundle.protocol.kraus(bundle.coords), copy.protocol.kraus(copy.coords))
    assert _bytes_of(enumerate_branches(bundle, *pair)) == _bytes_of(enumerate_branches(copy, *pair))


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_bundles_and_calls_build_no_states(protocol, monkeypatch):
    # A bundle is its entry plus coordinates: neither protocol_bundle nor a
    # teleport_* call builds a resource or outcome state once the corners
    # exist. A bundle builds each of them when it is first read.
    calls = []
    real = teleport.PROTOCOLS[protocol]
    counted = lambda build: lambda x: calls.append(build) or build(x)
    entry = _fresh_entry(protocol, monkeypatch, resource=counted(real.resource), outcomes=counted(real.outcomes))
    entry.corners  # one resource and one outcome build per corner
    calls.clear()
    params = dict(entry.params, **_BUNDLE_PARAMS[1][protocol])
    bundle = protocol_bundle(protocol, **params)
    _PUBLIC_CALLS[protocol]((0.6, 0.8j), params)
    enumerate_branches(bundle, 0.6, 0.8j)
    assert not calls
    # A bundle builds each state on its first read and keeps it.
    for _ in range(2):
        bundle.resource, bundle.outcomes
    assert calls == [real.resource, real.outcomes]


_densities = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 8))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(request=_protocol_params(), density=_densities)
def test_resource_response_is_hermitian_and_bounds_the_fidelity(request, density):
    # W is Hermitian, and sum(W * rho) is an average fidelity in [0, 1] for
    # every resource density rho, here of rank 1 to 8.
    protocol, params = request
    response = teleport.resource_response(protocol_bundle(protocol, **params))
    assert np.abs(response - response.conj().T).max() <= 1e-12
    seed, rank = density
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(response), rank)) + 1j * rng.standard_normal((len(response), rank))
    rho = g @ g.conj().T
    fidelity = (response * (rho / np.trace(rho).real)).sum()
    assert -1e-12 <= fidelity.real <= 1 + 1e-12 and abs(fidelity.imag) <= 1e-12
