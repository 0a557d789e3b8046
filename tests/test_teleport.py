import dataclasses
import itertools
import math

import numpy as np
import pytest

from helpers import chi_row, eta_row, looped_corrections, random_input
from tripsim.bases import bell2, bob_x_basis, ghz_basis
from tripsim.core import InputQubit, InvariantViolation, StateVector, partial_inner, project, tensor
from tripsim.teleport import (
    GHZ_EPR_CORRECTIONS,
    average_fidelity,
    average_fidelity_ghz_meas,
    avg_fidelity_surface,
    closed_form_avg_fidelity,
    coerce_pair,
    protocol_bundle,
    teleport_epr_via_ghz,
    teleport_ghz_epr,
    teleport_ghz_measurement,
    teleport_ghz_via_3epr,
    teleport_w_channel,
    _compose,
    _enumerate,
    _epr_via_ghz_bundle,
    _searched_corrections,
    _three_epr_bundle,
    _w_channel_bundle,
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
                expected = _compose(desc) @ chi_row(m, n, j, iq.c0, iq.c1, theta) / 2.0
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
            table_mat = _compose(desc)
            winners = []
            for cand in candidates:
                mat = _compose(cand)
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
        pre = _compose("ZX").conj().T @ (
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
        assert np.abs(surface.values - per_point).max() < 1e-12

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            avg_fidelity_surface(np.array([0.0, 2.0]))


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
        psi = tensor(bundle.input_state(a0, a1), bundle.resource)
        for label in [(0,) * 6, (1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1)]:
            m = (label[0], label[2], label[4])
            nn = (label[1], label[3], label[5])
            bell_vec = {lbl: vec for lbl, vec in bundle.outcomes}[label]
            residual = partial_inner(psi, bell_vec, bundle.meas_targets)
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
    corrections = dict(bundle.corrections)
    del corrections[(0, 0, 0)]
    broken = dataclasses.replace(bundle, corrections=corrections)
    with pytest.raises(InvariantViolation, match="correction-coverage"):
        _enumerate(broken, 0.6, 0.8)
    with pytest.raises(InvariantViolation, match="correction-coverage"):
        average_fidelity(broken)


@pytest.mark.parametrize(
    "bundle",
    [
        _epr_via_ghz_bundle(MAX),
        _three_epr_bundle((MAX, MAX, MAX)),
        _w_channel_bundle(*(3 * (1 / math.sqrt(3),))),
    ],
    ids=["epr-via-ghz", "ghz-via-3epr", "w-channel"],
)
def test_batched_search_matches_looped_oracle(bundle):
    batched = _searched_corrections(bundle)
    looped = looped_corrections(bundle)
    assert batched.keys() == looped.keys()
    for label, corr in looped.items():
        assert batched[label].desc == corr.desc
        assert np.array_equal(batched[label].matrix, corr.matrix)
