import math
from functools import reduce

import numpy as np
import pytest

from helpers import random_state
from tripsim.bases import ghz_basis, w_basis
from tripsim.core import PAULIS, StateVector, haar_unitary
from tripsim.nonlocality import PauliString, ghz_paradox, pauli_expectation

GHZ = ghz_basis(math.pi / 4, (0, 0, 0))
W_SYM = StateVector(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))


class TestPauliExpectation:
    def test_ghz_is_minus_one_eigenstate_of_mixed_strings(self):
        for letters in ("XYY", "YXY", "YYX"):
            assert abs(pauli_expectation(GHZ, letters) + 1.0) < 1e-12
            acted = PauliString(letters).matrix() @ GHZ.amplitudes
            assert np.abs(acted + GHZ.amplitudes).max() < 1e-12

    def test_ghz_is_plus_one_eigenstate_of_xxx(self):
        assert abs(pauli_expectation(GHZ, "XXX") - 1.0) < 1e-12
        acted = PauliString("XXX").matrix() @ GHZ.amplitudes
        assert np.abs(acted - GHZ.amplitudes).max() < 1e-12

    def test_computational_eigenstate(self):
        assert pauli_expectation(StateVector.computational(3, 0), "ZZZ") == pytest.approx(1.0)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        strings = ["XYZ", "IXY", "ZZX", "YYY"]
        for _ in range(50):
            s = random_state(rng, 3)
            for letters in strings:
                assert -1.0 - 1e-12 <= pauli_expectation(s, letters) <= 1.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_expectation(GHZ, "XX")

    def test_matrix_is_shared_and_read_only(self):
        m = PauliString("XYY").matrix()
        assert PauliString("XYY").matrix() is m
        assert (m == reduce(np.kron, (PAULIS[ch] for ch in "XYY"))).all()
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_bad_letters(self):
        with pytest.raises(ValueError):
            PauliString("XQZ")

    def test_local_unitary_covariance(self):
        rng = np.random.default_rng(4)
        for letters in ("XYY", "XXX", "ZIZ"):
            base = PauliString(letters).matrix()
            for _ in range(20):
                locals_ = [haar_unitary(2, rng).matrix for _ in range(3)]
                big = reduce(np.kron, locals_)
                s = random_state(rng, 3)
                rotated_state = big @ s.amplitudes
                rotated_op = big @ base @ big.conj().T
                direct = float(np.vdot(s.amplitudes, base @ s.amplitudes).real)
                conjugated = float(np.vdot(rotated_state, rotated_op @ rotated_state).real)
                assert abs(direct - conjugated) < 1e-12


class TestParadox:
    def test_maximal_state_contradicts_preassigned_values(self):
        report = ghz_paradox(GHZ)
        assert report.xyy == pytest.approx(-1.0, abs=1e-12)
        assert report.yxy == pytest.approx(-1.0, abs=1e-12)
        assert report.yyx == pytest.approx(-1.0, abs=1e-12)
        assert report.xxx == pytest.approx(1.0, abs=1e-12)
        assert report.lhv_product == pytest.approx(-1.0, abs=1e-12)
        assert report.contradiction

    def test_computational_state_shows_nothing(self):
        report = ghz_paradox(StateVector.computational(3, 0))
        assert report.xyy == report.yxy == report.yyx == report.xxx == 0.0
        assert not report.contradiction

    def test_single_excitation_state_golden_values(self):
        # X/Y strings flip all three bits, mapping the single-excitation
        # sector onto the two-excitation sector, so every expectation is 0.
        # Cross-checked against dense kron matrices built here.
        report = ghz_paradox(W_SYM)
        for letters, value in (("XYY", report.xyy), ("YXY", report.yxy),
                               ("YYX", report.yyx), ("XXX", report.xxx)):
            dense = reduce(np.kron, (PAULIS[ch] for ch in letters))
            oracle = float(np.vdot(W_SYM.amplitudes, dense @ W_SYM.amplitudes).real)
            assert value == pytest.approx(oracle, abs=1e-12)
            assert value == pytest.approx(0.0, abs=1e-12)
        assert not report.contradiction

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError):
            ghz_paradox(StateVector([1, 0]))

    def test_report_serialization(self):
        payload = ghz_paradox(GHZ).to_dict()
        assert payload["contradiction"] is True
        assert set(payload) == {"xyy", "yxy", "yyx", "xxx", "lhv_product", "contradiction"}

    def test_nonmaximal_basis_member_no_contradiction(self):
        report = ghz_paradox(ghz_basis(0.3, (0, 0, 0)))
        assert not report.contradiction

    def test_generic_w_member_no_contradiction(self):
        report = ghz_paradox(w_basis(0.9, 0.7, 3))
        assert not report.contradiction
