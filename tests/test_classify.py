import importlib
import math

import numpy as np
import pytest

from helpers import looped_diagnostics, random_state
from tripsim.bases import bell2, ghz_basis, w_basis
from tripsim.classify import (
    BISEPARABLE,
    FULLY_SEPARABLE,
    GENUINE_GHZ,
    GENUINE_W,
    classify,
    concurrence,
    diagnostics,
    three_tangle,
)
from tripsim.core import (
    DensityOp,
    LocalOperator,
    StateVector,
    InvariantViolation,
    apply_local,
    haar_unitary,
    partial_trace,
    schmidt_decompose,
    tensor,
)

# The package exports the function ``classify`` under the module's name.
classify_module = importlib.import_module("tripsim.classify")

GHZ = ghz_basis(math.pi / 4, (0, 0, 0))
W_SYM = StateVector(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))


def monogamy_residual_tangle(s: StateVector) -> float:
    """Independent route: one-vs-rest tangle minus the two squared pair
    concurrences (the monogamy residual)."""
    rho = DensityOp.from_pure(s)
    rho_a = partial_trace(rho, (0,)).matrix
    tau_a = 4.0 * float(np.linalg.det(rho_a).real)
    c_ab = concurrence(partial_trace(rho, (0, 1)))
    c_ac = concurrence(partial_trace(rho, (0, 2)))
    return tau_a - c_ab**2 - c_ac**2


class TestDiagnostics:
    def test_maximal_ghz(self):
        diag = diagnostics(GHZ)
        np.testing.assert_allclose(diag.single_qubit_purities, [0.5] * 3, atol=1e-12)
        np.testing.assert_allclose(diag.pair_concurrences, [0.0] * 3, atol=1e-9)
        assert abs(diag.three_tangle - 1.0) < 1e-12

    def test_symmetric_single_excitation_state(self):
        diag = diagnostics(W_SYM)
        np.testing.assert_allclose(diag.pair_concurrences, [2 / 3] * 3, atol=1e-12)
        assert diag.three_tangle < 1e-12

    def test_computational_product(self):
        diag = diagnostics(StateVector.computational(3, 0))
        np.testing.assert_allclose(diag.single_qubit_purities, [1.0] * 3, atol=1e-12)
        np.testing.assert_allclose(diag.pair_concurrences, [0.0] * 3, atol=1e-12)
        assert diag.three_tangle < 1e-12

    def test_tangle_matches_monogamy_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = random_state(rng, 3)
            assert abs(three_tangle(s) - monogamy_residual_tangle(s)) < 1e-10

    def test_tangle_of_tilted_ghz(self):
        for theta in (0.3, 0.7, 1.1):
            s = ghz_basis(theta, (0, 0, 0))
            assert abs(three_tangle(s) - math.sin(2 * theta) ** 2) < 1e-12

    def test_tangle_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = three_tangle(random_state(rng, 3))
            assert 0.0 <= t <= 1.0


class TestClassify:
    def test_pure_qubit_times_pair(self):
        state = tensor(StateVector([1, 0]), bell2(math.pi / 4, (0, 0)))
        verdict = classify(state)
        assert verdict.tag == BISEPARABLE
        assert verdict.partition == "A|BC"

    def test_other_partitions(self):
        pair = bell2(math.pi / 4, (0, 0)).amplitudes.reshape(2, 2)
        # qubit B pure: amplitudes indexed (a, b, c) = pair[a, c] * e_b
        amps = np.einsum("ac,b->abc", pair, np.array([1.0, 0.0])).reshape(-1)
        assert classify(StateVector(amps)).partition == "B|AC"
        amps = np.einsum("ab,c->abc", pair, np.array([0.0, 1.0])).reshape(-1)
        assert classify(StateVector(amps)).partition == "C|AB"

    def test_tilted_ghz_is_genuine_ghz(self):
        verdict = classify(ghz_basis(0.3, (0, 0, 0)))
        assert verdict.tag == GENUINE_GHZ

    def test_w_family_members_are_genuine_w(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta, phi = rng.uniform(0.3, 1.2, 2)
            k = int(rng.integers(1, 9))
            assert classify(w_basis(theta, phi, k)).tag == GENUINE_W

    def test_fully_separable(self):
        assert classify(StateVector.computational(3, 0)).tag == FULLY_SEPARABLE

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(4)
        states = [
            GHZ,
            W_SYM,
            tensor(StateVector([0.6, 0.8]), bell2(0.9, (0, 1))),
            StateVector.computational(3, 5),
            ghz_basis(0.4, (1, 0, 0)),
        ]
        tags = [classify(s).tag for s in states]
        for _ in range(40):
            for state, tag in zip(states, tags):
                rotated = state
                for q in range(3):
                    rotated = apply_local(
                        LocalOperator(haar_unitary(2, rng).matrix, (q,)), rotated
                    )
                assert classify(rotated).tag == tag

    def test_biseparable_pair_concurrence_matches_schmidt(self):
        state = tensor(StateVector([1, 0]), bell2(0.6, (0, 0)))
        diag = diagnostics(state)
        lam = schmidt_decompose(bell2(0.6, (0, 0)), (0,)).coefficients
        expected = 2.0 * math.sqrt(lam[0] * lam[1])
        assert abs(diag.pair_concurrences[2] - expected) < 1e-12


def test_concurrence_requires_two_qubits():
    with pytest.raises(ValueError):
        concurrence(np.eye(2) / 2)


def test_concurrence_of_a_stack_is_bit_equal_to_per_operator_calls():
    # A (..., 4, 4) stack gives one value per operator, each with the bits of
    # a single call; a single operator still gives a float.
    rng = np.random.default_rng(2024)
    pairs = [partial_trace(DensityOp.from_pure(s), (0, 2)).matrix for s in _oracle_states(61)]
    g = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
    mixed = g @ g.conj().transpose(0, 2, 1)
    stack = np.concatenate([np.array(pairs), mixed / np.trace(mixed, axis1=1, axis2=2).real[:, None, None]])
    values = concurrence(stack)
    assert values.shape == (len(stack),)
    singles = [concurrence(rho) for rho in stack]
    assert all(type(v) is float for v in singles)
    assert values.tobytes() == np.array(singles).tobytes()
    grid = concurrence(stack.reshape(4, -1, 4, 4))
    assert grid.shape == (4, len(stack) // 4) and grid.tobytes() == values.tobytes()


def test_three_tangle_requires_three_qubits():
    with pytest.raises(ValueError):
        three_tangle(StateVector([1, 0]))


def _oracle_states(count: int):
    """Random, product, biseparable and W-support states, plus the named ones."""
    rng = np.random.default_rng(1311)
    states = [GHZ, W_SYM, StateVector.computational(3, 5)]
    for i in range(count):
        kind = i % 4
        if kind == 0:
            states.append(random_state(rng, 3))
        elif kind == 1:
            states.append(tensor(random_state(rng, 1), tensor(random_state(rng, 1), random_state(rng, 1))))
        elif kind == 2:
            states.append(tensor(random_state(rng, 1), random_state(rng, 2)))
        else:
            v = np.zeros(8, dtype=complex)
            v[[1, 2, 4]] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            states.append(StateVector(v / np.linalg.norm(v)))
    return states


class TestStackedReductions:
    def test_diagnostics_bit_equal_to_per_reduction_oracle(self):
        for s in _oracle_states(200):
            got, want = diagnostics(s), looped_diagnostics(s)
            assert repr(got) == repr(want)
            assert classify(s) == got.verdict() == want.verdict()

    @pytest.mark.parametrize("keep", [(1,), (0, 2)], ids=["single", "pair"])
    @pytest.mark.parametrize(
        "invariant, spoil",
        [
            ("density-hermitian", lambda m: m + np.triu(np.full_like(m, 1e-3), 1)),
            ("density-trace", lambda m: 1.1 * m),
            ("density-positivity", lambda m: m + 0.5 * np.diag([1.0, -1.0] + [0.0] * (len(m) - 2))),
        ],
        ids=["hermitian", "trace", "positivity"],
    )
    def test_a_bad_reduction_in_a_stack_names_its_invariant(self, keep, invariant, spoil, monkeypatch):
        # |000> reduces to pure projectors; each spoiled copy breaks one invariant.
        reduced = classify_module._reduced_matrix
        monkeypatch.setattr(
            classify_module,
            "_reduced_matrix",
            lambda matrix, k: spoil(reduced(matrix, k)) if tuple(k) == keep else reduced(matrix, k),
        )
        with pytest.raises(InvariantViolation, match=invariant):
            diagnostics(StateVector.computational(3, 0))
