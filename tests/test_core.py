import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lift_operator, random_state
from tripsim.core import (
    PAULI_X,
    PAULI_Y,
    DensityOp,
    InputQubit,
    InvariantViolation,
    LocalOperator,
    RegisterCapacityError,
    StateVector,
    apply_local,
    fidelity_pure,
    haar_unitary,
    partial_inner,
    partial_trace,
    project,
    schmidt_decompose,
    tensor,
)
from tripsim.bases import bell2, ghz_basis


GHZ = ghz_basis(math.pi / 4, (0, 0, 0))


class TestStateVector:
    def test_rejects_bad_norm(self):
        with pytest.raises(InvariantViolation, match="state-normalization"):
            StateVector([1.0, 1.0])
        with pytest.raises(InvariantViolation, match="state-normalization"):
            StateVector([math.nan, 0.0])

    def test_rejects_bad_length(self):
        with pytest.raises(InvariantViolation, match="state-dimension"):
            StateVector([1.0, 0.0, 0.0])

    def test_scalar_state_allowed(self):
        assert StateVector([1.0]).num_qubits == 0

    def test_amplitudes_read_only(self):
        s = StateVector([1.0, 0.0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_input_qubit_normalization(self):
        with pytest.raises(InvariantViolation):
            InputQubit(1.0, 1.0)
        with pytest.raises(InvariantViolation):
            InputQubit(math.nan, 0.0)
        iq = InputQubit(0.6, 0.8j)
        np.testing.assert_allclose(iq.density().trace(), 1.0)


class TestDensityOp:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation, match="density-hermitian"):
            DensityOp(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantViolation, match="density-trace"):
            DensityOp(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolation, match="density-positivity"):
            DensityOp(np.diag([1.5, -0.5]))


class TestTensor:
    def test_basis_product(self):
        out = tensor(StateVector([1, 0]), StateVector([0, 1]))
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0])

    def test_input_times_ghz_support(self):
        alpha, beta = 0.6, 0.8
        out = tensor(StateVector([alpha, beta]), GHZ)
        nonzero = np.flatnonzero(np.abs(out.amplitudes) > 1e-15)
        np.testing.assert_array_equal(nonzero, [0b0000, 0b0111, 0b1000, 0b1111])

    def test_scalar_is_identity(self):
        s = random_state(np.random.default_rng(5), 3)
        out = tensor(s, StateVector([1.0]))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_register_cap(self):
        a = StateVector.computational(7, 0)
        b = StateVector.computational(6, 0)
        with pytest.raises(RegisterCapacityError):
            tensor(a, b)


class TestApplyLocal:
    def test_sigma_x_flips(self):
        out = apply_local(LocalOperator(PAULI_X, (0,)), StateVector([1, 0]))
        np.testing.assert_allclose(out.amplitudes, [0, 1])

    def test_sigma_y_phase(self):
        out = apply_local(LocalOperator(PAULI_Y, (0,)), StateVector([0, 1]))
        np.testing.assert_allclose(out.amplitudes, [-1j, 0])

    def test_identity_exact(self):
        s = random_state(np.random.default_rng(0), 3)
        out = apply_local(LocalOperator(np.eye(2), (1,)), s)
        assert np.abs(out.amplitudes - s.amplitudes).max() < 1e-15

    def test_non_unitary_rejected_at_construction(self):
        with pytest.raises(InvariantViolation, match="operator-unitarity"):
            LocalOperator(np.array([[1, 0], [0, 2]]), (0,))

    def test_matches_dense_lift_oracle(self):
        rng = np.random.default_rng(11)
        for targets in [(0,), (2,), (0, 2), (2, 0), (1, 3, 0)]:
            u = haar_unitary(1 << len(targets), rng).matrix
            s = random_state(rng, 4)
            out = apply_local(LocalOperator(u, targets), s)
            expected = lift_operator(u, targets, 4) @ s.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_norm_preserved_200_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            target = int(rng.integers(0, n))
            u = haar_unitary(2, rng).matrix
            s = random_state(rng, n)
            out = apply_local(LocalOperator(u, (target,)), s)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


class TestProject:
    def test_bell_projection_of_input_times_ghz(self):
        # Sender measures her own qubit and the first channel qubit; the
        # other two share an amplitude-carrying pair afterwards.
        alpha = np.array([0.6, 0.8j])
        psi = tensor(StateVector(alpha), GHZ)
        prob, post = project(psi, bell2(math.pi / 4, (0, 0)), (0, 1))
        expected = np.zeros(4, dtype=complex)
        expected[0b00], expected[0b11] = alpha
        np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)
        assert abs(prob - 0.25) < 1e-12

    def test_orthogonal_projection_zero_flagged(self):
        prob, post = project(StateVector([1, 0, 0, 0]), StateVector([0, 1]), (0,))
        assert prob == 0.0
        assert post.is_zero

    def test_completeness_over_full_basis(self):
        rng = np.random.default_rng(9)
        basis = [StateVector.computational(2, i) for i in range(4)]
        for _ in range(100):
            s = random_state(rng, 4)
            total = sum(project(s, b, (1, 3))[0] for b in basis)
            assert abs(total - 1.0) < 1e-12

    def test_index_errors(self):
        s = random_state(np.random.default_rng(1), 3)
        with pytest.raises(IndexError):
            partial_inner(s, StateVector([1, 0, 0, 0]), (1, 1))
        with pytest.raises(IndexError):
            partial_inner(s, StateVector([1, 0]), (5,))


class TestPartialTrace:
    def test_ghz_reduction_disentangled(self):
        rho = partial_trace(DensityOp.from_pure(GHZ), (0, 1))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_w_reduction_keeps_pair_entanglement(self):
        w = StateVector(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3))
        rho = partial_trace(DensityOp.from_pure(w), (0, 1))
        pair = bell2(math.pi / 4, (0, 1)).amplitudes
        expected = 2 / 3 * np.outer(pair, pair.conj())
        expected[0, 0] += 1 / 3
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_keep_all_is_identity(self):
        rho = DensityOp.from_pure(random_state(np.random.default_rng(2), 3))
        out = partial_trace(rho, (0, 1, 2))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(DensityOp.from_pure(GHZ), ())

    def test_reduction_is_valid_state(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            rho = DensityOp.from_pure(random_state(rng, 4))
            reduced = partial_trace(rho, (1, 2))
            assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(reduced.matrix).min() > -1e-9

    def test_tensor_then_trace_recovers_factor(self):
        rng = np.random.default_rng(4)
        a, b = random_state(rng, 2), random_state(rng, 2)
        rho = DensityOp.from_pure(tensor(a, b))
        out = partial_trace(rho, (0, 1))
        np.testing.assert_allclose(
            out.matrix, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12
        )


class TestFidelity:
    def test_projector_on_own_state(self):
        s = StateVector([1, 0])
        assert fidelity_pure(DensityOp.from_pure(s), s) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        rho = DensityOp(np.eye(2) / 2)
        s = random_state(np.random.default_rng(8), 1)
        assert fidelity_pure(rho, s) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(DensityOp(np.eye(2) / 2), StateVector([1, 0, 0, 0]))


class TestSchmidt:
    def test_pair_basis_coefficients(self):
        theta = 0.5
        data = schmidt_decompose(bell2(theta, (0, 0)), (0,))
        np.testing.assert_allclose(
            data.coefficients, [math.cos(theta) ** 2, math.sin(theta) ** 2], atol=1e-12
        )

    def test_product_state(self):
        data = schmidt_decompose(StateVector([0, 1, 0, 0]), (0,))
        np.testing.assert_allclose(data.coefficients, [1.0, 0.0], atol=1e-12)
        assert data.rank == 1

    def test_maximal_pair(self):
        data = schmidt_decompose(bell2(math.pi / 4, (0, 0)), (0,))
        np.testing.assert_allclose(data.coefficients, [0.5, 0.5], atol=1e-12)

    def test_reconstruction_and_rank(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            cut = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            s = random_state(rng, n)
            data = schmidt_decompose(s, cut)
            assert abs(data.coefficients.sum() - 1.0) < 1e-9
            for basis in (data.left_basis, data.right_basis):
                gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
                assert np.abs(gram - np.eye(len(basis))).max() < 1e-9
            rebuilt = sum(
                math.sqrt(lam) * np.kron(l, r)
                for lam, l, r in zip(data.coefficients, data.left_basis, data.right_basis)
            )
            rest = [q for q in range(n) if q not in cut]
            psi = np.moveaxis(
                s.amplitudes.reshape([2] * n), list(cut) + rest, range(n)
            ).reshape(-1)
            assert np.abs(rebuilt - psi).max() < 1e-9
            mat = psi.reshape(1 << len(cut), -1)
            assert data.rank == np.linalg.matrix_rank(mat)


class TestHaar:
    def test_unitarity_many_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = haar_unitary(2, rng).matrix
            assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12

    def test_degenerate_dimension(self):
        u = haar_unitary(1, np.random.default_rng(0)).matrix
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_first_moment_matches_haar(self):
        # E|U_ij|^2 = 1/d; for d=2 the entry law is uniform on [0,1]
        # (variance 1/12), so three standard errors bound the sample mean.
        draws = 100_000
        rng = np.random.default_rng(123)
        acc = 0.0
        for _ in range(draws):
            acc += abs(haar_unitary(2, rng).matrix[0, 0]) ** 2
        tol = 3.0 * math.sqrt(1.0 / 12.0 / draws)
        assert abs(acc / draws - 0.5) < tol


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_haar_apply_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, 2)
    u = haar_unitary(4, rng)
    out = StateVector(u.matrix @ s.amplitudes)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
