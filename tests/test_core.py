import dataclasses
import functools
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import PAULI_MATRICES, lift_operator, random_state
from tripsim.core import (
    PAULI_X,
    PAULI_Y,
    DensityOp,
    InputQubit,
    InvariantViolation,
    LocalOperator,
    RegisterCapacityError,
    StateVector,
    UnnormalizedState,
    _string_matrix,
    apply_local,
    check_density,
    clamp_unit,
    fidelity_pure,
    haar_unitary,
    partial_inner,
    partial_trace,
    project,
    schmidt_decompose,
    tensor,
    within,
)
from tripsim.bases import WChannelSpec, bell2, ghz_basis


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

    def test_stack_matches_one_state_per_row(self):
        rng = np.random.default_rng(3)
        rows = np.stack([random_state(rng, 3).amplitudes for _ in range(5)])
        states = StateVector.stack(rows)
        assert len(states) == 5
        for state, row in zip(states, rows):
            assert state.num_qubits == 3 and state.dim == 8
            assert state.amplitudes.tobytes() == StateVector(row).amplitudes.tobytes()
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0
        rows[0, 0] = 7.0  # the states keep their own copy
        assert states[0].amplitudes[0] != 7.0
        assert StateVector.stack(np.zeros((0, 4))) == ()

    @pytest.mark.parametrize(
        "row, invariant",
        [
            ([1.0, 1.0], "state-normalization"),
            ([math.nan, 0.0], "state-normalization"),
            ([math.inf, 0.0], "state-normalization"),
            ([1.0, 0.0, 0.0], "state-dimension"),
        ],
        ids=["unnormalized", "nan", "inf", "width-three"],
    )
    def test_stack_refuses_what_the_constructor_refuses(self, row, invariant):
        with pytest.raises(InvariantViolation, match=invariant):
            StateVector(row)
        good = np.zeros(len(row))
        good[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match=invariant):
                StateVector.stack([good, row])

    def test_stack_needs_rows(self):
        with pytest.raises(InvariantViolation, match="state-dimension"):
            StateVector.stack([1.0, 0.0])

    def test_input_qubit_normalization(self):
        with pytest.raises(InvariantViolation):
            InputQubit(1.0, 1.0)
        with pytest.raises(InvariantViolation):
            InputQubit(math.nan, 0.0)
        iq = InputQubit(0.6, 0.8j)
        np.testing.assert_allclose(iq.density().trace(), 1.0)


_NORMALIZED_TYPES = {
    "state": (lambda x: StateVector([x, 1.0]), "state-normalization: squared norm {} differs from 1"),
    "stack": (lambda x: StateVector.stack([[1.0, 0.0], [x, 1.0]]), "state-normalization: squared norm {} differs from 1"),
    "input": (lambda x: InputQubit(x, 1.0), "input-normalization: |c0|^2+|c1|^2 = {} differs from 1"),
    "w-channel": (lambda x: WChannelSpec(x, 1.0, 0.0), "w-channel-normalization: |a|^2+|b|^2+|c|^2 = {} differs from 1"),
}


class TestOneNormalizationRule:
    @pytest.mark.parametrize("kind", sorted(_NORMALIZED_TYPES))
    @pytest.mark.parametrize("x, shown", [(1.0, "2.0"), (math.nan, "nan")], ids=["norm2-two", "nan"])
    def test_refusal_text(self, kind, x, shown):
        build, text = _NORMALIZED_TYPES[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="^" + re.escape(text.format(shown)) + "$"):
                build(x)

    def test_rule_is_written_once(self):
        package = Path(__file__).resolve().parent.parent / "src" / "tripsim"
        rule = re.compile(r"abs\(\w+ - 1\.0\) <= NORM_ATOL")
        found = [
            f"{path.name}:{n}"
            for path in sorted(package.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if rule.search(line)
        ]
        assert len(found) == 1 and found[0].startswith("core.py:")


class TestUnnormalizedState:
    def test_qubit_count_is_derived(self):
        assert UnnormalizedState([0.5, 0, 0, 0]).num_qubits == 2
        with pytest.raises(InvariantViolation, match="^state-dimension: amplitude length 3 is not a power of two$"):
            UnnormalizedState([1, 0, 0])
        with pytest.raises(TypeError):
            UnnormalizedState([1, 0], 1)

    def test_zero_residual_is_not_normalized(self):
        residual = UnnormalizedState([0.0, 0.0])
        assert residual.is_zero
        with pytest.raises(InvariantViolation, match="^state-normalization: cannot normalize a zero residual$"):
            residual.normalized()


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

    # Before the NaN-safe checks, the infinite off-diagonal passed: the
    # all-close test counts inf as close to inf, and eigvalsh then returns
    # NaN, which no `<` comparison flags.
    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.5, math.inf], [math.inf, 0.5]],
            [[0.5, complex(0, math.inf)], [complex(0, -math.inf), 0.5]],
            [[0.5, 0.0], [0.0, math.nan]],
        ],
        ids=["inf", "complex-inf", "nan"],
    )
    def test_rejects_non_finite_entries_without_warning(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation):
                DensityOp(np.array(matrix, dtype=complex))

    def test_rejects_empty_matrix(self):
        with pytest.raises(InvariantViolation, match="density-trace"):
            DensityOp(np.zeros((0, 0)))

    def test_rejects_a_stack(self):
        with pytest.raises(InvariantViolation, match="density-shape"):
            DensityOp(np.stack([np.eye(2) / 2] * 2))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2, 4), (4,)], ids=["non-square", "stacked-non-square", "vector"])
    def test_check_density_refuses_a_non_square_shape(self, shape):
        with pytest.raises(InvariantViolation, match=re.escape(f"density-shape: matrix shape {shape} not square")):
            check_density(np.zeros(shape, dtype=complex))

    def test_stack_check_names_the_failing_invariant(self):
        good = np.stack([np.eye(2) / 2, np.diag([0.3, 0.7])]).astype(complex)
        check_density(good)
        for name, index, matrix in [
            ("density-hermitian", 1, [[0.3, 0.1], [0.0, 0.7]]),
            ("density-trace", 0, [[0.5, 0.0], [0.0, 0.6]]),
            ("density-positivity", 1, [[-0.3, 0.0], [0.0, 1.3]]),
        ]:
            bad = good.copy()
            bad[index] = matrix
            with pytest.raises(InvariantViolation, match=name):
                check_density(bad)


_FINITE = {
    "real": st.floats(-1e3, 1e3),
    "complex": st.complex_numbers(max_magnitude=1e3),
}


@st.composite
def _close_pairs(draw):
    """(a, b, atol): b is a's shape, a trailing part of it, or a scalar, with
    entries a small shift away from a's so both verdicts occur."""
    kind = draw(st.sampled_from(sorted(_FINITE)))
    dtype = complex if kind == "complex" else float
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    a = draw(hnp.arrays(dtype, shape, elements=_FINITE[kind]))
    atol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.5]))
    tail = shape[len(shape) - draw(st.integers(0, len(shape))):]
    shift = draw(hnp.arrays(float, tail, elements=st.sampled_from([0.0, atol / 2, atol, 2 * atol, 1.0])))
    base = a[(0,) * (len(shape) - len(tail))] if a.size else np.zeros(tail, dtype)
    b = base + shift
    if draw(st.booleans()) and b.ndim == 0:
        b = b.item()
    return a, b, atol


class TestWithin:
    @settings(max_examples=300, deadline=None)
    @given(_close_pairs())
    def test_matches_numpy_on_finite_input(self, case):
        a, b, atol = case
        assert within(a, b, atol) == np.allclose(a, b, atol=atol, rtol=0.0)

    @pytest.mark.parametrize(
        "a, b",
        [
            (math.nan, math.nan),
            (math.inf, math.inf),
            (-math.inf, -math.inf),
            (math.inf, 1.0),
            (complex(math.inf, 0.0), complex(math.inf, 0.0)),
            (complex(1.0, math.nan), 1.0),
            (np.array([[0.5, math.inf], [math.inf, 0.5]]), np.eye(2)),
            (np.array([1.0, math.nan]), np.array([1.0, 1.0])),
        ],
    )
    def test_non_finite_fails_without_warning(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert within(a, b, 1.0) is False


def test_package_has_one_tolerance_check():
    # `within` rejects NaN and inf; numpy's all-close tests pass inf == inf.
    package = Path(__file__).resolve().parent.parent / "src" / "tripsim"
    calls = re.compile(r"\b(allclose|isclose)\s*\(")
    found = [
        f"{path.name}:{n}"
        for path in sorted(package.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if calls.search(line)
    ]
    assert found == []


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

    def test_bitwise_equal_to_kron(self):
        rng = np.random.default_rng(7)
        for na, nb in [(0, 1), (1, 1), (1, 3), (2, 2), (3, 1)]:
            a, b = random_state(rng, na), random_state(rng, nb)
            expected = np.kron(a.amplitudes, b.amplitudes)
            assert tensor(a, b).amplitudes.tobytes() == expected.tobytes()

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

    def test_non_integer_target_rejected_at_construction(self):
        with pytest.raises(TypeError):
            LocalOperator(PAULI_X, (0.0,))

    def test_non_unitary_rejected_at_construction(self):
        text = "^operator-unitarity: operator is not unitary: U†U != 1 to 1e-9$"
        for matrix, targets in (([[1, 0], [0, 2]], (0,)), ([[1, 0], [0, math.nan]], (0,)), (np.ones((3, 3)), None)):
            with pytest.raises(InvariantViolation, match=text):
                LocalOperator(np.array(matrix), targets)

    def test_an_operator_is_a_matrix_and_its_targets(self):
        assert [f.name for f in dataclasses.fields(LocalOperator)] == ["matrix", "targets"]
        with pytest.raises(TypeError):
            LocalOperator(PAULI_X, (0,), False)

    @pytest.mark.parametrize(
        "matrix, targets, text",
        [
            (np.ones((2, 4)), (0,), "operator-shape: matrix shape (2, 4) not square"),
            (np.eye(4), (1, 1), "operator-targets: duplicate targets (1, 1)"),
            (np.eye(4), (0,), "operator-dimension: matrix dim 4 does not match 2^1 targets"),
        ],
        ids=["non-square", "duplicate-targets", "dimension"],
    )
    def test_malformed_operator_rejected_at_construction(self, matrix, targets, text):
        with pytest.raises(InvariantViolation, match="^" + re.escape(text) + "$"):
            LocalOperator(matrix, targets)

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

    def test_unbound_operator_acts_on_the_whole_register(self):
        rng = np.random.default_rng(5)
        u, s = haar_unitary(4, rng), random_state(rng, 2)
        assert u.targets is None
        out = apply_local(u, s)
        assert out.amplitudes.tobytes() == (u.matrix @ s.amplitudes).tobytes()

    def test_unbound_operator_of_another_dimension_is_refused(self):
        u = haar_unitary(4, np.random.default_rng(5))
        with pytest.raises(InvariantViolation, match="^operator-dimension: unbound operator dimension does not match state$"):
            apply_local(u, StateVector([1, 0]))


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
        with pytest.raises(IndexError, match="^basis state has 2 qubits but 1 targets were given$"):
            partial_inner(s, StateVector([1, 0, 0, 0]), (0,))

    def test_residual_has_the_untouched_qubits(self):
        s = random_state(np.random.default_rng(2), 4)
        assert partial_inner(s, StateVector([1, 0]), (2,)).num_qubits == 3
        assert partial_inner(s, StateVector.computational(4, 5), (0, 1, 2, 3)).num_qubits == 0


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

    def test_non_integer_keep_rejected(self):
        # int() would truncate 1.5 to qubit 1.
        rho = DensityOp.from_pure(GHZ)
        with pytest.raises(TypeError):
            partial_trace(rho, [1.5])
        with pytest.raises(IndexError):
            partial_trace(rho, (1, 1))
        with pytest.raises(IndexError):
            partial_trace(rho, (3,))

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


class TestClampUnit:
    def test_absorbs_rounding_only(self):
        assert clamp_unit(1 + 1e-12, "f") == 1.0
        assert clamp_unit(-1e-12, "f") == 0.0
        assert clamp_unit(0.25, "f") == 0.25
        np.testing.assert_array_equal(
            clamp_unit(np.array([[1 + 1e-12, 0.5], [-1e-12, 0.0]]), "f"), [[1.0, 0.5], [0.0, 0.0]]
        )

    @pytest.mark.parametrize(
        "value", [1.21, -1e-6, math.nan, np.array([0.5, 1.0 + 1e-8]), np.array([0.5, math.nan])]
    )
    def test_beyond_rounding_is_an_invariant_violation(self, value):
        with pytest.raises(InvariantViolation, match="unit-interval: f .* lies outside"):
            clamp_unit(value, "f")


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

    @pytest.mark.parametrize("left", [(), (0, 1, 2)], ids=["empty", "full"])
    def test_one_sided_bipartition_rejected(self, left):
        with pytest.raises(ValueError, match="^bipartition must leave qubits on both sides$"):
            schmidt_decompose(GHZ, left)

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


def _dense_string(*factors: str) -> np.ndarray:
    """One same-qubit product per qubit ("ZX" = Z·X, "" = I), then their
    Kronecker product written out entry by entry."""
    mats = [functools.reduce(np.matmul, (PAULI_MATRICES[ch] for ch in f or "I")) for f in factors]
    out = np.empty((1 << len(mats),) * 2, dtype=complex)
    for row in itertools.product((0, 1), repeat=len(mats)):
        for col in itertools.product((0, 1), repeat=len(mats)):
            entry = mats[0][row[0], col[0]]
            for m, i, j in zip(mats[1:], row[1:], col[1:]):
                entry = entry * m[i, j]
            out[int("".join(map(str, row)), 2), int("".join(map(str, col)), 2)] = entry
    return out


class TestStringMatrix:
    LETTER_STRINGS = [ls for n in (1, 2, 3) for ls in itertools.product("IXYZ", repeat=n)]
    PRODUCTS = [("ZX",), ("XZ",), ("", "Y"), ("ZX", "Y"), ("X", "XY", ""), ("YZ", "I", "ZX"), ("XYZ", "Z")]

    @pytest.mark.parametrize("factors", LETTER_STRINGS + PRODUCTS, ids="-".join)
    def test_matches_a_dense_build_and_is_read_only(self, factors):
        m = _string_matrix(*factors)
        expected = _dense_string(*factors)
        assert m.dtype == expected.dtype and m.shape == expected.shape
        assert m.tobytes() == expected.tobytes()
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_pauli_constants_are_read_only_whatever_ran_first(self):
        # In a fresh interpreter the shared constants are read-only from
        # import, so one-letter builds cannot change their writeability.
        code = (
            "from tripsim import core, teleport\n"
            "from tripsim.nonlocality import PauliString\n"
            "read = lambda: [core.PAULIS[ch].flags.writeable for ch in 'IXYZ']\n"
            "before = read()\n"
            "PauliString('X').matrix(); teleport._correction_stack(['X'], 1)\n"
            "print(before, read())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{[False] * 4} {[False] * 4}\n"
