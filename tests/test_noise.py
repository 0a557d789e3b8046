import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    OCTAHEDRON,
    average_fidelity_density,
    described_matrix,
    lift_operator,
    random_state,
    repetition,
    six_state_mean,
    with_entry,
)
from tripsim.bases import ghz_basis
from tripsim.core import DensityOp, InvariantViolation, PAULI_X, StateVector
from tripsim.noise import (
    CHANNELS,
    KrausChannel,
    amplitude_damping,
    apply_channel,
    bit_flip,
    depolarizing,
    make_channel,
    noisy_teleport_sweep,
    phase_flip,
)
from tripsim import noise, teleport
from tripsim.teleport import PROTOCOL_NAMES, average_fidelity, protocol_bundle

MAX = math.pi / 4
ALL_CHANNELS = (bit_flip, phase_flip, depolarizing, amplitude_damping)


class TestKraus:
    def test_completeness_all_kinds(self):
        for make in ALL_CHANNELS:
            for p in (0.0, 0.17, 0.5, 1.0):
                ch = make(p)
                acc = sum(k.conj().T @ k for k in ch.kraus)
                np.testing.assert_allclose(acc, np.eye(2), atol=1e-12)

    def test_incomplete_set_rejected(self):
        with pytest.raises(InvariantViolation, match="kraus-completeness"):
            KrausChannel("broken", 0.5, (np.eye(2) * 0.5,))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="2 x 2"):
            KrausChannel("empty", 0.0, ())

    def test_multi_qubit_operators_rejected(self):
        # A complete set of 4 x 4 operators would build a 16 x 16 transfer
        # matrix that the single-qubit apply_channel cannot use.
        with pytest.raises(ValueError, match="2 x 2"):
            KrausChannel("two-qubit", 0.0, (np.eye(4),))

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            bit_flip(1.5)

    @pytest.mark.parametrize(
        "make, refusal",
        [
            (lambda: make_channel("dephasing", 0.5), "unknown channel kind 'dephasing'; known: " + str(sorted(CHANNELS))),
            (lambda: bit_flip(1.5), "p must lie in [0, 1], got 1.5"),
            (lambda: phase_flip(-0.25), "p must lie in [0, 1], got -0.25"),
            (lambda: depolarizing(math.nan), "p must lie in [0, 1], got nan"),
            (lambda: amplitude_damping(1.5), "gamma must lie in [0, 1], got 1.5"),
            (lambda: make_channel("amplitude-damping", -1), "gamma must lie in [0, 1], got -1.0"),
            (lambda: make_channel("depolarizing", 2), "p must lie in [0, 1], got 2.0"),
        ],
        ids=[
            "unknown-kind", "bit-flip", "phase-flip", "depolarizing-nan", "amplitude-damping",
            "make-amplitude-damping", "make-depolarizing",
        ],
    )
    def test_channel_table_refusals(self, make, refusal):
        # Each kind names its own parameter, p or gamma, in the refusal.
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == refusal

    def test_transfer_matrix_is_read_only_and_rebuilt_by_replace(self):
        ch = depolarizing(0.3)
        assert not ch.transfer.flags.writeable
        flipped = dataclasses.replace(ch, kraus=bit_flip(0.4).kraus)
        np.testing.assert_array_equal(flipped.transfer, bit_flip(0.4).transfer)


class TestApplyChannel:
    def test_parameter_zero_is_identity(self):
        rng = np.random.default_rng(0)
        rho = DensityOp.from_pure(random_state(rng, 2))
        for make in ALL_CHANNELS:
            out = apply_channel(rho, make(0.0), 1)
            np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_full_bit_flip_is_sigma_x(self):
        rng = np.random.default_rng(1)
        rho = DensityOp.from_pure(random_state(rng, 3))
        out = apply_channel(rho, bit_flip(1.0), 1)
        x1 = lift_operator(PAULI_X, (1,), 3)
        np.testing.assert_allclose(out.matrix, x1 @ rho.matrix @ x1.conj().T, atol=1e-12)

    def test_full_depolarizing_third_qubit_of_ghz(self):
        rho = DensityOp.from_pure(ghz_basis(MAX, (0, 0, 0)))
        noisy = apply_channel(rho, depolarizing(1.0), 2)
        from tripsim.core import partial_trace

        reduced = partial_trace(noisy, (2,))
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_cptp_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            rho = DensityOp.from_pure(random_state(rng, n))
            make = ALL_CHANNELS[int(rng.integers(0, len(ALL_CHANNELS)))]
            ch = make(float(rng.random()))
            out = apply_channel(rho, ch, int(rng.integers(0, n)))
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-9

    def test_bit_flip_composition_law(self):
        rng = np.random.default_rng(3)
        rho = DensityOp.from_pure(random_state(rng, 2))
        p1, p2 = 0.23, 0.41
        twice = apply_channel(apply_channel(rho, bit_flip(p1), 0), bit_flip(p2), 0)
        once = apply_channel(rho, bit_flip(p1 + p2 - 2 * p1 * p2), 0)
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(CHANNELS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), parameter=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_lifted_kraus_sum(self, kind, n, parameter, seed):
        # sum_k K rho K† with each Kraus matrix lifted to the full register,
        # on every target of a random mixed density.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        ch = make_channel(kind, parameter)
        for target in range(n):
            lifted = [lift_operator(k, (target,), n) for k in ch.kraus]
            expected = sum(k @ rho @ k.conj().T for k in lifted)
            got = apply_channel(DensityOp(rho), ch, target).matrix
            assert np.abs(got - expected).max() <= 1e-14

    def test_target_out_of_range(self):
        rho = DensityOp.from_pure(ghz_basis(MAX, (0, 0, 0)))
        with pytest.raises(IndexError):
            apply_channel(rho, bit_flip(0.1), 3)

    def test_non_integer_target_rejected(self):
        rho = DensityOp.from_pure(ghz_basis(MAX, (0, 0, 0)))
        with pytest.raises(TypeError):
            apply_channel(rho, bit_flip(0.1), 1.0)


def _full_space_oracle(bundle, resource_rho, c0, c1):
    """Recompute the branch-summed fidelity with dense full-register
    matrices, applying the output correction *before* the measurement
    projector (the operators commute, so the value must agree)."""
    entry = bundle.protocol
    target = repetition(entry.n_input, c0, c1)
    rho = np.kron(np.outer(target, target.conj()), resource_rho)
    n = bundle.n_total
    out_qubits = [q for q in range(n) if q not in entry.meas_targets]
    total = 0.0
    for label, bvec in bundle.outcomes:
        corr = bundle.protocol.corrections(*label)
        if corr is None:
            continue
        u_full = lift_operator(described_matrix(corr, len(out_qubits)), out_qubits, n)
        rho_corr = u_full @ rho @ u_full.conj().T
        proj = lift_operator(np.outer(bvec.amplitudes, bvec.amplitudes.conj()),
                             entry.meas_targets, n)
        projected = proj @ rho_corr @ proj.conj().T
        t = projected.reshape([2] * (2 * n))
        subs = list(range(2 * n))
        for q in entry.meas_targets:
            subs[n + q] = subs[q]
        out_axes = [q for q in out_qubits] + [n + q for q in out_qubits]
        small = np.einsum(t, subs, out_axes).reshape(1 << len(out_qubits), -1)
        total += float(np.vdot(target, small @ target).real)
    return total


def _noisy_resource_rho(bundle, kind, p, targets) -> np.ndarray:
    """Resource density after the channel on each full-register target."""
    rho = DensityOp.from_pure(bundle.resource)
    for q in targets:
        rho = apply_channel(rho, make_channel(kind, p), q - bundle.protocol.n_input)
    return rho.matrix


class TestSweep:
    def test_parameter_zero_matches_pure_protocol(self):
        bundle = protocol_bundle("ghz-meas")
        resource = bundle.resource.amplitudes
        pure = six_state_mean(average_fidelity_density, bundle, np.outer(resource, resource.conj()))
        for kind in ("bitflip", "phaseflip", "depolarizing", "amplitude-damping"):
            rows = noisy_teleport_sweep("ghz-meas", kind, 3, [0.0])
            assert abs(rows[0][1] - pure) < 1e-9

    def test_bit_flip_on_receiver_matches_full_space_oracle(self):
        bundle = protocol_bundle("ghz-meas")
        for p in (0.0, 0.3, 0.8):
            noisy = _noisy_resource_rho(bundle, "bitflip", p, (3,))
            for c0, c1 in OCTAHEDRON:
                density = average_fidelity_density(bundle, noisy, c0, c1)
                assert abs(density - _full_space_oracle(bundle, noisy, c0, c1)) < 1e-10
            slow = six_state_mean(_full_space_oracle, bundle, noisy)
            rows = noisy_teleport_sweep("ghz-meas", "bitflip", 3, [p])
            assert abs(rows[0][1] - slow) < 1e-10

    @pytest.mark.parametrize("kind", sorted(CHANNELS))
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_sweep_matches_density_oracle(self, protocol, kind):
        # Noise on the first and the last resource qubit, so the product
        # of per-qubit Kraus terms is exercised as well.
        bundle = protocol_bundle(protocol)
        targets = [bundle.protocol.n_input, bundle.n_total - 1]
        grid = (0.37, 1.0)
        rows = noisy_teleport_sweep(protocol, kind, targets, grid)
        for (_, fid), p in zip(rows, grid):
            noisy = _noisy_resource_rho(bundle, kind, p, targets)
            oracle = six_state_mean(average_fidelity_density, bundle, noisy)
            assert abs(fid - oracle) < 1e-12
            assert abs(average_fidelity(bundle, noisy) - oracle) < 1e-12

    @pytest.mark.parametrize(
        "protocol, params, qubit",
        [("ghz-meas", {}, 1), ("ghz-via-3epr", {"theta1": 0.5, "theta2": 0.9, "theta3": 1.2}, 3)],
    )
    def test_response_orientation_matches_density_oracle(self, protocol, params, qubit):
        # Complex outcome bras and a complex resource density tell W from
        # its transpose; for ghz-via-3epr the rotated qubit 3 sits between
        # kept resource qubits.
        bundle = protocol_bundle(protocol, **params)
        entry = bundle.protocol
        v = np.cos(0.3) * np.eye(2) - 1j * np.sin(0.3) * PAULI_X
        v = v @ np.diag([1, np.exp(0.7j)])
        slot = entry.meas_targets.index(qubit)
        k = len(entry.meas_targets)

        def rotated(coords):
            outcomes = []
            for label, bra in entry.outcomes(coords):
                amps = np.moveaxis(bra.amplitudes.reshape((2,) * k), slot, 0)
                amps = np.moveaxis(np.tensordot(v, amps, axes=1), 0, slot)
                outcomes.append((label, StateVector(amps.reshape(-1))))
            return tuple(outcomes)

        bundle = with_entry(bundle, outcomes=rotated)
        rng = np.random.default_rng(31)
        dim = 1 << bundle.resource.num_qubits
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        oracle = six_state_mean(average_fidelity_density, bundle, rho)
        assert abs(average_fidelity(bundle, rho) - oracle) < 1e-12

    def test_many_term_expansion_matches_density_oracle(self):
        # Depolarizing four or all six resource qubits would expand into
        # 4^4 = 256 or 4^6 = 4096 pure Kraus terms; the sweep applies the
        # channel to the resource density instead.
        bundle = protocol_bundle("ghz-via-3epr")
        for targets, grid in (([3, 5, 7, 8], [0.37]), ([3, 4, 5, 6, 7, 8], np.linspace(0, 1, 5))):
            rows = noisy_teleport_sweep("ghz-via-3epr", "depolarizing", targets, grid)
            for (_, fid), p in zip(rows, grid):
                noisy = _noisy_resource_rho(bundle, "depolarizing", p, targets)
                assert abs(fid - six_state_mean(average_fidelity_density, bundle, noisy)) < 1e-12

    def test_sweep_cost_does_not_grow_with_targets_or_points(self, monkeypatch):
        # The resource response is built once per sweep, so six targets over
        # five points build no more branch factors than one target at one point.
        calls = []
        branch_factors = teleport._branch_factors
        monkeypatch.setattr(
            teleport, "_branch_factors", lambda *args: calls.append(1) or branch_factors(*args)
        )
        noisy_teleport_sweep("ghz-via-3epr", "depolarizing", 3, [0.37])
        single = len(calls)
        calls.clear()
        noisy_teleport_sweep("ghz-via-3epr", "depolarizing", range(3, 9), np.linspace(0, 1, 5))
        assert 0 < len(calls) <= single

    @pytest.mark.parametrize(
        "kind, grid, refusal",
        [
            ("bogus", [0.1], r"^unknown channel kind 'bogus'"),
            ("depolarizing", [0.1, 0.5, 1.5], r"^p must lie in \[0, 1\], got 1\.5$"),
            ("depolarizing", 0.5, r"^p_grid must be a 1-D array, got shape \(\)$"),
            ("depolarizing", [[0.1, 0.2]], r"^p_grid must be a 1-D array, got shape \(1, 2\)$"),
        ],
        ids=["kind", "grid-point", "scalar-grid", "nested-grid"],
    )
    def test_channels_are_checked_before_the_response_is_built(self, kind, grid, refusal, monkeypatch):
        # Every grid point's channel is built, and so checked, before W, and
        # so is the grid's shape.
        calls = []
        monkeypatch.setattr(noise, "resource_response", lambda bundle: calls.append(bundle))
        with pytest.raises(ValueError, match=refusal):
            noisy_teleport_sweep("ghz-via-3epr", kind, 3, grid)
        assert calls == []

    def test_empty_grid_gives_no_rows(self):
        assert noisy_teleport_sweep("ghz-meas", "depolarizing", 3, []) == []

    def test_empty_grid_builds_no_response_and_no_resource(self, monkeypatch):
        calls, bundles = [], []
        monkeypatch.setattr(noise, "resource_response", lambda bundle: calls.append(bundle))
        build = noise.protocol_bundle
        monkeypatch.setattr(noise, "protocol_bundle", lambda *a, **k: bundles.append(build(*a, **k)) or bundles[-1])
        assert noisy_teleport_sweep("ghz-via-3epr", "depolarizing", 3, []) == []
        assert calls == [] and len(bundles) == 1
        assert "resource" not in vars(bundles[0])
        # The targets and the grid's shape are still checked first.
        with pytest.raises(ValueError, match="is not a resource qubit"):
            noisy_teleport_sweep("ghz-via-3epr", "depolarizing", 0, [])
        with pytest.raises(ValueError, match="must be a 1-D array"):
            noisy_teleport_sweep("ghz-via-3epr", "depolarizing", 3, [[]])

    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    @pytest.mark.parametrize("target", [[], (), np.array([], dtype=int)], ids=["list", "tuple", "array"])
    def test_empty_target_list_is_refused_before_any_channel(self, protocol, target, monkeypatch):
        # Noising no qubit would return the noiseless fidelity as if a
        # channel had been applied.
        calls = []
        monkeypatch.setattr(noise, "resource_response", lambda bundle: calls.append(bundle))
        monkeypatch.setattr(noise, "make_channel", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"^{protocol} needs at least one noise target$"):
            noisy_teleport_sweep(protocol, "bitflip", target, [0.0, 0.5])
        assert calls == []

    def test_fully_depolarized_channel_delivers_coin_flip(self):
        rows = noisy_teleport_sweep("ghz-meas", "depolarizing", [1, 2, 3], [1.0])
        assert abs(rows[0][1] - 0.5) < 1e-12

    def test_sweep_is_smooth_in_the_parameter(self):
        rows = noisy_teleport_sweep("ghz-meas", "bitflip", 3, [0.3, 0.3 + 1e-6])
        assert abs(rows[0][1] - rows[1][1]) < 1e-4

    @pytest.mark.parametrize("target", range(3, 9))
    def test_ghz_via_3epr_pauli_noise_laws(self, target):
        # A Pauli error on one pair reaches one output qubit: X and Y make
        # the output orthogonal to a0|000> + a1|111>, Z leaves overlap
        # |a0|^2 - |a1|^2 whose square averages to 1/3.
        grid = (0.0, 0.37, 1.0)
        depolarized = noisy_teleport_sweep("ghz-via-3epr", "depolarizing", target, grid)
        flipped = noisy_teleport_sweep("ghz-via-3epr", "bitflip", target, grid)
        for (p, dep), (_, flip) in zip(depolarized, flipped):
            assert abs(dep - (1 - 2 * p / 3)) < 1e-12
            assert abs(flip - (1 - p)) < 1e-12

    def test_w_channel_sweep_p_zero(self):
        bundle = protocol_bundle("w-channel")
        rows = noisy_teleport_sweep("w-channel", "phaseflip", 2, [0.0])
        resource = bundle.resource.amplitudes
        pure = six_state_mean(average_fidelity_density, bundle, np.outer(resource, resource.conj()))
        assert abs(rows[0][1] - pure) < 1e-9

    def test_invalid_target_rejected(self):
        for target in (0, 4, [3, 3]):
            with pytest.raises(ValueError):
                noisy_teleport_sweep("ghz-meas", "bitflip", target, [0.0])

    @pytest.mark.parametrize("target", [3.7, 3 + 0j, [3, 2.5]], ids=["float", "complex", "list"])
    def test_non_integer_target_rejected(self, target):
        # 3.7 must not be read as qubit 3.
        with pytest.raises(TypeError):
            noisy_teleport_sweep("ghz-meas", "bitflip", target, [0.3])

    def test_numpy_integer_target_accepted(self):
        rows = noisy_teleport_sweep("ghz-meas", "bitflip", np.int64(3), [0.3])
        assert rows == noisy_teleport_sweep("ghz-meas", "bitflip", 3, [0.3])
