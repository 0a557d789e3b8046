import math

import numpy as np
import pytest

from helpers import looped_haar_averages, looped_haar_unitary
from tripsim import twirl
from tripsim.bases import bell2, ghz_basis
from tripsim.core import DensityOp, InvariantViolation, StateVector, haar_unitaries, haar_unitary
from tripsim.twirl import (
    GenWerner3Q,
    IsotropicParams,
    WernerParams,
    antisymmetric_projector,
    flip_operator,
    gen_werner_3q,
    isotropic,
    isotropic_invariant,
    max_entangled_projector,
    symmetric_projector,
    trace_distance,
    twirl_report,
    twirl_uu,
    twirl_uustar,
    werner,
    werner_invariant,
)


@pytest.mark.parametrize(
    "build, refusal",
    [
        (lambda: WernerParams(2, -0.1), "p must lie in [0, 1], got -0.1"),
        (lambda: WernerParams(2, 1.5), "p must lie in [0, 1], got 1.5"),
        (lambda: WernerParams(2, math.nan), "p must lie in [0, 1], got nan"),
        (lambda: WernerParams(1, 0.5), "level count must be >= 2, got 1"),
        (lambda: IsotropicParams(2, 1.5), "f must lie in [0, 1], got 1.5"),
        (lambda: IsotropicParams(2, -0.5), "f must lie in [0, 1], got -0.5"),
        (lambda: IsotropicParams(1, 1.0), "level count must be >= 2, got 1"),
        (lambda: GenWerner3Q(-0.1, 0.3), "p must lie in [0, 1], got -0.1"),
        (lambda: GenWerner3Q(1.5, 0.3), "p must lie in [0, 1], got 1.5"),
    ],
    ids=[
        "werner-p-below", "werner-p-above", "werner-p-nan", "werner-d-one", "isotropic-f-above",
        "isotropic-f-below", "isotropic-d-one", "gen-werner-p-below", "gen-werner-p-above",
    ],
)
def test_params_refused_at_construction(build, refusal):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == refusal


class TestWerner:
    def test_equal_weights_give_maximally_mixed(self):
        rho = werner(WernerParams(2, 0.25))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_invariant_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            p = float(rng.random())
            assert abs(werner_invariant(werner(WernerParams(d, p))) - p) < 1e-12

    def test_p_one_is_singlet_projector(self):
        singlet = bell2(math.pi / 4, (1, 1)).amplitudes
        np.testing.assert_allclose(
            werner(WernerParams(2, 1.0)).matrix,
            np.outer(singlet, singlet.conj()),
            atol=1e-12,
        )

    def test_projector_algebra(self):
        for d in (2, 3):
            plus, minus = symmetric_projector(d), antisymmetric_projector(d)
            np.testing.assert_allclose(plus @ minus, 0 * plus, atol=1e-12)
            np.testing.assert_allclose(plus @ plus, plus, atol=1e-12)
            assert abs(np.trace(minus).real - (d * d - d) / 2) < 1e-12
            v = flip_operator(d)
            np.testing.assert_allclose(v @ v, np.eye(d * d), atol=1e-12)


class TestIsotropic:
    def test_f_one_is_max_entangled_projector(self):
        np.testing.assert_allclose(
            isotropic(IsotropicParams(2, 1.0)).matrix,
            max_entangled_projector(2),
            atol=1e-12,
        )

    def test_f_at_lower_bound_is_maximally_mixed(self):
        for d in (2, 3):
            rho = isotropic(IsotropicParams(d, 1.0 / (d * d)))
            np.testing.assert_allclose(rho.matrix, np.eye(d * d) / (d * d), atol=1e-12)

    def test_invariant_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            f = float(rng.uniform(1.0 / (d * d), 1.0))
            assert abs(isotropic_invariant(isotropic(IsotropicParams(d, f))) - f) < 1e-12

    def test_below_projector_weight_bound_rejected(self):
        with pytest.raises(ValueError, match="1/d"):
            isotropic(IsotropicParams(2, 0.1))

    @pytest.mark.parametrize("d, f, bound", [(2, 0.1, 0.25), (3, 0.1, 1 / 9), (4, 0.0, 0.0625)])
    def test_params_below_projector_weight_bound_refused_at_construction(self, d, f, bound):
        with pytest.raises(ValueError) as refused:
            IsotropicParams(d, f)
        assert str(refused.value) == f"f must lie in [1/d^2, 1] = [{bound}, 1], got {f}"

    def test_params_at_the_bound_within_rounding_are_accepted(self):
        for d in (2, 3, 5):
            IsotropicParams(d, 1.0 / (d * d) - 5e-13)


class TestGenWerner3Q:
    def test_fully_mixed_limit(self):
        np.testing.assert_allclose(
            gen_werner_3q(GenWerner3Q(0.0, 0.7)).matrix, np.eye(8) / 8, atol=1e-12
        )

    def test_pure_limit(self):
        ghz = ghz_basis(math.pi / 4, (0, 0, 0)).amplitudes
        np.testing.assert_allclose(
            gen_werner_3q(GenWerner3Q(1.0, math.pi / 4)).matrix,
            np.outer(ghz, ghz.conj()),
            atol=1e-12,
        )

    def test_purity_formula(self):
        for p in (0.0, 0.2, 0.55, 1.0):
            rho = gen_werner_3q(GenWerner3Q(p, 0.4))
            direct = float(np.trace(rho.matrix @ rho.matrix).real)
            assert abs(direct - (p * p + (1 - p * p) / 8)) < 1e-12


class TestTwirl:
    @pytest.mark.parametrize("twirl_fn", [twirl_uu, twirl_uustar])
    def test_zero_samples_refused(self, twirl_fn):
        with pytest.raises(ValueError, match="^samples must be >= 1, got 0$"):
            twirl_fn(werner(WernerParams(2, 0.5)), 0, np.random.default_rng(0))

    def test_trace_distance_needs_one_dimension(self):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            trace_distance(werner(WernerParams(2, 0.5)), werner(WernerParams(3, 0.5)))

    def test_werner_is_exact_fixed_point_per_sample(self):
        rho = werner(WernerParams(2, 0.7))
        out = twirl_uu(rho, 2000, np.random.default_rng(0))
        assert trace_distance(out, rho) < 5e-2

    def test_isotropic_is_exact_fixed_point_per_sample(self):
        rho = isotropic(IsotropicParams(2, 0.6))
        out = twirl_uustar(rho, 2000, np.random.default_rng(0))
        assert trace_distance(out, rho) < 5e-2

    @pytest.mark.parametrize("invariant", [werner_invariant, isotropic_invariant])
    def test_invariant_needs_a_two_qudit_operator(self, invariant):
        # d comes from the dimension check, not from a rounded square root.
        with pytest.raises(ValueError, match="twirl needs a two-qudit operator, got dim 8"):
            invariant(DensityOp(np.eye(8) / 8))

    def test_maximally_mixed_untouched_by_single_sample(self):
        rho = DensityOp(np.eye(4) / 4)
        out = twirl_uu(rho, 1, np.random.default_rng(3))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)
        out = twirl_uustar(rho, 1, np.random.default_rng(3))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_max_entangled_converges_to_symmetric_family_member(self):
        rho = DensityOp.from_pure(bell2(math.pi / 4, (0, 0)))
        assert abs(werner_invariant(rho)) < 1e-12
        out = twirl_uu(rho, 2000, np.random.default_rng(1))
        assert trace_distance(out, werner(WernerParams(2, 0.0))) < 5e-2

    def test_random_qutrit_pure_converges_to_isotropic(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v /= np.linalg.norm(v)
        rho = DensityOp(np.outer(v, v.conj()))
        f = isotropic_invariant(rho)
        assert f > 1.0 / 9.0
        out = twirl_uustar(rho, 2000, np.random.default_rng(42))
        assert trace_distance(out, isotropic(IsotropicParams(3, f))) < 5e-2

    def test_convergence_scales_like_inverse_sqrt(self):
        # Non-invariant inputs so the Monte-Carlo error is actually visible;
        # seeds fixed, so these are deterministic values under a c/sqrt(N)
        # envelope with c = 2.
        rho = DensityOp.from_pure(bell2(math.pi / 4, (0, 0)))
        target = werner(WernerParams(2, 0.0))
        for n in (500, 2000, 8000):
            td = trace_distance(twirl_uu(rho, n, np.random.default_rng(42)), target)
            assert td < 2.0 / math.sqrt(n)
        rho01 = DensityOp.from_pure(StateVector([0, 1, 0, 0]))
        target01 = werner(WernerParams(2, 0.5))
        for n in (500, 2000, 8000):
            td = trace_distance(twirl_uu(rho01, n, np.random.default_rng(42)), target01)
            assert td < 2.0 / math.sqrt(n)

    def test_outputs_are_valid_density_ops(self):
        out = twirl_uu(werner(WernerParams(3, 0.4)), 50, np.random.default_rng(5))
        assert isinstance(out, DensityOp)

    @pytest.mark.parametrize("family", ["Werner", "uu", ""])
    def test_report_refuses_an_unknown_family(self, family):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"^unknown family '{family}'$"):
            twirl_report(family, 2, 0.5, 10, rng)
        # Refused before any draw.
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()

    def test_report_history_shrinks(self):
        report = twirl_report("werner", 2, 0.7, 500, np.random.default_rng(0))
        history = report["trace_distance_history"]
        assert len(history) == 10
        assert history[-1][0] == 500
        assert all(dist < 5e-2 for _, dist in history)


# The blocked twirl must reproduce the one-draw-at-a-time loop exactly: the
# same averages bit for bit and the generator left in the same state.
# Building U⊗V with einsum instead of the broadcast product, or dropping the
# phase fix of the Haar draw, fails these tests.

def _block(d: int) -> int:
    return max(1, twirl._BLOCK_ENTRIES // d**4)


def _sample_counts(d: int) -> list[int]:
    return sorted({1, 7, _block(d) - 1, _block(d), _block(d) + 1, 500})


def _random_density(d: int, seed: int) -> DensityOp:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    m = a @ a.conj().T
    return DensityOp(m / np.trace(m).real)


class TestBlockedTwirl:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("conjugate_second", [False, True], ids=["uu", "uustar"])
    def test_matrices_match_looped_oracle(self, d, conjugate_second):
        rho = _random_density(d, seed=d)
        run = twirl_uustar if conjugate_second else twirl_uu
        for samples in _sample_counts(d):
            fast_rng, slow_rng = np.random.default_rng(samples), np.random.default_rng(samples)
            fast = run(rho, samples, fast_rng).matrix
            slow = looped_haar_averages(rho, samples, slow_rng, conjugate_second, 1)[-1][1]
            assert (fast == slow).all(), samples
            assert fast_rng.standard_normal() == slow_rng.standard_normal()

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("family", ["werner", "isotropic"])
    def test_report_histories_match_looped_oracle(self, family, d):
        # The oracle takes each looped checkpoint average through the public
        # DensityOp and trace_distance, one at a time.
        invariant = 0.3 if family == "werner" else 0.6
        if family == "werner":
            target, conjugate_second = werner(WernerParams(d, invariant)), False
        else:
            target, conjugate_second = isotropic(IsotropicParams(d, invariant)), True
        for samples in _sample_counts(d):
            fast_rng, slow_rng = np.random.default_rng(samples), np.random.default_rng(samples)
            fast = twirl_report(family, d, invariant, samples, fast_rng)
            slow = [
                (stop, trace_distance(DensityOp(average), target))
                for stop, average in looped_haar_averages(
                    target, samples, slow_rng, conjugate_second, 10
                )
            ]
            assert fast == {
                "family": family, "d": d, "invariant": invariant, "trace_distance_history": slow
            }, samples
            assert fast_rng.standard_normal() == slow_rng.standard_normal()

    def test_report_rejects_a_non_hermitian_checkpoint(self, monkeypatch):
        def skewed(*args):
            averages = looped_haar_averages(*args)
            stop, average = averages[4]
            average = average.copy()
            average[0, 1] += 1e-6
            averages[4] = (stop, average)
            return averages

        monkeypatch.setattr(twirl, "_haar_averages", skewed)
        with pytest.raises(InvariantViolation, match="density-hermitian"):
            twirl_report("werner", 2, 0.3, 50, np.random.default_rng(0))

    def test_blocks_stay_within_the_entry_budget(self, monkeypatch):
        counts = []

        def recording(d, count, rng):
            counts.append((d, count))
            return haar_unitaries(d, count, rng)

        monkeypatch.setattr(twirl, "haar_unitaries", recording)
        for d in (2, 3, 4, 9):
            twirl_uu(DensityOp(np.eye(d * d) / (d * d)), 60, np.random.default_rng(0))
        # A stacked U⊗V holds count * d**4 entries; above d = 8 one draw alone
        # exceeds the budget, so those draws come one at a time.
        assert all(count * d**4 <= twirl._BLOCK_ENTRIES for d, count in counts if d < 9)
        assert [count for d, count in counts if d == 3] == [50, 10]
        assert [count for d, count in counts if d == 9] == [1] * 60

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_haar_unitaries_match_successive_single_draws(self, d):
        block_rng = np.random.default_rng(d)
        single_rng = np.random.default_rng(d)
        oracle_rng = np.random.default_rng(d)
        block = haar_unitaries(d, 4, block_rng)
        assert block.shape == (4, d, d)
        for u in block:
            assert (u == haar_unitary(d, single_rng).matrix).all()
            assert (u == looped_haar_unitary(d, oracle_rng)).all()
        assert block_rng.standard_normal() == single_rng.standard_normal()

    def test_haar_unitaries_reject_bad_sizes(self):
        with pytest.raises(ValueError):
            haar_unitaries(0, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            haar_unitaries(2, 0, np.random.default_rng(0))
