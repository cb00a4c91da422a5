import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycc import (
    EpsilonBands,
    Instance,
    ParameterError,
    epsilon_bands,
    fb_error_bound,
    fb_min_gap,
    fc_sample_bound,
    gaps,
    num_pairs,
    success_check,
    tilde_gaps,
)

THREE_ARM = Instance(3, [0.9, 0.1, 0.55])  # pairs (0,1), (0,2), (1,2)

# Frozen 50-digit evaluations of the closed forms on THREE_ARM and friends.
FB_ERROR_N3 = 0.20875968753153156425
FC_BOUND_SINGLE_FULL_GAP = 35.322191330230094128  # n=2, s=1.0, eps=0.4, delta=0.25
FC_BOUND_THREE_ARM = 591.12997215372748637  # eps=0.2, delta=0.1

sims_lists = st.integers(2, 8).flatmap(
    lambda n: st.lists(
        st.floats(0.0, 1.0), min_size=num_pairs(n), max_size=num_pairs(n)
    ).map(lambda sims: Instance(n, sims))
)


class TestGaps:
    def test_example(self):
        profile = gaps(THREE_ARM)
        assert np.allclose(profile.deltas, [0.4, 0.4, 0.05])
        assert profile.delta_min == pytest.approx(0.05, rel=1e-12)
        assert profile.m_g == 2

    def test_all_half(self):
        profile = gaps(Instance(3, [0.5] * 3))
        assert np.all(profile.deltas == 0.0)
        assert profile.delta_min == 0.0
        assert profile.m_g == 3

    def test_extreme(self):
        profile = gaps(Instance(2, [1.0]))
        assert list(profile.deltas) == [0.5]

    def test_empty_profile_flagged(self):
        profile = gaps(Instance(1, []))
        assert profile.delta_min is None
        assert profile.m_g == 0
        assert len(profile.deltas) == 0


class TestEpsilonBands:
    def test_example(self):
        bands = epsilon_bands(THREE_ARM, 0.1)
        assert bands.above == frozenset({0})
        assert bands.below == frozenset({1})
        assert bands.band == frozenset({2})

    def test_boundary_is_inclusive(self):
        # 0.625 == 0.5 + 0.125 exactly in binary floating point.
        bands = epsilon_bands(Instance(2, [0.625]), 0.125)
        assert bands.band == frozenset({0})
        assert bands.above == frozenset()

    def test_wide_band_swallows_everything(self):
        bands = epsilon_bands(Instance(3, [0.2, 0.8, 0.5]), 0.49)
        assert bands.band == frozenset({0, 1, 2})

    @settings(max_examples=50)
    @given(sims_lists, st.floats(0.01, 0.49))
    def test_partition_property(self, inst, eps):
        bands = epsilon_bands(inst, eps)
        union = bands.band | bands.above | bands.below
        assert union == frozenset(range(inst.m))
        assert len(bands.band) + len(bands.above) + len(bands.below) == inst.m

    @settings(max_examples=50)
    @given(sims_lists, st.floats(0.01, 0.49))
    def test_matches_scalar_reference(self, inst, eps):
        band, above, below = set(), set(), set()
        for e, s in enumerate(inst.sims.tolist()):
            if abs(0.5 - s) <= eps:
                band.add(e)
            elif s > 0.5 + eps:
                above.add(e)
            else:
                below.add(e)
        assert epsilon_bands(inst, eps) == EpsilonBands(
            frozenset(band), frozenset(above), frozenset(below)
        )

    def test_epsilon_range(self):
        with pytest.raises(ParameterError):
            epsilon_bands(THREE_ARM, 0.5)


class TestTildeGaps:
    def test_example(self):
        assert np.allclose(tilde_gaps(THREE_ARM, 0.2), [0.5, 0.5, 0.15])

    def test_small_delta_min_gives_half_epsilon_bonus(self):
        # delta_min <= eps/2 resolves the min to eps/2 for every pair.
        inst = Instance(3, [0.9, 0.55, 0.45])
        tg = tilde_gaps(inst, 0.3)
        assert np.allclose(tg, np.abs(inst.sims - 0.5) + 0.15)

    def test_positive_at_exact_threshold(self):
        inst = Instance(3, [0.5, 0.9, 0.1])
        tg = tilde_gaps(inst, 0.2)
        assert tg[0] == pytest.approx(0.1, rel=1e-12)
        assert np.all(tg > 0)

    @settings(max_examples=80)
    @given(sims_lists, st.floats(0.01, 0.49))
    def test_lower_bound(self, inst, eps):
        tg = tilde_gaps(inst, eps)
        deltas = np.abs(inst.sims - 0.5)
        floor = np.minimum(eps, deltas + eps / 2.0)
        assert np.all(tg >= floor - 1e-12)
        assert np.all(tg > 0)


class TestFbMinGap:
    def test_example_narrow_band(self):
        assert fb_min_gap(THREE_ARM, 0.12) == pytest.approx(0.05, rel=1e-12)

    def test_floor_inactive_when_gaps_large(self):
        inst = Instance(2, [0.9])
        assert fb_min_gap(inst, 0.12) == pytest.approx(0.4, rel=1e-12)

    def test_all_half_example(self):
        inst = Instance(3, [0.5] * 3)
        assert fb_min_gap(inst, 0.3) == pytest.approx(1.0 / 60.0, rel=1e-12)

    def test_large_epsilon_branch(self):
        inst = Instance(3, [0.5] * 3)
        assert fb_min_gap(inst, 0.6) == pytest.approx(0.6 / 18.0, rel=1e-12)

    @settings(max_examples=50)
    @given(sims_lists, st.floats(0.01, 2.0))
    def test_floors(self, inst, eps):
        gap = fb_min_gap(inst, eps)
        delta_min = gaps(inst).delta_min
        assert gap >= delta_min - 1e-12
        if eps >= 0.5:
            assert gap >= eps / (6 * inst.m) - 1e-12


class TestFcSampleBound:
    def test_frozen_single_arm(self):
        inst = Instance(2, [1.0])
        assert fc_sample_bound(inst, 0.4, 0.25) == pytest.approx(
            FC_BOUND_SINGLE_FULL_GAP, rel=1e-9
        )

    def test_frozen_three_arm(self):
        assert fc_sample_bound(THREE_ARM, 0.2, 0.1) == pytest.approx(
            FC_BOUND_THREE_ARM, rel=1e-9
        )

    def test_larger_gaps_mean_smaller_bound(self):
        near = Instance(3, [0.55, 0.7, 0.5])
        far = Instance(3, [0.55, 0.9, 0.5])
        assert fc_sample_bound(far, 0.2, 0.1) < fc_sample_bound(near, 0.2, 0.1)

    def test_finite_at_exact_threshold(self):
        inst = Instance(3, [0.5, 0.5, 0.5])
        assert np.isfinite(fc_sample_bound(inst, 0.3, 0.05))

    @settings(max_examples=40)
    @given(sims_lists, st.floats(0.01, 0.49), st.floats(0.01, 0.99))
    def test_floor_at_m(self, inst, eps, delta):
        assert fc_sample_bound(inst, eps, delta) >= inst.m

    def test_delta_validated(self):
        with pytest.raises(ParameterError):
            fc_sample_bound(THREE_ARM, 0.2, 1.5)


class TestFbErrorBound:
    def test_zero_budget_vacuous(self):
        assert fb_error_bound(THREE_ARM, 0, 0.12) == 1.0

    def test_frozen_value(self):
        # Gap 0.05 at eps=0.12 (frozen above), T = 1e4, n = 3.
        assert fb_error_bound(THREE_ARM, 10**4, 0.12) == pytest.approx(
            FB_ERROR_N3, rel=1e-9
        )

    def test_doubling_budget_squares_the_exponential(self):
        t = 10**4
        n3 = 2.0 * 27.0
        b1 = fb_error_bound(THREE_ARM, t, 0.12)
        b2 = fb_error_bound(THREE_ARM, 2 * t, 0.12)
        assert b2 < b1 < 1.0
        assert b2 / n3 == pytest.approx((b1 / n3) ** 2, rel=1e-9)

    def test_clamped_to_probability(self):
        assert fb_error_bound(THREE_ARM, 1, 0.12) == 1.0


class TestSuccessCheck:
    def test_exact_factor_boundary(self):
        assert success_check(1.0, 0.2, 0.0, 5)

    def test_strict_violation(self):
        assert not success_check(1.01, 0.2, 0.0, 5)

    def test_zero_opt_additive_slack(self):
        assert success_check(0.3, 0.0, 0.5, 5)

    def test_negative_opt_rejected(self):
        with pytest.raises(ParameterError):
            success_check(1.0, -0.1, 0.0, 5)
