import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tbhs_reference import reference_tbhs

from noisycc import tbhs
from noisycc import (
    BudgetExhaustedError,
    GeneratorSpec,
    Instance,
    NoiseModel,
    NoSamplesError,
    Oracle,
    ParameterError,
    TbhsConfig,
    TbhsOutput,
    containment_check,
    generate,
    num_pairs,
    radius,
    run_tbhs,
)

# Frozen via 50-digit evaluation of sqrt(ln(4*6/0.1) / 2).
RADIUS_M6_P1_D01 = 1.6553910298388703217


class TestRadius:
    def test_closed_form_value(self):
        assert radius(6, 1, 0.1) == pytest.approx(RADIUS_M6_P1_D01, rel=1e-9)

    def test_engineered_exact_one(self):
        # delta = 4/e^2 makes the log argument e^2, so the radius is exactly 1.
        assert radius(1, 1, 4.0 / math.e**2) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_delta_decreases(self):
        for m in (1, 5, 40):
            for pulls in (1, 3, 10, 1000):
                assert radius(m, pulls, 0.2) > radius(m, pulls, 0.4)

    def test_monotone_decreasing_past_threshold(self):
        # For these parameters the log argument exceeds e^2 from pulls = 2 on,
        # where the radius is analytically strictly decreasing.
        for m, delta in [(1, 0.5), (6, 0.1), (45, 0.05)]:
            assert 4 * m * 4 / delta > math.e**2
            values = [radius(m, k, delta) for k in range(2, 200)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_pulls_rejected(self):
        with pytest.raises(NoSamplesError):
            radius(6, 0, 0.1)

    def test_scale_multiplies(self):
        assert radius(6, 3, 0.1, scale=2.5) == pytest.approx(2.5 * radius(6, 3, 0.1), rel=1e-12)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TbhsConfig(0.0, 0.1)
        with pytest.raises(ParameterError):
            TbhsConfig(0.5, 0.1)
        with pytest.raises(ParameterError):
            TbhsConfig(0.1, 0.0)
        with pytest.raises(ParameterError):
            TbhsConfig(0.1, 1.0)
        with pytest.raises(ParameterError):
            TbhsConfig(0.1, 0.1, radius_scale=0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, -math.inf])
    def test_radius_scale_must_be_finite(self, scale):
        # An infinite radius never classifies an arm, so the bandit would
        # never stop.
        with pytest.raises(ParameterError, match="radius_scale"):
            TbhsConfig(0.1, 0.1, radius_scale=scale)


class TestRunTbhs:
    def test_deterministic_rewards_classify_exactly(self):
        # Zero-variance Bernoulli arms: similarity 1 always ends good,
        # similarity 0 always ends bad.
        sims = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        inst = Instance(4, sims)
        for seed in range(10):
            out = run_tbhs(Oracle(inst, seed=seed), range(6), TbhsConfig(0.1, 0.1))
            assert out.good == frozenset({0, 2, 4})
            assert out.bad == frozenset({1, 3, 5})

    def test_single_boundary_arm_terminates(self):
        inst = Instance(2, [0.5])
        for seed in range(20):
            out = run_tbhs(
                Oracle(inst, seed=seed), [0], TbhsConfig(0.2, 0.1), max_pulls=10**8
            )
            assert out.good | out.bad == frozenset({0})
            assert len(out.good) + len(out.bad) == 1

    def test_empty_arm_set(self):
        inst = Instance(3, [0.5] * 3)
        out = run_tbhs(Oracle(inst, seed=0), [], TbhsConfig(0.1, 0.1))
        assert out == TbhsOutput(frozenset(), frozenset(), 0, 0)

    def test_partition_property_random_instances(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            m = num_pairs(n)
            inst = Instance(n, rng.random(m))
            arms = frozenset(range(m))
            out = run_tbhs(Oracle(inst, seed=seed), arms, TbhsConfig(0.15, 0.2), max_pulls=10**8)
            assert out.good | out.bad == arms
            assert out.good & out.bad == frozenset()

    def test_pull_accounting(self):
        inst = Instance(4, [0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        oracle = Oracle(inst, seed=3)
        out = run_tbhs(oracle, range(6), TbhsConfig(0.1, 0.1))
        assert out.pulls_used == oracle.total_pulls
        assert out.pulls_used == 6 + 2 * out.rounds
        assert out.pulls_used >= 6

    def test_subset_of_arms_only(self):
        inst = Instance(4, [0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        oracle = Oracle(inst, seed=3)
        arms = {1, 4, 5}
        out = run_tbhs(oracle, arms, TbhsConfig(0.1, 0.1))
        assert out.good | out.bad == frozenset(arms)
        _, per_pair = oracle.pulls_report()
        assert per_pair[0] == per_pair[2] == per_pair[3] == 0

    def test_budget_error_propagates(self):
        inst = Instance(4, [0.51] * 6)
        oracle = Oracle(inst, seed=0, budget=10)
        with pytest.raises(BudgetExhaustedError):
            run_tbhs(oracle, range(6), TbhsConfig(0.01, 0.01))
        assert oracle.total_pulls <= 10

    def test_radius_scale_widens_and_still_terminates(self):
        inst = Instance(2, [0.9])
        base = run_tbhs(Oracle(inst, seed=1), [0], TbhsConfig(0.1, 0.1))
        scaled = run_tbhs(Oracle(inst, seed=1), [0], TbhsConfig(0.1, 0.1, radius_scale=2.0))
        assert scaled.good | scaled.bad == frozenset({0})
        assert scaled.pulls_used > base.pulls_used


def tbhs_outcome(run, inst, noise, seed, budget, arms, config, max_pulls):
    """Everything a caller can see of one bandit call: its output or its
    exception, and the oracle's counters and per-arm means afterwards."""
    oracle = Oracle(inst, noise, seed=seed, budget=budget)
    try:
        result = run(oracle, arms, config, max_pulls)
    except (BudgetExhaustedError, RuntimeError) as exc:
        result = (type(exc), str(exc))
    total, counts = oracle.pulls_report()
    means = {e: oracle.empirical_mean(e) for e in np.flatnonzero(counts).tolist()}
    return result, total, counts.tolist(), means


@st.composite
def bandit_cases(draw):
    n = draw(st.integers(2, 6))
    m = num_pairs(n)
    sims = draw(st.one_of(
        st.just([0.5] * m),
        st.lists(st.integers(0, 8).map(lambda k: k / 8), min_size=m, max_size=m),
        st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
    ))
    gaussian = draw(st.booleans())
    noise = NoiseModel("gaussian", draw(st.sampled_from([0.1, 0.3, 1.0]))) if gaussian else None
    # The bandit needs about radius^-2 pulls per arm near 0.5, so keep the
    # slack (and for Gaussian rewards the radius scale) away from extremes.
    near_half = gaussian or any(abs(s - 0.5) < 0.1 for s in sims)
    epsilon = draw(st.floats(0.05 if near_half else 0.01, 0.3))
    scale = draw(st.sampled_from([0.5, 1.0])) if gaussian else 1.0
    config = TbhsConfig(epsilon, draw(st.sampled_from([0.01, 0.1, 0.5])), scale)
    arms = draw(st.one_of(
        st.just(range(m)),
        st.lists(st.integers(0, m - 1), min_size=1, max_size=m),
    ))
    budget = draw(st.none() | st.integers(0, 500))
    max_pulls = draw(st.none() | st.integers(0, 500))
    seed = draw(st.integers(0, 2**32 - 1))
    return Instance(n, sims), noise, seed, budget, arms, config, max_pulls


class TestMatchesRoundAtATime:
    """The run-length loop against ``tests/tbhs_reference.py``, which pulls
    and selects one round at a time."""

    @settings(max_examples=150, deadline=None)
    @given(bandit_cases())
    def test_random_cases(self, case):
        assert tbhs_outcome(run_tbhs, *case) == tbhs_outcome(reference_tbhs, *case)

    @pytest.mark.parametrize("arms,sims,budget,max_pulls", [
        ([0], [0.5], None, None),  # one arm: e_g == e_b every round
        (range(6), [0.5] * 6, None, None),  # constant ties
        (range(6), [1.0] * 6, None, None),  # arm 0 holds both minima
        (range(6), [0.5] * 6, 301, None),
        (range(6), [0.5] * 6, None, 301),
        ([0], [0.5], 100, None),  # runs out on the second pull of a round
    ])
    def test_edge_cases(self, arms, sims, budget, max_pulls):
        inst = Instance(4, sims + [0.5] * (6 - len(sims)))
        for seed in range(5):
            case = (inst, None, seed, budget, arms, TbhsConfig(0.05, 0.1), max_pulls)
            assert tbhs_outcome(run_tbhs, *case) == tbhs_outcome(reference_tbhs, *case)

    def test_beyond_the_radius_memo(self):
        # Tens of thousands of pulls of one arm: radii past the memoised
        # counts come from radius() directly, and the memo stays bounded.
        case = (Instance(2, [0.5]), None, 1, None, [0], TbhsConfig(0.02, 0.1), None)
        new = tbhs_outcome(run_tbhs, *case)
        assert new == tbhs_outcome(reference_tbhs, *case)
        assert new[1] > 2 * tbhs._MEMO_COUNTS
        assert max(len(t) for t in tbhs._radii.values()) <= tbhs._MEMO_COUNTS + 1

    def test_memo_keeps_few_keys(self):
        inst = Instance(2, [0.9])
        for i in range(tbhs._MEMO_KEYS + 5):
            run_tbhs(Oracle(inst, seed=i), [0], TbhsConfig(0.1, 0.1 / (i + 1)))
        assert len(tbhs._radii) <= tbhs._MEMO_KEYS


class TestPinnedOutputs:
    """Pinned (pulls_used, rounds, good) of ``run_tbhs``: any change to arm
    selection, tie-breaking or the reward stream changes them."""

    @staticmethod
    def summary(out):
        return out.pulls_used, out.rounds, sorted(out.good)

    @pytest.mark.parametrize("seed,expected", [
        (0, (856, 425, [1, 4])),
        (1, (708, 351, [0, 1, 2])),
    ])
    def test_all_half_instance(self, seed, expected):
        # Every arm has s = 0.5, so equal (pulls, mean) states tie constantly.
        inst = Instance(4, [0.5] * 6)
        out = run_tbhs(Oracle(inst, seed=seed), range(6), TbhsConfig(0.2, 0.1))
        assert self.summary(out) == expected

    def test_planted_at_kcfc_slack(self):
        inst = generate(GeneratorSpec("planted", n=8, k=2, flip_noise=0.1, seed=7))
        m = inst.m
        out = run_tbhs(Oracle(inst, seed=3), range(m), TbhsConfig(1.0 / (12 * m), 0.1))
        good = [1, 3, 5, 6, 8, 10, 12, 14, 16, 19, 21, 24, 26]
        assert self.summary(out) == (1278, 625, good)

    def test_gaussian_oracle(self):
        inst = Instance(4, [0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        oracle = Oracle(inst, NoiseModel("gaussian", 0.3), seed=4)
        out = run_tbhs(oracle, range(6), TbhsConfig(0.1, 0.1, radius_scale=0.6))
        assert self.summary(out) == (86, 40, [0, 1, 4])

    def test_subset_of_arms(self):
        inst = Instance(4, [0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        out = run_tbhs(Oracle(inst, seed=3), {1, 4, 5}, TbhsConfig(0.1, 0.1))
        assert self.summary(out) == (201, 99, [1, 4])

    @pytest.mark.parametrize("budget,counts", [
        (400, [2, 197, 2, 197, 1, 1]),  # runs out on e_g's pull
        (401, [2, 198, 2, 197, 1, 1]),  # e_g pulled, runs out on e_b's pull
    ])
    def test_budget_stop(self, budget, counts):
        # Arms 1 and 3 hold (e_g, e_b) for many rounds in a row when the
        # budget runs out.
        inst = Instance(4, [0.55, 0.6, 0.45, 0.5, 0.4, 0.52])
        oracle = Oracle(inst, seed=5, budget=budget)
        with pytest.raises(BudgetExhaustedError) as exc:
            run_tbhs(oracle, range(6), TbhsConfig(0.05, 0.1))
        assert str(exc.value) == f"budget {budget} exhausted: {budget} used, 1 requested"
        total, per_pair = oracle.pulls_report()
        assert total == oracle.total_pulls == budget
        assert per_pair.tolist() == counts


class TestContainment:
    def test_all_high_in_good(self):
        inst = Instance(3, [0.9, 0.8, 0.7])
        out = TbhsOutput(frozenset({0, 1, 2}), frozenset(), 10, 2)
        assert containment_check(out, inst, 0.1)

    def test_explicit_violation(self):
        inst = Instance(3, [0.9, 0.8, 0.7])
        out = TbhsOutput(frozenset({1, 2}), frozenset({0}), 10, 2)
        assert not containment_check(out, inst, 0.1)

    def test_band_arms_land_anywhere(self):
        inst = Instance(3, [0.55, 0.45, 0.5])
        out = TbhsOutput(frozenset({1}), frozenset({0, 2}), 10, 2)
        assert containment_check(out, inst, 0.1)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        outcomes = set()
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = num_pairs(n)
            inst = Instance(n, rng.choice([0.1, 0.45, 0.5, 0.55, 0.9], size=m))
            good = frozenset(np.flatnonzero(rng.random(m) < 0.5).tolist())
            out = TbhsOutput(good, frozenset(range(m)) - good, 0, 0)
            expected = all(
                (s <= 0.6 or e in out.good) and (s >= 0.4 or e in out.bad)
                for e, s in enumerate(inst.sims.tolist())
            )
            assert containment_check(out, inst, 0.1) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_noise_free_classification_is_contained(self):
        sims = [1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        inst = Instance(5, sims)
        out = run_tbhs(Oracle(inst, seed=0), range(10), TbhsConfig(0.2, 0.1))
        assert containment_check(out, inst, 0.2)


class TestHoeffdingCoverage:
    def test_anytime_event_coverage_quick(self):
        # 100-run spot check of the anytime confidence sequence at delta=0.1;
        # the acceptance suite runs the full 500-run version.
        inst = Instance(2, [0.7])
        delta = 0.1
        ks = np.arange(1, 501)
        rads = np.array([radius(1, int(k), delta) for k in ks])
        covered = 0
        for seed in range(100):
            rewards = Oracle(inst, seed=seed).pull_many(0, 500)
            means = np.cumsum(rewards) / ks
            if np.all(np.abs(means - 0.7) < rads):
                covered += 1
        assert covered >= 90
