import math

import numpy as np
import pytest

from noisycc import (
    BudgetExhaustedError,
    Instance,
    InvalidPairError,
    NoiseModel,
    NoSamplesError,
    Oracle,
    ParameterError,
)


def one_pair_instance(s):
    return Instance(2, [s])


class TestBernoulliRewards:
    def test_degenerate_one(self):
        o = Oracle(one_pair_instance(1.0), seed=0)
        assert all(o.pull(0) == 1.0 for _ in range(50))

    def test_degenerate_zero(self):
        o = Oracle(one_pair_instance(0.0), seed=0)
        assert all(o.pull(0) == 0.0 for _ in range(50))

    def test_law_of_large_numbers(self):
        # Seed-fixed check at 3 sigma for k = 1e5 pulls of s = 0.7.
        o = Oracle(one_pair_instance(0.7), seed=12345)
        k = 10**5
        mean = o.pull_many(0, k).mean()
        assert abs(mean - 0.7) < 3 * math.sqrt(0.21 / k)

    @pytest.mark.parametrize("s,seed", [(0.1, 7), (0.5, 8), (0.9, 9)])
    def test_mean_convergence_bound(self, s, seed):
        o = Oracle(one_pair_instance(s), seed=seed)
        k = 10**5
        mean = o.pull_many(0, k).mean()
        assert abs(mean - s) < 4 * math.sqrt(s * (1 - s) / k)

    def test_serial_correlation_small(self):
        o = Oracle(one_pair_instance(0.7), seed=21)
        x = o.pull_many(0, 10**5)
        x = x - x.mean()
        rho1 = float((x[1:] * x[:-1]).mean() / (x * x).mean())
        assert abs(rho1) < 0.02


class TestGaussianRewards:
    def test_unclamped(self):
        o = Oracle(one_pair_instance(0.5), NoiseModel("gaussian", sigma=5.0), seed=2)
        rewards = o.pull_many(0, 100)
        assert rewards.min() < 0.0 and rewards.max() > 1.0

    def test_mean_and_spread(self):
        o = Oracle(one_pair_instance(0.3), NoiseModel("gaussian", sigma=0.5), seed=3)
        rewards = o.pull_many(0, 10**5)
        assert abs(rewards.mean() - 0.3) < 4 * 0.5 / math.sqrt(10**5)
        assert abs(rewards.std() - 0.5) < 0.02

    def test_sigma_required(self):
        with pytest.raises(ValueError):
            NoiseModel("gaussian")
        with pytest.raises(ValueError):
            NoiseModel("gaussian", sigma=-1.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ParameterError, match="finite sigma"):
            NoiseModel("gaussian", sigma=sigma)

    def test_overflowing_reward_rejected(self):
        # sigma is finite, but sigma * N(0, 1) overflows for |N| > 1.8.
        o = Oracle(one_pair_instance(0.5), NoiseModel("gaussian", sigma=1e308), seed=0)
        with pytest.raises(ParameterError, match="non-finite reward for pair 0"):
            o.pull_many(0, 64)
        assert o.total_pulls == 0


class TestStreams:
    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.4)])
    def test_pull_many_matches_single_pulls(self, noise):
        inst = Instance(3, [0.3, 0.6, 0.9])
        a = Oracle(inst, noise, seed=5)
        b = Oracle(inst, noise, seed=5)
        singles = np.array([a.pull(1) for _ in range(40)])
        assert np.array_equal(singles, b.pull_many(1, 40))

    def test_pull_order_across_pairs_is_irrelevant(self):
        inst = Instance(3, [0.3, 0.6, 0.9])
        a = Oracle(inst, seed=5)
        b = Oracle(inst, seed=5)
        seq_a = [a.pull(0) for _ in range(10)]
        # b interleaves other pairs first; pair 0 must see the same rewards.
        b.pull_many(2, 17)
        b.pull(1)
        seq_b = [b.pull(0) for _ in range(10)]
        assert seq_a == seq_b

    def test_replay_reproduces_rewards(self):
        inst = Instance(3, [0.3, 0.6, 0.9])
        o = Oracle(inst, seed=11)
        first = o.pull_many(1, 25)
        fresh = o.replay()
        assert fresh.total_pulls == 0
        assert np.array_equal(fresh.pull_many(1, 25), first)
        assert o.total_pulls == 25


    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.4)])
    def test_writing_pull_many_result_leaves_tape_intact(self, noise):
        inst = Instance(3, [0.3, 0.6, 0.9])
        o = Oracle(inst, noise, seed=13)
        rewards = o.pull_many(1, 30)
        assert rewards.dtype == np.float64
        first = rewards.copy()
        rewards[:] = 42.0
        assert np.array_equal(o.replay().pull_many(1, 30), first)

class TestBlockReads:
    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.4)])
    def test_peek_then_advance_equals_single_pulls(self, noise):
        inst = Instance(3, [0.3, 0.6, 0.9])
        a = Oracle(inst, noise, seed=5)
        b = Oracle(inst, noise, seed=5)
        singles = [a.pull(1) for _ in range(3)] + [a.pull(2)] + [a.pull(1) for _ in range(70)]
        b.advance(1, 3)
        b.advance(2, 1)
        peeked = b.peek(1, 70)
        assert b.peek(1, 70) == peeked  # peeking pulls nothing
        assert b.total_pulls == 4
        b.advance(1, 70)
        assert peeked == singles[4:]
        assert all(type(r) is float for r in peeked)
        total, counts = b.pulls_report()
        assert (total, counts.tolist()) == (74, [0, 73, 1])
        # Sums are accumulated one reward at a time, as single pulls do.
        assert b.empirical_mean(1) == a.empirical_mean(1)
        assert b.empirical_mean(2) == a.empirical_mean(2)

    def test_advance_respects_budget_atomically(self):
        o = Oracle(one_pair_instance(0.5), seed=0, budget=10)
        o.advance(0, 8)
        with pytest.raises(BudgetExhaustedError, match="8 used, 3 requested"):
            o.advance(0, 3)
        assert o.pulls_report()[1].tolist() == [8]
        o.advance(0, 2)
        assert o.total_pulls == 10

    def test_invalid_pair(self):
        o = Oracle(one_pair_instance(0.5), seed=0)
        with pytest.raises(InvalidPairError):
            o.peek(1, 3)
        with pytest.raises(InvalidPairError):
            o.advance(-1, 3)
        with pytest.raises(ValueError):
            o.advance(0, -1)


class TestAccounting:
    def test_empirical_mean_arithmetic(self):
        # Find a seed whose first three Bernoulli(0.5) rewards are 1, 0, 1.
        inst = one_pair_instance(0.5)
        for seed in range(200):
            o = Oracle(inst, seed=seed)
            rewards = [o.pull(0) for _ in range(3)]
            if rewards == [1.0, 0.0, 1.0]:
                assert o.empirical_mean(0) == 2.0 / 3.0
                return
        pytest.fail("no seed in range produced rewards [1, 0, 1]")

    def test_empirical_mean_deterministic_pair(self):
        o = Oracle(one_pair_instance(1.0), seed=0)
        o.pull(0)
        assert o.empirical_mean(0) == 1.0

    def test_no_samples_error(self):
        o = Oracle(one_pair_instance(0.5), seed=0)
        with pytest.raises(NoSamplesError):
            o.empirical_mean(0)

    def test_pulls_report_fresh(self):
        o = Oracle(Instance(4, [0.5] * 6), seed=0)
        total, per_pair = o.pulls_report()
        assert total == 0
        assert np.all(per_pair == 0)

    def test_pulls_report_counts(self):
        o = Oracle(Instance(4, [0.5] * 6), seed=0)
        o.pull(3)
        o.pull(3)
        o.pull(1)
        total, per_pair = o.pulls_report()
        assert total == 3 == per_pair.sum()
        assert per_pair[3] == 2 and per_pair[1] == 1

    def test_invalid_pair(self):
        o = Oracle(Instance(3, [0.5] * 3), seed=0)
        with pytest.raises(InvalidPairError):
            o.pull(3)
        with pytest.raises(InvalidPairError):
            o.empirical_mean(-1)


class TestBudget:
    def test_exact_enforcement(self):
        o = Oracle(one_pair_instance(0.5), seed=0, budget=3)
        for _ in range(3):
            o.pull(0)
        before = o.pulls_report()
        with pytest.raises(BudgetExhaustedError):
            o.pull(0)
        after = o.pulls_report()
        assert before[0] == after[0] == 3
        assert np.array_equal(before[1], after[1])

    def test_bulk_respects_budget_atomically(self):
        o = Oracle(one_pair_instance(0.5), seed=0, budget=10)
        o.pull_many(0, 8)
        with pytest.raises(BudgetExhaustedError):
            o.pull_many(0, 3)
        assert o.total_pulls == 8
        o.pull_many(0, 2)
        assert o.total_pulls == 10
