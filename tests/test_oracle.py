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
from noisycc.oracle import _SeedWords


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

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.4)])
    def test_empty_reads_of_an_unread_pair(self, noise):
        o = Oracle(Instance(3, [0.3, 0.6, 0.9]), noise, seed=5)
        assert o.peek(2, 0) == []
        o.advance(2, 0)
        assert o.pulls_report()[1].tolist() == [0, 0, 0]
        assert o.peek(2, 3) == Oracle(Instance(3, [0.3, 0.6, 0.9]), noise, seed=5).peek(2, 3)

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


# Seeds across SeedSequence's word splits (one word, two words, the 64-bit
# limit, more words than its 4-word pool) and fixed random 64-bit seeds.
STREAM_SEEDS = [0, 1, 2**32, 2**64 - 1, 2**130 + 7,
                0x9E3779B97F4A7C15, 0x243F6A8885A308D3, 0xB7E151628AED2A6A]
STREAM_SIMS = [0.3, 0.5, 0.7, 0.1, 0.9, 0.45, 0.55, 0.2, 0.8, 0.6]  # n = 5, m = 10


def reference_stream(seed, e):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(e,)))


class TestStreamContract:
    """Pair e's rewards are the PCG64 stream of SeedSequence(seed, spawn_key=(e,))."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("e", [0, len(STREAM_SIMS) - 1])
    def test_bernoulli(self, seed, e):
        o = Oracle(Instance(5, STREAM_SIMS), seed=seed)
        expected = reference_stream(seed, e).random(1000) < STREAM_SIMS[e]
        assert np.array_equal(o.pull_many(e, 1000), expected.astype(np.float64))

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("e", [0, len(STREAM_SIMS) - 1])
    def test_gaussian(self, seed, e):
        o = Oracle(Instance(5, STREAM_SIMS), NoiseModel("gaussian", sigma=0.4), seed=seed)
        expected = STREAM_SIMS[e] + 0.4 * reference_stream(seed, e).standard_normal(1000)
        assert np.array_equal(o.pull_many(e, 1000), expected)

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.4)])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_chunked_reads_equal_one_read(self, noise, chunk):
        inst = Instance(5, STREAM_SIMS)
        whole = Oracle(inst, noise, seed=2**64 - 1).pull_many(3, 3000)
        o = Oracle(inst, noise, seed=2**64 - 1)
        parts = [o.pull_many(3, min(chunk, 3000 - j)) for j in range(0, 3000, chunk)]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_seed_words_equal_seed_sequence_state(self, seed):
        words = _SeedWords(seed)
        for e in [0, 1, 9, 7139, 2**31, 2**32 + 5]:
            expected = np.random.SeedSequence(entropy=seed, spawn_key=(e,)).generate_state(
                4, np.uint64
            )
            got = words(e)
            assert got.dtype == np.uint64 and np.array_equal(got, expected)


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, "3", None, True])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            Oracle(one_pair_instance(0.5), seed=seed)

    def test_numpy_integer_seed_is_the_same_seed(self):
        inst = one_pair_instance(0.5)
        a = Oracle(inst, seed=np.uint64(2**63 + 1)).pull_many(0, 100)
        assert np.array_equal(a, Oracle(inst, seed=2**63 + 1).pull_many(0, 100))


NOISES = [None, NoiseModel("gaussian", sigma=0.4)]


def offset_oracle(noise, budget=None):
    """An oracle whose arms 1, 2 and 4 have 3, 13 and 8 pulls already."""
    o = Oracle(Instance(5, STREAM_SIMS), noise, seed=77, budget=budget)
    o.pull_many(1, 3)
    o.pull_many(2, 13)
    o.pull_many(4, 8)
    return o


class TestPullMeans:
    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 4097])
    def test_equals_pull_many_means(self, noise, k):
        arms = [2, 0, 1, 9, 4, 2]  # arm 2 twice: the second read follows the first
        a = offset_oracle(noise)
        b = offset_oracle(noise)
        means = a.pull_means(arms, k)
        expected = [b.pull_many(e, k).mean() for e in arms]
        assert means.dtype == np.float64
        assert means.tolist() == expected  # bit for bit
        total_a, counts_a = a.pulls_report()
        total_b, counts_b = b.pulls_report()
        assert total_a == total_b and np.array_equal(counts_a, counts_b)
        for e in set(arms):
            assert a.empirical_mean(e) == b.empirical_mean(e)

    @pytest.mark.parametrize("noise", NOISES)
    def test_replay_returns_same_means(self, noise):
        o = Oracle(Instance(5, STREAM_SIMS), noise, seed=5)
        first = o.pull_means(range(10), 300)
        again = o.replay().pull_means(range(10), 300)
        assert np.array_equal(first, again)

    def test_budget_error_leaves_counters_untouched(self):
        o = offset_oracle(None, budget=100)
        before = o.pulls_report()
        with pytest.raises(BudgetExhaustedError, match="24 used, 80 requested"):
            o.pull_means([0, 3, 5, 6], 20)
        after = o.pulls_report()
        assert before[0] == after[0] == 24 and np.array_equal(before[1], after[1])
        assert o.pull_means([0, 3, 5, 6], 19).shape == (4,)
        assert o.total_pulls == 100

    @pytest.mark.parametrize("arms", [[0, 3, 10], [-1, 0], [4, 2, 99]])
    def test_invalid_pair_leaves_counters_untouched(self, arms):
        o = offset_oracle(None)
        before = o.pulls_report()
        with pytest.raises(InvalidPairError, match="out of range"):
            o.pull_means(arms, 5)
        after = o.pulls_report()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one(self, k):
        o = offset_oracle(None)
        with pytest.raises(ValueError, match="k must be >= 1"):
            o.pull_means([0, 1], k)
        assert o.total_pulls == 24

    def test_no_arms(self):
        o = offset_oracle(None)
        assert o.pull_means([], 5).shape == (0,)
        assert o.total_pulls == 24
