import math
import sys
import tracemalloc

import numpy as np
import pytest
from deadline import deadline
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reads import peek, pulled_mean

from noisycc import (
    BudgetExhaustedError,
    Instance,
    InvalidPairError,
    NoiseModel,
    Oracle,
    ParameterError,
    num_pairs,
)
from noisycc.cli import main
from noisycc.oracle import (
    _MAX_SIGMA,
    _PHASE_FLOATS,
    _PIECE,
    _ROW_CAP,
    _TABLE_BLOCK,
    _TABLE_PAIRS,
    _UNPACK_BYTES,
    _WORD_BLOCK,
    _seed_words,
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
        # sigma is finite, but sigma * N(0, 1) overflows for |N| > 1.8: it is
        # refused before any oracle is built.
        with pytest.raises(ParameterError, match=r"finite sigma in \(0, 1e\+100\]"):
            NoiseModel("gaussian", sigma=1e308)

    def test_largest_sigma(self):
        NoiseModel("gaussian", sigma=_MAX_SIGMA)
        with pytest.raises(ParameterError, match="finite sigma"):
            NoiseModel("gaussian", sigma=math.nextafter(_MAX_SIGMA, math.inf))

    def test_largest_sigma_keeps_sums_finite(self):
        # The arithmetic of _MAX_SIGMA's comment: the ziggurat's tail bound
        # on |N(0, 1)|, and 2**63 terms of at most 3 + 2 * z_max * sigma.
        r, z_max = 3.6541528853610088, 14.0
        assert r + 53 * math.log(2) / r < z_max
        assert 2.0**63 * (3 + 2 * z_max * _MAX_SIGMA) < sys.float_info.max


class TestStreams:
    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.4)])
    def test_pull_many_matches_single_pulls(self, noise):
        inst = Instance(3, [0.3, 0.6, 0.9])
        a = Oracle(inst, noise, seed=5)
        b = Oracle(inst, noise, seed=5)
        singles = np.array([a.pull(1) for _ in range(40)])
        assert np.array_equal(singles, b.pull_many(1, 40))

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.4)])
    def test_single_pulls_across_tape_growths(self, noise):
        # 200 single pulls grow the tape from 64 to 128 and then to 256 rewards.
        a = Oracle(one_pair_instance(0.6), noise, seed=5)
        b = Oracle(one_pair_instance(0.6), noise, seed=5)
        singles = np.array([a.pull(0) for _ in range(200)])
        assert np.array_equal(singles, b.pull_many(0, 200))

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
        peeked = peek(b, 1, 70)
        assert peek(b, 1, 70) == peeked  # peeking pulls nothing
        assert b.total_pulls == 4
        b.advance(1, 70)
        assert peeked == singles[4:]
        assert all(type(r) is float for r in peeked)
        total, counts = b.pulls_report()
        assert (total, counts.tolist()) == (74, [0, 73, 1])
        # Both means are summed from the same rewards on the tape.
        assert pulled_mean(b, 1) == pulled_mean(a, 1)
        assert pulled_mean(b, 2) == pulled_mean(a, 2)

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.4)])
    def test_empty_reads_of_an_unread_pair(self, noise):
        o = Oracle(Instance(3, [0.3, 0.6, 0.9]), noise, seed=5)
        assert peek(o, 2, 0) == []
        o.advance(2, 0)
        assert o.pulls_report()[1].tolist() == [0, 0, 0]
        assert peek(o, 2, 3) == peek(Oracle(Instance(3, [0.3, 0.6, 0.9]), noise, seed=5), 2, 3)

    def test_reads_of_nothing_draw_nothing(self):
        # Neither read derives seed words, grows a tape or builds the table.
        o = Oracle(Instance(5, STREAM_SIMS), seed=5)
        assert o.pull_many(3, 0).tolist() == []
        assert o.pull_each([]) == []
        assert o.total_pulls == 0
        tape = o._tape
        assert not tape._streams and not tape._word_blocks and tape._means is None

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
            o.advance(-1, 3)
        with pytest.raises(ValueError):
            o.advance(0, -1)

    def test_block_read_builds_no_float_list(self):
        # pull_many(0, 10**6) peaked at 15.4 MiB when it listed 10**6 Python
        # floats before building its array; it peaks at 8.7 MiB, 7.6 of them
        # the array it returns.
        o = Oracle(one_pair_instance(0.5), seed=0)
        tracemalloc.start()
        try:
            o.pull_many(0, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestAccounting:
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

    def test_budget_errors_come_before_any_draw(self):
        edge = Oracle(one_pair_instance(0.5), seed=0, budget=10)
        edge.advance(0, 10)  # counts without drawing
        with pytest.raises(BudgetExhaustedError):
            edge.pull(0)
        fresh = Oracle(one_pair_instance(0.5), seed=0, budget=10)
        with pytest.raises(BudgetExhaustedError):
            fresh.pull_many(0, 10**9)
        for o, used in ((edge, 10), (fresh, 0)):
            assert o.total_pulls == used and o.pulls_report()[1].tolist() == [used]
            assert o._tape._streams == {}


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

    def test_growth_in_pieces_keeps_the_stream(self):
        k = 3 * _PIECE + 40  # one growth drawn in four pieces, the last partial
        o = Oracle(Instance(5, STREAM_SIMS), seed=2**64 - 1)
        expected = reference_stream(2**64 - 1, 1).random(k) < STREAM_SIMS[1]
        assert np.array_equal(o.pull_many(1, k), expected.astype(np.float64))

    def test_long_growth_scratch_is_bounded(self):
        # Drawing 10**7 rewards at once took 85.8 MB for a 1.19 MB tape.
        o = Oracle(one_pair_instance(0.5), seed=0)
        tracemalloc.start()
        try:
            o.pull_means([0], 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_seed_words_equal_seed_sequence_state(self, seed):
        pairs = [0, 1, 9, 7139, 2**31, 2**32 - 1]
        words = _seed_words(seed, pairs)
        assert words.dtype == np.uint64 and words.shape == (len(pairs), 4)
        for e, got in zip(pairs, words):
            expected = np.random.SeedSequence(entropy=seed, spawn_key=(e,)).generate_state(
                4, np.uint64
            )
            assert np.array_equal(got, expected)
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            _seed_words(seed, [2**32 + 5])


class TestSeedWordBlocks:
    """Seed words are derived for a block of pairs when one of them is first read."""

    def test_fresh_oracle_does_not_derive_every_pair(self):
        n = 2000
        m = num_pairs(n)
        inst = Instance(n, np.full(m, 0.5))
        tracemalloc.start()
        try:
            Oracle(inst, seed=7).pull(m - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The pull counts alone take 16 MB; words for all m pairs took 61 MiB.
        assert peak < 24 * 2**20

    @pytest.mark.parametrize(
        "e", [_WORD_BLOCK - 1, _WORD_BLOCK, 3 * _WORD_BLOCK + 5, num_pairs(200) - 1]
    )
    def test_pairs_past_the_first_block_keep_the_stream(self, e):
        n, seed = 200, 2**64 - 1
        sims = np.linspace(0.0, 1.0, num_pairs(n))
        o = Oracle(Instance(n, sims), seed=seed)
        expected = reference_stream(seed, e).random(100) < sims[e]
        assert np.array_equal(o.pull_many(e, 100), expected.astype(np.float64))


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
            assert pulled_mean(a, e) == pulled_mean(b, e)

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


# Exactly at 0.5, just either side of it, at the edges, and anywhere.
ABOVE_SIMS = st.sampled_from([0.0, 0.5, 1.0, 0.5 + 2**-53, 0.5 - 2**-53]) | st.floats(0.0, 1.0)
ABOVE_KS = st.sampled_from([1, 2, 7, 8, 9, 64, 65, 10**5]) | st.integers(1, 10**5)
ABOVE_READS = st.lists(
    st.tuples(st.lists(st.integers(0, 9), max_size=5), ABOVE_KS), min_size=1, max_size=3
)


class TestPullAbove:
    """``pull_above(arms, k)`` is ``pull_means(arms, k) > 0.5`` with the same
    counters, however little of the tape it reads."""

    @settings(max_examples=60, deadline=None)
    @given(
        noise=st.sampled_from(NOISES),
        sims=st.lists(ABOVE_SIMS, min_size=10, max_size=10),
        seed=st.integers(0, 2**64 - 1),
        warm=ABOVE_READS,
        replay=st.booleans(),
        history=st.lists(st.tuples(st.integers(0, 9), st.integers(1, 300)), max_size=3),
        reads=ABOVE_READS,
    )
    def test_equals_pull_means_above_half(self, noise, sims, seed, warm, replay, history, reads):
        # Each twin first reads its own way (which grows the shared tapes
        # differently), then maybe replays, pulls some arms, and reads again.
        a = Oracle(Instance(5, sims), noise, seed=seed)
        b = Oracle(Instance(5, sims), noise, seed=seed)
        for arms, k in warm:
            assert a.pull_above(arms, k).tolist() == (b.pull_means(arms, k) > 0.5).tolist()
        if replay:
            a, b = a.replay(), b.replay()
        for e, count in history:
            a.pull_many(e, count)
            b.pull_many(e, count)
        for arms, k in reads:
            above = a.pull_above(arms, k)
            assert above.dtype == bool
            assert above.tolist() == (b.pull_means(arms, k) > 0.5).tolist()
            total_a, counts_a = a.pulls_report()
            total_b, counts_b = b.pulls_report()
            assert total_a == total_b and np.array_equal(counts_a, counts_b)

    def test_budget_error_mutates_nothing(self):
        o = offset_oracle(None, budget=100)
        drawn = {e: len(t) for e, t in o._tape._streams.items()}
        with pytest.raises(BudgetExhaustedError, match="24 used, 80 requested"):
            o.pull_above([0, 3, 5, 6], 20)
        assert o.total_pulls == 24 and o.pulls_report()[1].sum() == 24
        assert {e: len(t) for e, t in o._tape._streams.items()} == drawn
        assert o.pull_above([0, 3, 5, 6], 19).shape == (4,)
        assert o.total_pulls == 100

    @pytest.mark.parametrize("arms", [[0, 3, 10], [-1, 0], [4, 2, 99]])
    def test_invalid_pair_mutates_nothing(self, arms):
        o = offset_oracle(None)
        before = o.pulls_report()
        drawn = {e: len(t) for e, t in o._tape._streams.items()}
        with pytest.raises(InvalidPairError, match="out of range"):
            o.pull_above(arms, 5)
        after = o.pulls_report()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert {e: len(t) for e, t in o._tape._streams.items()} == drawn

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one(self, k):
        o = offset_oracle(None)
        with pytest.raises(ValueError, match="k must be >= 1"):
            o.pull_above([0, 1], k)
        assert o.total_pulls == 24 and o.pulls_report()[1].sum() == 24

    def test_no_arms(self):
        o = offset_oracle(None)
        assert o.pull_above([], 5).shape == (0,)
        assert o.total_pulls == 24

    @pytest.mark.parametrize("s", [0.5, 0.55])
    def test_every_k_across_the_first_growths(self, s):
        # Small k at s near 0.5 meets ties at every bound: the first growth
        # leaves 64 rewards, the second 128.
        for seed in range(24):
            rewards = (reference_stream(seed, 0).random(140) < s).astype(np.float64)
            for k in range(1, 140):
                o = Oracle(one_pair_instance(s), seed=seed)
                assert o.pull_above([0], k)[0] == (rewards[:k].mean() > 0.5), (seed, k)

    def test_every_k_past_a_grown_tape(self):
        # A tape of 64 rewards read with k > 64.  Seeds 46, 81 and 87 put
        # exactly k / 2 ones on it and none on the next k - 64 rewards.
        for seed in range(96):
            rewards = (reference_stream(seed, 0).random(140) < 0.5).astype(np.float64)
            for k in range(65, 140):
                o = Oracle(one_pair_instance(0.5), seed=seed)
                peek(o, 0, 1)  # 64 rewards on the tape, none pulled
                assert o.pull_above([0], k)[0] == (rewards[:k].mean() > 0.5), (seed, k)

    def test_sample_far_from_its_mean_is_still_decided(self):
        # 1,000 rewards drawn at s = 0.5 are read as if s were 0.9, which
        # should have settled the vote at about 928 rewards: it is not
        # settled there, so the tape must grow on.
        twins = [Oracle(one_pair_instance(0.5), seed=4) for _ in range(2)]
        for o in twins:
            peek(o, 0, 1000)
            o._tape.sims = np.array([0.9])
        a, b = twins
        assert a.pull_above([0], 1400)[0] == (b.pull_means([0], 1400)[0] > 0.5)

    @pytest.mark.parametrize("k", [1, 100, 3 * _PIECE + 40])
    def test_ones_count_equals_the_tape(self, k):
        # Tapes grown by other reads before and after pull_above looks at them.
        o = Oracle(Instance(5, STREAM_SIMS), seed=3)
        o.pull_many(1, k)
        o.pull_above([5, 6], 2 * k)
        o.pull_many(5, 4 * k)
        o.replay().pull_above([1, 5], 3 * k)
        tape = o._tape
        assert sorted(tape._ones) == [1, 5, 6]
        for e, ones in tape._ones.items():
            assert ones == int(np.unpackbits(tape._streams[e]).sum())

    def test_draws_only_what_settles_the_vote(self):
        # At s = 0.9 about 555,556 rewards hold the 500,001 ones that settle
        # a mean of 10**6 pulls; pull_means draws all 10**6.
        o = Oracle(one_pair_instance(0.9), seed=0)
        assert o.pull_above([0], 10**6).tolist() == [True]
        assert o.total_pulls == 10**6
        assert 8 * len(o._tape._streams[0]) < 6 * 10**5

    def test_partial_growth_keeps_the_stream(self):
        seed, e, k = 2**64 - 1, 4, 5000  # STREAM_SIMS[4] = 0.9
        o = Oracle(Instance(5, STREAM_SIMS), seed=seed)
        assert o.pull_above([e], k).tolist() == [True]
        assert 8 * len(o._tape._streams[e]) < k
        expected = reference_stream(seed, e).random(k) < STREAM_SIMS[e]
        assert np.array_equal(o.replay().pull_many(e, k), expected.astype(np.float64))


class TestPhaseBlockDraws:
    """A phase read draws the first rewards of its never-drawn Bernoulli arms
    in blocks, after its checks pass: each block row is the pair's stream,
    and no pair outside the read is drawn."""

    N, SEED = 20, 0x243F6A8885A308D3  # m = 190 pairs

    def oracle(self, k, budget=None):
        """Pair 3 drawn and pulled, pair 150 drawn but never pulled, and pair
        7 pulled but never drawn (``advance`` reads no reward)."""
        sims = np.random.default_rng(k).random(num_pairs(self.N))
        sims[::9] = 0.5  # ties at every k
        o = Oracle(Instance(self.N, sims), seed=self.SEED, budget=budget)
        o.pull_many(3, 5)
        peek(o, 150, 70)
        o.advance(7, 2)
        return o

    def stream(self, o, e, length):
        rewards = reference_stream(self.SEED, e).random(length) < o.instance.sims[e]
        return rewards.astype(np.float64)

    @pytest.mark.parametrize("read", ["pull_means", "pull_above"])
    @pytest.mark.parametrize("k", [1, 8, 100, _ROW_CAP, _ROW_CAP + 1])
    def test_rewards_counters_and_ones_are_the_stream(self, read, k):
        o = self.oracle(k)
        fresh = [e for e in range(20, 170) if e != 150]  # 149 never drawn
        arms = fresh + [3, 150, 7, fresh[0]]  # drawn, undrawn at count 2, a repeat
        assert len(fresh) > _PHASE_FLOATS // 64  # more than one block at every k
        counts = o.pulls_report()[1].tolist()
        means = []
        for e in arms:
            means.append(self.stream(o, e, counts[e] + k)[counts[e] :].sum() / k)
            counts[e] += k
        got = getattr(o, read)(arms, k).tolist()
        assert got == (means if read == "pull_means" else [mu > 0.5 for mu in means])
        assert o.pulls_report()[1].tolist() == counts and o.total_pulls == sum(counts)
        tape = o._tape
        assert set(tape._streams) == set(arms) == set(tape._ones)
        for e, buf in tape._streams.items():
            on_tape = tape.rewards(e, 0, 8 * len(buf))
            assert np.array_equal(on_tape, self.stream(o, e, 8 * len(buf))), e
            assert tape._ones[e] == on_tape.sum(), e
        if k <= _ROW_CAP:
            # A block row holds the first max(64, k) rewards, whole bytes,
            # and no arm read once from reward 0 grows past it.
            row = 8 * -(-max(64, k) // 8)
            assert {8 * len(tape._streams[e]) for e in fresh[1:]} == {row}

    @pytest.mark.parametrize("read", ["pull_means", "pull_above"])
    def test_failed_check_draws_nothing(self, read):
        o = self.oracle(100, budget=1000)
        fresh = list(range(20, 150))
        drawn = {e: len(t) for e, t in o._tape._streams.items()}
        ones = dict(o._tape._ones)
        with pytest.raises(InvalidPairError, match="out of range"):
            getattr(o, read)(fresh + [num_pairs(self.N)], 5)
        with pytest.raises(BudgetExhaustedError, match="7 used, 1040 requested"):
            getattr(o, read)(fresh, 8)
        with pytest.raises(ValueError, match="k must be >= 1"):
            getattr(o, read)(fresh, 0)
        assert {e: len(t) for e, t in o._tape._streams.items()} == drawn
        assert o.total_pulls == 7 and o._tape._ones == ones


class TestTapeTotal:
    """``_BitTape.total`` counts ones however the span sits on the packed bytes."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        s=st.floats(0.0, 1.0),
        i=st.sampled_from([0, 1, 7, 8, 9]) | st.integers(0, 20_000),
        k=st.integers(1, 20_000)
        | st.integers(8 * _UNPACK_BYTES - 24, 8 * _UNPACK_BYTES + 24)  # the crossover
        | st.integers(_PIECE - 24, _PIECE + 24)  # one or two unpacked pieces
        | st.integers(2 * _PIECE - 24, 2 * _PIECE + 24),
    )
    def test_equals_sum_of_read(self, seed, s, i, k):
        tape = Oracle(one_pair_instance(s), seed=seed)._tape
        assert tape.total(0, i, k) == np.unpackbits(tape._cover(0, i + k))[i : i + k].sum()

    # A span from reward 0 into the tape's last byte is counted from the
    # tape's ones count; tapes of k <= _ROW_CAP rewards come from
    # draw_first's blocks, longer ones from _cover.
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("k", [100, _ROW_CAP, _ROW_CAP + 1, 3 * _PIECE + 5])
    def test_spans_into_the_last_bytes(self, s, k):
        m = num_pairs(4)
        tape = Oracle(Instance(4, [s] * m), seed=k)._tape
        tape.draw_first(range(m), k)
        for e in range(m):
            length = 8 * len(tape._cover(e, k))
            for end in range(length - 15, length + 1):
                assert tape.total(e, 0, end) == int(tape.rewards(e, 0, end).sum()), (e, end)
            assert 8 * len(tape._streams[e]) == length


class TestEmpiricalMean:
    """A pair's empirical mean, the mean of its rewards pulled so far, is the
    same whatever calls made the pulls: the tape holds the pair's stream."""

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_replayed_mean_after_mixed_history(self, noise, seed):
        o = Oracle(Instance(5, STREAM_SIMS), noise, seed=seed)
        for _ in range(37):
            o.pull(1)
        o.advance(1, 50)
        o.pull_means([1, 3, 1], 9)
        o.pull(3)
        o.advance(3, 130)
        o.pull_many(3, 4)
        counts = o.pulls_report()[1]
        assert counts[1] == 105 and counts[3] == 144
        for e in (1, 3):
            fresh = Oracle(Instance(5, STREAM_SIMS), noise, seed=seed)
            assert pulled_mean(o, e) == fresh.pull_many(e, counts[e]).mean()

    def test_advance_does_not_read_the_tape(self):
        o = Oracle(one_pair_instance(0.5), NoiseModel("gaussian", sigma=0.3), seed=0)
        o.advance(0, 64)
        assert o.pulls_report()[1].tolist() == [64]
        assert not o._tape._streams


def scalar_fold(rewards, k=0, mu=0.0):
    """The running means ``mu += (r - mu) / k``, one reward at a time."""
    means = []
    for r in rewards:
        k += 1
        mu += (r - mu) / k
        means.append(mu)
    return means


def bits(floats):
    return [x.hex() for x in floats]


def reference_rewards(seed, e, s, noise, k):
    """Pair e's first k rewards, drawn from its own PCG64 stream."""
    rng = reference_stream(seed, e)
    if noise is None:
        return (rng.random(k) < s).astype(np.float64).tolist()
    return (s + noise.sigma * rng.standard_normal(k)).tolist()


class TestRunningMeans:
    """``running_means`` continues the scalar fold bit for bit from any
    count, folding the pair's next rewards off the tape; it reads no table.
    The table, which a bandit reads through ``table_column``, holds the
    same floats."""

    @settings(max_examples=60, deadline=None)
    @given(
        noise=st.sampled_from([None, NoiseModel("gaussian", sigma=0.3)]),
        n=st.integers(2, 5),
        sims=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
        seed=st.integers(0, 2**64 - 1),
        runs=st.lists(st.sampled_from([0, 1, 7, 128, 511, 512, 513]) | st.integers(0, 700),
                      min_size=1, max_size=4),
        replay=st.booleans(),
    )
    def test_equals_the_scalar_fold(self, noise, n, sims, seed, runs, replay):
        inst = Instance(n, sims[: num_pairs(n)])
        base = Oracle(inst, noise, seed=seed)
        o = base.replay() if replay else base
        e = inst.m - 1
        k, mu, got = 0, 0.0, []
        for run in runs:
            means = list(o.running_means(e, k, mu, run))
            o.advance(e, run)
            got += means
            k, mu = k + run, means[-1] if means else mu
        tape = o._tape
        assert bits(got) == bits(scalar_fold(tape.rewards(e, 0, k).tolist()))
        # Every column of the table, for every pair.
        m = inst.m
        assert base._tape._means is tape._means
        for pair in range(m):
            column = list(tape.table()[pair::m])
            assert bits(column) == bits(scalar_fold(tape.rewards(pair, 0, 512).tolist()))

    @pytest.mark.parametrize("noise", NOISES)
    def test_run_of_none_draws_nothing(self, noise):
        # On a tape that keeps a table, a run of none builds no table.
        o = Oracle(Instance(5, STREAM_SIMS), noise, seed=5)
        assert list(o.running_means(3, 0, 0.0, 0)) == []
        assert o.total_pulls == 0
        assert o._tape._means is None and not o._tape._streams

    @pytest.mark.parametrize("noise", NOISES)
    def test_builds_no_table(self, noise):
        # m = 10, a tape that keeps a table: a fold of 600 means, past the
        # table's 512, draws pair e alone.
        o = Oracle(Instance(5, STREAM_SIMS), noise, seed=5)
        e = 7
        means = list(o.running_means(e, 0, 0.0, 600))
        tape = o._tape
        assert bits(means) == bits(scalar_fold(tape.rewards(e, 0, 600).tolist()))
        assert tape._means is None and list(tape._streams) == [e]

    @pytest.mark.parametrize("noise", NOISES)
    def test_arm_entering_at_a_non_zero_count(self, noise):
        # Arm 2 has 13 pulls; the fold starts at its 14th reward, as a
        # bandit's does for an arm it first pulls there.
        o = offset_oracle(noise)
        first = list(o.running_means(2, 0, 0.0, 1))
        assert bits(first) == bits(o._tape.rewards(2, 13, 1).tolist())
        expected = scalar_fold(o._tape.rewards(2, 14, 600).tolist(), 1, first[0])
        o.advance(2, 1)
        assert bits(o.running_means(2, 1, first[0], 600)) == bits(expected)
        assert o.total_pulls == 25  # one advance, nothing else pulled

    @pytest.mark.parametrize("n", [64, 65])
    def test_table_only_on_a_tape_of_few_pairs(self, n):
        # m = 2016 and 2080: the larger tape keeps no table and draws no
        # pair that no bandit reads.
        inst = Instance(n, np.random.default_rng(n).random(num_pairs(n)))
        o = Oracle(inst, seed=3)
        e = inst.m - 1
        o.table_column(e, 0)
        means = list(o.running_means(e, 0, 0.0, 600))
        assert bits(means) == bits(scalar_fold(o._tape.rewards(e, 0, 600).tolist()))
        keeps = inst.m <= _TABLE_PAIRS
        assert (o._tape._means is not None) == keeps
        assert len(o._tape._streams) == (inst.m if keeps else 1)

    def test_table_draws_the_first_rewards_of_every_pair(self):
        # On a tape that keeps the table, a bandit's first table read draws
        # the first 512 rewards of every pair, even of pairs it never reads.
        o = Oracle(Instance(5, STREAM_SIMS), NoiseModel("gaussian", sigma=0.3), seed=0)
        o.table_column(0, 0)
        streams = o._tape._streams
        assert sorted(streams) == list(range(10))
        assert all(len(buf) >= 512 for buf in streams.values())

    def test_invalid_pair(self):
        with pytest.raises(InvalidPairError):
            Oracle(Instance(5, STREAM_SIMS), seed=0).running_means(10, 0, 0.0, 5)

    @pytest.mark.parametrize("n", [5, 65])
    def test_negative_run_is_rejected(self, n):
        # As pull_many and advance reject a negative count: with no draw,
        # and no table on the tape that keeps one (m = 10; m = 2080 keeps none).
        o = Oracle(Instance(n, np.full(num_pairs(n), 0.5)), seed=5)
        with pytest.raises(ValueError, match="k must be >= 0"):
            o.running_means(0, 0, 0.0, -5)
        tape = o._tape
        assert o.total_pulls == 0 and not tape._streams and tape._means is None

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.3)])
    def test_block_drawn_table_equals_the_scalar_fold(self, noise):
        # m = 190 pairs, drawn in more than one block, every column against
        # the scalar fold of the pair's own PCG64 stream.
        inst = Instance(20, np.random.default_rng(20).random(num_pairs(20)))
        seed = 0x9E3779B97F4A7C15
        tape = Oracle(inst, noise, seed=seed)._tape
        table = tape.table()
        assert inst.m > _TABLE_BLOCK
        for e in range(inst.m):
            rewards = reference_rewards(seed, e, inst.sims[e], noise, 512)
            assert bits(table[e :: inst.m]) == bits(scalar_fold(rewards))
            assert bits(tape.rewards(e, 0, 512).tolist()) == bits(rewards)

    def test_table_over_pairs_already_drawn(self):
        # m = 190, more than one fill block, with tapes of every kind before
        # the build: pair 3 past the table, pair 131 short of it in the
        # second block, pair 150 read by pull_above (168 rewards), pair 7
        # advanced but never drawn.
        sims = np.random.default_rng(22).random(num_pairs(20))
        sims[150] = 0.95
        inst = Instance(20, sims)
        seed = 0x2545F4914F6CDD1D
        o = Oracle(inst, seed=seed)
        o.pull_many(3, 700)
        o.pull_many(131, 5)
        o.pull_above([150], 200)
        o.advance(7, 2)
        tape = o._tape
        assert inst.m > _TABLE_BLOCK and 8 * len(tape._streams[150]) == 168
        assert set(tape._streams) == {3, 131, 150}
        table = tape.table()
        for e in range(inst.m):
            length = 8 * len(tape._streams[e])
            rewards = reference_rewards(seed, e, sims[e], None, length)
            assert bits(table[e :: inst.m]) == bits(scalar_fold(rewards[:512])), e
            assert bits(tape.rewards(e, 0, length).tolist()) == bits(rewards), e
        drawn = tape._streams.items()
        assert tape._ones == {e: tape.total(e, 0, 8 * len(buf)) for e, buf in drawn}

    def test_table_build_keeps_no_draw_scratch(self):
        # m = 435 (n = 30): the table is 1.70 MiB, and the pairs' tapes and
        # one 32 KiB block of draws add about 0.2 MiB; a 512 KiB block of
        # the table's own draws took the peak to 2.46 MiB.
        inst = Instance(30, np.random.default_rng(30).random(num_pairs(30)))
        o = Oracle(inst, seed=3)
        tracemalloc.start()
        try:
            o._tape.table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * 2**20

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.3)])
    def test_reads_past_the_table_continue_the_stream(self, noise):
        inst = Instance(20, np.random.default_rng(21).random(num_pairs(20)))
        o = Oracle(inst, noise, seed=5)
        e = 150
        means = list(o.running_means(e, 0, 0.0, 700))
        rewards = reference_rewards(5, e, inst.sims[e], noise, 1500)
        assert bits(means) == bits(scalar_fold(rewards[:700]))
        assert bits(o.replay().pull_many(e, 1500).tolist()) == bits(rewards)

    def test_table_build_scratch_is_bounded(self):
        # m = 2016, the most pairs a tape keeps the table for: the 7.9 MiB
        # table, the pairs' tapes and generators, and one block of draws.
        # Drawing all pairs' rewards as one float block would add 7.9 MiB.
        inst = Instance(64, np.random.default_rng(64).random(num_pairs(64)))
        o = Oracle(inst, seed=3)
        tracemalloc.start()
        try:
            o._tape.table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestTableColumn:
    """``table_column(e, k)``: pair e's running means after pulls k + 1 to
    512 as one view of the tape's table, where its fold began at its first
    pull, and otherwise an empty view."""

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("k", [0, 1, 300, 511])
    def test_equals_the_scalar_fold(self, noise, k):
        o = Oracle(Instance(5, STREAM_SIMS), noise, seed=5)
        e = 4
        o.advance(e, k)
        column = o.table_column(e, k)
        fold = scalar_fold(o._tape.rewards(e, 0, 512).tolist())
        assert isinstance(column, memoryview)
        assert bits(column) == bits(fold[k:])
        assert o.total_pulls == k  # nothing pulled

    @pytest.mark.parametrize("noise", NOISES)
    def test_empty_where_the_fold_began_after_the_first_pull(self, noise):
        # Arm 2 has 13 pulls: a fold from its 14th reward is not the table's.
        o = offset_oracle(noise)
        assert len(o.table_column(2, 0)) == 0
        assert len(o.table_column(2, 12)) == 0
        assert len(o.table_column(2, 13)) == 512 - 13
        o.advance(0, 512)
        assert len(o.table_column(0, 512)) == 0

    def test_empty_on_a_tape_that_keeps_no_table(self):
        # m = 2080: no table is built, and no pair is drawn.
        o = Oracle(Instance(65, np.full(num_pairs(65), 0.5)), seed=3)
        assert len(o.table_column(0, 0)) == 0
        assert o._tape._means is None and not o._tape._streams

    def test_invalid_pair(self):
        with pytest.raises(InvalidPairError):
            Oracle(Instance(5, STREAM_SIMS), seed=0).table_column(10, 0)


def each_outcome(read, inst, noise, arms, budget=None, advanced=()):
    """``read(oracle, arms)`` on a fresh oracle whose pairs in ``advanced``
    were first counted as pulled: the rewards' bits or the error's type and
    message, then the counters."""
    o = Oracle(inst, noise, seed=9, budget=budget)
    for e, k in advanced:
        o.advance(e, k)
    try:
        result = bits(read(o, arms))
    except (BudgetExhaustedError, InvalidPairError, ParameterError) as exc:
        result = (type(exc), str(exc))
    return result, o.total_pulls, o.pulls_report()[1].tolist()


def pull_each(o, arms):
    return o.pull_each(arms)


def pull_one_by_one(o, arms):
    return [o.pull(e) for e in arms]


class TestPullEach:
    """``pull_each(arms)`` is ``[pull(e) for e in arms]``: the same floats,
    counters and errors, read from row 0 of the tape's table where it can."""

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("n", [5, 65])
    def test_equals_one_pull_of_each_arm(self, noise, n):
        # m = 10 keeps the table; m = 2080 does not, and draws only the arms.
        inst = Instance(n, np.random.default_rng(n).random(num_pairs(n)))
        arms = [7, 0, 3, 9]
        got = each_outcome(pull_each, inst, noise, arms)
        assert got == each_outcome(pull_one_by_one, inst, noise, arms)
        assert got[1] == 4 and isinstance(got[0], list)
        o = Oracle(inst, noise, seed=9)
        o.pull_each(arms)
        assert (o._tape._means is not None) == (n == 5)
        assert len(o._tape._streams) == (inst.m if n == 5 else 4)

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("arms", [[0, 1, 1, 0], [2, 4, 4], [4]])
    def test_repeated_and_pulled_arms(self, noise, arms):
        # Pair 4 was pulled 3 times before: its reward 3 is read.
        inst = Instance(5, STREAM_SIMS)
        got = each_outcome(pull_each, inst, noise, arms, advanced=[(4, 3)])
        assert got == each_outcome(pull_one_by_one, inst, noise, arms, advanced=[(4, 3)])
        assert got[1] == 3 + len(arms)

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("arms,budget", [
        ([0, 1, 2], 2),  # the budget runs out at arm 2
        ([0, 1, 2], 0),
        ([5, 0, 10, 1], None),  # pair 10 is out of range (m = 10)
        ([3, -1], None),
        ([4, 4, 4], 2),
    ])
    def test_errors_at_the_same_arm(self, noise, arms, budget):
        inst = Instance(5, STREAM_SIMS)
        got = each_outcome(pull_each, inst, noise, arms, budget)
        assert got == each_outcome(pull_one_by_one, inst, noise, arms, budget)
        assert isinstance(got[0], tuple)

    @pytest.mark.parametrize("limit_arm", [0, 1, 2])
    def test_no_reward_read_at_the_count_limit(self, limit_arm):
        # The arms before the one at the limit are pulled, and that one is
        # refused before its tape is drawn.
        inst = Instance(3, [0.9, 0.1, 0.8])
        advanced = [(limit_arm, 2**63 - 1)]
        with deadline(2):
            got = each_outcome(pull_each, inst, None, [0, 1, 2], advanced=advanced)
        assert got == each_outcome(pull_one_by_one, inst, None, [0, 1, 2], advanced=advanced)
        assert got[0][0] is ParameterError and got[2][limit_arm] == 2**63 - 1
        o = Oracle(inst, seed=9)
        o.advance(limit_arm, 2**63 - 1)
        with pytest.raises(ParameterError, match=f"1 more pulls of pair {limit_arm}"):
            o.pull_each([0, 1, 2])
        assert set(o._tape._streams) == set(range(limit_arm))

    def test_no_arms_draw_nothing(self):
        o = Oracle(Instance(5, STREAM_SIMS), seed=9)
        assert o.pull_each([]) == []
        tape = o._tape
        assert o.total_pulls == 0 and not tape._streams and tape._means is None

    def test_table_draw_error_pulls_nothing(self, monkeypatch):
        # An error in the table's build, here as it reads the columns of
        # every pair's first 512 rewards, raises before any arm is counted.
        o = Oracle(Instance(5, STREAM_SIMS), NoiseModel("gaussian", sigma=0.3), seed=0)

        def failing_columns(lo, hi):
            raise MemoryError(f"columns of pairs {lo} to {hi - 1}")

        monkeypatch.setattr(o._tape, "_columns", failing_columns)
        with pytest.raises(MemoryError, match="columns of pairs 0 to 9"):
            o.pull_each([0, 1])
        assert o.total_pulls == 0 and o._tape._means is None


class TestPullCountLimit:
    """A read that would take a pair's count to 2**63 or more is rejected
    before any draw: the oracle's int64 counters cannot record it."""

    @pytest.mark.parametrize("read", [
        lambda o: o.pull_means([0, 1], 2**63),
        lambda o: o.pull_above([0, 1], 2**63),
        lambda o: o.pull_means([0], 10**22),
        lambda o: o.pull_many(1, 2**63),
        lambda o: o.advance(1, 2**70),
    ])
    def test_rejected_before_any_draw(self, read):
        o = Oracle(Instance(5, STREAM_SIMS), seed=0)
        with deadline(2), pytest.raises(ParameterError, match="cannot be counted"):
            read(o)
        assert o.total_pulls == 0 and not o._tape._streams

    def test_long_counts_are_printed_by_their_size(self):
        # Counts of more than 24 digits: their first ten digits and their size.
        o = Oracle(Instance(5, STREAM_SIMS), seed=0, budget=10**24)
        with pytest.raises(BudgetExhaustedError) as exc:
            o.pull_means([0] * 300_000, 2**62)
        assert str(exc.value) == (
            "budget 1000000000... (25 digits) exhausted: 0 used,"
            " 1383505805... (25 digits) requested"
        )
        for k, size in ((10**30, 31), (10**30 - 1, 30), (2**10000 - 1, 3011)):
            with pytest.raises(ParameterError) as exc:
                o.advance(1, k)
            assert str(exc.value).startswith(f"{str(k)[:10]}... ({size} digits) more pulls")
        # Past the 4,300 digits that str() converts.
        with pytest.raises(ParameterError, match=r"^1000000000\.\.\. \(5001 digits\) more"):
            o.advance(1, 10**5000)
        assert o.total_pulls == 0

    def test_counts_up_to_the_int64_limit(self):
        o = Oracle(Instance(5, STREAM_SIMS), seed=0)
        o.advance(3, 2**63 - 2)
        o.advance(3, 1)
        with deadline(2), pytest.raises(ParameterError, match="1 more pulls of pair 3"):
            o.pull(3)
        assert o.pulls_report()[1][3] == 2**63 - 1


# Read lengths that end a growth at the table's 512 rewards, around a piece
# of _PIECE draws and off a byte boundary, and anything.
POSITION_KS = st.sampled_from(
    [1, 7, 9, 63, 65, 511, 512, 513, _PIECE - 1, _PIECE + 1, 2 * _PIECE + 3]
) | st.integers(1, 1500)
POSITION_ARMS = st.lists(st.integers(0, 2), min_size=1, max_size=3)
POSITION_READS = st.lists(
    st.tuples(st.just("many"), st.integers(0, 2), POSITION_KS)
    | st.tuples(st.sampled_from(["means", "above"]), POSITION_ARMS, POSITION_KS)
    | st.tuples(st.just("first"), POSITION_ARMS, st.just(1))
    | st.tuples(st.just("running"), st.integers(0, 2), st.sampled_from([0, 1, 511, 512, 513])
                | st.integers(0, 1500))
    | st.tuples(st.just("replay"), st.just(0), st.just(0)),
    min_size=1,
    max_size=8,
)


class TestStreamPositions:
    """However a Bernoulli tape has grown, by whichever reads and across
    replays, every reward read is pair e's stream at its position."""

    @settings(max_examples=60, deadline=None)
    @given(
        sims=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**64 - 1),
        reads=POSITION_READS,
    )
    # Growths after the table, after one drawn in pieces, after a partial
    # pull_above growth and after a replay.
    @example(sims=[0.5, 0.9, 0.3], seed=2**64 - 1, reads=[
        ("running", 0, 1), ("many", 0, 2 * _PIECE + 3), ("many", 0, 9), ("means", [0, 1], 9),
        ("above", [1], 5000), ("replay", 0, 0), ("many", 1, 6000), ("above", [0, 2], 3 * _PIECE),
    ])
    def test_every_read_is_the_reference_stream(self, sims, seed, reads):
        streams = {}

        def expected(e, i, k):
            if e not in streams or len(streams[e]) < i + k:
                rewards = reference_stream(seed, e).random(i + k) < sims[e]
                streams[e] = rewards.astype(np.float64)
            return streams[e][i : i + k]

        o = Oracle(Instance(3, sims), seed=seed)
        for read, arg, k in reads:
            counts = o.pulls_report()[1].tolist()
            if read == "many":
                assert np.array_equal(o.pull_many(arg, k), expected(arg, counts[arg], k))
            elif read in ("means", "above"):
                means = []
                for e in arg:
                    means.append(expected(e, counts[e], k).sum() / k)
                    counts[e] += k
                if read == "means":
                    assert o.pull_means(arg, k).tolist() == means
                else:
                    assert o.pull_above(arg, k).tolist() == [mu > 0.5 for mu in means]
            elif read == "first":
                firsts = []
                for e in arg:
                    firsts.append(expected(e, counts[e], 1)[0])
                    counts[e] += 1
                assert o.pull_each(arg) == firsts
            elif read == "running":
                # The fold from reward 0 where the table holds it, else from
                # the arm's count on, as for an arm a bandit enters late.
                i = counts[arg]
                start = i if i < 512 else 0
                mu = scalar_fold(expected(arg, 0, i).tolist())[-1] if start else 0.0
                rewards = expected(arg, i, k).tolist()
                means = list(o.running_means(arg, start, mu, k))
                assert bits(means) == bits(scalar_fold(rewards, start, mu))
                o.advance(arg, k)
            else:
                o = o.replay()
        tape = o._tape
        assert not hasattr(tape, "_rngs")
        for e, buf in tape._streams.items():
            on_tape = tape.rewards(e, 0, 8 * len(buf))
            assert np.array_equal(on_tape, expected(e, 0, 8 * len(buf)))
            if e in tape._ones:
                assert tape._ones[e] == on_tape.sum()


# Read lengths around the first draw, the table, the block rows' cap and a
# piece of _PIECE draws, up to growths of three pieces.
ONES_KS = st.sampled_from(
    [1, 8, 63, 65, 512, 513, _ROW_CAP, _ROW_CAP + 1, _PIECE + 1, 2 * _PIECE + 3]
) | st.integers(1, 3 * _PIECE)
# Arm indices are taken modulo the instance's pair count.
ONES_ARMS = st.lists(st.integers(0, 2**16), min_size=1, max_size=4)
ONES_READS = st.lists(
    st.tuples(st.sampled_from(["pull", "pull_each"]), ONES_ARMS, st.just(1))
    | st.tuples(
        st.sampled_from(["pull_many", "pull_means", "pull_above", "running"]), ONES_ARMS, ONES_KS
    )
    | st.tuples(st.just("replay"), st.just([0]), st.just(0)),
    min_size=1,
    max_size=8,
)


class TestOnesCounts:
    """A Bernoulli tape holds a count of ones for exactly the pairs it has
    drawn, each equal to the set bits of the pair's tape, whichever reads
    drew them and across replays."""

    @settings(max_examples=60, deadline=None)
    @given(
        # n = 65 has 2,080 pairs, more than the tape keeps a table for.
        n=st.sampled_from([5, 6, 7, 65]),
        sims_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        reads=ONES_READS,
    )
    @example(n=5, sims_seed=0, seed=0, reads=[("pull_means", [0, 1, 2], 8)])
    @example(n=6, sims_seed=1, seed=1, reads=[
        ("pull_many", [3], 2 * _PIECE + 3), ("running", [0], 600), ("replay", [0], 0),
        ("pull_above", [3, 4], 3 * _PIECE), ("pull_each", [5, 6], 1),
    ])
    def test_every_drawn_pair_has_its_count(self, n, sims_seed, seed, reads):
        m = num_pairs(n)
        assert num_pairs(65) > _TABLE_PAIRS
        sims = np.random.default_rng(sims_seed).random(m)
        sims[::4] = 0.5
        o = Oracle(Instance(n, sims), seed=seed)
        for read, arms, k in reads:
            arms = [e % m for e in arms]
            if read == "pull":
                o.pull(arms[0])
            elif read == "pull_many":
                o.pull_many(arms[0], k)
            elif read == "pull_each":
                o.pull_each(arms)
            elif read == "running":
                e = arms[0]
                i = o.pulls_report()[1][e]
                list(o.running_means(e, i, 0.0, k))
                o.advance(e, k)
            elif read == "replay":
                o = o.replay()
            else:
                getattr(o, read)(arms, k)
            tape = o._tape
            assert set(tape._ones) == set(tape._streams), read
            for e, buf in tape._streams.items():
                assert tape._ones[e] == int(np.unpackbits(buf).sum()), (read, e)


class TestTapeMemory:
    """A Bernoulli tape keeps each read pair's packed bits and ones count,
    and no generator: a growth rebuilds the pair's generator from its seed
    words and jumps it to the tape's end."""

    def test_kcfb_trial_at_n_120(self, tmp_path):
        # One planted n = 120 kcfb trial, T = 100 m, with 100 MC replays:
        # tracemalloc's peak was 12.2 MiB while the tape kept a Generator
        # for each pair read, and is 7.0 MiB without them (Python 3.11,
        # numpy 2.4).
        path = str(tmp_path / "n120.json")
        assert main(["gen", "--kind", "planted", "--n", "120", "--k", "4", "--q", "0.1",
                     "--seed", "0", "--out", path]) == 0
        argv = ["run", "--algo", "kcfb", "--epsilon", "1.0", "--budget", str(100 * num_pairs(120)),
                "--mc-replays", "100", "--solver", "kwik_restarts", "--trials", "1",
                "--seed", "1", "--instance", path, "--out", str(tmp_path / "run.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20

    def test_uniform_fb_trial_at_n_120(self, tmp_path):
        # One planted n = 120 uniform-fb trial, T = 100 m, kwik_restarts, 20
        # MC replays: tracemalloc's peak was 2.10 MiB while each arm of
        # pull_means was drawn on its own, and is 2.00 MiB with block draws
        # in a 32 KiB scratch; a 512 KiB scratch read 2.41 MiB (Python 3.11,
        # numpy 2.4).
        path = str(tmp_path / "n120.json")
        assert main(["gen", "--kind", "planted", "--n", "120", "--k", "4", "--q", "0.1",
                     "--seed", "0", "--out", path]) == 0
        argv = ["run", "--algo", "uniform-fb", "--epsilon", "1.0",
                "--budget", str(100 * num_pairs(120)), "--mc-replays", "20",
                "--solver", "kwik_restarts", "--trials", "1", "--seed", "1",
                "--instance", path, "--out", str(tmp_path / "run.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2**20

    @pytest.mark.parametrize("noise", NOISES)
    def test_only_gaussian_tapes_keep_generators(self, noise):
        # A Gaussian tape keeps its pairs' generators: standard_normal
        # rejects some draws, so no jump finds the tape's end in the stream.
        o = Oracle(Instance(5, STREAM_SIMS), noise, seed=4)
        o.pull_many(1, 100)
        o.pull_means([2, 3], 700)
        o.pull_above([4], 5000)
        o.table_column(0, 0)
        list(o.running_means(0, 0, 0.0, 600))
        o.replay().pull_many(1, 300)
        tape = o._tape
        assert len(tape._streams) == len(STREAM_SIMS)
        kept = [type(rng) for rng in getattr(tape, "_rngs", {}).values()]
        assert kept == ([] if noise is None else [np.random.Generator] * len(STREAM_SIMS))
