import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycc import (
    GeneratorSpec,
    Instance,
    InstanceTooLargeError,
    InvalidClusteringError,
    ParameterError,
    brute_force_opt,
    cost,
    expected_cost_mc,
    generate,
    kwikcluster,
    num_pairs,
    pair_index,
)
from noisycc import offline
from noisycc.instance import pair_mask
from noisycc.offline import (
    _subset_dp,
    _subset_min_plus,
    mean_cost,
    min_cost_partition,
    pairwise_cost,
    pivot_cluster,
)
from partitions import enumerated_opt, iter_partitions
from pivot_reference import reference_kwikcluster
from subset_dp_reference import reference_subset_dp, reference_weights

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def brute_cost(inst, labels):
    """Independent cost oracle: direct double loop over element pairs."""
    total = 0.0
    for u in range(inst.n):
        for v in range(u + 1, inst.n):
            s = inst.similarity(u, v)
            total += (1.0 - s) if labels[u] == labels[v] else s
    return total


def exact_expected_kwik_cost(inst):
    """Exhaustive expectation of the pivot-clustering cost over all pivot
    choices, by recursion over the surviving element set."""

    @lru_cache(maxsize=None)
    def rec(alive: frozenset) -> float:
        if not alive:
            return 0.0
        total = 0.0
        for p in alive:
            cluster = frozenset(
                u for u in alive if u == p or inst.similarity(min(p, u), max(p, u)) > 0.5
            )
            rest = alive - cluster
            phase = 0.0
            for u, v in itertools.combinations(sorted(cluster), 2):
                phase += 1.0 - inst.similarity(u, v)
            for u in cluster:
                for v in rest:
                    phase += inst.similarity(min(u, v), max(u, v))
            total += phase + rec(rest)
        return total / len(alive)

    return rec(frozenset(range(inst.n)))


class TestCost:
    def test_all_in_one_example(self):
        inst = Instance(3, [1.0, 1.0, 0.0])
        assert cost(inst, [0, 0, 0]) == 1.0
        assert brute_cost(inst, [0, 0, 0]) == 1.0

    def test_zero_case(self):
        inst = Instance(3, [0.0, 0.0, 0.0])
        assert cost(inst, [0, 1, 2]) == 0.0

    def test_symmetry_at_half(self):
        inst = Instance(2, [0.5])
        assert cost(inst, [0, 0]) == 0.5
        assert cost(inst, [0, 1]) == 0.5

    def test_length_mismatch(self):
        inst = Instance(3, [0.5] * 3)
        with pytest.raises(InvalidClusteringError):
            cost(inst, [0, 0])

    @settings(max_examples=50)
    @given(st.integers(1, 7), st.data())
    def test_bounds_and_label_permutation(self, n, data):
        m = num_pairs(n)
        sims = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        inst = Instance(n, sims)
        value = cost(inst, labels)
        assert 0.0 <= value <= m + 1e-12
        assert value == pytest.approx(brute_cost(inst, labels), abs=1e-9)
        # Relabeling clusters does not change the cost.
        permuted = [(l + 3) * 7 for l in labels]
        assert cost(inst, permuted) == pytest.approx(value, abs=1e-12)


class TestKwikCluster:
    def test_noiseless_planted_recovery_every_seed(self):
        inst = generate(GeneratorSpec("planted", n=6, k=2, in_mean=1.0, out_mean=0.0))
        for seed in range(40):
            labels = kwikcluster(inst.sims, 6, np.random.default_rng(seed))
            gt = inst.ground_truth
            same = [(labels[u] == labels[v]) == (gt[u] == gt[v])
                    for u in range(6) for v in range(u + 1, 6)]
            assert all(same)

    def test_all_below_half_gives_singletons(self):
        inst = Instance(5, [0.4] * 10)
        labels = kwikcluster(inst.sims, 5, np.random.default_rng(0))
        assert len(set(labels.tolist())) == 5

    def test_all_above_half_gives_one_cluster(self):
        inst = Instance(5, [0.6] * 10)
        labels = kwikcluster(inst.sims, 5, np.random.default_rng(0))
        assert len(set(labels.tolist())) == 1

    def test_output_is_partition(self):
        for seed in range(20):
            inst = generate(GeneratorSpec("uniform_random", n=7, seed=seed))
            labels = kwikcluster(inst.sims, 7, np.random.default_rng(seed))
            assert labels.shape == (7,)
            assert np.all(labels >= 0)

    def test_query_pattern_via_exact_counts(self):
        # Singleton cascade asks about every pivot-incident pair: m pairs.
        calls = []

        def low(arms, state):
            calls.extend(arms.tolist())
            return np.zeros(len(arms), dtype=bool), state, None

        pivot_cluster(6, np.random.default_rng(1), low)
        assert len(calls) == num_pairs(6)
        calls.clear()

        def high(arms, state):
            calls.extend(arms.tolist())
            return np.ones(len(arms), dtype=bool), state, None

        pivot_cluster(6, np.random.default_rng(1), high)
        assert len(calls) == 5

    def test_steps_receive_each_pivot_pair_once(self):
        n = 7
        phases = []

        def low(arms, state):
            phases.append(arms.tolist())
            return np.zeros(len(arms), dtype=bool), state, None

        pivot_cluster(n, np.random.default_rng(3), low)
        assert sorted(e for arms in phases for e in arms) == list(range(num_pairs(n)))
        phases.clear()

        def high(arms, state):
            phases.append(arms.tolist())
            return np.ones(len(arms), dtype=bool), state, None

        pivot_cluster(n, np.random.default_rng(3), high)
        assert len(phases) == 1 and len(phases[0]) == n - 1

    def test_pair_set_source(self):
        good = pair_mask({pair_index(0, 1, 3)}, 3)
        assert good[pair_index(0, 1, 3)] and not good[pair_index(1, 2, 3)]
        for seed in range(10):
            labels = kwikcluster(good, 3, np.random.default_rng(seed))
            assert labels[0] == labels[1] != labels[2]


class TestPivotEngine:
    """``pivot_cluster`` against ``tests/pivot_reference.py``: the same labels
    and the same generator state after every run, with and without a phase
    memo shared by the runs, as Monte-Carlo replays share one."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_matches_the_reference_loop(self, n, data):
        m = num_pairs(n)
        value = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0)
        sims = np.array(data.draw(st.lists(value, min_size=m, max_size=m)), dtype=np.float64)
        seed = data.draw(st.integers(0, 2**32 - 1))
        memo = data.draw(st.sampled_from([None, {}]))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            if memo is None:
                labels = kwikcluster(sims, n, rng)
            else:
                step = lambda arms, _: (sims[arms] > 0.5, None, None)  # noqa: E731
                labels = pivot_cluster(n, rng, step, memo=memo)[0]
            expected = reference_kwikcluster(sims, n, ref_rng)
            assert labels.dtype == expected.dtype and np.array_equal(labels, expected)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestExpectedCostMc:
    def test_noiseless_planted_is_exact_zero(self):
        inst = generate(GeneratorSpec("planted", n=6, k=3, in_mean=1.0, out_mean=0.0))
        mean, stderr = expected_cost_mc(inst, inst.sims, 200, np.random.default_rng(0))
        assert mean == 0.0 and stderr == 0.0

    def test_all_ones(self):
        inst = Instance(4, [1.0] * 6)
        mean, _ = expected_cost_mc(inst, inst.sims, 50, np.random.default_rng(0))
        assert mean == 0.0

    def test_contradictory_triangle_matches_exhaustive(self):
        # Pairs (0,1),(0,2),(1,2),(0,3),(1,3),(2,3): a contradictory triangle
        # on {0,1,2} plus an isolated element.
        inst = Instance(4, [0.9, 0.9, 0.1, 0.2, 0.2, 0.2])
        exact = exact_expected_kwik_cost(inst)
        mean, stderr = expected_cost_mc(inst, inst.sims, 4000, np.random.default_rng(7))
        assert mean == pytest.approx(exact, abs=max(3 * stderr, 1e-9))

    def test_trials_validated(self):
        inst = Instance(2, [0.5])
        with pytest.raises(ValueError):
            expected_cost_mc(inst, inst.sims, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("trials", [10**18, 2**63])
    def test_trials_past_memory_fail_before_any_draw(self, trials):
        # numpy's MemoryError at 10**18 and ValueError at 2**63 escaped.
        def draw():
            raise AssertionError("drew a clustering")

        with pytest.raises(ParameterError, match=f"costs of {trials} trials"):
            mean_cost(Instance(2, [0.5]), draw, trials)


class TestMeanCost:
    """The score table: a clustering drawn again reuses its score."""

    A = [0, 0, 1, 1, 2]
    B = [0, 1, 1, 2, 2]
    # Contents of one buffer that is overwritten in place between its draws;
    # the last equals A.
    BUFFER = [[0, 1, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 1, 1, 2]]

    def drawer(self):
        """Draws cycling through A, B and the buffer, whose contents move on
        each time it is drawn."""
        a, b = np.array(self.A, dtype=np.int64), np.array(self.B, dtype=np.int64)
        buffer = np.zeros(5, dtype=np.int64)
        drawn = []

        def draw():
            t = len(drawn)
            if t % 3 == 2:
                buffer[:] = self.BUFFER[t // 3 % 3]
            labels = (a, b, buffer)[t % 3]
            drawn.append(labels.tobytes())
            return labels

        return draw, drawn

    @pytest.mark.parametrize("trials", [1, 2, 3, 10, 31])
    def test_scores_each_clustering_once(self, trials, monkeypatch):
        inst = generate(GeneratorSpec("uniform_random", n=5, seed=11))
        draw, _ = self.drawer()
        plain = np.array([pairwise_cost(inst.sims, draw()) for _ in range(trials)])
        stderr = float(plain.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0

        scored = []

        def counting(sims, labels):
            scored.append(labels.tobytes())
            return pairwise_cost(sims, labels)

        monkeypatch.setattr(offline, "pairwise_cost", counting)
        for scores in (None, {}):
            scored.clear()
            draw, drawn = self.drawer()
            mean, err = mean_cost(inst, draw, trials, scores)
            assert mean.hex() == float(plain.mean()).hex()
            assert err.hex() == stderr.hex()
            assert len(drawn) == trials
            # Without a score table every draw is scored.
            assert sorted(scored) == sorted(drawn if scores is None else set(drawn))

    def test_kwikcluster_replays_keep_no_clusterings(self):
        # KwikCluster replays seldom repeat a clustering; holding each one
        # they drew (about 8n + 100 bytes) took over 1 MiB here.
        inst = generate(GeneratorSpec("uniform_random", n=60, seed=1))
        expected_cost_mc(inst, inst.sims, 1, np.random.default_rng(0))
        tracemalloc.start()
        try:
            expected_cost_mc(inst, inst.sims, 2000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18


class TestPartitionEnumeration:
    def test_bell_numbers(self):
        for n in range(1, 9):
            parts = list(iter_partitions(n))
            assert len(parts) == BELL[n]
            as_tuples = {tuple(p) for p in parts}
            assert len(as_tuples) == BELL[n]
            for p in parts:
                assert p[0] == 0
                for i in range(1, n):
                    assert 0 <= p[i] <= max(p[:i]) + 1

    def test_rgs_order_starts_all_zero(self):
        parts = list(iter_partitions(3))
        assert [list(p) for p in parts[:2]] == [[0, 0, 0], [0, 0, 1]]


class TestBruteForceOpt:
    def test_five_partition_example(self):
        inst = Instance(3, [1.0, 1.0, 0.0])
        # Independent oracle: evaluate all 5 partitions of 3 elements directly.
        all_parts = [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]]
        best = min(brute_cost(inst, p) for p in all_parts)
        assert best == 1.0
        result = brute_force_opt(inst)
        assert result.opt_value == 1.0
        assert cost(inst, result.witness) == result.opt_value

    def test_noiseless_planted_opt_zero(self):
        inst = generate(GeneratorSpec("planted", n=6, k=2, in_mean=1.0, out_mean=0.0))
        result = brute_force_opt(inst)
        assert result.opt_value == 0.0
        gt = inst.ground_truth
        for u in range(6):
            for v in range(u + 1, 6):
                assert (result.witness[u] == result.witness[v]) == (gt[u] == gt[v])

    def test_n1(self):
        result = brute_force_opt(Instance(1, []))
        assert result.opt_value == 0.0
        assert list(result.witness) == [0]

    def test_lower_bounds_random_clusterings(self):
        rng = np.random.default_rng(3)
        inst = generate(GeneratorSpec("uniform_random", n=7, seed=4))
        opt = brute_force_opt(inst).opt_value
        for _ in range(100):
            labels = rng.integers(0, 7, size=7)
            assert opt <= cost(inst, labels) + 1e-12

    def test_too_large(self):
        with pytest.raises(InstanceTooLargeError):
            brute_force_opt(Instance(14, [0.5] * num_pairs(14)))

    def test_matches_exhaustive_on_random(self):
        for seed in range(5):
            inst = generate(GeneratorSpec("uniform_random", n=6, seed=seed))
            opt = brute_force_opt(inst)
            best = min(brute_cost(inst, p) for p in iter_partitions(6))
            assert opt.opt_value == pytest.approx(best, abs=1e-12)


class TestSubsetDp:
    """The subset DP must return the enumeration's optimum and witness exactly."""

    @staticmethod
    def assert_same_as_enumeration(sims, n):
        got = min_cost_partition(sims, n)
        want = enumerated_opt(sims, n)
        assert np.array_equal(got.witness, want.witness)
        assert got.opt_value == want.opt_value

    # Dyadic values tie exactly; the other grid ties only up to rounding, which
    # the DP and pairwise_cost do differently.
    @pytest.mark.parametrize("grid", [[0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.3, 0.5, 0.7, 0.9]])
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_tie_heavy_grid(self, grid, n, data):
        values = st.sampled_from(grid)
        sims = data.draw(st.lists(values, min_size=num_pairs(n), max_size=num_pairs(n)))
        self.assert_same_as_enumeration(np.array(sims, dtype=np.float64), n)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_uniform_floats(self, n, data):
        floats = st.floats(0.0, 1.0)
        sims = data.draw(st.lists(floats, min_size=num_pairs(n), max_size=num_pairs(n)))
        self.assert_same_as_enumeration(np.array(sims, dtype=np.float64), n)

    # Both ways of scanning a node's candidate blocks: every node as one
    # array pass, and every node as the scalar loop.
    @pytest.mark.parametrize("bits", [0, 64])
    @pytest.mark.parametrize("grid", [[0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.3, 0.5, 0.7, 0.9]])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_scan_widths(self, bits, grid, n, data):
        values = st.sampled_from(grid)
        sims = data.draw(st.lists(values, min_size=num_pairs(n), max_size=num_pairs(n)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(offline, "_SCAN_BITS", bits)
            self.assert_same_as_enumeration(np.array(sims, dtype=np.float64), n)

    def test_all_half_n9(self):
        # Every one of the 21,147 partitions costs the same.
        self.assert_same_as_enumeration(np.full(num_pairs(9), 0.5), 9)

    def test_planted_n13(self):
        inst = generate(GeneratorSpec("planted", n=13, k=3, flip_noise=0.1,
                                      in_mean=0.9, out_mean=0.1, seed=2))
        result = brute_force_opt(inst)
        assert result.opt_value == pairwise_cost(inst.sims, result.witness)
        assert result.opt_value <= cost(inst, inst.ground_truth)


class TestSubsetConvolution:
    """The array DP against ``tests/subset_dp_reference.py``, bit for bit."""

    @staticmethod
    def assert_same_as_loop(sims, n):
        w, f = _subset_dp(sims, n)
        assert f.tobytes() == reference_subset_dp(w, n).tobytes()

    @pytest.mark.parametrize("grid", [[0.0, 0.25, 0.5, 0.75, 1.0], [0.1, 0.3, 0.5, 0.7, 0.9]])
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10), data=st.data())
    def test_tie_heavy_grid(self, grid, n, data):
        values = st.sampled_from(grid)
        sims = data.draw(st.lists(values, min_size=num_pairs(n), max_size=num_pairs(n)))
        self.assert_same_as_loop(np.array(sims, dtype=np.float64), n)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10), data=st.data())
    def test_uniform_floats(self, n, data):
        floats = st.floats(0.0, 1.0)
        sims = data.draw(st.lists(floats, min_size=num_pairs(n), max_size=num_pairs(n)))
        self.assert_same_as_loop(np.array(sims, dtype=np.float64), n)

    # The weights are the list loop's floats, byte for byte (a -0.0 would show).
    @staticmethod
    def assert_weights_as_listed(grid, n, data):
        values = st.floats(0.0, 1.0) if grid is None else st.sampled_from(grid)
        sims = data.draw(st.lists(values, min_size=num_pairs(n), max_size=num_pairs(n)))
        sims = np.array(sims, dtype=np.float64)
        assert _subset_dp(sims, n)[0].tobytes() == reference_weights(sims, n).tobytes()

    @pytest.mark.parametrize("grid", [None, [0.0, 0.25, 0.5, 0.75, 1.0]])
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10), data=st.data())
    def test_weights(self, grid, n, data):
        self.assert_weights_as_listed(grid, n, data)

    @pytest.mark.parametrize("grid", [None, [0.0, 0.25, 0.5, 0.75, 1.0]])
    @settings(max_examples=4, deadline=None)
    @given(n=st.integers(11, 13), data=st.data())
    def test_wide_weights(self, grid, n, data):
        self.assert_weights_as_listed(grid, n, data)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(0, 6), data=st.data())
    def test_min_plus_equals_brute_force(self, d, data):
        values = st.lists(st.floats(-1e6, 1e6), min_size=1 << d, max_size=1 << d)
        a = np.array(data.draw(values))
        b = np.array(data.draw(values))
        want = [min(a[t] + b[r ^ t] for t in range(1 << d) if t & r == t) for r in range(1 << d)]
        assert _subset_min_plus(a, b).tolist() == want

    # At n = 11 to 13 the widest convolutions split their top bits before
    # the gathers.
    @pytest.mark.parametrize("grid", [None, [0.0, 0.25, 0.5, 0.75, 1.0],
                                      [0.1, 0.3, 0.5, 0.7, 0.9]])
    @pytest.mark.parametrize("n", [11, 12, 13])
    def test_split_layers(self, n, grid):
        rng = np.random.default_rng(n)
        sims = rng.random(num_pairs(n)) if grid is None else rng.choice(grid, num_pairs(n))
        self.assert_same_as_loop(sims, n)

    @pytest.mark.parametrize("bits", [0, 1, 2])
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(0, 6), data=st.data())
    def test_split_depths_equal_brute_force(self, bits, d, data):
        values = st.lists(st.floats(-1e6, 1e6), min_size=1 << d, max_size=1 << d)
        a = np.array(data.draw(values))
        b = np.array(data.draw(values))
        want = [min(a[t] + b[r ^ t] for t in range(1 << d) if t & r == t) for r in range(1 << d)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(offline, "_GATHER_BITS", bits)
            assert _subset_min_plus(a, b).tolist() == want

    def test_n13_memory(self):
        inst = generate(GeneratorSpec("planted", n=13, k=3, flip_noise=0.1,
                                      in_mean=0.9, out_mean=0.1, seed=2))
        tracemalloc.start()
        try:
            min_cost_partition(inst.sims, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert offline._splits.cache_info().currsize <= offline._GATHER_BITS + 1

    # A convolution wider than the gather holds one leaf's sums at a time,
    # not all 3^d candidates at once.
    @pytest.mark.parametrize("n", [11, 12, 13])
    def test_wide_convolutions_stay_small(self, n):
        inst = generate(GeneratorSpec("planted", n=n, k=3, flip_noise=0.1,
                                      in_mean=0.9, out_mean=0.1, seed=2))
        tracemalloc.start()
        try:
            min_cost_partition(inst.sims, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestFiveApproximation:
    def test_mc_expected_cost_within_factor_five(self):
        for seed in range(6):
            n = 5 + seed % 4
            inst = generate(GeneratorSpec("uniform_random", n=n, seed=seed))
            opt = brute_force_opt(inst).opt_value
            mean, stderr = expected_cost_mc(
                inst, inst.sims, 2000, np.random.default_rng(seed)
            )
            assert mean <= 5.0 * opt + 3.0 * stderr


class TestArraySource:
    def test_values_outside_unit_interval_allowed(self):
        # Pairs (0,1), (0,2), (1,2): 0 and 1 always meet, 2 never joins them.
        shat = np.array([1.4, -0.2, -0.3])
        for seed in range(10):
            labels = kwikcluster(shat, 3, np.random.default_rng(seed))
            assert labels[0] == labels[1] != labels[2]
