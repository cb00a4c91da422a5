import itertools
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
    brute_force_opt,
    cost,
    expected_cost_mc,
    generate,
    kwikcluster,
    num_pairs,
    pair_index,
)
from noisycc.instance import pair_mask
from noisycc.offline import min_cost_partition, pairwise_cost, pivot_cluster
from partitions import enumerated_opt, iter_partitions

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

        def low(p, others):
            calls.extend((p, int(u)) for u in others)
            return np.zeros(len(others), dtype=bool)

        pivot_cluster(6, np.random.default_rng(1), low)
        assert len(calls) == num_pairs(6)
        calls.clear()

        def high(p, others):
            calls.extend((p, int(u)) for u in others)
            return np.ones(len(others), dtype=bool)

        pivot_cluster(6, np.random.default_rng(1), high)
        assert len(calls) == 5

    def test_pair_set_source(self):
        good = pair_mask({pair_index(0, 1, 3)}, 3)
        assert good[pair_index(0, 1, 3)] and not good[pair_index(1, 2, 3)]
        for seed in range(10):
            labels = kwikcluster(good, 3, np.random.default_rng(seed))
            assert labels[0] == labels[1] != labels[2]


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

    def test_all_half_n9(self):
        # Every one of the 21,147 partitions costs the same.
        self.assert_same_as_enumeration(np.full(num_pairs(9), 0.5), 9)

    def test_planted_n13(self):
        inst = generate(GeneratorSpec("planted", n=13, k=3, flip_noise=0.1,
                                      in_mean=0.9, out_mean=0.1, seed=2))
        result = brute_force_opt(inst)
        assert result.opt_value == pairwise_cost(inst.sims, result.witness)
        assert result.opt_value <= cost(inst, inst.ground_truth)


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
