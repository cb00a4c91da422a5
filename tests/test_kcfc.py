import numpy as np
import pytest

from noisycc import (
    GeneratorSpec,
    Instance,
    Oracle,
    ParameterError,
    generate,
    num_pairs,
    run_kcfc,
    run_kcfc_sequential,
)


def same_partition(a, b):
    n = len(a)
    return all(
        (a[u] == a[v]) == (b[u] == b[v]) for u in range(n) for v in range(u + 1, n)
    )


def noiseless_planted(n, k):
    return generate(GeneratorSpec("planted", n=n, k=k, in_mean=1.0, out_mean=0.0))


class TestKcfc:
    def test_noiseless_planted_recovery(self):
        inst = noiseless_planted(6, 2)
        for seed in range(10):
            oracle = Oracle(inst, seed=seed)
            report = run_kcfc(oracle, 1.0, 0.1, np.random.default_rng(seed))
            assert same_partition(report.clustering, inst.ground_truth)

    def test_n1_singleton_zero_queries(self):
        inst = Instance(1, [])
        report = run_kcfc(Oracle(inst, seed=0), 0.5, 0.1)
        assert list(report.clustering) == [0]
        assert report.queries == 0

    def test_high_similarity_pair_usually_joined(self):
        inst = Instance(2, [0.99])
        joined = 0
        for seed in range(100):
            oracle = Oracle(inst, seed=seed)
            report = run_kcfc(oracle, 0.6, 0.1, np.random.default_rng(seed))
            if report.clustering[0] == report.clustering[1]:
                joined += 1
        assert joined >= 90

    def test_queries_equal_oracle_pulls(self):
        inst = generate(GeneratorSpec("planted", n=5, k=2, flip_noise=0.1, seed=3))
        oracle = Oracle(inst, seed=4)
        report = run_kcfc(oracle, 1.0, 0.1, np.random.default_rng(0))
        # The pivot loop reads only the learned set; all pulls come from the
        # classification stage.
        assert report.queries == oracle.total_pulls
        _, per_pair = oracle.pulls_report()
        assert np.all(per_pair >= 1)

    def test_good_everything_gives_one_cluster(self):
        inst = Instance(5, [1.0] * 10)
        for seed in range(5):
            report = run_kcfc(Oracle(inst, seed=seed), 1.0, 0.1, np.random.default_rng(seed))
            assert report.good_set_size == 10
            assert len(set(report.clustering.tolist())) == 1

    def test_good_nothing_gives_singletons(self):
        inst = Instance(5, [0.0] * 10)
        for seed in range(5):
            report = run_kcfc(Oracle(inst, seed=seed), 1.0, 0.1, np.random.default_rng(seed))
            assert report.good_set_size == 0
            assert len(set(report.clustering.tolist())) == 5

    def test_report_fields(self):
        inst = noiseless_planted(4, 2)
        report = run_kcfc(Oracle(inst, seed=0), 0.9, 0.2, np.random.default_rng(0))
        assert report.epsilon == 0.9
        assert report.delta == 0.2
        assert report.epsilon_prime == pytest.approx(0.9 / (12 * 6), rel=1e-12)
        assert report.good_set_size == int(report.good_mask.sum())

    def test_parameter_validation(self):
        inst = noiseless_planted(4, 2)
        with pytest.raises(ParameterError):
            run_kcfc(Oracle(inst, seed=0), 6.0 * 6, 0.1)  # epsilon'/(12m) hits 0.5
        with pytest.raises(ParameterError):
            run_kcfc(Oracle(inst, seed=0), -1.0, 0.1)
        with pytest.raises(ParameterError):
            run_kcfc(Oracle(inst, seed=0), 1.0, 1.5)


class TestKcfcSequential:
    def test_noiseless_planted_recovery(self):
        inst = noiseless_planted(6, 2)
        for seed in range(10):
            oracle = Oracle(inst, seed=seed)
            report = run_kcfc_sequential(oracle, 1.0, 0.1, np.random.default_rng(seed))
            assert same_partition(report.clustering, inst.ground_truth)

    def test_strictly_fewer_distinct_pairs_than_full_run(self):
        inst = noiseless_planted(6, 2)
        m = inst.m
        for seed in range(20):
            o_full = Oracle(inst, seed=seed)
            run_kcfc(o_full, 1.0, 0.1, np.random.default_rng(seed))
            o_seq = Oracle(inst, seed=seed)
            run_kcfc_sequential(o_seq, 1.0, 0.1, np.random.default_rng(seed))
            distinct_full = int((o_full.pulls_report()[1] > 0).sum())
            distinct_seq = int((o_seq.pulls_report()[1] > 0).sum())
            assert distinct_full == m
            assert distinct_seq < distinct_full

    def test_all_zero_similarities_query_every_pair_once_each_phase(self):
        # Singleton cascade: each phase queries exactly the pivot's incident
        # pairs, so the distinct pairs queried across phases cover all of E.
        inst = Instance(5, [0.0] * 10)
        for seed in range(5):
            oracle = Oracle(inst, seed=seed)
            report = run_kcfc_sequential(oracle, 1.0, 0.1, np.random.default_rng(seed))
            assert len(set(report.clustering.tolist())) == 5
            _, per_pair = oracle.pulls_report()
            assert int((per_pair > 0).sum()) == num_pairs(5)

    def test_queries_equal_oracle_pulls(self):
        inst = generate(GeneratorSpec("planted", n=6, k=3, flip_noise=0.05, seed=8))
        oracle = Oracle(inst, seed=8)
        report = run_kcfc_sequential(oracle, 1.0, 0.1, np.random.default_rng(8))
        assert report.queries == oracle.total_pulls

    def test_n1(self):
        report = run_kcfc_sequential(Oracle(Instance(1, []), seed=0), 0.5, 0.1)
        assert list(report.clustering) == [0]
        assert report.queries == 0
        assert report.good_set_size == 0
        assert report.epsilon_prime is None
        assert report.good_mask is None
        assert (report.epsilon, report.delta) == (0.5, 0.1)

    def test_epsilon_too_large_for_single_pair_phase(self):
        inst = Instance(2, [0.9])
        with pytest.raises(ParameterError):
            run_kcfc_sequential(Oracle(inst, seed=0), 6.0, 0.1, np.random.default_rng(0))
