import numpy as np
import pytest

import noisycc.kcfc
from noisycc import (
    GeneratorSpec,
    Instance,
    NoiseModel,
    OfflineSolver,
    Oracle,
    ParameterError,
    Report,
    TbhsConfig,
    generate,
    num_pairs,
    run_kcfb,
    run_kcfc,
    run_kcfc_sequential,
    run_tbhs,
    run_uniform_fb,
    run_uniform_fc,
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
        assert report.queries_used == 0

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
        assert report.queries_used == oracle.total_pulls
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

    def test_report_fields(self, monkeypatch):
        bandit = noisycc.kcfc.run_tbhs
        configs = []

        def run_tbhs(oracle, arms, config):
            configs.append(config)
            return bandit(oracle, arms, config)

        monkeypatch.setattr(noisycc.kcfc, "run_tbhs", run_tbhs)
        inst = noiseless_planted(4, 2)
        report = run_kcfc(Oracle(inst, seed=0), 0.9, 0.2, np.random.default_rng(0))
        [config] = configs
        assert config.epsilon == pytest.approx(0.9 / (12 * 6), rel=1e-12)
        assert config.delta == 0.2
        assert report.good_set_size == int(report.estimates.sum())
        assert report.facts == []

    @pytest.mark.parametrize("noise,scale", [(None, 1.0), (NoiseModel("gaussian", 0.3), 0.3)],
                             ids=["bernoulli", "gaussian"])
    def test_report_keeps_the_bandit_output(self, noise, scale):
        inst = generate(GeneratorSpec("planted", n=9, k=3, flip_noise=0.1, seed=5))
        m = inst.m
        oracle = Oracle(inst, noise, seed=2)
        report = run_kcfc(oracle, 1.0, 0.1, np.random.default_rng(0), radius_scale=scale)
        assert report.bandit.pulls_used == report.queries_used == oracle.total_pulls
        assert report.bandit.rounds > 0
        assert len(report.bandit.good) == report.good_set_size
        direct = run_tbhs(oracle.replay(), range(m), TbhsConfig(1.0 / (12 * m), 0.1, scale))
        assert report.bandit == direct

    def test_report_keeps_no_bandit_at_n1(self):
        assert run_kcfc(Oracle(Instance(1, []), seed=0), 0.5, 0.1).bandit is None

    def test_bandit_draws_each_pair_once(self, monkeypatch):
        # n = 64, m = 2016: the tape keeps the table of running means.  Its
        # build draws every pair's first 512 rewards in one draw, the first
        # pulls are its row 0, and no arm here needs more pulls than that.
        inst = generate(GeneratorSpec("planted", n=64, k=4, in_mean=0.9, out_mean=0.1, seed=3))
        pivots = np.random.default_rng(3)
        generators = []

        class Counted(np.random.Generator):
            def __init__(self, bit_generator):
                super().__init__(bit_generator)
                self.draws = 0
                generators.append(self)

            def random(self, *args, **kwargs):
                self.draws += 1
                return super().random(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Counted)
        oracle = Oracle(inst, seed=3)
        report = run_kcfc(oracle, 1.0, 0.1, pivots)
        assert report.queries_used == oracle.total_pulls > inst.m
        assert len(generators) == inst.m
        assert all(g.draws == 1 for g in generators)
        assert all(len(tape) == 512 // 8 for tape in oracle._tape._streams.values())

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
        assert report.queries_used == oracle.total_pulls

    def test_report_sums_its_facts(self):
        inst = generate(GeneratorSpec("planted", n=8, k=3, flip_noise=0.05, seed=8))
        report = run_kcfc_sequential(Oracle(inst, seed=8), 1.0, 0.1, np.random.default_rng(8))
        assert report.phases == len(set(report.clustering.tolist())) > 1
        assert report.queries_used == sum(pulls for pulls, _ in report.facts)
        assert report.good_set_size == sum(good for _, good in report.facts)

    def test_n1(self):
        report = run_kcfc_sequential(Oracle(Instance(1, []), seed=0), 0.5, 0.1)
        assert list(report.clustering) == [0]
        assert report.queries_used == 0
        assert report.good_set_size == 0
        assert report.estimates is None

    def test_epsilon_too_large_for_single_pair_phase(self):
        inst = Instance(2, [0.9])
        with pytest.raises(ParameterError):
            run_kcfc_sequential(Oracle(inst, seed=0), 6.0, 0.1, np.random.default_rng(0))


@pytest.mark.parametrize("run", [
    lambda o: run_kcfc(o, 1.0, 0.1),
    lambda o: run_kcfc_sequential(o, 1.0, 0.1),
    lambda o: run_kcfb(o, 100),
    lambda o: run_uniform_fc(o, 2.0, 0.3, OfflineSolver("exact")),
    lambda o: run_uniform_fb(o, 100, OfflineSolver("exact")),
], ids=["kcfc", "kcfc-seq", "kcfb", "uniform-fc", "uniform-fb"])
def test_every_algorithm_returns_a_report(run):
    assert type(run(Oracle(noiseless_planted(4, 2), seed=0))) is Report
