import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycc import (
    GeneratorSpec,
    Instance,
    InsufficientBudgetError,
    Oracle,
    ParameterError,
    generate,
    next_tau,
    num_pairs,
    run_kcfb,
)


class TestNextTau:
    def test_hand_evaluated_example(self):
        # C(4,2)=6 pairs, C(2,2)=1 survives: surplus covers 6-1-3=2 pairs.
        assert next_tau(10, 4, 2) == 10 + (10 * (6 - 1 - 3)) // 1 == 30

    def test_zero_surplus_when_cluster_is_pivot_alone(self):
        # Removed pairs == queried pairs == v_r - 1.
        assert next_tau(7, 5, 4) == 7
        assert next_tau(13, 9, 8) == 13

    def test_degenerate_survivor_counts(self):
        assert next_tau(10, 4, 1) == 10
        assert next_tau(10, 4, 0) == 10
        assert next_tau(3, 1, 0) == 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            next_tau(10, 0, 0)
        with pytest.raises(ParameterError):
            next_tau(10, 4, 4)
        with pytest.raises(ParameterError):
            next_tau(10, 4, -1)

    @settings(max_examples=200)
    @given(st.integers(1, 200), st.integers(2, 40), st.data())
    def test_never_decreases_and_never_overcommits(self, tau, v_r, data):
        v_r1 = data.draw(st.integers(0, v_r - 1))
        nxt = next_tau(tau, v_r, v_r1)
        assert nxt >= tau
        # The next phase's pre-allocation fits in what this phase left over.
        assert nxt * math.comb(v_r1, 2) <= tau * (math.comb(v_r, 2) - (v_r - 1))


class TestRunKcfb:
    def test_hand_traced_schedule(self):
        # Elements {0,1} tied by similarity 1, everything else 0.  Seed 1
        # pivots on element 1 first, so the first cluster removes {0,1}:
        # tau goes 10 -> 30 (the hand-evaluated update), the second phase
        # spends 30 pulls on the last remaining pair, and the final phase is
        # a free singleton.  Total queries: 3*10 + 1*30 = 60 = T.
        sims = np.zeros(6)
        sims[0] = 1.0  # pair (0, 1)
        inst = Instance(4, sims)
        oracle = Oracle(inst, seed=0)
        report = run_kcfb(oracle, 60, np.random.default_rng(1))
        assert report.tau_schedule == [10, 30, 30]
        assert report.queries_used == 60
        assert report.phases == 3
        labels = report.clustering
        assert labels[0] == labels[1]
        assert len(set(labels.tolist())) == 3

    def test_noiseless_planted_minimum_budget_recovers(self):
        inst = generate(GeneratorSpec("planted", n=6, k=2, in_mean=1.0, out_mean=0.0))
        m = inst.m
        for seed in range(10):
            report = run_kcfb(Oracle(inst, seed=seed), m, np.random.default_rng(seed))
            gt = inst.ground_truth
            labels = report.clustering
            assert all(
                (labels[u] == labels[v]) == (gt[u] == gt[v])
                for u in range(6)
                for v in range(u + 1, 6)
            )

    def test_all_zero_similarities_singleton_cascade(self):
        n, T = 6, 200
        inst = Instance(n, [0.0] * num_pairs(n))
        report = run_kcfb(Oracle(inst, seed=2), T, np.random.default_rng(2))
        assert len(set(report.clustering.tolist())) == n
        # Independent re-derivation of the schedule: sizes shrink by one per
        # phase, so tau evolves by the update rule along n, n-1, ..., 1.
        tau = T // num_pairs(n)
        expected_schedule = []
        expected_queries = 0
        for v in range(n, 0, -1):
            expected_schedule.append(tau)
            expected_queries += tau * (v - 1)
            tau = next_tau(tau, v, v - 1)
        assert report.tau_schedule == expected_schedule
        assert report.queries_used == expected_queries
        assert report.queries_used <= T

    def test_budget_invariant_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            m = num_pairs(n)
            inst = Instance(n, rng.random(m))
            budget = int(rng.integers(m, 60 * m))
            oracle = Oracle(inst, seed=int(rng.integers(2**32)))
            report = run_kcfb(oracle, budget, np.random.default_rng(int(rng.integers(2**32))))
            assert report.queries_used <= budget
            assert report.queries_used == oracle.total_pulls
            assert report.clustering.min() >= 0
            assert len(report.tau_schedule) == report.phases

    def test_insufficient_budget(self):
        inst = Instance(4, [0.5] * 6)
        with pytest.raises(InsufficientBudgetError):
            run_kcfb(Oracle(inst, seed=0), 5, np.random.default_rng(0))

    def test_n1_any_budget(self):
        inst = Instance(1, [])
        for T in (0, 1, 100):
            report = run_kcfb(Oracle(inst, seed=0), T, np.random.default_rng(0))
            assert list(report.clustering) == [0]
            assert report.queries_used == 0
