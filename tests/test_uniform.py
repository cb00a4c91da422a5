import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reads import pulled_mean

from noisycc import (
    GeneratorSpec,
    Instance,
    InstanceTooLargeError,
    InsufficientBudgetError,
    NoiseModel,
    Oracle,
    OfflineSolver,
    ParameterError,
    brute_force_opt,
    cost,
    generate,
    num_pairs,
    run_uniform_fb,
    run_uniform_fc,
    uniform_fc_pulls,
)
from noisycc.uniform import uniform_fb_error_bound, uniform_fc_pulls_exact

# Frozen via 50-digit evaluation: ceil(2592 * ln(120)) with 2592*ln(120)
# = 12409.1785972910632...
UFC_PULLS_A5_M6 = 12410
# ceil(50 * ln(20/0.3)), raw 209.98525389399634...
UFC_PULLS_A1_M10 = 210


class TestPullCounts:
    def test_frozen_example(self):
        assert uniform_fc_pulls(5, 6, 0.5, 0.1) == UFC_PULLS_A5_M6

    def test_second_frozen_point(self):
        assert uniform_fc_pulls(1, 10, 2.0, 0.3) == UFC_PULLS_A1_M10

    def test_halving_epsilon_quadruples_exactly(self):
        for alpha, m, eps, delta in [(5, 6, 0.5, 0.1), (1, 28, 1.0, 0.05), (5, 45, 0.25, 0.3)]:
            raw = uniform_fc_pulls_exact(alpha, m, eps, delta)
            assert uniform_fc_pulls_exact(alpha, m, eps / 2, delta) == 4.0 * raw

    @settings(max_examples=60)
    @given(
        st.floats(1.0, 10.0),
        st.integers(1, 100),
        st.floats(0.01, 8.0),
        st.floats(0.001, 0.999),
    )
    def test_at_least_one_pull(self, alpha, m, eps, delta):
        assert uniform_fc_pulls(alpha, m, eps, delta) >= 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            uniform_fc_pulls(0.5, 6, 0.5, 0.1)
        with pytest.raises(ParameterError):
            uniform_fc_pulls(5, 0, 0.5, 0.1)
        with pytest.raises(ParameterError):
            uniform_fc_pulls(5, 6, 0.0, 0.1)


class TestSolver:
    def test_exact_solver_guard(self):
        solver = OfflineSolver("exact")
        with pytest.raises(InstanceTooLargeError):
            solver.solve(np.full(num_pairs(14), 0.5), 14, np.random.default_rng(0))

    def test_alpha_binding(self):
        assert OfflineSolver("exact").alpha == 1.0
        assert OfflineSolver("kwik_restarts").alpha == 5.0

    def test_kwik_restarts_returns_partition(self):
        inst = generate(GeneratorSpec("uniform_random", n=7, seed=1))
        solver = OfflineSolver("kwik_restarts", restarts=20)
        labels = solver.solve(inst.sims, 7, np.random.default_rng(0))
        assert labels.shape == (7,)
        assert labels.min() >= 0

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            OfflineSolver("simplex")


class TestUniformFc:
    def test_noiseless_exact_reaches_opt(self):
        inst = generate(GeneratorSpec("planted", n=5, k=2, in_mean=1.0, out_mean=0.0))
        oracle = Oracle(inst, seed=0)
        report = run_uniform_fc(oracle, 2.0, 0.3, OfflineSolver("exact"), np.random.default_rng(0))
        opt = brute_force_opt(inst).opt_value
        assert cost(inst, report.clustering) == opt == 0.0

    def test_query_accounting_and_uniformity(self):
        inst = generate(GeneratorSpec("planted", n=5, k=2, seed=1))
        oracle = Oracle(inst, seed=2)
        report = run_uniform_fc(oracle, 2.0, 0.3, OfflineSolver("exact"), np.random.default_rng(0))
        per_pair_target = uniform_fc_pulls(1.0, 10, 2.0, 0.3)
        assert report.queries_used == 10 * per_pair_target == oracle.total_pulls
        _, counts = oracle.pulls_report()
        assert np.all(counts == per_pair_target)

    def test_success_rate_meets_guarantee(self):
        # Well-separated instance; the (1, eps)-guarantee holds with
        # probability >= 0.9, tested with 3-sigma binomial slack at 88/100.
        inst = generate(GeneratorSpec("planted", n=6, k=2, in_mean=0.7, out_mean=0.3))
        opt = brute_force_opt(inst).opt_value
        successes = 0
        for seed in range(100):
            oracle = Oracle(inst, seed=seed)
            report = run_uniform_fc(
                oracle, 0.5, 0.1, OfflineSolver("exact"), np.random.default_rng(seed)
            )
            if cost(inst, report.clustering) <= opt + 0.5:
                successes += 1
        assert successes >= 88

    def test_estimation_error_bound_propagates_to_cost(self):
        # Whenever every empirical mean is within eta of the truth, the
        # exact solution of the estimated instance costs at most OPT + 2*eta*m.
        inst = generate(GeneratorSpec("planted", n=5, k=2, in_mean=0.8, out_mean=0.2, seed=3))
        opt = brute_force_opt(inst).opt_value
        m = inst.m
        for seed in range(20):
            oracle = Oracle(inst, seed=seed)
            report = run_uniform_fc(
                oracle, 3.0, 0.4, OfflineSolver("exact"), np.random.default_rng(seed)
            )
            eta = max(
                abs(pulled_mean(oracle, e) - inst.sims[e]) for e in range(m)
            )
            assert cost(inst, report.clustering) <= opt + 2.0 * eta * m + 1e-9

    def test_n1(self):
        report = run_uniform_fc(
            Oracle(Instance(1, []), seed=0), 0.5, 0.1, OfflineSolver("exact")
        )
        assert list(report.clustering) == [0]
        assert report.queries_used == 0

    def test_exact_guard_rejects_before_pulling(self):
        n = 14
        inst = Instance(n, [0.5] * num_pairs(n))
        oracle = Oracle(inst, seed=0)
        with pytest.raises(InstanceTooLargeError):
            run_uniform_fc(oracle, 10.0, 0.5, OfflineSolver("exact"))
        assert oracle.total_pulls == 0
        with pytest.raises(InstanceTooLargeError):
            run_uniform_fb(oracle, 10**6, OfflineSolver("exact"))
        assert oracle.total_pulls == 0

    @pytest.mark.parametrize("epsilon", [1e-200, 1e-160])
    def test_epsilon_too_small_for_a_finite_count(self, epsilon):
        # epsilon^2 underflows to 0 at 1e-200; at 1e-160 the count overflows.
        oracle = Oracle(Instance(3, [0.9, 0.1, 0.5]), seed=0)
        with pytest.raises(ParameterError, match="not finite"):
            run_uniform_fc(oracle, epsilon, 0.1, OfflineSolver("exact"))
        assert oracle.total_pulls == 0


class TestUniformFb:
    def test_minimum_budget_noiseless(self):
        inst = generate(GeneratorSpec("planted", n=5, k=2, in_mean=1.0, out_mean=0.0))
        m = inst.m
        oracle = Oracle(inst, seed=0)
        report = run_uniform_fb(oracle, m, OfflineSolver("exact"), np.random.default_rng(0))
        assert report.queries_used == m == oracle.total_pulls
        assert cost(inst, report.clustering) == brute_force_opt(inst).opt_value

    def test_query_identity_arbitrary_budget(self):
        inst = generate(GeneratorSpec("planted", n=5, k=2, seed=4))
        m = inst.m
        for budget in (m, m + 3, 10 * m + 7):
            oracle = Oracle(inst, seed=1)
            report = run_uniform_fb(oracle, budget, OfflineSolver("exact"), np.random.default_rng(0))
            assert report.queries_used == m * (budget // m) <= budget
            _, counts = oracle.pulls_report()
            assert np.all(counts == budget // m)

    def test_failure_rate_non_increasing_in_budget(self):
        inst = generate(GeneratorSpec("planted", n=5, k=2, in_mean=0.7, out_mean=0.3))
        opt = brute_force_opt(inst).opt_value
        m = inst.m

        def failures(budget):
            bad = 0
            for seed in range(200):
                oracle = Oracle(inst, seed=seed)
                report = run_uniform_fb(
                    oracle, budget, OfflineSolver("exact"), np.random.default_rng(seed)
                )
                if cost(inst, report.clustering) > opt + 0.5:
                    bad += 1
            return bad

        assert failures(100 * m) <= failures(10 * m)

    def test_insufficient_budget(self):
        inst = Instance(4, [0.5] * 6)
        with pytest.raises(InsufficientBudgetError):
            run_uniform_fb(Oracle(inst, seed=0), 5, OfflineSolver("exact"))

    def test_n1(self):
        report = run_uniform_fb(Oracle(Instance(1, []), seed=0), 0, OfflineSolver("exact"))
        assert list(report.clustering) == [0]
        assert report.queries_used == 0

    def test_kwik_restarts_without_rng(self):
        # The pivot loop draws a default generator for each restart.
        inst = generate(GeneratorSpec("planted", n=8, k=3, seed=2))
        report = run_uniform_fb(
            Oracle(inst, seed=0), 10 * inst.m, OfflineSolver("kwik_restarts", restarts=5)
        )
        assert report.clustering.shape == (8,) and report.clustering.min() >= 0

    def test_error_bound_reference(self):
        assert uniform_fb_error_bound(1.0, 10, 0, 0.5) == 1.0
        small = uniform_fb_error_bound(1.0, 10, 10**4, 0.5)
        assert 0.0 < small < 1e-3
        assert uniform_fb_error_bound(1.0, 10, 10**5, 0.5) < small

    def test_error_bound_past_the_float_range_is_the_limit(self):
        # 2.0 * 10**400 raised OverflowError.
        assert uniform_fb_error_bound(1.0, 10, 10**400, 0.5) == 0.0


class TestEstimates:
    """The uniform reports carry the run's estimates, which MC replays hand
    to the solver again: the same floats as the empirical means."""

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", sigma=0.3)])
    def test_equal_the_empirical_means(self, noise):
        inst = generate(GeneratorSpec("planted", n=12, k=3, flip_noise=0.1, seed=5))
        solver = OfflineSolver("kwik_restarts", restarts=3)
        oracle = Oracle(inst, noise, seed=3)
        report = run_uniform_fb(oracle, 37 * inst.m + 5, solver, np.random.default_rng(0))
        assert report.estimates.tolist() == [pulled_mean(oracle, e) for e in range(inst.m)]
        oracle = Oracle(inst, noise, seed=4)
        report = run_uniform_fc(oracle, 20.0, 0.4, solver, np.random.default_rng(0))
        assert report.estimates.tolist() == [pulled_mean(oracle, e) for e in range(inst.m)]

    def test_n1_carries_no_estimate(self):
        oracle = Oracle(Instance(1, []), seed=0)
        for report in (
            run_uniform_fb(oracle, 0, OfflineSolver("kwik_restarts")),
            run_uniform_fc(oracle, 0.5, 0.1, OfflineSolver("kwik_restarts")),
        ):
            assert report.estimates.shape == (0,)
        assert oracle.total_pulls == 0
