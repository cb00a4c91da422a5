"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them as they complete).

Every tolerance is pinned here; nothing is deferred to later calibration.
Probabilistic criteria use fixed seeds, so reruns are deterministic.
"""

import math
import time

import numpy as np
import pytest

from noisycc import (
    GeneratorSpec,
    Instance,
    Oracle,
    TbhsConfig,
    brute_force_opt,
    containment_check,
    cost,
    expected_cost_mc,
    fb_error_bound,
    fc_sample_bound,
    fb_min_gap,
    generate,
    next_tau,
    num_pairs,
    pair_index,
    radius,
    run_kcfb,
    run_kcfc,
    run_kcfc_sequential,
    run_tbhs,
    tilde_gaps,
    uniform_fc_pulls,
)
from noisycc.cli import main as cli_main

REL_TOL = 1e-9


def report(num, ok, detail):
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def relclose(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def test_c01_tbhs_partition_and_containment():
    start = time.perf_counter()
    sims = [0.9, 0.8, 0.7, 0.6, 0.6, 0.4, 0.4, 0.3, 0.2, 0.1]  # all gaps >= 0.1
    inst = Instance(5, sims)
    config = TbhsConfig(epsilon=0.05, delta=0.05)
    arms = frozenset(range(10))
    partitions = 0
    contained = 0
    runs = 200
    for seed in range(runs):
        out = run_tbhs(Oracle(inst, seed=seed), arms, config, max_pulls=10**8)
        if out.good | out.bad == arms and not (out.good & out.bad):
            partitions += 1
        if containment_check(out, inst, 0.05):
            contained += 1
    elapsed = time.perf_counter() - start
    ok = partitions == runs and contained >= 0.93 * runs and elapsed < 120
    report(
        1,
        ok,
        f"partition {partitions}/{runs}, containment {contained}/{runs} "
        f"(need >= {int(0.93 * runs)}), {elapsed:.1f}s",
    )


def test_c02_hoeffding_anytime_coverage():
    start = time.perf_counter()
    inst = Instance(2, [0.7])
    delta = 0.1
    runs, horizon = 500, 500
    ks = np.arange(1, horizon + 1)
    rads = np.array([radius(1, int(k), delta) for k in ks])
    covered = 0
    for seed in range(runs):
        rewards = Oracle(inst, seed=seed).pull_many(0, horizon)
        means = np.cumsum(rewards) / ks
        if np.all(np.abs(means - 0.7) < rads):
            covered += 1
    elapsed = time.perf_counter() - start
    ok = covered >= (1 - delta) * runs and elapsed < 60
    report(2, ok, f"anytime coverage {covered}/{runs} (need >= {int((1-delta)*runs)}), {elapsed:.1f}s")


def _criterion3_runs():
    inst = generate(GeneratorSpec("planted", n=8, k=2, flip_noise=0.1, seed=2024))
    assert float(np.abs(inst.sims - 0.5).min()) >= 0.1
    opt = brute_force_opt(inst).opt_value
    epsilon, delta = 1.0, 0.1
    results = []
    for seed in range(50):
        oracle = Oracle(inst, seed=seed)
        rep = run_kcfc(oracle, epsilon, delta, np.random.default_rng(seed))
        mc, stderr = expected_cost_mc(
            inst, rep.good_mask, 500, np.random.default_rng(10_000 + seed)
        )
        results.append((rep.queries, mc, stderr))
    return inst, opt, epsilon, delta, results


@pytest.fixture(scope="module")
def criterion3():
    return _criterion3_runs()


def test_c03_fixed_confidence_cost_guarantee(criterion3):
    start = time.perf_counter()
    _, opt, epsilon, _, results = criterion3
    good = sum(1 for _, mc, stderr in results if mc <= 5 * opt + epsilon + 3 * stderr)
    elapsed = time.perf_counter() - start
    ok = good >= 0.84 * len(results) and elapsed < 600
    report(
        3,
        ok,
        f"cost guarantee held in {good}/{len(results)} runs "
        f"(need >= {int(0.84 * len(results))}), opt={opt:.3f}, {elapsed:.1f}s",
    )


def test_c04_sample_complexity_direction(criterion3):
    inst, _, epsilon, delta, results = criterion3
    m = inst.m
    mean_queries = float(np.mean([q for q, _, _ in results]))
    theory = fc_sample_bound(inst, epsilon / (12.0 * m), delta)
    uniform_total = m * uniform_fc_pulls(5.0, m, epsilon, delta)
    ok = mean_queries <= theory and mean_queries < uniform_total
    report(
        4,
        ok,
        f"mean queries {mean_queries:.0f} <= bound {theory:.3e} "
        f"and < uniform total {uniform_total}",
    )


def test_c05_fixed_budget_never_exceeds():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    violations = 0
    runs = 1000
    for _ in range(runs):
        n = int(rng.integers(2, 11))
        m = num_pairs(n)
        inst = Instance(n, rng.random(m))
        budget = int(rng.integers(m, 50 * m + 1))
        oracle = Oracle(inst, seed=int(rng.integers(2**63)))
        rep = run_kcfb(oracle, budget, np.random.default_rng(int(rng.integers(2**63))))
        if rep.queries_used > budget or oracle.total_pulls > budget:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120
    report(5, ok, f"budget violations {violations}/{runs}, {elapsed:.1f}s")


def test_c06_fixed_budget_monotone_success():
    start = time.perf_counter()
    # Two planted 4-cliques at 0.9/0.1 with one weak intra pair at 0.6,
    # so the minimum threshold gap is exactly 0.1.
    n = 8
    labels = [0, 0, 0, 0, 1, 1, 1, 1]
    sims = np.empty(num_pairs(n))
    for u in range(n):
        for v in range(u + 1, n):
            sims[pair_index(u, v, n)] = 0.9 if labels[u] == labels[v] else 0.1
    sims[pair_index(0, 1, n)] = 0.6
    inst = Instance(n, sims)
    assert float(np.abs(inst.sims - 0.5).min()) == pytest.approx(0.1)
    m = inst.m
    epsilon = 0.5
    opt = brute_force_opt(inst).opt_value
    trials, replays = 200, 200

    def failure_rate(budget):
        failures = 0
        for seed in range(trials):
            oracle = Oracle(inst, seed=seed)
            run_kcfb(oracle, budget, np.random.default_rng(seed))
            rng = np.random.default_rng(50_000 + seed)
            costs = np.empty(replays)
            for i in range(replays):
                rep = run_kcfb(oracle.replay(), budget, rng)
                costs[i] = cost(inst, rep.clustering)
            if costs.mean() > 5 * opt + epsilon:
                failures += 1
        return failures / trials

    budgets = [10 * m, 100 * m, 1000 * m]
    rates = [failure_rate(t) for t in budgets]
    bound = fb_error_bound(inst, budgets[-1], epsilon)
    monotone = all(a >= b for a, b in zip(rates, rates[1:]))
    ok = monotone
    detail = f"failure rates {rates} at T={budgets}"
    if bound < 1.0:
        slack = 3 * math.sqrt(bound * (1 - bound) / trials)
        ok = ok and rates[-1] <= bound + slack
        detail += f", bound {bound:.4f}+3sigma {slack:.4f}"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600
    report(6, ok, detail + f", {elapsed:.1f}s")


def test_c07_pivot_clustering_five_approximation():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(31337)
    for i in range(20):
        n = 5 + i % 4
        inst = generate(GeneratorSpec("uniform_random", n=n, seed=int(rng.integers(2**32))))
        opt = brute_force_opt(inst).opt_value
        mean, stderr = expected_cost_mc(
            inst, inst.sims, 2000, np.random.default_rng(i)
        )
        if mean > 5 * opt + 3 * stderr:
            failures.append((i, mean, opt, stderr))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300
    report(7, ok, f"5-approximation held on 20/20 instances ({failures=}), {elapsed:.1f}s")


def test_c08_closed_form_reference_values():
    checks = []
    # radius: frozen high-precision evaluations.
    checks.append(relclose(radius(6, 1, 0.1), 1.6553910298388703217))
    checks.append(relclose(radius(1, 1, 4.0 / math.e**2), 1.0))
    checks.append(radius(3, 7, 0.2) > radius(3, 7, 0.4))
    # uniform_fc_pulls: raw value 12409.17859729106 ceils to 12410.
    checks.append(uniform_fc_pulls(5, 6, 0.5, 0.1) == 12410)
    checks.append(uniform_fc_pulls(1, 10, 2.0, 0.3) == 210)
    # tilde_gaps on sims [0.9, 0.1, 0.55] at eps=0.2.
    tg = tilde_gaps(Instance(3, [0.9, 0.1, 0.55]), 0.2)
    for got, want in zip(tg, [0.5, 0.5, 0.15]):
        checks.append(relclose(float(got), want))
    # fb_min_gap.
    checks.append(relclose(fb_min_gap(Instance(3, [0.9, 0.1, 0.55]), 0.12), 0.05))
    checks.append(relclose(fb_min_gap(Instance(3, [0.5, 0.5, 0.5]), 0.3), 1.0 / 60.0))
    checks.append(relclose(fb_min_gap(Instance(2, [0.9]), 0.12), 0.4))
    # fb_error_bound: T=0 is vacuous; frozen value at T=1e4, gap 0.05, n=3.
    three = Instance(3, [0.9, 0.1, 0.55])
    checks.append(fb_error_bound(three, 0, 0.12) == 1.0)
    checks.append(relclose(fb_error_bound(three, 10**4, 0.12), 0.20875968753153156425))
    checks.append(fb_error_bound(three, 2 * 10**4, 0.12) < fb_error_bound(three, 10**4, 0.12))
    # next_tau: integer identities.
    checks.append(next_tau(10, 4, 2) == 30)
    checks.append(next_tau(7, 5, 4) == 7)
    checks.append(next_tau(10, 4, 1) == 10)
    ok = all(checks)
    report(8, ok, f"{sum(checks)}/{len(checks)} closed-form values match at rel tol 1e-9")


def test_c09_cli_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    cli_main([
        "gen", "--kind", "planted", "--n", "6", "--k", "2", "--q", "0.1",
        "--seed", "3", "--out", str(inst_path),
    ])
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cli_main([
            "run", "--algo", "kcfc", "--instance", str(inst_path),
            "--epsilon", "1.0", "--delta", "0.1", "--trials", "5",
            "--mc-replays", "100", "--seed", "42", "--out", str(out),
        ])
        outputs.append(out.read_bytes())
    fb_outputs = []
    for name in ("c.csv", "d.csv"):
        out = tmp_path / name
        cli_main([
            "run", "--algo", "kcfb", "--instance", str(inst_path),
            "--epsilon", "0.5", "--budget", "300", "--trials", "5",
            "--mc-replays", "50", "--seed", "42", "--out", str(out),
        ])
        fb_outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and fb_outputs[0] == fb_outputs[1]
    report(9, ok, "repeated cmd_run invocations are byte-identical")


def test_c10_sequential_variant_queries_fewer_pairs():
    start = time.perf_counter()
    inst = generate(GeneratorSpec("planted", n=6, k=2, in_mean=1.0, out_mean=0.0))
    strictly_fewer = 0
    runs = 50
    for seed in range(runs):
        o_full = Oracle(inst, seed=seed)
        run_kcfc(o_full, 1.0, 0.1, np.random.default_rng(seed))
        o_seq = Oracle(inst, seed=seed)
        run_kcfc_sequential(o_seq, 1.0, 0.1, np.random.default_rng(seed))
        full_pairs = int((o_full.pulls_report()[1] > 0).sum())
        seq_pairs = int((o_seq.pulls_report()[1] > 0).sum())
        if seq_pairs < full_pairs:
            strictly_fewer += 1
    elapsed = time.perf_counter() - start
    ok = strictly_fewer == runs
    report(10, ok, f"sequential queried strictly fewer pairs in {strictly_fewer}/{runs} runs, {elapsed:.1f}s")
