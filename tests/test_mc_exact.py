"""The CSV's Monte-Carlo expected cost against its exact value.

Each trial's ``mc_expected_cost`` estimates, over fresh pivot orders, the
expected cost of pivot clustering under a join rule that the trial fixes:
``kcfc``'s good mask, or a noisy algorithm's phases on the trial's reward
tape.  Each pivot is uniform among the survivors, so the expectation is

    f(S) = (1 / |S|) * sum over p in S of [cost of p's phase + f(S - C_p)],

where C_p is p's cluster and a phase costs ``1 - s`` for each pair within
C_p and ``s`` for each pair from C_p to the rest of S.  ``exact_cost``
memoises f over (survivors, state), the state being ``kcfb``'s tau, and
raises once the memo passes 10,000 entries, so that no case runs unbounded.
"""

import csv
import itertools
import math

import numpy as np
import pytest
from test_golden import CASES, INSTANCES

from noisycc import offline
from noisycc.cli import _trial_streams, build_parser, main
from noisycc.instance import (
    GeneratorSpec,
    Instance,
    generate,
    incident_pairs,
    load_instance,
    num_pairs,
    pair_endpoints,
)
from noisycc.kcfb import next_tau
from noisycc.kcfc import run_kcfc
from noisycc.oracle import NoiseModel, Oracle
from noisycc.tbhs import TbhsConfig, run_tbhs


def exact_cost(instance, phase, state):
    """E[cost] of pivot clustering whose phase with pivot p over survivors
    ``others`` + p maps ``(arms, state)`` to ``(join, next_state)``, as
    ``pivot_cluster``'s step does; and the number of memo entries."""
    n = instance.n
    sims = np.zeros((n, n))
    us, vs = pair_endpoints(n)
    sims[us, vs] = sims[vs, us] = instance.sims
    memo = {}

    def f(survivors, state):
        if not survivors:
            return 0.0
        key = (survivors, state)
        if key not in memo:
            if len(memo) >= 10_000:
                raise RuntimeError(f"exact_cost's memo passed 10,000 entries at n={n}")
            total = 0.0
            for i, p in enumerate(survivors):
                others = survivors[:i] + survivors[i + 1 :]
                arms = incident_pairs(p, np.array(others, dtype=np.int64), n)
                join, next_state = phase(arms, state)
                cluster = [p] + [v for v, j in zip(others, join) if j]
                rest = tuple(v for v, j in zip(others, join) if not j)
                within = sims[np.ix_(cluster, cluster)]
                cost = (len(cluster) ** 2 - len(cluster) - within.sum()) / 2
                cost += sims[np.ix_(cluster, rest)].sum()
                total += cost + f(rest, next_state)
            memo[key] = total / len(survivors)
        return memo[key]

    return f(tuple(range(n)), state), len(memo)


def trial_phase(args, instance, noise, trial):
    """The trial's join rule, each phase read from a fresh replay of its
    oracle, and the first state."""
    oracle_seed, pivot_rng, _ = _trial_streams(args.seed, trial)
    oracle = Oracle(instance, noise, seed=oracle_seed)
    n = instance.n
    if args.algo == "kcfc":
        report = run_kcfc(oracle, args.epsilon, args.delta, pivot_rng, args.radius_scale)
        good = report.estimates
        return lambda arms, _: (good[arms] > 0.5, None), None
    if args.algo == "kcfb":
        def phase(arms, tau):
            join = oracle.replay().pull_above(arms, tau) if len(arms) else []
            return join, next_tau(tau, len(arms) + 1, len(arms) - int(np.count_nonzero(join)))

        return phase, args.budget // instance.m

    def phase(arms, _):  # kcfc-seq
        if len(arms) == 0:
            return [], None
        config = TbhsConfig(args.epsilon / (12.0 * len(arms)), args.delta / n,
                            args.radius_scale)
        out = run_tbhs(oracle.replay(), arms.tolist(), config)
        return [e in out.good for e in arms.tolist()], None

    return phase, None


@pytest.mark.parametrize("case", [
    "kcfc-n6", "kcfc-gauss-n6", "kcfc-seq-n6", "kcfb-n6", "kcfb-n10", "kcfb-n10-r500",
    "kcfc-seq-gauss-n6", "kcfc-seq-n10-r500", "kcfc-seq-n15", "kcfb-n13", "kcfb-n15",
    "kcfb-pieces-u8",
])
def test_mc_estimate_within_four_stderr_of_exact(case, tmp_path):
    name, argv = CASES[case]
    path = tmp_path / f"{name}.json"
    out = tmp_path / "out.csv"
    assert main(["gen", *INSTANCES[name], "--out", str(path)]) == 0
    run_argv = ["run", *argv, "--instance", str(path)]
    assert main([*run_argv, "--out", str(out)]) == 0
    args = build_parser().parse_args(run_argv)
    noise = NoiseModel("gaussian", args.sigma) if args.noise == "gaussian" else NoiseModel()
    instance = load_instance(path)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == args.trials
    for trial, row in enumerate(rows):
        exact, entries = exact_cost(instance, *trial_phase(args, instance, noise, trial))
        mc, stderr = float(row["mc_expected_cost"]), float(row["mc_stderr"])
        if stderr:
            assert abs(mc - exact) <= 4 * stderr, (trial, mc, stderr, exact, entries)
        else:
            assert math.isclose(mc, exact, rel_tol=1e-9), (trial, mc, exact, entries)


@pytest.mark.parametrize("seed", range(3))
def test_exact_cost_equals_the_mean_over_pivot_orders(seed):
    # KwikCluster on s > 0.5 at n = 5: a uniform pivot among the survivors
    # is the first survivor in a uniform order of all n elements.
    n = 5
    instance = Instance(n, np.random.default_rng(seed).random(num_pairs(n)))
    exact, _ = exact_cost(instance, lambda arms, _: (instance.sims[arms] > 0.5, None), None)
    costs = []
    for order in itertools.permutations(range(n)):
        labels = np.full(n, -1)
        for p in order:
            if labels[p] < 0:
                others = np.flatnonzero(labels < 0)
                others = others[others != p]
                joins = others[instance.sims[incident_pairs(p, others, n)] > 0.5]
                labels[p] = labels[joins] = p
        costs.append(offline.cost(instance, labels))
    assert math.isclose(exact, math.fsum(costs) / len(costs), rel_tol=1e-12)


def test_kwikcluster_on_uniform_instances_within_five_opt():
    # The 20 uniform-random instances (n = 5 to 8) and replay streams of
    # the acceptance test of KwikCluster's 5-approximation: its exact
    # E[cost] is at most 5 * OPT, and 2,000 replays estimate it.
    rng = np.random.default_rng(31337)
    for i in range(20):
        spec = GeneratorSpec("uniform_random", n=5 + i % 4, seed=int(rng.integers(2**32)))
        instance = generate(spec)
        opt = offline.brute_force_opt(instance).opt_value
        exact, _ = exact_cost(instance, lambda arms, _: (instance.sims[arms] > 0.5, None), None)
        assert exact <= 5 * opt, (i, exact, opt)
        mc, stderr = offline.expected_cost_mc(
            instance, instance.sims, 2000, np.random.default_rng(i)
        )
        if stderr:
            assert abs(mc - exact) <= 4 * stderr, (i, mc, stderr, exact)
        else:
            assert math.isclose(mc, exact, rel_tol=1e-9), (i, mc, exact)
