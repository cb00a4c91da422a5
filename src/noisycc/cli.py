"""Experiment harness: generate instances, run any algorithm across seeded
trials, compare against the exact optimum (subset DP, n <= 13) and the
theoretical bounds, and emit one CSV row per trial.

Identical command lines produce byte-identical output.  Wall-clock timing is
therefore opt-in (``--timing``); without it the wall_ms column stays empty.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, offline
from .errors import NoisyccError
from .instance import GeneratorSpec, Instance, generate, load_instance, to_json
from .kcfb import run_kcfb
from .kcfc import run_kcfc, run_kcfc_sequential
from .offline import EXACT_MAX_N, brute_force_opt, expected_cost_mc
from .oracle import NoiseModel, Oracle
from .uniform import (
    OfflineSolver,
    run_uniform_fb,
    run_uniform_fc,
    uniform_fb_error_bound,
    uniform_fc_pulls,
)

ALGOS = ("kcfc", "kcfc-seq", "kcfb", "uniform-fc", "uniform-fb")


@dataclass
class RunRecord:
    algo: str
    seed: int
    n: int
    m: int
    epsilon: float | None = None
    delta: float | None = None
    budget: int | None = None
    queries: int | None = None
    cost: float | None = None
    mc_expected_cost: float | None = None
    mc_stderr: float | None = None
    opt: float | None = None
    success: bool | None = None
    bound_ref: float | None = None
    wall_ms: float | None = None

    def to_csv_row(self) -> str:
        return ",".join(_fmt(getattr(self, f.name)) for f in fields(self))


CSV_COLUMNS = ",".join(f.name for f in fields(RunRecord))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _trial_streams(base_seed: int, trial: int):
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(trial,))
    oracle_ss, pivot_ss, replay_ss = ss.spawn(3)
    oracle_seed = int(oracle_ss.generate_state(1, np.uint64)[0])
    return oracle_seed, np.random.default_rng(pivot_ss), replay_ss


def _mc_expected_cost(
    algo: str,
    instance: Instance,
    oracle: Oracle,
    report,
    run,
    solver: OfflineSolver,
    replay_ss: np.random.SeedSequence,
    replays: int,
) -> tuple[float, float]:
    rng = np.random.default_rng(replay_ss)
    if algo == "kcfc":
        return expected_cost_mc(instance, report.good_mask, replays, rng)
    if algo in ("kcfc-seq", "kcfb"):
        def draw():
            return run(oracle.replay(), rng).clustering
    elif solver.kind == "exact":
        # Uniform baselines: the estimate is fixed, only the solver may be random.
        return offline.cost(instance, report.clustering), 0.0
    else:
        shat = np.array([oracle.empirical_mean(e) for e in range(instance.m)])

        def draw():
            return solver.solve(shat, instance.n, rng)
    return offline.mean_cost(instance, draw, replays)


def _bound_ref(algo: str, instance: Instance, args, solver: OfflineSolver) -> float | None:
    m = instance.m
    try:
        if algo == "kcfc":
            return analysis.fc_sample_bound(instance, args.epsilon / (12.0 * m), args.delta)
        if algo == "kcfb":
            return analysis.fb_error_bound(instance, args.budget, args.epsilon)
        if algo == "uniform-fc":
            return float(m * uniform_fc_pulls(solver.alpha, m, args.epsilon, args.delta))
        if algo == "uniform-fb":
            return uniform_fb_error_bound(solver.alpha, m, args.budget // m, args.epsilon)
    except (NoisyccError, ZeroDivisionError):
        return None
    return None


def _run_trial(
    algo: str,
    instance: Instance,
    args,
    trial: int,
    opt_value: float | None,
    bound_ref: float | None,
    solver: OfflineSolver,
    noise: NoiseModel,
) -> RunRecord:
    oracle_seed, pivot_rng, replay_ss = _trial_streams(args.seed, trial)
    record = RunRecord(
        algo=algo,
        seed=oracle_seed,
        n=instance.n,
        m=instance.m,
        epsilon=args.epsilon,
        delta=args.delta if algo in ("kcfc", "kcfc-seq", "uniform-fc") else None,
        budget=args.budget if algo in ("kcfb", "uniform-fb") else None,
        opt=opt_value,
        bound_ref=bound_ref,
    )
    eps, delta, budget, scale = args.epsilon, args.delta, args.budget, args.radius_scale
    run = {
        "kcfc": lambda o, rng: run_kcfc(o, eps, delta, rng, scale),
        "kcfc-seq": lambda o, rng: run_kcfc_sequential(o, eps, delta, rng, scale),
        "kcfb": lambda o, rng: run_kcfb(o, budget, rng),
        "uniform-fc": lambda o, rng: run_uniform_fc(o, eps, delta, solver, rng),
        "uniform-fb": lambda o, rng: run_uniform_fb(o, budget, solver, rng),
    }[algo]
    oracle = Oracle(instance, noise, seed=oracle_seed)
    start = time.perf_counter()
    report = run(oracle, pivot_rng)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    record.queries = report.queries if hasattr(report, "queries") else report.queries_used
    record.cost = offline.cost(instance, report.clustering)
    mc_mean, mc_stderr = _mc_expected_cost(
        algo, instance, oracle, report, run, solver, replay_ss, args.mc_replays
    )
    record.mc_expected_cost = mc_mean
    record.mc_stderr = mc_stderr
    if opt_value is not None:
        record.success = analysis.success_check(mc_mean, opt_value, args.epsilon, 5.0)
    if args.timing:
        record.wall_ms = elapsed_ms
    return record


def cmd_gen(args, parser: argparse.ArgumentParser) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        k=args.k,
        flip_noise=args.q,
        in_mean=args.in_mean,
        out_mean=args.out_mean,
        lo=args.lo,
        hi=args.hi,
    )
    try:
        instance = generate(spec)
    except NoisyccError as exc:
        parser.error(str(exc))
    text = to_json(instance)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args, parser: argparse.ArgumentParser) -> int:
    try:
        instance = load_instance(args.instance)
    except (NoisyccError, OSError, ValueError) as exc:
        parser.error(f"cannot load instance: {exc}")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.mc_replays < 1:
        parser.error("--mc-replays must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    algo = args.algo
    if algo in ("kcfc", "kcfc-seq", "uniform-fc") and args.delta is None:
        parser.error(f"{algo} requires --delta")
    if args.epsilon is None:
        parser.error(f"{algo} requires --epsilon")
    if not 0 < args.epsilon < math.inf:
        parser.error("--epsilon must be positive and finite")
    if algo in ("kcfb", "uniform-fb") and args.budget is None:
        parser.error(f"{algo} requires --budget")
    try:
        solver = OfflineSolver(kind=args.solver, restarts=args.restarts)
        noise = NoiseModel("gaussian", args.sigma) if args.noise == "gaussian" else NoiseModel()
    except NoisyccError as exc:
        parser.error(str(exc))

    opt_value = None
    if instance.n <= EXACT_MAX_N:
        opt_value = brute_force_opt(instance).opt_value
    bound = _bound_ref(algo, instance, args, solver)
    records = []
    for trial in range(args.trials):
        try:
            record = _run_trial(algo, instance, args, trial, opt_value, bound, solver, noise)
        except NoisyccError as exc:
            parser.error(f"trial {trial} ({algo}): {exc}")
        records.append(record)

    lines = [CSV_COLUMNS] + [r.to_csv_row() for r in records]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _analysis_lines(instance: Instance, eps: float, delta: float, budget: int) -> list[str]:
    out = []
    out.append(f"n: {instance.n}")
    out.append(f"m: {instance.m}")
    profile = analysis.gaps(instance)
    out.append(f"delta_min: {_fmt(profile.delta_min)}")
    out.append(f"m_g: {profile.m_g}")
    if instance.m == 0:
        out.append("note: no pairs; gap analysis is empty")
        return out
    if 0.0 < eps < 0.5:
        bands = analysis.epsilon_bands(instance, eps)
        out.append(f"band_size: {len(bands.band)}")
        out.append(f"above_size: {len(bands.above)}")
        out.append(f"below_size: {len(bands.below)}")
        tg = analysis.tilde_gaps(instance, eps)
        if instance.m <= 28:
            out.append("tilde_gaps: [" + ", ".join(repr(float(x)) for x in tg) + "]")
        else:
            out.append(f"tilde_gaps_min: {float(tg.min())!r}")
            out.append(f"tilde_gaps_mean: {float(tg.mean())!r}")
            out.append(f"tilde_gaps_max: {float(tg.max())!r}")
        out.append(f"fc_sample_bound: {analysis.fc_sample_bound(instance, eps, delta)!r}")
    else:
        out.append("band_size: n/a (epsilon not in (0, 0.5))")
    eps_prime = eps / (12.0 * instance.m)
    if 0.0 < eps_prime < 0.5:
        out.append(f"epsilon_prime: {eps_prime!r}")
        out.append(
            "fc_sample_bound_eps_prime: "
            f"{analysis.fc_sample_bound(instance, eps_prime, delta)!r}"
        )
    out.append(f"fb_min_gap: {analysis.fb_min_gap(instance, eps)!r}")
    out.append(f"fb_error_bound: {analysis.fb_error_bound(instance, budget, eps)!r}")
    return out


def cmd_analyze(args, parser: argparse.ArgumentParser) -> int:
    try:
        instance = load_instance(args.instance)
    except (NoisyccError, OSError, ValueError) as exc:
        parser.error(f"cannot load instance: {exc}")
    if not 0 < args.epsilon < math.inf:
        parser.error("--epsilon must be positive and finite")
    try:
        out = _analysis_lines(instance, args.epsilon, args.delta, args.budget)
    except NoisyccError as exc:
        parser.error(str(exc))
    print("\n".join(out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisycc",
        description="Query-efficient correlation clustering with noisy similarity oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance file")
    gen.add_argument("--kind", required=True, choices=("planted", "uniform_random"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=None, help="cluster count (planted)")
    gen.add_argument("--q", type=float, default=0.0, help="flip noise (planted)")
    gen.add_argument("--in-mean", type=float, default=0.9, dest="in_mean")
    gen.add_argument("--out-mean", type=float, default=0.1, dest="out_mean")
    gen.add_argument("--lo", type=float, default=0.0, help="range low (uniform_random)")
    gen.add_argument("--hi", type=float, default=1.0, help="range high (uniform_random)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output path (default: stdout)")

    run = sub.add_parser("run", help="run an algorithm over seeded trials, emit CSV")
    run.add_argument("--algo", required=True, choices=ALGOS)
    run.add_argument("--instance", required=True, help="instance JSON path")
    run.add_argument("--epsilon", type=float, default=None)
    run.add_argument("--delta", type=float, default=None)
    run.add_argument("--budget", type=int, default=None)
    run.add_argument("--seed", type=int, default=0, help="base seed; trials derive substreams")
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--mc-replays", type=int, default=500, dest="mc_replays")
    run.add_argument("--solver", choices=("exact", "kwik_restarts"), default="exact")
    run.add_argument("--restarts", type=int, default=50)
    run.add_argument("--noise", choices=("bernoulli", "gaussian"), default="bernoulli")
    run.add_argument("--sigma", type=float, default=0.1)
    run.add_argument("--radius-scale", type=float, default=1.0, dest="radius_scale")
    run.add_argument(
        "--workers", type=int, default=1,
        help="accepted (>= 1) but has no effect: trials run serially; kept so "
        "existing command lines still parse",
    )
    run.add_argument("--timing", action="store_true", help="fill wall_ms (non-deterministic)")
    run.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    ana = sub.add_parser("analyze", help="print gaps and theoretical bounds")
    ana.add_argument("--instance", required=True)
    ana.add_argument("--epsilon", type=float, default=0.2)
    ana.add_argument("--delta", type=float, default=0.1)
    ana.add_argument("--budget", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        return cmd_gen(args, parser)
    if args.command == "run":
        return cmd_run(args, parser)
    return cmd_analyze(args, parser)


if __name__ == "__main__":
    sys.exit(main())
