"""Repository benchmark: drives ``noisycc run`` in-process, one job at a time.

    python3 perfbench/run.py --workload bandit-mid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The load is a closed loop: one process, no
threads, each job starts when the previous one has returned.  Jobs come
from the workload's stream (perfbench/workloads.py) in whole rounds of its
mix, until ``--seconds`` have passed and at least twenty jobs have run.
Every CSV is checked; the first round is re-run and must repeat byte for
byte.

``--trace 0`` prints the end-to-end metrics, with times in reference seconds
(perfbench/refclock.py: wall time rescaled by the host's speed, which is
sampled in this process while the jobs run).  ``--trace 1`` runs each round
untraced and traced and prints the per-layer metrics; the traced CSVs must
match the untraced ones byte for byte.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import REFERENCE_LOOP_S, ReferenceClock, WallClock
from workloads import WORKLOADS, Workload, instance_seeds
from workloads import job as workload_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
MIN_JOBS = 20
TAIL_BEYOND = 10


def import_noisycc():
    """Import the package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import noisycc
        import noisycc.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import noisycc from {SRC}: {exc}")
    if not Path(noisycc.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: noisycc resolved to {noisycc.__file__}, outside {SRC}")
    return noisycc


def set_up(workload: Workload, seed: int, where: Path):
    """Generate the workload's instances, save them and load them back."""
    noisycc = import_noisycc()
    where.mkdir(parents=True, exist_ok=True)
    p = workload.planted
    paths, loaded = [], []
    for i, inst_seed in enumerate(instance_seeds(workload, seed)):
        spec = noisycc.GeneratorSpec(
            "planted", p.n, inst_seed, p.k, p.q, p.in_mean, p.out_mean
        )
        path = where / f"instance{i}.json"
        noisycc.save_instance(noisycc.generate(spec), path)
        paths.append(path)
        loaded.append(noisycc.load_instance(path))
    return paths, loaded


def setup_probe(workload: Workload, seed: int, where: Path) -> None:
    clock = ReferenceClock()
    with clock.running():
        _, seconds = clock.measure(lambda: set_up(workload, seed, where))
    print(repr(seconds))


def measure_setup(workload: Workload, seed: int) -> list[float]:
    """Set-up time of fresh processes, in reference seconds: import,
    generate, save and load."""
    samples = []
    for k in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed),
             "--probe-dir", str(WORK / f"probe{k}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_job(noisycc, job, instance_path: Path, out_path: Path, clock: WallClock):
    """One ``noisycc run`` invocation: (exit code, seconds by ``clock``, CSV bytes)."""
    argv = ["run", *job.argv, "--instance", str(instance_path), "--out", str(out_path)]

    def call() -> int:
        try:
            return noisycc.cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing job is a failed job; keep measuring the rest
            traceback.print_exc()
            return 1

    code, elapsed = clock.measure(call)
    data = out_path.read_bytes() if out_path.exists() else b""
    out_path.unlink(missing_ok=True)
    return code, elapsed, data


ALWAYS = ("algo", "seed", "n", "m", "epsilon", "queries", "cost", "mc_expected_cost", "mc_stderr")
DELTA_ALGOS = ("kcfc", "kcfc-seq", "uniform-fc")
BUDGET_ALGOS = ("kcfb", "uniform-fb")
BOUND_ALGOS = ("kcfc", "kcfb", "uniform-fc", "uniform-fb")


def required_fields(algo: str, expect_opt: bool) -> list[str]:
    fields = list(ALWAYS)
    if algo in DELTA_ALGOS:
        fields.append("delta")
    if algo in BUDGET_ALGOS:
        fields.append("budget")
    if algo in BOUND_ALGOS:
        fields.append("bound_ref")
    if expect_opt:
        fields += ["opt", "success"]
    return fields


def row_ok(row: dict, algo: str, expect_opt: bool) -> bool:
    if row.get("algo") != algo:
        return False
    if any(not row.get(name) for name in required_fields(algo, expect_opt)):
        return False
    for name, value in row.items():
        if name in ("algo", "success") or not value:
            continue
        try:
            if not math.isfinite(float(value)):
                return False
        except (TypeError, ValueError):
            return False
    if row.get("success") not in ("", None, "true", "false"):
        return False
    if algo in BUDGET_ALGOS and float(row["queries"]) > float(row["budget"]):
        return False
    if row.get("opt") and float(row["mc_expected_cost"]) < float(row["opt"]) - 1e-9:
        return False
    return True


def check_csv(data: bytes, job, expect_opt: bool):
    """(parsed rows, number of failed trials) for one job's CSV."""
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
    except (UnicodeDecodeError, csv.Error):
        return [], job.trials
    if len(rows) != job.trials or any(None in r for r in rows):
        return [], job.trials
    return rows, sum(not row_ok(r, job.algo, expect_opt) for r in rows)


class Session:
    """Runs jobs of one workload's stream and keeps the outcome of each."""

    def __init__(self, noisycc, workload: Workload, seed: int, paths, refs, clock) -> None:
        self.noisycc = noisycc
        self.clock = clock
        self.workload = workload
        self.seed = seed
        self.paths = paths
        self.refs = refs  # reference cost per instance
        self.first: dict[int, bytes] = {}  # job index -> CSV of its first run
        self.rows: dict[int, list[dict]] = {}
        self.bad: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.completed_rows = 0
        self.out_path = WORK / "out.csv"

    def run(self, i: int) -> float:
        """Run job i, check its CSV, and return its time.

        A repeated job must reproduce its first CSV byte for byte.
        """
        job = workload_job(self.workload, self.seed, i)
        code, elapsed, data = run_job(
            self.noisycc, job, self.paths[job.instance], self.out_path, self.clock
        )
        self.attempted += job.trials
        if code != 0:
            bad = job.trials
        elif i not in self.first:
            self.first[i] = data
            self.rows[i], self.bad[i] = check_csv(data, job, self.workload.expect_opt)
            bad = self.bad[i]
        elif data != self.first[i]:
            print(f"job {i} ({job.algo}): CSV differs on re-run", file=sys.stderr)
            bad = job.trials
        else:
            bad = self.bad[i]
        self.failed += bad
        self.completed_rows += job.trials - bad
        return elapsed

    def rows_of(self, upto: int) -> list[tuple[dict, float]]:
        """CSV rows of jobs 0..upto-1 with each row's instance reference cost."""
        return [
            (row, self.refs[workload_job(self.workload, self.seed, i).instance])
            for i in range(upto)
            for row in self.rows.get(i, [])
        ]

    def digest(self, upto: int) -> str:
        h = hashlib.sha256()
        for i in range(upto):
            h.update(self.first.get(i, b""))
        return h.hexdigest()


def quality(pairs) -> tuple[float, float]:
    """(mean queries per trial, mean mc_expected_cost / reference cost)."""
    if not pairs:
        return 0.0, 0.0
    queries = statistics.fmean(float(r["queries"]) for r, _ in pairs)
    ratio = statistics.fmean(
        float(r["mc_expected_cost"]) / (float(r["opt"]) if r.get("opt") else ref)
        for r, ref in pairs
    )
    return queries, ratio


def queries_per_bound(pairs) -> float:
    vals = [
        float(r["queries"]) / float(r["bound_ref"])
        for r, _ in pairs
        if r["algo"] == "kcfc" and r.get("bound_ref")
    ]
    return statistics.fmean(vals) if vals else 0.0


def tail(times: list[float]) -> tuple[float, float]:
    """(job time with exactly TAIL_BEYOND slower jobs, its percentile)."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def min_jobs(workload: Workload) -> int:
    """Whole rounds of the mix that make at least MIN_JOBS jobs."""
    r = len(workload.mix)
    return -(-MIN_JOBS // r) * r


def end_to_end(session: Session, seconds: float, setup: list[float]) -> dict:
    """Timed rounds until ``seconds`` have passed, then one untimed re-run of
    the first round to check that outputs repeat.  Job times are in
    reference seconds (refclock.py); they are medians, over jobs or over
    rounds, so that the odd job the speed correction misses does not count."""
    size = len(session.workload.mix)
    fixed = min_jobs(session.workload)
    times: list[float] = []
    throughput: list[float] = []  # completed rows per second, one value per round
    clock = session.clock
    with clock.running():
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(times) < fixed:
            done = session.completed_rows
            batch = [session.run(len(times) + k) for k in range(size)]
            times += batch
            throughput.append((session.completed_rows - done) / sum(batch))
        wall_s = clock.wall_s
        for i in range(size):
            session.run(i)
    tail_s, tail_pct = tail(times)
    # Quality comes from a fixed prefix of the stream, so it depends on the seed alone.
    queries, ratio = quality(session.rows_of(fixed))
    print(f"setup_s samples: {[round(s, 4) for s in setup]}")
    print(f"jobs: {len(times)}; job_s.tail is p{tail_pct:.1f} "
          f"({TAIL_BEYOND} of {len(times)} jobs slower)")
    print(f"csv_digest (first {fixed} jobs): {session.digest(fixed)}")
    print(f"host speed: loop {1e6 * clock.mean_loop_s():.1f} us "
          f"(reference {1e6 * REFERENCE_LOOP_S:.0f} us); timed jobs took "
          f"{wall_s:.2f} s wall, {sum(times):.2f} reference s")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (statistics.median(throughput), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail_s, "s"),
        "queries_per_trial": (queries, "count"),
        "cost_ratio": (ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (1.0 - session.failed / max(session.attempted, 1), "share"),
    }


def per_layer(session: Session, seconds: float) -> dict:
    """Each round runs untraced and traced, in alternating order so that
    drift does not bias the overhead; the traced CSVs must match."""
    from layers import Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    size = len(session.workload.mix)
    r = 0
    start = time.perf_counter()
    while r == 0 or time.perf_counter() - start < seconds:
        batch = range(r * size, (r + 1) * size)
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    traced_s += sum(session.run(i) for i in batch)
            else:
                plain_s += sum(session.run(i) for i in batch)
        r += 1
    njobs = r * size
    print(f"jobs: {njobs} traced, {njobs} untraced; csv_digest: {session.digest(njobs)}")
    metrics = tracer.layer_metrics(njobs, traced_s, queries_per_bound(session.rows_of(njobs)))
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    return metrics


def reference_costs(noisycc, instances) -> list[float]:
    """Cost of the planted ground truth, the reference where no OPT is computed."""
    return [noisycc.cost(inst, inst.ground_truth) for inst in instances]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed, args.probe_dir)
        return 0

    noisycc = import_noisycc()
    import numpy

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        setup = [] if args.trace else measure_setup(workload, args.seed)
        paths, instances = set_up(workload, args.seed, WORK / "instances")
        clock = WallClock() if args.trace else ReferenceClock()
        session = Session(
            noisycc, workload, args.seed, paths, reference_costs(noisycc, instances), clock
        )
        print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
              f"nproc {os.cpu_count()}, {platform.machine()}; workload {workload.name}, "
              f"seed {args.seed}")
        if args.trace:
            metrics = per_layer(session, args.seconds)
        else:
            metrics = end_to_end(session, args.seconds, setup)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
