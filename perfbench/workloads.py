"""The benchmark's workloads: which instances to generate and which
``noisycc run`` jobs to send, all derived from the workload seed.

Jobs form an endless stream: round after round of the workload's mix, over
a few instances, each job with its own ``--seed``.  Every job runs with
``--workers 1``: the thread pool is GIL-bound and makes runs slower.
``--solver kwik_restarts`` is forced wherever n > 13, because the default
exact solver rejects every algorithm above that size, including the ones
that never call a solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Each of the first seven rounds (the 21 jobs the quality metrics read) gets
# its own instance; later rounds cycle over them.
INSTANCES = 7


@dataclass(frozen=True)
class Planted:
    n: int
    k: int
    in_mean: float
    out_mean: float
    q: float = 0.1


@dataclass(frozen=True)
class JobKind:
    algo: str
    args: tuple[str, ...]
    trials: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    planted: Planted
    # One round of jobs; a kind listed twice is sent twice as often.  Each
    # mix gives one kind a two-thirds majority so that job-time percentiles
    # fall inside one mode rather than on the edge between two.
    mix: tuple[JobKind, ...]
    forced: tuple[str, ...]
    expect_opt: bool  # whether the CSV must carry opt/success (n <= 13)


def _budget(n: int) -> str:
    return str(100 * (n * (n - 1) // 2))


def _bandit_mid() -> Workload:
    fc = ("--epsilon", "1.0", "--delta", "0.1")
    seq = JobKind("kcfc-seq", fc + ("--mc-replays", "10"))
    return Workload(
        name="bandit-mid",
        planted=Planted(n=30, k=4, in_mean=0.7, out_mean=0.3),
        mix=(JobKind("kcfc", fc + ("--mc-replays", "100")), seq, seq),
        forced=("--solver", "kwik_restarts", "--workers", "1"),
        expect_opt=False,
    )


def _exact_small() -> Workload:
    budget = _budget(10)
    return Workload(
        name="exact-small",
        planted=Planted(n=10, k=3, in_mean=0.9, out_mean=0.1),
        mix=(
            JobKind("kcfb", ("--epsilon", "1.0", "--budget", budget, "--mc-replays", "100"), trials=5),
            JobKind("uniform-fb", ("--epsilon", "1.0", "--budget", budget)),
            JobKind("uniform-fc", ("--epsilon", "1.0", "--delta", "0.1")),
        ),
        forced=("--workers", "1"),
        expect_opt=True,
    )


def _pivot_large() -> Workload:
    budget = _budget(120)
    kcfb = JobKind("kcfb", ("--epsilon", "1.0", "--budget", budget, "--mc-replays", "100"))
    return Workload(
        name="pivot-large",
        planted=Planted(n=120, k=4, in_mean=0.9, out_mean=0.1),
        mix=(
            kcfb,
            kcfb,
            JobKind("uniform-fb", ("--epsilon", "1.0", "--budget", budget, "--mc-replays", "20")),
        ),
        forced=("--solver", "kwik_restarts", "--workers", "1"),
        expect_opt=False,
    )


WORKLOADS = {w.name: w for w in (_bandit_mid(), _exact_small(), _pivot_large())}


@dataclass(frozen=True)
class Job:
    algo: str
    instance: int  # index into the workload's instances
    trials: int
    argv: tuple[str, ...]  # everything after "run" except --instance and --out


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    rnd = random.Random(f"{workload.name}/instances/{seed}")
    return [rnd.getrandbits(63) for _ in range(INSTANCES)]


def job(workload: Workload, seed: int, i: int) -> Job:
    """Job i of the workload's endless job stream.

    Rounds of the mix cycle over the instances; every job draws its own
    ``--seed`` from the workload seed and its position.
    """
    kind = workload.mix[i % len(workload.mix)]
    instance = (i // len(workload.mix)) % INSTANCES
    job_seed = random.Random(f"{workload.name}/jobs/{seed}/{i}").getrandbits(63)
    argv = (
        ("--algo", kind.algo, "--seed", str(job_seed), "--trials", str(kind.trials))
        + kind.args
        + workload.forced
    )
    return Job(kind.algo, instance, kind.trials, argv)
