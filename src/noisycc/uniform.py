"""Uniform-sampling baselines: pull every pair equally often, then hand the
estimated instance to an offline solver.

The fixed-confidence variant chooses the per-pair pull count so that, with
probability at least ``1 - delta``, every empirical mean is within
``epsilon / ((alpha + 1) m)`` of the truth, which turns any offline
alpha-approximation into an ``(alpha, epsilon)``-approximation.  The
fixed-budget variant simply spends ``floor(T / m)`` pulls per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError, InsufficientBudgetError, ParameterError
from .instance import num_pairs
from .kcfb import FbReport
from .kcfc import FcReport
from .offline import EXACT_MAX_N, kwikcluster, min_cost_partition, pairwise_cost
from .oracle import Oracle


@dataclass(frozen=True)
class OfflineSolver:
    """Offline solver for an estimated instance.

    kind "exact": optimum by subset DP, see ``min_cost_partition`` (alpha = 1, n <= 13).
    kind "kwik_restarts": best of ``restarts`` random-pivot runs (alpha = 5).
    """

    kind: str = "exact"
    restarts: int = 50

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "kwik_restarts"):
            raise ParameterError(f"unknown solver kind {self.kind!r}")
        if self.kind == "kwik_restarts" and self.restarts < 1:
            raise ParameterError("restarts must be >= 1")

    @property
    def alpha(self) -> float:
        return 1.0 if self.kind == "exact" else 5.0

    def solve(self, shat: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "exact":
            return min_cost_partition(shat, n).witness
        best_labels = None
        best_value = np.inf
        for _ in range(self.restarts):
            labels = kwikcluster(shat, n, rng)
            value = pairwise_cost(shat, labels)
            if value < best_value:
                best_value = value
                best_labels = labels
        return best_labels


def uniform_fc_pulls_exact(alpha: float, m: int, epsilon: float, delta: float) -> float:
    """Pre-ceiling per-pair pull count: (alpha+1)^2 m^2 / (2 eps^2) * ln(2m/delta)."""
    if alpha < 1 or m < 1 or not epsilon > 0 or not (0 < delta < 1):
        raise ParameterError("need alpha >= 1, m >= 1, epsilon > 0, delta in (0, 1)")
    return (alpha + 1.0) ** 2 * m * m / (2.0 * epsilon * epsilon) * math.log(2.0 * m / delta)


def uniform_fc_pulls(alpha: float, m: int, epsilon: float, delta: float) -> int:
    return math.ceil(uniform_fc_pulls_exact(alpha, m, epsilon, delta))


def uniform_fb_error_bound(alpha: float, m: int, pulls_per_pair: int, epsilon: float) -> float:
    """Union-bound failure probability of the fixed-budget baseline, clamped to 1."""
    if m < 1 or pulls_per_pair < 0 or not epsilon > 0:
        raise ParameterError("need m >= 1, pulls_per_pair >= 0, epsilon > 0")
    exponent = -2.0 * pulls_per_pair * epsilon * epsilon / ((alpha + 1.0) ** 2 * m * m)
    return min(1.0, 2.0 * m * math.exp(exponent))


def _check_solver_fits(solver: OfflineSolver, n: int) -> None:
    if solver.kind == "exact" and n > EXACT_MAX_N:
        raise InstanceTooLargeError(
            f"exact solver supports n <= {EXACT_MAX_N}, got n={n}"
        )


def run_uniform_fc(
    oracle: Oracle,
    epsilon: float,
    delta: float,
    solver: OfflineSolver,
    rng: np.random.Generator | None = None,
) -> FcReport:
    """The fixed-budget baseline at the budget of ``uniform_fc_pulls`` per pair."""
    m = oracle.instance.m
    per_pair = uniform_fc_pulls(solver.alpha, m, epsilon, delta) if m else 0
    report = run_uniform_fb(oracle, m * per_pair, solver, rng)
    return FcReport(report.clustering, report.queries_used, epsilon, delta, None, None)


def run_uniform_fb(
    oracle: Oracle,
    budget: int,
    solver: OfflineSolver,
    rng: np.random.Generator | None = None,
) -> FbReport:
    n = oracle.instance.n
    _check_solver_fits(solver, n)
    m = num_pairs(n)
    if budget < m:
        raise InsufficientBudgetError(f"budget {budget} < m = {m}: every pair needs one pull")
    if rng is None:
        rng = np.random.default_rng()
    if n == 1:
        return FbReport(np.zeros(1, dtype=np.int64), budget, 0, 1, [0])
    per_pair = budget // m
    shat = oracle.pull_means(range(m), per_pair)
    labels = solver.solve(shat, n, rng)
    return FbReport(labels, budget, m * per_pair, 1, [per_pair])
