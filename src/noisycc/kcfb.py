"""Fixed-budget clustering.

Proceeds in pivot phases.  Phase ``r`` pulls every pair between the pivot
and the surviving elements exactly ``tau_r`` times and clusters the pivot
with elements whose empirical mean strictly exceeds 0.5.  The per-pair
allocation starts at ``floor(T / m)``; when a phase removes pairs that were
never queried, their pre-allocated pulls are redistributed evenly over the
remaining pairs, rounding down.  The rounding keeps the total number of
queries at or below ``T`` on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientBudgetError, ParameterError
from .instance import incident_pairs, num_pairs
from .offline import pivot_cluster
from .oracle import Oracle


@dataclass
class FbReport:
    clustering: np.ndarray
    budget: int
    queries_used: int
    phases: int
    tau_schedule: list[int] = field(default_factory=list)


def next_tau(tau_r: int, v_r: int, v_r1: int) -> int:
    """Per-pair allocation for the next phase after the survivor set shrinks
    from ``v_r`` to ``v_r1`` elements.

    The surplus is the allocation of pairs removed without being queried:
    ``tau_r * (C(v_r,2) - C(v_r1,2) - (v_r - 1))``, spread over the
    ``C(v_r1,2)`` surviving pairs.  With fewer than two survivors there is
    nothing left to allocate and tau is returned unchanged.
    """
    if v_r < 1 or not (0 <= v_r1 < v_r):
        raise ParameterError(f"need 0 <= v_r1 < v_r with v_r >= 1, got ({v_r}, {v_r1})")
    remaining_pairs = math.comb(v_r1, 2)
    if remaining_pairs == 0:
        return tau_r
    surplus_pairs = math.comb(v_r, 2) - remaining_pairs - (v_r - 1)
    return tau_r + (tau_r * surplus_pairs) // remaining_pairs


def run_kcfb(
    oracle: Oracle,
    budget: int,
    rng: np.random.Generator | None = None,
) -> FbReport:
    """Cluster with at most ``budget`` oracle queries."""
    n = oracle.instance.n
    m = num_pairs(n)
    if budget < m:
        raise InsufficientBudgetError(f"budget {budget} < m = {m}: every pair needs one pull")
    if rng is None:
        rng = np.random.default_rng()
    tau = budget // m if m > 0 else 0
    used = 0
    schedule: list[int] = []

    def decide(p: int, others: np.ndarray) -> np.ndarray:
        nonlocal tau, used
        v_r = len(others) + 1
        # Redistribution never over-commits the remaining budget.
        assert tau * math.comb(v_r, 2) <= budget - used
        schedule.append(tau)
        arms = incident_pairs(p, others, n).tolist()
        # The last survivor has no pair to pull (and tau is 0 when n = 1).
        join = oracle.pull_means(arms, tau) > 0.5 if arms else np.zeros(0, dtype=bool)
        used += tau * len(arms)
        tau = next_tau(tau, v_r, v_r - 1 - int(join.sum()))
        return join

    labels = pivot_cluster(n, rng, decide)
    return FbReport(labels, budget, used, len(schedule), schedule)
