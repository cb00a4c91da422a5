"""Fixed-budget clustering.

Proceeds in pivot phases.  Phase ``r`` pulls every pair between the pivot
and the surviving elements exactly ``tau_r`` times and clusters the pivot
with elements whose empirical mean strictly exceeds 0.5.  The per-pair
allocation starts at ``floor(T / m)``; when a phase removes pairs that were
never queried, their pre-allocated pulls are redistributed evenly over the
remaining pairs, rounding down.  The rounding keeps the total number of
queries at or below ``T`` on every run.  ``Report.facts`` keeps each
phase's ``(tau_r, arms)``, its allocation and its number of pairs.

A phase asks the oracle only whether each arm's mean exceeds 0.5
(``Oracle.pull_above``).  Every arm is charged its ``tau_r`` pulls, but the
answer comes from a running count of the arm's ones where that settles it,
so a replay reads and draws only as many rewards as decide the vote.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsufficientBudgetError, ParameterError
from .instance import num_pairs
from .offline import Report, pivot_cluster
from .oracle import Oracle


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
    memo: dict | None = None,
) -> Report:
    """Cluster with at most ``budget`` oracle queries.

    ``memo`` is ``pivot_cluster``'s phase table, to share between replays of
    one oracle tape: a phase reads each of its arms from count 0, so its
    joins and next tau depend only on the survivors, the pivot and tau.
    """
    n = oracle.instance.n
    m = num_pairs(n)
    if budget < m:
        raise InsufficientBudgetError(f"budget {budget} < m = {m}: every pair needs one pull")

    def step(arms: np.ndarray, tau: int) -> tuple[np.ndarray, int, tuple[int, int]]:
        v_r = len(arms) + 1
        # The last survivor has no pair to pull (and tau is 0 when n = 1).
        join = oracle.pull_above(arms, tau) if len(arms) else np.zeros(0, dtype=bool)
        return join, next_tau(tau, v_r, v_r - 1 - np.count_nonzero(join)), (tau, len(arms))

    labels, facts = pivot_cluster(n, rng, step, budget // m if m > 0 else 0, memo)
    used = 0
    for tau, arms in facts:
        # Redistribution never over-commits the remaining budget.
        assert tau * math.comb(arms + 1, 2) <= budget - used
        used += tau * arms
    return Report(labels, used, facts, budget=budget)
