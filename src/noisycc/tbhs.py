"""Threshold bandit that splits pairs into high- and low-similarity sets.

Every arm keeps an anytime confidence interval around its empirical mean.
Each round the arm with the highest lower confidence bound and the arm with
the lowest upper confidence bound (chosen from the same pre-pull snapshot)
are pulled once each; an arm is claimed "good" once its LCB reaches
``0.5 - epsilon`` and "bad" once its UCB drops to ``0.5 + epsilon``.  The
slack ``epsilon`` lets arms near the 0.5 threshold be classified either way,
which is what keeps the total number of pulls finite even when some
similarity sits exactly on the threshold.

With probability at least ``1 - delta`` the output satisfies: every good arm
has ``s(e) >= 0.5 - epsilon``, every bad arm has ``s(e) <= 0.5 + epsilon``,
every arm with ``s(e) > 0.5 + epsilon`` is good, and every arm with
``s(e) < 0.5 - epsilon`` is bad.  The good/bad sets always partition the
input arms, deterministically.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import NoSamplesError, ParameterError
from .instance import Instance, pair_mask
from .oracle import Oracle


def radius(m: int, pulls: int, delta: float, scale: float = 1.0) -> float:
    """Anytime confidence radius after ``pulls`` samples, union-bounded over
    ``m`` arms and all sample counts: sqrt(ln(4*m*pulls^2/delta) / (2*pulls)).

    ``scale`` widens the interval for sub-Gaussian (non-Bernoulli) rewards.
    """
    if pulls == 0:
        raise NoSamplesError("radius undefined before the first pull")
    return scale * math.sqrt(math.log(4.0 * m * pulls * pulls / delta) / (2.0 * pulls))


@dataclass(frozen=True)
class TbhsConfig:
    epsilon: float
    delta: float
    radius_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 0.5):
            raise ParameterError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ParameterError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.radius_scale > 0.0:
            raise ParameterError("radius_scale must be positive")


@dataclass(frozen=True)
class TbhsOutput:
    good: frozenset[int]
    bad: frozenset[int]
    pulls_used: int
    rounds: int


def run_tbhs(
    oracle: Oracle,
    arms,
    config: TbhsConfig,
    max_pulls: int | None = None,
) -> TbhsOutput:
    """Classify every arm as good or bad, pulling through ``oracle``.

    ``arms`` is any iterable of pair indices.  Ties in the LCB/UCB selection
    break toward the smallest pair index.  ``max_pulls`` is a safety cap that
    raises RuntimeError if exceeded; budget errors from the oracle propagate
    to the caller untouched.
    """
    arm_list = sorted(set(arms))
    m = len(arm_list)
    if m == 0:
        return TbhsOutput(frozenset(), frozenset(), 0, 0)

    eps = config.epsilon
    delta = config.delta
    scale = config.radius_scale

    # Flat per-arm state keyed by pair index, after one pull of every arm.
    # A heap entry is stale once its key differs from the arm's current
    # bound; a stale entry whose key still equals the bound selects the same
    # arm as the live one.
    mean = {e: oracle.pull(e) for e in arm_list}
    pulls = dict.fromkeys(arm_list, 1)
    rad = radius(m, 1, delta, scale)
    lcb = {e: mu - rad for e, mu in mean.items()}
    ucb = {e: mu + rad for e, mu in mean.items()}
    lcb_heap = [(-lcb[e], e) for e in arm_list]
    ucb_heap = [(ucb[e], e) for e in arm_list]
    heapq.heapify(lcb_heap)
    heapq.heapify(ucb_heap)
    active = set(arm_list)

    pulls_used = m
    good: set[int] = set()
    bad: set[int] = set()
    rounds = 0
    while active:
        while lcb_heap[0][1] not in active or -lcb_heap[0][0] != lcb[lcb_heap[0][1]]:
            heapq.heappop(lcb_heap)
        while ucb_heap[0][1] not in active or ucb_heap[0][0] != ucb[ucb_heap[0][1]]:
            heapq.heappop(ucb_heap)
        e_g = lcb_heap[0][1]
        e_b = ucb_heap[0][1]
        for e in (e_g, e_b):
            reward = oracle.pull(e)
            k = pulls[e] = pulls[e] + 1
            mu = mean[e] = mean[e] + (reward - mean[e]) / k
            rad = radius(m, k, delta, scale)
            lcb[e] = mu - rad
            ucb[e] = mu + rad
            heapq.heappush(lcb_heap, (-lcb[e], e))
            heapq.heappush(ucb_heap, (ucb[e], e))
        pulls_used += 2
        rounds += 1
        if lcb[e_g] >= 0.5 - eps:
            good.add(e_g)
            active.remove(e_g)
        if e_b in active and ucb[e_b] <= 0.5 + eps:
            bad.add(e_b)
            active.remove(e_b)
        if max_pulls is not None and pulls_used > max_pulls:
            raise RuntimeError(f"exceeded pull cap {max_pulls} with {len(active)} arms open")

    return TbhsOutput(frozenset(good), frozenset(bad), pulls_used, rounds)


def containment_check(output: TbhsOutput, instance: Instance, epsilon: float) -> bool:
    """True iff every pair clearly above the threshold band landed in good
    and every pair clearly below landed in bad."""
    sims = instance.sims
    good = pair_mask(output.good, instance.m)
    bad = pair_mask(output.bad, instance.m)
    return bool(good[sims > 0.5 + epsilon].all() and bad[sims < 0.5 - epsilon].all())
