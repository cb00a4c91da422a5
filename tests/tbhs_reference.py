"""Reference threshold bandit: one round at a time, two heap pushes per pull.

This is ``noisycc.tbhs.run_tbhs`` as it was before rounds with an unchanged
(e_g, e_b) selection were evaluated as one run.  The property tests hold the
run-length loop to it: same good/bad sets, pulls, rounds, oracle counters
and exceptions.
"""

import heapq

from noisycc.oracle import Oracle
from noisycc.tbhs import TbhsConfig, TbhsOutput, radius


def reference_tbhs(
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
