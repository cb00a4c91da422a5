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

Rounds are evaluated in runs.  The selection seldom changes from one round
to the next, and while the same (e_g, e_b) stays selected no other arm's
bounds move.  So a run reads the two arms' next rewards from the oracle in
one block, updates their means and bounds in one tight loop, and stops at
the first round after which either arm is classified or the pair would no
longer be selected: e_g must keep the (-LCB, index) minimum and e_b the
(UCB, index) minimum, against each other and against the best other active
arms, whose bounds are fixed for the run.  The oracle's counters and the
heaps are updated once per run.  The result, the rounds and the oracle's
counters equal those of a loop that selects and pulls one round at a time.

Exactness rule: every round is computed with the arithmetic of a round on
its own, the incremental mean ``mu + (r - mu) / k`` one reward at a time and
radii from ``radius`` itself (memoised), never a cumulative sum over ``k``
or a vectorised log.  One differing last bit can move an arm between the
good and the bad set.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from itertools import count

from .errors import NoSamplesError, ParameterError
from .instance import Instance, pair_mask
from .oracle import Oracle

# Radii memo, keyed by (m, delta, scale): each table holds radius() for pull
# counts up to _MEMO_COUNTS, and larger counts call radius() directly.  At
# most _MEMO_KEYS tables are kept, the oldest dropped first, so an arm that
# needs 10^8 pulls does not grow the memo.  The tables hold values of a pure
# function, so sharing them between calls cannot change any result.
_MEMO_COUNTS = 4096
_MEMO_KEYS = 32
_radii: dict[tuple[int, float, float], array] = {}

# At most this many rounds' rewards are read from the oracle at once; a
# longer run goes on in the next block.
_BLOCK = 128


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
        if not (0.0 < self.radius_scale < math.inf):
            raise ParameterError(
                f"radius_scale must be positive and finite, got {self.radius_scale}"
            )


@dataclass(frozen=True)
class TbhsOutput:
    good: frozenset[int]
    bad: frozenset[int]
    pulls_used: int
    rounds: int


def _radius_table(m: int, delta: float, scale: float, upto: int) -> array:
    """Memoised ``[nan, radius(m, 1, ...), radius(m, 2, ...), ...]``, filled
    up to ``min(upto, _MEMO_COUNTS)`` pulls by calling ``radius`` itself."""
    key = (m, delta, scale)
    table = _radii.get(key)
    if table is None:
        if len(_radii) >= _MEMO_KEYS:
            del _radii[next(iter(_radii))]
        table = _radii[key] = array("d", [math.nan])
    upto = min(upto, _MEMO_COUNTS)
    if len(table) <= upto:
        table.extend([radius(m, k, delta, scale) for k in range(len(table), upto + 1)])
    return table


def _top(heap: list, key: dict, active: set, skip: tuple = ()) -> tuple | None:
    """Pop stale, inactive and skipped entries; return the best one left."""
    while heap:
        k, e = heap[0]
        if k == key[e] and e in active and e not in skip:
            return k, e
        heapq.heappop(heap)
    return None


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
    to the caller untouched, raised at the same pull as a round-at-a-time
    loop would raise them.

    Rounds with an unchanged (e_g, e_b) are evaluated as one run, as the
    module docstring describes; the output, the rounds and every oracle
    counter (pulls, sums, the pull at which the budget runs out) equal those
    of pulling one round at a time.
    """
    arm_list = sorted(set(arms))
    m = len(arm_list)
    if m == 0:
        return TbhsOutput(frozenset(), frozenset(), 0, 0)

    delta = config.delta
    scale = config.radius_scale
    good_at = 0.5 - config.epsilon
    bad_at = 0.5 + config.epsilon

    # Flat per-arm state keyed by pair index, after one pull of every arm.
    # The selection keys are (-LCB, e) and (UCB, e).  A heap entry is stale
    # once its key differs from the arm's current key; a stale entry whose
    # key still equals it selects the same arm as the live one.
    mean = {e: oracle.pull(e) for e in arm_list}
    pulls = dict.fromkeys(arm_list, 1)
    rad = radius(m, 1, delta, scale)
    neg_lcb = {e: -(mu - rad) for e, mu in mean.items()}
    ucb = {e: mu + rad for e, mu in mean.items()}
    lcb_heap = [(neg_lcb[e], e) for e in arm_list]
    ucb_heap = [(ucb[e], e) for e in arm_list]
    heapq.heapify(lcb_heap)
    heapq.heapify(ucb_heap)
    active = set(arm_list)

    pulls_used = m
    good: set[int] = set()
    bad: set[int] = set()
    rounds = 0
    while active:
        g = _top(lcb_heap, neg_lcb, active)[1]
        b = _top(ucb_heap, ucb, active)[1]
        run = _BLOCK
        if max_pulls is not None:
            run = min(run, max(1, (max_pulls - pulls_used) // 2 + 1))
        if oracle.budget is not None:
            run = min(run, (oracle.budget - oracle.total_pulls) // 2)
            if run == 0:
                # Fewer than two pulls are left, so one of these raises.
                oracle.pull(g)
                oracle.pull(b)
        # The best other active arm on each side (suffix _o): its bounds stay
        # fixed during the run.
        other = _top(lcb_heap, neg_lcb, active, (g, b))
        lcb_o, g_before_o = (-other[0], g < other[1]) if other else (-math.inf, True)
        other = _top(ucb_heap, ucb, active, (g, b))
        ucb_o, b_before_o = (other[0], b < other[1]) if other else (math.inf, True)

        kg, mg = pulls[g], mean[g]
        if g != b:
            kb, mb = pulls[b], mean[b]
            rads = _radius_table(m, delta, scale, max(kg, kb) + run)
            top = len(rads) - 1
            g_first = g < b
            for done, rg, rb in zip(count(1), oracle.peek(g, run), oracle.peek(b, run)):
                kg += 1
                mg += (rg - mg) / kg
                rad = rads[kg] if kg <= top else radius(m, kg, delta, scale)
                lg, ug = mg - rad, mg + rad
                kb += 1
                mb += (rb - mb) / kb
                rad = rads[kb] if kb <= top else radius(m, kb, delta, scale)
                lb, ub = mb - rad, mb + rad
                if lg >= good_at or ub <= bad_at:
                    break
                # The run goes on while e_g keeps the (-LCB, e) minimum and
                # e_b the (UCB, e) minimum over the active arms.
                if not (
                    (lg > lb or lg == lb and g_first)
                    and (lg > lcb_o or lg == lcb_o and g_before_o)
                    and (ub < ug or ub == ug and not g_first)
                    and (ub < ucb_o or ub == ucb_o and b_before_o)
                ):
                    break
            oracle.advance(g, done)
            oracle.advance(b, done)
            pulls[b], mean[b], neg_lcb[b], ucb[b] = kb, mb, -lb, ub
        else:
            # One arm holds both minima and is pulled twice per round.
            rads = _radius_table(m, delta, scale, kg + 2 * run)
            top = len(rads) - 1
            rewards = iter(oracle.peek(g, 2 * run))
            for done, r1, r2 in zip(count(1), rewards, rewards):
                kg += 1
                mg += (r1 - mg) / kg
                kg += 1
                mg += (r2 - mg) / kg
                rad = rads[kg] if kg <= top else radius(m, kg, delta, scale)
                lg, ug = mg - rad, mg + rad
                if lg >= good_at or ug <= bad_at:
                    break
                if not (
                    (lg > lcb_o or lg == lcb_o and g_before_o)
                    and (ug < ucb_o or ug == ucb_o and b_before_o)
                ):
                    break
            oracle.advance(g, 2 * done)
            ub = ug
        pulls[g], mean[g], neg_lcb[g], ucb[g] = kg, mg, -lg, ug

        pulls_used += 2 * done
        rounds += done
        if lg >= good_at:
            good.add(g)
            active.remove(g)
        if b in active and ub <= bad_at:
            bad.add(b)
            active.remove(b)
        for e in {g, b} & active:
            heapq.heappush(lcb_heap, (neg_lcb[e], e))
            heapq.heappush(ucb_heap, (ucb[e], e))
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
