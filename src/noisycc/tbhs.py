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
bounds move.  So a run reads the two arms' next running means from the
oracle in one read, forms their bounds in one tight loop, and stops at the
first round after which either arm is classified or the pair would no
longer be selected: e_g must keep the (-LCB, index) minimum and e_b the
(UCB, index) minimum, against each other and against the best other active
arms, whose bounds are fixed for the run.  Right after its first pulls the
bandit fetches each arm's column of the tape's table
(``Oracle.table_column``), a strided view of the arm's running means, empty
where the tape keeps none or the arm was pulled before, and grows the
radius memo once to hold the radius of every count a column holds.  A run
reads each arm once, by one rule, its means and radii together: while its
column holds the arm's next means, a slice of the view and one of the
memo's table, which cost the same at any length; past the column,
``_BLOCK`` rounds through ``Oracle.running_means`` and their radii from the
memo.  So a run may read one arm's column beside the other's fold.  It
reads as far as both reads go, or the most rounds the budget leaves room
for, and then goes on as the next run.  An arm that holds both minima is
pulled twice a round, so its read takes every other mean and radius.  A
run also stops at a round that leaves an arm's bound infinite, after which
the bandit raises.  The oracle's counters and the heaps are updated once
per run; no run copies a mean or a radius within the table and the memo.

Where a run's stop is searched: a round at a time in Python, except in a
lone arm's column read of more than ``_HEAD`` rounds, whose stop is found in
one numpy pass over the two views (``_stop_in``).  Both search with the same
arithmetic, the IEEE ``mg - rg`` and ``mg + rg`` of each round and the
same four comparisons, so they stop at the same round with the same floats.
The result, the rounds and the oracle's counters equal those of a loop that
selects and pulls one round at a time.

Exactness rule: every round is computed with the arithmetic of a round on
its own, the running mean ``mu + (r - mu) / k`` one reward at a time and
radii from ``radius`` itself (memoised), never a cumulative sum over ``k``
or a vectorised log.  The running means come from the tape's table, through
the arm's column, where it keeps one, and from ``Oracle.running_means``'
scalar fold past it: numpy folds the table one reward at a time with float64
``-``, ``/`` and ``+``, the same IEEE operations as the scalar fold, so a
fold continued from a column's last mean gives the same floats.
The first pulls, where every arm is unpulled, are the table's row 0
(``Oracle.pull_each``): a mean of one reward is the reward.  One differing
last bit can move an arm between the good and the bad set.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NoSamplesError, ParameterError, UnboundedRadiusError
from .instance import Instance, pair_mask
from .oracle import _MAX_PULLS, Oracle

# Radii memo, keyed by (m, delta, scale): each table holds radius() for pull
# counts up to _MEMO_COUNTS, and larger counts call radius() directly.  At
# most _MEMO_KEYS tables are kept, the least recently used dropped first, so
# an arm that needs 10^8 pulls does not grow the memo.  The tables hold values
# of a pure function, so sharing them between calls cannot change any result.
_MEMO_COUNTS = 4096
_MEMO_KEYS = 32

# The rounds a run reads past the tape's table or on a tape that keeps none,
# where each mean is folded from a reward read off the tape for it, so that a
# read costs more the longer it is.
_BLOCK = 128

# A lone arm's column read of more rounds than this finds its stop in one
# numpy pass (``_stop_in``).  On a 2-core x86 host with Python 3.11 and
# numpy 2.4, the pass took 5.4-6.0 us (timeit, 224-round views) and the
# scalar loop about 80 ns a round, so a read of up to 64 rounds costs less
# scalar.  90 % of bandit-mid's lone reads are longer than 150 rounds, and
# heads of 16, 32 and 64 gave the same bandit time within noise.
_HEAD = 64


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


def _unclassifiable(m: int, config: TbhsConfig) -> bool:
    """Whether no Bernoulli arm among ``m`` can be classified in fewer than
    2**63 pulls, the most the oracle counts.

    A Bernoulli mean lies in [0, 1], so an LCB reaches ``0.5 - epsilon``, or
    a UCB ``0.5 + epsilon``, only once ``radius(m, k, ...) <= 0.5 + epsilon``.
    ln(4 m k^2 / delta) / k never rises as k grows (4 m / delta > 4), so the
    least radius below 2**63 pulls is at k = 2**63 - 1.  The test is made on
    the squared radius with the logarithm taken term by term, which
    overflows for no delta or scale.
    """
    k = float(_MAX_PULLS)
    log_arg = math.log(4.0 * m) - math.log(config.delta) + 2.0 * math.log(k)
    reach = (0.5 + config.epsilon) / config.radius_scale
    return log_arg / (2.0 * k) > reach * reach


@functools.lru_cache(maxsize=_MEMO_KEYS)
def _radii_memo(m: int, delta: float, scale: float) -> list[memoryview]:
    """The memo's table for (m, delta, scale), ``[nan, radius(m, 1, ...),
    radius(m, 2, ...), ...]`` filled as far as ``_radius_span`` has needed,
    as the one item of a list, where each growth puts a longer table."""
    return [memoryview(array("d", [math.nan]))]


def _radius_span(
    memo: list[memoryview], m: int, delta: float, scale: float, k: int, run: int, step: int
) -> Sequence[float]:
    """``radius(m, j, delta, scale)`` for j = k + step, k + 2 * step, ...,
    k + run * step.

    Counts up to ``_MEMO_COUNTS`` read the memo's table for (m, delta, scale)
    (``_radii_memo``), a view of it at stride ``step``; larger counts call
    ``radius`` directly, and then the span is a list.  A table short of the
    span is replaced by one at least twice as long, up to ``_MEMO_COUNTS``,
    that holds the old one's radii, so views handed out before stay valid.
    """
    table = memo[0]
    end = k + run * step
    if end >= len(table) and len(table) <= _MEMO_COUNTS:
        grown = array("d", table)
        upto = min(max(2 * len(table), end + 1), _MEMO_COUNTS + 1)
        grown.extend([radius(m, j, delta, scale) for j in range(len(table), upto)])
        table = memo[0] = memoryview(grown)
    if end < len(table):
        return table[k + step : end + 1 : step]
    span = table[k + step :: step].tolist()
    start = k + (len(span) + 1) * step
    return span + [radius(m, j, delta, scale) for j in range(start, end + 1, step)]


def _top(heap: list, key: dict, g: int | None = None, b: int | None = None) -> tuple:
    """Pop stale entries, and those of arms g and b, off ``heap``; return
    the best one left."""
    while True:
        k, e = heap[0]
        if k == key[e] and e != g and e != b:
            return k, e
        heapq.heappop(heap)


def _stop_in(means: memoryview, radii: memoryview, lo_g: float, hi_b: float,
             good_at: float, bad_at: float) -> tuple[int, float, float, float]:
    """The rounds a lone arm's run makes over ``means`` and ``radii``,
    views of equal length: up to and with the first round that fails the
    run's test, else all of them.  With that round's mean, LCB and UCB, as
    floats.  One numpy pass makes the scalar loop's ``mg - rg``, ``mg + rg``
    and comparisons, the same IEEE operations."""
    mg = np.asarray(means)
    rg = np.asarray(radii)
    lg = mg - rg
    ug = mg + rg
    held = lo_g <= lg
    held &= lg < good_at
    held &= bad_at < ug
    held &= ug <= hi_b
    i = int(held.argmin())
    if held[i]:
        i = len(held) - 1
    return i + 1, mg.item(i), lg.item(i), ug.item(i)


def run_tbhs(oracle: Oracle, arms, config: TbhsConfig) -> TbhsOutput:
    """Classify every arm as good or bad, pulling through ``oracle``.

    ``arms`` is any iterable of pair indices.  Ties in the LCB/UCB selection
    break toward the smallest pair index.  Budget errors from the oracle
    propagate to the caller untouched, raised at the same pull as a
    round-at-a-time loop would raise them.  Two configs where pulling on
    would never end raise ParameterError: a run that ends with an arm's UCB
    infinite (a ``delta`` so small that the radius overflows), and, before
    any pull, Bernoulli rewards under a radius that stays above
    ``0.5 + epsilon`` for 2**63 pulls (a huge ``radius_scale``).  The
    second check assumes means in [0, 1], as Bernoulli means are.

    Rounds with an unchanged (e_g, e_b) are evaluated as one run, as the
    module docstring describes; the output, the rounds and every oracle
    counter (pulls, the pull at which the budget runs out) equal those of
    pulling one round at a time.
    """
    arm_list = sorted(set(arms))
    m = len(arm_list)
    if m == 0:
        return TbhsOutput(frozenset(), frozenset(), 0, 0)

    delta = config.delta
    scale = config.radius_scale
    good_at = 0.5 - config.epsilon
    bad_at = 0.5 + config.epsilon
    if oracle.noise.kind == "bernoulli" and _unclassifiable(m, config):
        raise ParameterError(
            f"radius_scale={scale} keeps the confidence radius of {m} arms at the"
            f" bandit's delta={delta} above 0.5 + epsilon = {bad_at} for 2**63"
            " pulls, so no Bernoulli arm could be classified"
        )

    mean = dict(zip(arm_list, oracle.pull_each(arm_list)))
    pulls = dict.fromkeys(arm_list, 1)
    # Entry k - 1 of an arm's column is its mean after k + 1 pulls.
    column = {e: oracle.table_column(e, 1) for e in arm_list}
    memo = _radii_memo(m, delta, scale)
    # The memo's table, grown here to hold the radii of every count that a
    # column holds, so that a column read slices it with no growth check.
    _radius_span(memo, m, delta, scale, 1, max(map(len, column.values())), 1)
    table = memo[0]

    def read(e: int, k: int, step: int, left: float) -> tuple[Iterable, Sequence[float], int]:
        """Arm e's means after pulls k + step, k + 2 * step, ..., their
        radii, and the rounds they cover, at most ``left``: as far as its
        column holds them, else ``_BLOCK`` rounds of the scalar fold."""
        means = column[e][k + step - 2 :: step]
        if means:
            return means, table[k + step :: step], min(left, len(means))
        # The fold stays lazy, and each run zips a round's radii before its
        # means, because most runs stop within a few rounds: folding every
        # read up front would fold 7.34 M means where the runs read 1.74 M
        # (an n = 120 kcfc-seq trial with 100 replays, which keeps no table).
        folded = oracle.running_means(e, k, mean[e], step * _BLOCK)
        run = min(left, _BLOCK)
        radii = _radius_span(memo, m, delta, scale, k, run, step)
        return islice(folded, step - 1, None, step), radii, run

    # The selection keys are (-LCB, e) and (UCB, e).  A heap entry is stale
    # once its key differs from the arm's current key; a stale entry whose
    # key still equals it selects the same arm as the live one.  A
    # classified arm's keys are NaN, which no entry equals.  The entry
    # (inf, inf), live in both heaps, stands for no other arm.
    rad = radius(m, 1, delta, scale)
    neg_lcb = {e: -(mu - rad) for e, mu in mean.items()}
    ucb = {e: mu + rad for e, mu in mean.items()}
    neg_lcb[math.inf] = ucb[math.inf] = math.inf
    lcb_heap = [(neg_lcb[e], e) for e in neg_lcb]
    ucb_heap = [(ucb[e], e) for e in ucb]
    heapq.heapify(lcb_heap)
    heapq.heapify(ucb_heap)

    good: list[int] = []
    bad: list[int] = []

    def classify(e: int, into: list[int]) -> None:
        into.append(e)
        neg_lcb[e] = ucb[e] = math.nan

    budget = oracle.budget
    rounds = 0
    while len(good) + len(bad) < m:
        key, g = lcb_heap[0]
        if key != neg_lcb[g]:
            key, g = _top(lcb_heap, neg_lcb)
        key, b = ucb_heap[0]
        if key != ucb[b]:
            key, b = _top(ucb_heap, ucb)
        # Rounds the budget leaves room for.
        left = math.inf
        if budget is not None:
            left = (budget - oracle.total_pulls) // 2
            if left == 0:
                # Fewer than two pulls are left, so one of these raises.
                oracle.advance(g, 1)
                oracle.advance(b, 1)
        # The best other active arm on each side (suffix _o): its bounds stay
        # fixed during the run.  g's entry comes off the LCB heap and b's off
        # the UCB heap here; an arm still active after the run goes back on
        # both heaps with its new keys.
        heapq.heappop(lcb_heap)
        heapq.heappop(ucb_heap)
        neg_o, e_o = lcb_heap[0]
        if neg_o != neg_lcb[e_o] or e_o == g or e_o == b:
            neg_o, e_o = _top(lcb_heap, neg_lcb, g, b)
        ucb_o, f_o = ucb_heap[0]
        if ucb_o != ucb[f_o] or f_o == g or f_o == b:
            ucb_o, f_o = _top(ucb_heap, ucb, g, b)

        # The run goes on while e_g keeps the (-LCB, e) minimum and e_b the
        # (UCB, e) minimum over the active arms: against the other arms, while
        # lo_g <= LCB(e_g) and UCB(e_b) <= hi_b.
        lo_g = -neg_o if g < e_o else math.nextafter(-neg_o, math.inf)
        hi_b = ucb_o if b < f_o else math.nextafter(ucb_o, -math.inf)
        kg = pulls[g]
        if g != b:
            kb = pulls[b]
            means_g, radii_g, reach_g = read(g, kg, 1, left)
            means_b, radii_b, reach_b = read(b, kb, 1, left)
            steps = zip(range(1, min(reach_g, reach_b) + 1), radii_g, means_g, radii_b, means_b)
            # Against each other, the smaller pair index wins a tie.
            g_first = g < b
            for done, rg, mg, rb, mb in steps:
                lg, ub = mg - rg, mb + rb
                lb, ug = mb - rb, mg + rg
                if not (
                    lo_g <= lg < good_at and bad_at < ub <= hi_b
                    and (lg > lb or lg == lb and g_first)
                    and (ub < ug or ub == ug and not g_first)
                ):
                    break
            kg += done
            kb += done
            # No count nears 2**63 here: the run has read these rewards, and
            # a read at count c first grows the arm's tape past c rewards.
            oracle.advance(g, done)
            oracle.advance(b, done)
            pulls[b] = kb
            mean[b] = mb
            neg_lcb[b] = -lb
            ucb[b] = ub
        else:
            # One arm holds both minima and is pulled twice per round.  Its
            # run stops at the first infinite bound, as a two-arm run's tie
            # tests stop it: no UCB of the run exceeds the largest float.
            hi_b = min(hi_b, sys.float_info.max)
            means_g, radii_g, run = read(g, kg, 2, left)
            if run > _HEAD and isinstance(means_g, memoryview):
                done, mg, lg, ug = _stop_in(
                    means_g[:run], radii_g[:run], lo_g, hi_b, good_at, bad_at
                )
            else:
                for done, rg, mg in zip(range(1, run + 1), radii_g, means_g):
                    lg, ug = mg - rg, mg + rg
                    if not (lo_g <= lg < good_at and bad_at < ug <= hi_b):
                        break
            kg += 2 * done
            oracle.advance(g, 2 * done)
            ub = ug
        pulls[g] = kg
        mean[g] = mg
        neg_lcb[g] = -lg
        ucb[g] = ug
        # 4*m*k*k/delta overflows for a tiny delta, and then for every larger
        # k too: an arm whose UCB is infinite can never be classified.
        if ug == math.inf or ub == math.inf:
            e = g if ug == math.inf else b
            raise UnboundedRadiusError(
                f"delta={delta} leaves the confidence bound of pair {e} infinite"
                f" after {pulls[e]} pulls (radius_scale={scale}), so the bandit"
                " could never classify it"
            )

        rounds += done
        if lg >= good_at:
            classify(g, good)
        elif g == b and ug <= bad_at:
            classify(g, bad)
        else:
            heapq.heappush(lcb_heap, (-lg, g))
            heapq.heappush(ucb_heap, (ug, g))
        if g != b:
            if ub <= bad_at:
                classify(b, bad)
            else:
                heapq.heappush(lcb_heap, (-lb, b))
                heapq.heappush(ucb_heap, (ub, b))

    return TbhsOutput(frozenset(good), frozenset(bad), m + 2 * rounds, rounds)


def containment_check(output: TbhsOutput, instance: Instance, epsilon: float) -> bool:
    """True iff every pair clearly above the threshold band landed in good
    and every pair clearly below landed in bad."""
    sims = instance.sims
    good = pair_mask(output.good, instance.m)
    bad = pair_mask(output.bad, instance.m)
    return bool(good[sims > 0.5 + epsilon].all() and bad[sims < 0.5 - epsilon].all())
