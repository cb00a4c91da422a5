"""Noise-free building blocks: clustering cost, random-pivot clustering,
Monte-Carlo expected cost, and the exact optimum for n <= 13.

The cost of a clustering charges ``1 - s(u, v)`` for every co-clustered pair
and ``s(u, v)`` for every split pair.  Random-pivot clustering (KwikCluster)
repeatedly picks a uniformly random unclustered pivot and groups it with
every remaining element whose similarity to the pivot strictly exceeds 0.5;
its expected cost is within a factor 5 of the optimum.  The pivot loop
itself (``pivot_cluster``) is shared with the noisy algorithms, which decide
membership from oracle samples instead of known similarities: each passes a
step that maps the pairs from the pivot to the other survivors, and a state,
to the joins, the next state and a fact about the phase, so that the
Monte-Carlo replays of one trial can share a table of the phases they have
run, keyed by the survivors.  Every algorithm returns a ``Report``, which
keeps those facts.  The exact optimum is a subset DP over cluster weights
doubled as arrays, one numpy min-plus subset convolution per element (cached
gathers and reduces), that breaks ties as enumeration in RGS order would.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import InstanceTooLargeError, InvalidClusteringError, ParameterError
from .instance import Instance, incident_pairs, num_pairs, pair_endpoints

if TYPE_CHECKING:
    from .tbhs import TbhsOutput

EXACT_MAX_N = 13
_GATHER_BITS = 9  # min-plus convolutions over at most this many bits are one gather
_SCAN_BITS = 6  # a near-tie node whose rest has at least this many bits scans as arrays


def pairwise_cost(sims: np.ndarray, labels: np.ndarray) -> float:
    """Disagreement cost of ``labels`` against a raw similarity vector."""
    n = len(labels)
    if len(sims) != num_pairs(n):
        raise InvalidClusteringError(
            f"{len(sims)} similarities cannot match {n} labels"
        )
    if num_pairs(n) == 0:
        return 0.0
    us, vs = pair_endpoints(n)
    same = labels[us] == labels[vs]
    return float(np.where(same, 1.0 - sims, sims).sum())


def cost(instance: Instance, clustering) -> float:
    labels = np.asarray(clustering, dtype=np.int64)
    if labels.shape != (instance.n,):
        raise InvalidClusteringError(
            f"clustering must assign {instance.n} labels, got shape {labels.shape}"
        )
    return pairwise_cost(instance.sims, labels)


@dataclass
class Report:
    """What every clustering algorithm returns.

    ``facts`` is ``pivot_cluster``'s list, one fact per phase: ``(tau,
    arms)`` for ``kcfb`` and ``(pulls, good)`` for ``kcfc-seq``; ``kcfc``
    and the uniform baselines keep none.  ``good_set_size`` is the number of
    pairs the bandit found good (``kcfc``, ``kcfc-seq``), and ``budget`` the
    query budget T (``kcfb``, the uniform baselines).  ``estimates`` is the
    similarity vector the offline stage clustered, which MC replays cluster
    again: ``kcfc``'s 0/1 good set or a uniform baseline's means, one per
    pair (empty at n = 1).  It is None where each phase decides for itself
    (``kcfb``, ``kcfc-seq``).  ``bandit`` is the output of ``kcfc``'s one
    bandit call, with its good and bad sets, pulls and rounds (None at
    n = 1 and for the other algorithms).
    """

    clustering: np.ndarray
    queries_used: int
    facts: list = field(default_factory=list)
    good_set_size: int | None = None
    budget: int | None = None
    estimates: np.ndarray | None = None
    bandit: TbhsOutput | None = None

    @property
    def phases(self) -> int:
        return len(self.facts)


def pivot_cluster(
    n: int,
    rng: np.random.Generator | None,
    step: Callable[[np.ndarray, Hashable], tuple[np.ndarray, Hashable, object]],
    state: Hashable = None,
    memo: dict | None = None,
) -> tuple[np.ndarray, list]:
    """Random-pivot clustering driven by a per-phase membership rule.

    Each phase draws one pivot ``p`` uniformly from the surviving elements
    (the phase's only RNG draw; ``rng`` None draws from a fresh default
    generator) and calls ``step(arms, state)``, where ``arms`` holds the
    indices of the pairs from p to the other survivors, in increasing order
    of the survivor, possibly none.  It returns ``(join, next_state, fact)``:
    the survivors where the bool mask ``join`` is true join p's cluster and
    the rest survive, still in increasing order; the next phase starts from
    ``next_state`` (``kcfb``'s tau; None for a stateless rule); and ``fact``
    (such as the phase's query count) is collected, one per phase, into the
    list that ``Report.facts`` keeps.  Returns the labels and the facts.

    ``memo`` is for a step that is a pure function of (arms, state), as a
    replayed noisy rule is while its reward tape stays fixed.  It maps
    (survivors, pivot index, state) to the phase's outcome, so a phase seen
    before skips the step and only replays its outcome, after the same
    pivot draw.
    """
    if rng is None:
        rng = np.random.default_rng()
    labels = np.full(n, -1, dtype=np.int64)
    # The survivors' bytes: a phase's stored outcome and the next phase's key
    # share one object, so the table holds each survivor set once.
    survivors = np.arange(n, dtype=np.int64).tobytes()
    facts = []
    while survivors:
        # Eight bytes per survivor; the array is built only for a step.
        i = int(rng.integers(len(survivors) >> 3))
        key = None if memo is None else (survivors, i, state)
        outcome = None if key is None else memo.get(key)
        if outcome is None:
            remaining = np.frombuffer(survivors, dtype=np.int64)
            p = remaining.item(i)
            others = np.concatenate((remaining[:i], remaining[i + 1 :]))
            join, next_state, fact = step(incident_pairs(p, others, n), state)
            outcome = (p, others[join], others[~join].tobytes(), next_state, fact)
            if key is not None:
                memo[key] = outcome
        p, members, survivors, state, fact = outcome
        labels[p] = labels[members] = len(facts)
        facts.append(fact)
    return labels, facts


def kwikcluster(sims: np.ndarray, n: int, rng: np.random.Generator | None) -> np.ndarray:
    """KwikCluster over a length-m similarity vector (values may leave [0, 1]):
    each pivot takes every survivor whose similarity to it exceeds 0.5."""
    return pivot_cluster(n, rng, lambda arms, _: (sims[arms] > 0.5, None, None))[0]


def mean_cost(
    instance: Instance,
    draw: Callable[[], np.ndarray],
    trials: int,
    scores: dict | None = None,
) -> tuple[float, float]:
    """Mean and standard error (0 for one trial) of the cost of ``trials``
    clusterings drawn by calling ``draw()``; ParameterError, before any
    draw, if the ``trials`` costs do not fit in memory.

    ``scores`` is for draws that often repeat a clustering, as replays that
    share a phase table do; each ``draw()`` then returns a label array of
    one dtype.  It maps label bytes to their ``pairwise_cost``, so a
    clustering drawn before reuses that float, and the mean and error are
    those of scoring every draw.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    try:
        costs = np.empty(trials)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's dimension limit
        raise ParameterError(f"cannot hold the costs of {trials} trials: {exc}") from None
    for t in range(trials):
        labels = draw()
        key = None if scores is None else labels.tobytes()
        score = None if key is None else scores.get(key)
        if score is None:
            score = pairwise_cost(instance.sims, labels)
            if key is not None:
                scores[key] = score
        costs[t] = score
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def expected_cost_mc(
    instance: Instance,
    sims: np.ndarray,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Mean and standard error of the cost of KwikCluster over ``sims`` across
    fresh pivot orders, scored against the instance's true similarities."""
    return mean_cost(instance, lambda: kwikcluster(sims, instance.n, rng), trials)


@dataclass
class OptResult:
    opt_value: float
    witness: np.ndarray


@lru_cache(maxsize=None)
def _splits(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every split (T, R ∖ T) of every R ⊆ range(d) as two index arrays t and
    u, grouped by R in increasing order, and the start of each R's group."""
    t = u = np.zeros(1, dtype=np.uint16)  # narrow until sorted: smaller temporaries
    for i in range(d):
        t, u = np.concatenate((t, t | 1 << i, t)), np.concatenate((u, u, u | 1 << i))
    r = t | u
    starts = np.concatenate(([0], np.cumsum(np.bincount(r)[:-1])))
    order = np.argsort(r, kind="stable")
    return t[order].astype(np.intp), u[order].astype(np.intp), starts


def _subset_min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[R] = min over T ⊆ R of a[T] + b[R ∖ T]`` for arrays of length 2^d
    indexed by bitmask.

    Over at most ``_GATHER_BITS`` bits this is one gather of every candidate
    ``a[T] + b[R ∖ T]`` through the cached ``_splits`` and one
    ``np.minimum.reduceat`` per R.  A wider convolution recurses on its top
    bit, which gives three sub-problems: neither T nor R ∖ T holds it (the
    lower half of out), T holds it, or R ∖ T holds it (the upper half, the
    minimum of the two).  A call thus makes at most 3^(d - 9) gathers of at
    most 3^9 candidates each; a minimum is exact, so neither the order nor
    the grouping of the candidates matters.  The split cache holds at most
    3^10 / 2 index pairs (0.46 MiB).
    """
    if len(a) <= 1 << _GATHER_BITS:
        t, u, starts = _splits(len(a).bit_length() - 1)
        sums = a.take(t)
        sums += b.take(u)  # in place: a leaf holds at most 3^9 sums (154 KiB)
        return np.minimum.reduceat(sums, starts)
    h = len(a) // 2
    low = _subset_min_plus(a[:h], b[:h])
    high = np.minimum(_subset_min_plus(a[h:], b[:h]), _subset_min_plus(a[:h], b[h:]))
    return np.concatenate((low, high))


def _subset_dp(sims: np.ndarray, n: int) -> tuple[array, np.ndarray]:
    """The cluster weights w and the DP table f over all subsets of range(n).

    w[C] = sum over pairs in C of (1 - 2s), and f[S] = min over C ⊆ S holding
    S's lowest element of w[C] + f[S ∖ C].  Element i's sets get w[S ∪ {i}] =
    w[S] + c_i[S], where c_i[S] = sum over j in S of (1 - 2s(j, i)) is
    doubled over increasing j from 0.0: the same IEEE additions, in the same
    order, as doubling Python lists (``tests/subset_dp_reference.py``).  One
    matrix holds the c rows still to be used, at most 2^12 sums at n = 13.
    The sets whose lowest element is i are solved at once, for i = n - 1,
    ..., 0, by one ``_subset_min_plus`` over the elements above i; each
    candidate is the same float sum a scalar loop over C would form, so f
    equals that loop's table bit for bit.
    (No -0.0 arises to make ties order-dependent: a sum is -0.0 only if both
    terms are, and every 1 - 2s is +0.0 or nonzero.)
    """
    us, vs = pair_endpoints(n)
    a = np.zeros((n, n))
    a[us, vs] = 1.0 - 2.0 * np.asarray(sims, dtype=np.float64)
    weights = np.zeros(1 << n)
    # Row r of c: c_i[S] = sum over j in S of a[j][i], i = j + r, over the
    # subsets S of range(j); element j doubles every row and drops its own.
    c = np.zeros((n, 1))
    for j in range(n):
        h = 1 << j
        np.add(weights[:h], c[0], out=weights[h : 2 * h])
        c = np.concatenate((c[1:], c[1:] + a[j, j + 1 :, None]), axis=1)
    w = array("d", weights.tobytes())
    f = np.zeros(1 << n)
    for i in reversed(range(n)):
        step = 2 << i
        f[1 << i :: step] = _subset_min_plus(weights[1 << i :: step], f[::step])
    return w, f


def min_cost_partition(sims: np.ndarray, n: int) -> OptResult:
    """Exact minimum of the disagreement cost over all set partitions.

    The cost is sum(s) plus, per cluster C, w(C) = sum over pairs in C of
    (1 - 2s), so a DP over subsets (``_subset_dp``, a min-plus form of the
    subset convolution of Björklund, Husfeldt and Koivisto) finds the
    optimum in O(3^n) additions, done as array operations.  Every partition
    whose DP value lies within a rounding tolerance of f[full] is then scored
    with ``pairwise_cost``, and the smallest (value, labels) wins: the first
    strict minimum in the lexicographic (RGS) order of restricted growth
    strings, whatever order the walk scans the candidate blocks in.  A node
    whose rest of S has at least ``_SCAN_BITS`` elements prices all its
    candidate blocks in one array pass; a narrower node loops over them.  If
    every partition ties, all Bell(n) are scored.
    """
    if n > EXACT_MAX_N:
        raise InstanceTooLargeError(f"exact OPT supports n <= {EXACT_MAX_N}, got n={n}")
    w, table = _subset_dp(sims, n)
    f = array("d", table.tobytes())
    weights = np.frombuffer(w)
    # The DP and pairwise_cost round differently: rescore every near-tie.
    tol = 1e-9 * (1.0 + num_pairs(n) + 2.0 * float(np.abs(sims).sum()))
    labels = [0] * n
    winner = (np.inf, labels)

    def descend(S: int, slack: float, cid: int) -> None:
        # Blocks are labelled by increasing lowest element, so labels form an RGS.
        nonlocal winner
        if not S:
            value = pairwise_cost(sims, np.array(labels))
            if (value, labels) < winner:
                winner = (value, labels.copy())
            return
        low = S & -S
        rest = sub = S ^ low
        if rest.bit_count() >= _SCAN_BITS:
            # Every candidate block at once, in increasing order of sub.
            subs = np.arange(rest + 1)
            blocks = low | subs[(subs & rest) == subs]
            extra = weights[blocks] + table[S ^ blocks] - f[S]
            near = extra <= slack
            for C, e in zip(blocks[near].tolist(), extra[near].tolist()):
                for i in range(n):
                    if C >> i & 1:
                        labels[i] = cid
                descend(S ^ C, slack - e, cid + 1)
            return
        while True:
            C = low | sub
            extra = w[C] + f[S ^ C] - f[S]
            if extra <= slack:
                for i in range(n):
                    if C >> i & 1:
                        labels[i] = cid
                descend(S ^ C, slack - extra, cid + 1)
            if not sub:
                return
            sub = (sub - 1) & rest

    descend((1 << n) - 1, tol, 0)
    return OptResult(winner[0], np.array(winner[1], dtype=np.int64))


def brute_force_opt(instance: Instance) -> OptResult:
    return min_cost_partition(instance.sims, instance.n)
