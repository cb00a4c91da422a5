"""Noise-free building blocks: clustering cost, random-pivot clustering,
Monte-Carlo expected cost, and the exact optimum for n <= 13.

The cost of a clustering charges ``1 - s(u, v)`` for every co-clustered pair
and ``s(u, v)`` for every split pair.  Random-pivot clustering (KwikCluster)
repeatedly picks a uniformly random unclustered pivot and groups it with
every remaining element whose similarity to the pivot strictly exceeds 0.5;
its expected cost is within a factor 5 of the optimum.  The pivot loop
itself (``pivot_cluster``) is shared with the noisy algorithms, which decide
membership from oracle samples instead of known similarities.  The exact
optimum is a subset DP that breaks ties as enumeration in RGS order would.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InstanceTooLargeError, InvalidClusteringError
from .instance import Instance, incident_pairs, num_pairs, pair_endpoints

EXACT_MAX_N = 13


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


def pivot_cluster(
    n: int,
    rng: np.random.Generator,
    decide: Callable[[int, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Random-pivot clustering driven by a per-phase membership rule.

    Each phase draws one pivot ``p`` uniformly from the surviving elements
    (the phase's only RNG draw) and calls ``decide(p, others)``, where
    ``others`` holds the other survivors in increasing order, possibly none.
    The survivors where the returned mask is true join p's cluster; the rest
    survive, still in increasing order.
    """
    labels = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n)
    cid = 0
    while len(remaining):
        i = int(rng.integers(len(remaining)))
        p = int(remaining[i])
        others = np.delete(remaining, i)
        join = np.asarray(decide(p, others), dtype=bool)
        labels[p] = cid
        labels[others[join]] = cid
        remaining = others[~join]
        cid += 1
    return labels


def kwikcluster(sims: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """KwikCluster over a length-m similarity vector (values may leave [0, 1]):
    each pivot takes every survivor whose similarity to it exceeds 0.5."""
    return pivot_cluster(n, rng, lambda p, others: sims[incident_pairs(p, others, n)] > 0.5)


def mean_cost(
    instance: Instance, draw: Callable[[], np.ndarray], trials: int
) -> tuple[float, float]:
    """Mean and standard error (0 for one trial) of the cost of ``trials``
    clusterings drawn by calling ``draw()``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    costs = np.empty(trials)
    for t in range(trials):
        costs[t] = pairwise_cost(instance.sims, draw())
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


def min_cost_partition(sims: np.ndarray, n: int) -> OptResult:
    """Exact minimum of the disagreement cost over all set partitions.

    The cost is sum(s) plus, per cluster C, w(C) = sum over pairs in C of
    (1 - 2s), so a DP over subsets finds the optimum in O(3^n):
    f[S] = min over C in S holding S's lowest element of w[C] + f[S - C].
    Every partition whose DP value lies within a rounding tolerance of f[full]
    is then scored with ``pairwise_cost``, and the smallest (value, labels)
    wins: the first strict minimum in the lexicographic (RGS) order of
    restricted growth strings.  If every partition ties, all Bell(n) are scored.
    """
    if n > EXACT_MAX_N:
        raise InstanceTooLargeError(f"exact OPT supports n <= {EXACT_MAX_N}, got n={n}")
    us, vs = pair_endpoints(n)
    a = np.zeros((n, n))
    a[us, vs] = 1.0 - 2.0 * np.asarray(sims, dtype=np.float64)
    a = a.tolist()
    w = [0.0]  # w[S] over the subsets S of range(i); element i doubles it
    for i in range(n):
        c = [0.0]  # c[S] = sum over j in S of a[j][i]
        for j in range(i):
            c += [x + a[j][i] for x in c]
        w += [x + y for x, y in zip(w, c)]
    # Flat double arrays rather than lists of float objects: a process that
    # solves hundreds of instances then keeps about 1 MB less resident.
    w = array("d", w)
    f = array("d", [0.0]) * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        rest = sub = S ^ low
        best = w[low] + f[rest]
        while sub:
            value = w[low | sub] + f[rest ^ sub]
            if value < best:
                best = value
            sub = (sub - 1) & rest
        f[S] = best
    # The DP and pairwise_cost round differently: rescore every near-tie.
    tol = 1e-9 * (1.0 + len(us) + 2.0 * float(np.abs(sims).sum()))
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
