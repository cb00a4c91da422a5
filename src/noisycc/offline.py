"""Noise-free building blocks: clustering cost, random-pivot clustering,
Monte-Carlo expected cost, and a brute-force optimum for small n.

The cost of a clustering charges ``1 - s(u, v)`` for every co-clustered pair
and ``s(u, v)`` for every split pair.  Random-pivot clustering (KwikCluster)
repeatedly picks a uniformly random unclustered pivot and groups it with
every remaining element whose similarity to the pivot strictly exceeds 0.5;
its expected cost is within a factor 5 of the optimum.  The pivot loop
itself (``pivot_cluster``) is shared with the noisy algorithms, which decide
membership from oracle samples instead of known similarities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import InstanceTooLargeError, InvalidClusteringError
from .instance import Instance, incident_pairs, num_pairs, pair_endpoints

BRUTE_FORCE_MAX_N = 13


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


def iter_partitions(n: int) -> Iterator[np.ndarray]:
    """All set partitions of range(n) as restricted growth strings, in RGS order."""
    a = np.zeros(n, dtype=np.int64)
    # b[i] = max(a[0..i-1]); a[i] may range over 0..b[i]+1
    b = np.zeros(n, dtype=np.int64)
    while True:
        yield a.copy()
        j = n - 1
        while j >= 1 and a[j] == b[j] + 1:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        for i in range(j + 1, n):
            b[i] = max(b[i - 1], a[i - 1])
            a[i] = 0


@dataclass
class OptResult:
    opt_value: float
    witness: np.ndarray


def min_cost_partition(sims: np.ndarray, n: int) -> OptResult:
    """Exhaustive minimum of the disagreement cost over all set partitions.

    Ties are broken by the first partition found in RGS order.
    """
    if n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLargeError(
            f"brute force supports n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )
    if n == 1:
        return OptResult(0.0, np.zeros(1, dtype=np.int64))
    us, vs = pair_endpoints(n)
    best_value = np.inf
    best_labels: np.ndarray | None = None
    for labels in iter_partitions(n):
        value = float(np.where(labels[us] == labels[vs], 1.0 - sims, sims).sum())
        if value < best_value:
            best_value = value
            best_labels = labels
    assert best_labels is not None
    return OptResult(best_value, best_labels)


def brute_force_opt(instance: Instance) -> OptResult:
    return min_cost_partition(instance.sims, instance.n)
