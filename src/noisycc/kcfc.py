"""Fixed-confidence clustering.

``run_kcfc`` classifies all pairs with the threshold bandit at a shrunken
slack ``epsilon / (12 m)``, then pivot-clusters using membership in the good
set as a binary similarity.  With probability at least ``1 - delta`` the
expected cost over pivot randomness is at most ``5 * OPT + epsilon``.

``run_kcfc_sequential`` interleaves the two stages: each phase picks a pivot
first and runs the threshold bandit only on the pivot's incident pairs (at
slack ``epsilon / (12 |I|)`` and confidence ``delta / n``), so pairs inside
early clusters are never queried at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .instance import incident_pairs, num_pairs, pair_mask
from .offline import kwikcluster, pivot_cluster
from .oracle import Oracle
from .tbhs import TbhsConfig, run_tbhs


@dataclass
class FcReport:
    clustering: np.ndarray
    queries: int
    epsilon: float
    delta: float
    epsilon_prime: float | None
    good_set_size: int | None
    # 0/1 mask of the learned high-similarity pairs, kept so reporting code can
    # replay the pivot stage without re-querying.  None when there is no
    # single such set.
    good_mask: np.ndarray | None = None


def _validate(epsilon: float, delta: float) -> None:
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")


def run_kcfc(
    oracle: Oracle,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | None = None,
    radius_scale: float = 1.0,
) -> FcReport:
    """Classify every pair once, then pivot-cluster on the good set."""
    _validate(epsilon, delta)
    n = oracle.instance.n
    if n == 1:
        return FcReport(np.zeros(1, dtype=np.int64), 0, epsilon, delta, None, 0, np.zeros(0))
    m = num_pairs(n)
    eps_prime = epsilon / (12.0 * m)
    if not eps_prime < 0.5:
        raise ParameterError(f"epsilon={epsilon} too large: epsilon/(12m) must be < 0.5")
    out = run_tbhs(oracle, range(m), TbhsConfig(eps_prime, delta, radius_scale))
    if rng is None:
        rng = np.random.default_rng()
    good = pair_mask(out.good, m).astype(np.float64)
    labels = kwikcluster(good, n, rng)
    return FcReport(labels, out.pulls_used, epsilon, delta, eps_prime, len(out.good), good)


def run_kcfc_sequential(
    oracle: Oracle,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | None = None,
    radius_scale: float = 1.0,
) -> FcReport:
    """Per-phase variant: threshold-bandit only the pivot's incident pairs."""
    _validate(epsilon, delta)
    n = oracle.instance.n
    if rng is None:
        rng = np.random.default_rng()
    queries = 0
    good_total = 0

    def decide(p: int, others: np.ndarray) -> np.ndarray:
        nonlocal queries, good_total
        if len(others) == 0:
            return np.zeros(0, dtype=bool)
        arms = incident_pairs(p, others, n).tolist()
        eps_r = epsilon / (12.0 * len(arms))
        if not eps_r < 0.5:
            raise ParameterError(
                f"epsilon={epsilon} too large for a phase with {len(arms)} incident pairs"
            )
        out = run_tbhs(oracle, arms, TbhsConfig(eps_r, delta / n, radius_scale))
        queries += out.pulls_used
        good_total += len(out.good)
        return np.array([e in out.good for e in arms], dtype=bool)

    labels = pivot_cluster(n, rng, decide)
    return FcReport(labels, queries, epsilon, delta, None, good_total, None)
