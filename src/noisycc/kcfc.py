"""Fixed-confidence clustering.

``run_kcfc`` classifies all pairs with the threshold bandit at a shrunken
slack ``epsilon / (12 m)``, then pivot-clusters using membership in the good
set as a binary similarity.  With probability at least ``1 - delta`` the
expected cost over pivot randomness is at most ``5 * OPT + epsilon``.

``run_kcfc_sequential`` interleaves the two stages: each phase picks a pivot
first and runs the threshold bandit only on the pivot's incident pairs (at
slack ``epsilon / (12 |I|)`` and confidence ``delta / n``), so pairs inside
early clusters are never queried at all.  Its ``Report.facts`` keep each
phase's ``(pulls, good)``: the bandit's pulls and the number of pairs it
found good.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, UnboundedRadiusError
from .instance import num_pairs, pair_mask
from .offline import Report, kwikcluster, pivot_cluster
from .oracle import Oracle
from .tbhs import TbhsConfig, run_tbhs


def _validate(epsilon: float, delta: float, radius_scale: float = 1.0) -> None:
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if not (0.0 < radius_scale < math.inf):
        raise ParameterError(f"radius_scale must be positive and finite, got {radius_scale}")


def run_kcfc(
    oracle: Oracle,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | None = None,
    radius_scale: float = 1.0,
) -> Report:
    """Classify every pair once, then pivot-cluster on the good set."""
    _validate(epsilon, delta, radius_scale)
    n = oracle.instance.n
    if n == 1:
        return Report(np.zeros(1, dtype=np.int64), 0, good_set_size=0, estimates=np.zeros(0))
    m = num_pairs(n)
    eps_prime = epsilon / (12.0 * m)
    if not eps_prime < 0.5:
        raise ParameterError(f"epsilon={epsilon} too large: epsilon/(12m) must be < 0.5")
    out = run_tbhs(oracle, range(m), TbhsConfig(eps_prime, delta, radius_scale))
    good = pair_mask(out.good, m).astype(np.float64)
    labels = kwikcluster(good, n, rng)
    return Report(
        labels, out.pulls_used, good_set_size=len(out.good), estimates=good, bandit=out
    )


def run_kcfc_sequential(
    oracle: Oracle,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | None = None,
    radius_scale: float = 1.0,
    memo: dict | None = None,
) -> Report:
    """Per-phase variant: threshold-bandit only the pivot's incident pairs.

    ``memo`` is ``pivot_cluster``'s phase table, to share between replays of
    one oracle tape: a phase's bandit reads each of its arms from count 0, so
    its good set depends only on the survivors and the pivot.
    """
    _validate(epsilon, delta, radius_scale)
    n = oracle.instance.n
    too_small = f"delta={delta} is too small for n={n}: the bandit runs at delta / n"
    if not delta / n > 0:
        raise ParameterError(f"{too_small}, which underflows to 0")

    def step(arms: np.ndarray, _) -> tuple[np.ndarray, None, tuple[int, int]]:
        if len(arms) == 0:
            return np.zeros(0, dtype=bool), None, (0, 0)
        arms = arms.tolist()
        eps_r = epsilon / (12.0 * len(arms))
        if not eps_r < 0.5:
            raise ParameterError(
                f"epsilon={epsilon} too large for a phase with {len(arms)} incident pairs"
            )
        try:
            out = run_tbhs(oracle, arms, TbhsConfig(eps_r, delta / n, radius_scale))
        except UnboundedRadiusError as exc:
            raise ParameterError(f"{too_small} = {delta / n}, and {exc}") from None
        join = np.array([e in out.good for e in arms], dtype=bool)
        return join, None, (out.pulls_used, len(out.good))

    labels, facts = pivot_cluster(n, rng, step, memo=memo)
    queries = sum(pulls for pulls, _ in facts)
    return Report(labels, queries, facts, good_set_size=sum(good for _, good in facts))
