"""Instance-dependent quantities: gaps from the 0.5 threshold, slack-adjusted
gaps, and the theoretical sample-complexity / error-probability reference
values the algorithms are measured against.

All functions are pure; none of them touches an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .instance import Instance


@dataclass(frozen=True)
class GapProfile:
    """Per-pair distances from the 0.5 threshold.

    ``delta_min`` is None for instances without pairs (n = 1), where the
    minimum gap is undefined.  ``m_g`` counts pairs with similarity >= 0.5.
    """

    deltas: np.ndarray
    delta_min: float | None
    m_g: int


@dataclass(frozen=True)
class EpsilonBands:
    """Partition of the pair set by distance from 0.5: within the closed
    band of half-width epsilon, strictly above it, or strictly below it."""

    band: frozenset[int]
    above: frozenset[int]
    below: frozenset[int]


def gaps(instance: Instance) -> GapProfile:
    deltas = np.abs(instance.sims - 0.5)
    deltas.setflags(write=False)
    if instance.m == 0:
        return GapProfile(deltas, None, 0)
    return GapProfile(deltas, float(deltas.min()), int(np.sum(instance.sims >= 0.5)))


def epsilon_bands(instance: Instance, epsilon: float) -> EpsilonBands:
    if not (0.0 < epsilon < 0.5):
        raise ParameterError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    sims = instance.sims
    band = np.abs(0.5 - sims) <= epsilon
    above = ~band & (sims > 0.5 + epsilon)
    below = ~band & ~above
    return EpsilonBands(
        *(frozenset(np.flatnonzero(mask).tolist()) for mask in (band, above, below))
    )


def tilde_gaps(instance: Instance, epsilon: float) -> np.ndarray:
    """Slack-adjusted gaps: delta_e + min(epsilon - delta_min, epsilon / 2).

    Always strictly positive, even when some similarity equals 0.5 exactly;
    this is what keeps the fixed-confidence sample bound finite.
    """
    if not (0.0 < epsilon < 0.5):
        raise ParameterError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    profile = gaps(instance)
    if profile.delta_min is None:
        raise ParameterError("tilde_gaps needs at least one pair")
    return profile.deltas + min(epsilon - profile.delta_min, epsilon / 2.0)


def fb_min_gap(instance: Instance, epsilon: float) -> float:
    """Minimal effective gap in the fixed-budget error exponent.

    Each pair's gap is floored at ``epsilon / (6 |band|)`` (band size floored
    at 1) when epsilon < 0.5, and at ``epsilon / (6 m)`` otherwise.
    """
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    m = instance.m
    if m == 0:
        raise ParameterError("fb_min_gap needs at least one pair")
    if epsilon < 0.5:
        band_size = len(epsilon_bands(instance, epsilon).band)
        floor = epsilon / (6.0 * max(1, band_size))
    else:
        floor = epsilon / (6.0 * m)
    return float(np.maximum(gaps(instance).deltas, floor).min())


def fc_sample_bound(instance: Instance, epsilon: float, delta: float) -> float:
    """Reference upper bound on the threshold bandit's total pull count.

    Sums a per-arm term
    ``(1/g^2) * ln((4*sqrt(m/delta)/g^2) * ln(5*sqrt(m/delta)/g^2))``
    over the slack-adjusted gaps ``g``, plus
    ``m / (2 * max(delta_min, epsilon/2)^2)``; floored at m since every arm
    is pulled at least once.  Callers checking the full clustering pipeline
    pass the shrunken slack ``epsilon / (12 m)``.
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    tg = tilde_gaps(instance, epsilon)
    m = instance.m
    smd = math.sqrt(m / delta)
    g2 = tg * tg
    k = (1.0 / g2) * np.log((4.0 * smd / g2) * np.log(5.0 * smd / g2))
    delta_min = gaps(instance).delta_min
    tail = m / (2.0 * max(delta_min, epsilon / 2.0) ** 2)
    return max(float(m), float(k.sum() + tail))


def fb_error_bound(instance: Instance, budget: int, epsilon: float) -> float:
    """Failure-probability reference ``2 n^3 exp(-2 T gap^2 / n^2)``, clamped to 1."""
    if budget < 0:
        raise ParameterError(f"budget must be >= 0, got {budget}")
    gap = fb_min_gap(instance, epsilon)
    n = instance.n
    return min(1.0, 2.0 * n**3 * math.exp(-2.0 * budget * gap * gap / (n * n)))


def success_check(cost_value: float, opt_value: float, epsilon: float, factor: float = 5.0) -> bool:
    """cost <= factor * OPT + epsilon."""
    if opt_value < 0:
        raise ParameterError("opt_value must be >= 0")
    return cost_value <= factor * opt_value + epsilon
