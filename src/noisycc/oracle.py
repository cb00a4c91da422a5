"""The stochastic query environment.

Each pull of pair ``e`` returns an independent sample with mean ``s(e)``:
a Bernoulli draw, or ``s(e)`` plus Gaussian noise (not clamped to [0, 1]).
Raw noise draws come from per-pair substreams derived from ``(seed, e)``,
so the pull order across pairs never changes any pair's reward sequence.

Rewards are memoized on a shared tape (Bernoulli rewards as booleans), which
makes ``replay()`` cheap: a replayed oracle re-observes the identical reward
sequence per pair while keeping its own counters, so conditional expectations
over the algorithm's internal randomness can be estimated with the noise
realization held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, InvalidPairError, NoSamplesError, ParameterError
from .instance import Instance


@dataclass(frozen=True)
class NoiseModel:
    """Reward distribution: kind 'bernoulli' (default) or 'gaussian'.

    For 'gaussian', ``sigma`` is both the noise standard deviation and the
    sub-Gaussian scale the confidence radius must be adjusted for.
    """

    kind: str = "bernoulli"
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("bernoulli", "gaussian"):
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 < self.sigma < math.inf:
            raise ParameterError(f"gaussian noise requires a finite sigma > 0, got {self.sigma}")


class _Tape:
    """Lazily materialized rewards per pair, shared between replays."""

    def __init__(self, seed: int, sims: np.ndarray, noise: NoiseModel) -> None:
        self.seed = seed
        self.sims = sims
        self.noise = noise
        self._streams: dict[int, np.ndarray] = {}
        self._rngs: dict[int, np.random.Generator] = {}

    def rewards(self, e: int, upto: int) -> np.ndarray:
        buf = self._streams.get(e)
        have = 0 if buf is None else len(buf)
        if upto > have:
            rng = self._rngs.get(e)
            if rng is None:
                ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(e,))
                rng = self._rngs[e] = np.random.default_rng(ss)
            grow = max(upto - have, have, 64)
            s = self.sims[e]
            if self.noise.kind == "bernoulli":
                fresh = rng.random(grow) < s
            else:
                with np.errstate(over="ignore"):
                    fresh = s + self.noise.sigma * rng.standard_normal(grow)
                if not np.isfinite(fresh).all():
                    raise ParameterError(
                        f"gaussian noise with sigma={self.noise.sigma} drew a"
                        f" non-finite reward for pair {e}"
                    )
            buf = fresh if buf is None else np.concatenate([buf, fresh])
            self._streams[e] = buf
        return buf


class Oracle:
    """Stateful noisy similarity oracle over one instance.

    Mutable counters make a single Oracle single-threaded; independent
    trials should each construct their own.
    """

    def __init__(
        self,
        instance: Instance,
        noise: NoiseModel | None = None,
        seed: int = 0,
        budget: int | None = None,
        _tape: _Tape | None = None,
    ) -> None:
        self.instance = instance
        self.noise = noise if noise is not None else NoiseModel()
        self.seed = seed
        self.budget = budget
        self._m = m = instance.m
        self._counts = np.zeros(m, dtype=np.int64)
        self._sums = np.zeros(m, dtype=np.float64)
        self._total = 0
        self._tape = _tape if _tape is not None else _Tape(seed, instance.sims, self.noise)

    @property
    def total_pulls(self) -> int:
        return self._total

    def replay(self, budget: int | None = None) -> "Oracle":
        """Fresh counters over the same instance, noise and reward tape."""
        return Oracle(self.instance, self.noise, self.seed, budget, _tape=self._tape)

    def _check(self, e: int, k: int) -> None:
        if not (0 <= e < self._m):
            raise InvalidPairError(f"pair index {e} out of range (m={self._m})")
        if self.budget is not None and self._total + k > self.budget:
            raise BudgetExhaustedError(
                f"budget {self.budget} exhausted: {self._total} used, {k} requested"
            )

    def pull(self, e: int) -> float:
        """One noisy sample of pair e's similarity."""
        self._check(e, 1)
        i = self._counts[e]
        reward = float(self._tape.rewards(e, i + 1)[i])
        self._counts[e] = i + 1
        self._sums[e] += reward
        self._total += 1
        return reward

    def pull_many(self, e: int, k: int) -> np.ndarray:
        """k pulls of pair e at once; identical stream to k single pulls.

        Raises before mutating anything if the budget cannot cover all k.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        self._check(e, k)
        if k == 0:
            return np.empty(0)
        i = int(self._counts[e])
        rewards = np.array(self._tape.rewards(e, i + k)[i : i + k], dtype=np.float64)
        self._counts[e] = i + k
        self._sums[e] += rewards.sum()
        self._total += k
        return rewards

    def peek(self, e: int, k: int) -> list[float]:
        """The next k rewards of pair e as floats, without pulling them."""
        if not (0 <= e < self._m):
            raise InvalidPairError(f"pair index {e} out of range (m={self._m})")
        i = int(self._counts[e])
        return self._tape.rewards(e, i + k)[i : i + k].astype(np.float64).tolist()

    def advance(self, e: int, k: int) -> None:
        """Count pair e's next k rewards as pulled, exactly as k calls of
        ``pull`` would: the sum is accumulated one reward at a time.

        Raises before mutating anything if the budget cannot cover all k.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        self._check(e, k)
        total = float(self._sums[e])
        for reward in self.peek(e, k):
            total += reward
        self._counts[e] += k
        self._sums[e] = total
        self._total += k

    def empirical_mean(self, e: int) -> float:
        if not (0 <= e < self._m):
            raise InvalidPairError(f"pair index {e} out of range (m={self._m})")
        if self._counts[e] == 0:
            raise NoSamplesError(f"pair {e} has never been pulled")
        return float(self._sums[e] / self._counts[e])

    def pulls_report(self) -> tuple[int, np.ndarray]:
        """(total pulls, per-pair pull counts) as a consistent snapshot."""
        return self._total, self._counts.copy()
