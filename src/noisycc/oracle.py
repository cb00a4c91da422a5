"""The stochastic query environment.

Each pull of pair ``e`` returns an independent sample with mean ``s(e)``:
a Bernoulli draw, or ``s(e)`` plus Gaussian noise (not clamped to [0, 1]).
Raw noise draws come from per-pair substreams: pair ``e`` reads the PCG64
stream of ``SeedSequence(entropy=seed, spawn_key=(e,))``, so the pull order
across pairs never changes any pair's reward sequence.

Rewards are memoized on a shared tape (Bernoulli rewards bit-packed,
Gaussian rewards as floats), which makes ``replay()`` cheap: a replayed
oracle re-observes the identical reward sequence per pair while keeping its
own counters, so conditional expectations over the algorithm's internal
randomness can be estimated with the noise realization held fixed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words32(n: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash(value: int, h: int, mult: int) -> tuple[int, int]:
    """One step of SeedSequence's hash: the hashed value and the next constant."""
    value ^= h
    h = h * mult & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix_in(pool: list[int], word: int, h: int, skip: int = -1) -> int:
    """Hash ``word`` into every pool word but ``pool[skip]``; returns the
    next hash constant.  (``_hash`` is inlined: this runs for every pair.)"""
    for dst in range(4):
        if dst != skip:
            value = word ^ h
            h = h * _MULT_A & _MASK32
            value = value * h & _MASK32
            mixed = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _MASK32
            pool[dst] = mixed ^ mixed >> 16
    return h


class _SeedWords:
    """Pair e's PCG64 seed: the four words that
    ``SeedSequence(entropy=seed, spawn_key=(e,)).generate_state(4, np.uint64)``
    returns, without building a SeedSequence.

    SeedSequence hashes the seed's 32-bit words, zero-padded to its 4-word
    pool because a spawn key follows, into the pool, mixes the pool, and then
    mixes in each word of the spawn key.  Everything before the spawn key is
    the same for every pair, so it is computed once per seed.
    """

    def __init__(self, seed: int) -> None:
        words = _words32(seed)
        words += [0] * (4 - len(words))
        h = _INIT_A
        pool = []
        for word in words[:4]:
            value, h = _hash(word, h, _MULT_A)
            pool.append(value)
        for src in range(4):
            h = _mix_in(pool, pool[src], h, skip=src)
        for word in words[4:]:
            h = _mix_in(pool, word, h)
        self._pool, self._hash_const = pool, h

    def __call__(self, e: int) -> np.ndarray:
        pool, h = self._pool.copy(), self._hash_const
        for word in _words32(e):
            h = _mix_in(pool, word, h)
        h = _INIT_B
        out = []
        for value in pool + pool:
            value, h = _hash(value, h, _MULT_B)
            out.append(value)
        # Pairs of 32-bit words read as little-endian 64-bit words, as numpy does.
        return np.array(out, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _StateWords(ISeedSequence):
    """Hands PCG64 its four precomputed state words in place of a SeedSequence."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's request for four uint64 words is served")
        return self.words


# Row b: ``np.unpackbits`` of byte b as the floats 0.0 and 1.0.  Listing
# Bernoulli rewards as rows of it makes no new float objects, which keeps
# ``Oracle.peek`` as fast as on an unpacked tape.
_BIT_FLOATS = np.array([0.0, 1.0], dtype=object)[
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
]


class _Tape:
    """Lazily materialized rewards per pair, shared between replays.

    A Bernoulli tape is bit-packed (``np.packbits``, the first reward in the
    high bit of byte 0) and grows by whole bytes; a Gaussian tape holds
    float rewards.  Pair e's generator is ``Generator(PCG64(words))`` with
    the words of ``SeedSequence(entropy=seed, spawn_key=(e,))`` from
    ``_SeedWords``, built when the pair is first read.  A tape grows at
    least by doubling.  numpy's ``random`` and ``standard_normal`` streams do
    not depend on how the draws are split, so neither the growth rule nor the
    byte rounding changes any reward.
    """

    def __init__(self, seed: int, sims: np.ndarray, noise: NoiseModel) -> None:
        self.sims = sims
        self.noise = noise
        self.packed = noise.kind == "bernoulli"
        self._seed_words = _SeedWords(seed)
        self._streams: dict[int, np.ndarray] = {}
        self._rngs: dict[int, np.random.Generator] = {}

    def read(self, e: int, i: int, k: int) -> np.ndarray:
        """Rewards i, ..., i + k - 1 of pair e: 0/1 bytes unpacked from the
        bytes that cover them (Bernoulli), or a view of the float tape
        (Gaussian)."""
        end = i + k
        buf = self._cover(e, end)
        if self.packed:
            lo = i >> 3
            return np.unpackbits(buf[lo : (end + 7) >> 3])[i - 8 * lo : end - 8 * lo]
        return buf[i:end]

    def read_floats(self, e: int, i: int, k: int) -> list[float]:
        """The rewards ``read`` gives, as a list of floats."""
        if not self.packed:
            return self.read(e, i, k).tolist()
        end = i + k
        lo = i >> 3
        rows = _BIT_FLOATS.take(self._cover(e, end)[lo : (end + 7) >> 3], axis=0)
        return rows.ravel()[i - 8 * lo : end - 8 * lo].tolist()

    def total(self, e: int, i: int, k: int) -> float:
        """Sum of rewards i, ..., i + k - 1 of pair e, equal to the float sum
        of ``read(e, i, k)``: the number of set bits (Bernoulli), or the sum
        of the tape's contiguous slice (Gaussian), as a copy of it sums."""
        rewards = self.read(e, i, k)
        return float(np.count_nonzero(rewards) if self.packed else rewards.sum())

    def _cover(self, e: int, end: int) -> np.ndarray:
        """Pair e's tape, grown to hold at least ``end`` rewards."""
        buf = self._streams.get(e)
        have = 0 if buf is None else len(buf) << 3 if self.packed else len(buf)
        if buf is not None and end <= have:
            return buf
        rng = self._rngs.get(e)
        if rng is None:
            words = _StateWords(self._seed_words(e))
            rng = self._rngs[e] = np.random.Generator(np.random.PCG64(words))
        grow = max(end - have, have, 64)
        s = self.sims[e]
        if self.packed:
            grow = -(-grow // 8) * 8
            fresh = np.packbits(rng.random(grow) < s)
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
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
        self.instance = instance
        self.noise = noise if noise is not None else NoiseModel()
        self.seed = seed = int(seed)
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

    def _check(self, arms: Sequence[int], k: int) -> None:
        """Every arm is a pair index, and k pulls of each fit the budget."""
        for e in arms:
            if not (0 <= e < self._m):
                raise InvalidPairError(f"pair index {e} out of range (m={self._m})")
        requested = k * len(arms)
        if self.budget is not None and self._total + requested > self.budget:
            raise BudgetExhaustedError(
                f"budget {self.budget} exhausted: {self._total} used, {requested} requested"
            )

    def pull(self, e: int) -> float:
        """One noisy sample of pair e's similarity."""
        self._check((e,), 1)
        i = self._counts.item(e)
        reward = float(self._tape.read(e, i, 1)[0])
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
        self._check((e,), k)
        if k == 0:
            return np.empty(0)
        i = self._counts.item(e)
        rewards = self._tape.read(e, i, k).astype(np.float64)
        self._counts[e] = i + k
        self._sums[e] += rewards.sum()
        self._total += k
        return rewards

    def pull_means(self, arms: Iterable[int], k: int) -> np.ndarray:
        """The mean of k pulls of each arm, in order: ``pull_many(e, k).mean()``
        for each e, bit for bit, with the same counters afterwards.

        Raises before mutating anything if an arm is not a pair index or the
        budget cannot cover all ``k * len(arms)`` pulls.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        arms = list(arms)
        self._check(arms, k)
        counts, sums, tape = self._counts, self._sums, self._tape
        means = np.empty(len(arms))
        for j, e in enumerate(arms):
            i = counts.item(e)
            total = tape.total(e, i, k)
            counts[e] = i + k
            sums[e] += total
            self._total += k
            means[j] = total / k
        return means

    def peek(self, e: int, k: int) -> list[float]:
        """The next k rewards of pair e as floats, without pulling them."""
        if not (0 <= e < self._m):
            raise InvalidPairError(f"pair index {e} out of range (m={self._m})")
        return self._tape.read_floats(e, self._counts.item(e), k)

    def advance(self, e: int, k: int) -> None:
        """Count pair e's next k rewards as pulled, exactly as k calls of
        ``pull`` would: the sum is accumulated one reward at a time.

        Raises before mutating anything if the budget cannot cover all k.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        self._check((e,), k)
        i = self._counts.item(e)
        total = float(self._sums[e])
        if self._tape.packed:
            # Rewards are 0 or 1 and the sum a whole number, so adding them
            # one at a time adds their count exactly.
            total += self._tape.total(e, i, k)
        else:
            for reward in self._tape.read(e, i, k).tolist():
                total += reward
        self._counts[e] = i + k
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
