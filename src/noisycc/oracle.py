"""The stochastic query environment.

Each pull of pair ``e`` returns an independent sample with mean ``s(e)``:
a Bernoulli draw, or ``s(e)`` plus Gaussian noise (not clamped to [0, 1]).
Raw noise draws come from per-pair substreams: pair ``e`` reads the PCG64
stream of ``SeedSequence(entropy=seed, spawn_key=(e,))``, so the pull order
across pairs never changes any pair's reward sequence.

Rewards are memoized on a shared tape, the one record of them: a
``_BitTape`` of Bernoulli rewards, one bit each, or a ``_FloatTape`` of
Gaussian ones, chosen once from the noise model.  An oracle keeps only pull
counts.  So ``replay()`` is cheap: a replayed oracle re-observes the
identical reward sequence per pair while keeping its own counters, so
conditional expectations over the algorithm's internal randomness can be
estimated with the noise realization held fixed.

Rewards are read five ways: ``pull_each`` pulls each of a bandit's arms
once, from the table's row 0 where it can, else as a phase read of one pull;
``table_column`` gives a pair's running means that the tape's table holds
as one strided view, ``running_means`` folds them past it, or on a tape
that keeps none, from the pair's next rewards, and ``advance`` counts them
as pulled (the threshold bandit); ``pull_means`` reads the mean of k pulls
of each arm of a phase (the uniform baselines); ``pull_above`` reads
whether each such mean exceeds 0.5 (``kcfb``); and ``pull`` and
``pull_many`` return the rewards themselves, read by the tape's ``rewards``
as is the bandit's fold.  Only ``pull_each`` and ``table_column`` read the
table.  A ``_BitTape`` keeps the count of ones of every pair it has drawn,
which bounds the ones among its first k rewards, so ``pull_above`` decides
most tests from it and draws new rewards only until the answer is settled.

``_BitTape.draw_first`` is the tape's one block draw: it draws the first
rewards of the pairs that have no tape yet, each pair's stream into one row
of a float block (PCG64 streams do not depend on where they are drawn), for
both phase reads of at most ``_ROW_CAP`` pulls and for ``_Tape.table``: on
a tape of at most ``_TABLE_PAIRS`` pairs, a bandit's first read draws the
first ``_COLUMNS`` rewards of every pair (a ``_FloatTape`` pair by pair) and
folds their running means into a table that the tape's replays share; its
row 0, every pair's reward 0, is the bandit's first pulls.

No read may take a pair's pull count to 2**63 or more, which the int64
counters cannot record; such a read is rejected before any draw.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import BudgetExhaustedError, InvalidPairError, NoisyccError, ParameterError
from .instance import Instance


@dataclass(frozen=True)
class NoiseModel:
    """Reward distribution: kind 'bernoulli' (default) or 'gaussian'.

    For 'gaussian', ``sigma`` is the noise standard deviation and sub-Gaussian
    scale, in (0, ``_MAX_SIGMA``] so that no sum of rewards can overflow.
    """

    kind: str = "bernoulli"
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("bernoulli", "gaussian"):
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 < self.sigma <= _MAX_SIGMA:
            raise ParameterError(
                f"gaussian noise requires a finite sigma in (0, {_MAX_SIGMA:g}], got {self.sigma}"
            )


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash(values: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of SeedSequence's hash over an array of 32-bit words: the
    hashed words and the next hash constant."""
    values = values ^ h
    h = h * mult & _MASK32
    values *= h
    values &= _MASK32
    values ^= values >> 16
    return values, h


def _seed_words(seed: int, pairs) -> np.ndarray:
    """Row j: the four words that
    ``SeedSequence(entropy=seed, spawn_key=(pairs[j],)).generate_state(4, np.uint64)``
    returns, for every pair at once.

    With a spawn key, SeedSequence pads the seed's 32-bit words with zeros to
    its 4-word pool; without one its hash does the same.  So
    ``SeedSequence(seed).pool`` is the pool each pair's key word is mixed
    into, with the hash constant advanced once per pool word per entropy
    word.  Only uint64 arrays and non-negative ints meet here: numpy 1.x
    promotes uint64 mixed with int64 to float64.
    """
    pairs = np.asarray(pairs, dtype=np.uint64)
    if (pairs > _MASK32).any():
        raise ValueError("pair indices must be below 2**32")
    n_words = max(4, -(-seed.bit_length() // 32))
    h = _INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32) & _MASK32
    pool = []
    for word in np.random.SeedSequence(seed).pool.tolist():
        value, h = _hash(pairs, h, _MULT_A)
        mixed = (_MIX_L * word & _MASK32) - _MIX_R * value
        mixed &= _MASK32
        pool.append(mixed ^ mixed >> 16)
    # generate_state cycles through the pool twice; pairs of 32-bit words
    # read as little-endian 64-bit words, as numpy does.
    words = np.empty((len(pairs), 4), np.uint64)
    h = _INIT_B
    for j in range(4):
        lo, h = _hash(pool[2 * j % 4], h, _MULT_B)
        hi, h = _hash(pool[(2 * j + 1) % 4], h, _MULT_B)
        words[:, j] = lo | hi << 32
    return words


class _StateWords(ISeedSequence):
    """Hands PCG64 its four precomputed state words in place of a SeedSequence."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes the type np.uint64 itself: the identity test spares
        # each generator build the cost of np.dtype.
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's request for four uint64 words is served")
        return self.words


# Seed words are derived for this many consecutive pairs at a time, the
# first time a pair of the block is read, so a fresh oracle over millions of
# pairs derives only the blocks its algorithm touches.
_WORD_BLOCK = 4096
# A Bernoulli growth is drawn in pieces of at most this many rewards (whole
# bytes), so its float scratch stays at 512 KiB.
_PIECE = 1 << 16
# Bernoulli spans of more bytes than this are counted by unpacking them to
# one byte per reward, ``_PIECE`` rewards at a time so that the scratch
# stays at 64 KiB; shorter ones as one Python integer's set bits, which is
# faster below about 8,192 rewards and slower above.
_UNPACK_BYTES = 1 << 10
# The tape's table of running means covers each pair's first this many
# rewards: 4 KiB per pair.
_COLUMNS = 512
# Only a tape of at most this many pairs keeps the table, 8 MiB.  The table
# folds every pair, read or not, so on a larger tape it would cost memory
# beyond the pairs a bandit reads: kcfc-seq reads about 40 % of them at
# n = 120 and 10 replays.
_TABLE_PAIRS = 1 << 11
# The table's columns are filled this many pairs at a time, from one
# transposed copy of the first ``_COLUMNS`` rewards on their tapes: 8 KiB of
# Bernoulli bits, or 512 KiB of Gaussian floats.
_TABLE_BLOCK = 1 << 7
# A first growth draws at least this many rewards.
_FIRST_DRAW = 64
# A phase read of k pulls, k at most this, draws the first k rewards (at
# least ``_FIRST_DRAW``, whole bytes) of each never-drawn Bernoulli arm in
# blocks.  Above it each arm draws on its own, as far as its answer needs:
# rows capped at this length made most such arms grow a second time, and
# n = 120 kcfb jobs ran about 2.5 % slower than with no block for them.
_ROW_CAP = 1 << 10
# A phase read's blocks fill a float scratch of at most this many rewards,
# 32 KiB, so at least four rows.  A scratch of 512 KiB was no faster and
# raised the peak RSS of a run of n = 120 kcfb and uniform-fb jobs by about
# 0.4 MB; this one leaves it level.
_PHASE_FLOATS = 1 << 12
# A pair's pull count must fit the oracle's int64 counters.
_MAX_PULLS = (1 << 63) - 1
# numpy's (>= 1.24) ``standard_normal`` is a ziggurat (Marsaglia and Tsang 2000)
# whose tail returns r + (-ln(1 - U)) / r, r = 3.6541528853610088, U < 1 of 53
# bits: |z| < r + 53 ln 2 / r < 14.  So a reward is at most 1 + 14 sigma, and
# 2**63 terms of 3 + 28 sigma (a tape's or offline sum, 1 - 2 s) stay < 1e121.
_MAX_SIGMA = 1e100
# Below this k, a mean of k Bernoulli rewards exceeds 0.5 exactly when
# ``2 * ones > k``: (2 * ones - k) / (2 * k) is then more than half an ulp of
# 0.5, so ``ones / k`` cannot round down to 0.5.
_EXACT_K = 1 << 52
# Error lines print counts of more digits than this by their size.
_FULL_DIGITS = 24


def _count(count: int) -> str:
    """A count for an error line: in full up to ``_FULL_DIGITS`` digits,
    else its first ten digits and its size, so that the line stays short.
    The size is found without ``str``, which refuses more than 4,300 digits:
    the estimate from the bit length is at most the true digit count."""
    if count < 10**_FULL_DIGITS:
        return str(count)
    digits = int(count.bit_length() * math.log10(2))
    while count >= 10**digits:
        digits += 1
    return f"{count // 10 ** (digits - 10)}... ({digits} digits)"


def _ones_in(buf: np.ndarray) -> int:
    """The number of set bits in an array of bytes."""
    if len(buf) > _UNPACK_BYTES:
        step = _PIECE // 8
        return sum(
            int(np.count_nonzero(np.unpackbits(buf[j : j + step])))
            for j in range(0, len(buf), step)
        )
    # A copy: reading through a memoryview of the tape raised the peak RSS
    # of repeated n = 120 kcfb runs by about 0.5 MB.
    return int.from_bytes(buf.tobytes(), "little").bit_count()


def _folded(rewards: Iterable[float], k: int, mu: float) -> Iterator[float]:
    """The running means ``mu += (r - mu) / k`` after each of ``rewards``,
    k counting on from ``k``, folded one reward at a time as they are
    consumed: a bandit run reads only as far as the run goes."""
    for r in rewards:
        k += 1
        mu += (r - mu) / k
        yield mu


class _Tape:
    """Lazily materialized rewards per pair, shared between replays: the
    state of both kinds, ``_BitTape`` and ``_FloatTape``, each of which
    reads and grows its own storage (``rewards``, ``total``, ``above``,
    ``draw_first``, ``_cover`` and ``_columns``).  A tape grows at least by
    doubling; numpy's ``random`` and ``standard_normal`` streams do not
    depend on how the draws are split, so neither the growth rule, the byte
    rounding, the pieces of ``_PIECE`` draws nor the block draws of
    ``draw_first`` change any reward.
    """

    def __init__(self, seed: int, sims: np.ndarray) -> None:
        self.seed = seed
        self.sims = sims
        self._word_blocks: dict[int, np.ndarray] = {}
        self._streams: dict[int, np.ndarray] = {}
        # Entry j * m + e: the running mean of pair e's first j + 1 rewards.
        self._means: memoryview | None = None

    def table(self) -> memoryview | None:
        """The table of running means, a flat view of floats whose entry
        j * m + e is the running mean of pair e's first j + 1 rewards, built
        at the first call; None on a tape of more than ``_TABLE_PAIRS``
        pairs.  Row 0, entries 0 to m - 1, holds every pair's reward 0."""
        if self._means is None and len(self.sims) <= _TABLE_PAIRS:
            self._means = self._fold_means()
        return self._means

    def _fold_means(self) -> memoryview:
        """The table of running means of every pair, folded in place a row
        at a time with numpy's float64 ``-``, ``/`` and ``+``, the same IEEE
        operations as the scalar ``mu += (r - mu) / k``, from the first
        ``_COLUMNS`` rewards, which ``draw_first`` draws where a pair has no
        tape yet and ``_columns`` reads, ``_TABLE_BLOCK`` pairs at a time."""
        m = len(self.sims)
        self.draw_first(range(m), _COLUMNS)
        table = np.empty((_COLUMNS, m))
        for lo in range(0, m, _TABLE_BLOCK):
            hi = min(lo + _TABLE_BLOCK, m)
            table[:, lo:hi] = self._columns(lo, hi)
        mu = np.zeros(m)
        for j, row in enumerate(table, 1):
            row -= mu
            row /= j
            row += mu
            mu = row
        return memoryview(table).cast("B").cast("d")

    def _generator(self, e: int) -> np.random.Generator:
        """A new generator of pair e's stream, from the seed words of e's
        block, derived the first time any pair of the block is read."""
        block, row = divmod(e, _WORD_BLOCK)
        words = self._word_blocks.get(block)
        if words is None:
            start = block * _WORD_BLOCK
            pairs = np.arange(start, min(start + _WORD_BLOCK, len(self.sims)))
            words = self._word_blocks[block] = _seed_words(self.seed, pairs)
        return np.random.Generator(np.random.PCG64(_StateWords(words[row])))


class _BitTape(_Tape):
    """Bernoulli rewards, eight to a byte (``np.packbits``, the first reward
    in the high bit of byte 0), growing by whole bytes; a sum counts the set
    bits of the covering bytes.  ``_ones`` holds the count of ones of exactly
    the pairs that have a tape, each draw adding the ones of its compare.
    The tape keeps no generator, which would cost about 780 bytes a pair: a
    reward is one ``random`` draw, one 64-bit PCG64 output, so a growth
    builds the pair's generator anew and jumps it past the tape's h rewards
    with ``bit_generator.advance(h)``.
    """

    def __init__(self, seed: int, sims: np.ndarray) -> None:
        super().__init__(seed, sims)
        self._ones: dict[int, int] = {}

    def rewards(self, e: int, i: int, k: int) -> np.ndarray:
        """Rewards i, ..., i + k - 1 of pair e as a new float64 array; k == 0 draws nothing."""
        if k == 0:
            return np.empty(0)
        end, lo = i + k, i >> 3
        bits = np.unpackbits(self._cover(e, end)[lo : (end + 7) >> 3])
        return bits[i - 8 * lo : end - 8 * lo].astype(np.float64)

    def _columns(self, lo: int, hi: int) -> np.ndarray:
        """The first ``_COLUMNS`` rewards of pairs lo to hi - 1, a column each."""
        tapes = np.array([self._cover(e, _COLUMNS)[: _COLUMNS // 8] for e in range(lo, hi)]).T
        # Byte b of a pair unpacks, along axis 0, to rows 8b to 8b + 7.
        return np.unpackbits(tapes, axis=0)

    def draw_first(self, arms: Iterable[int], k: int) -> None:
        """Before a read of k pulls of each of ``arms``, draw the first
        ``max(_FIRST_DRAW, k)`` rewards (whole bytes) of each arm that has
        no tape yet, in blocks of at most ``_PHASE_FLOATS`` rewards: each
        arm's stream into one row of a float block, compared and turned to
        bits once per block, and each row's ones counted from the compare.
        A read of more than ``_ROW_CAP`` pulls draws each arm as it is read."""
        if k > _ROW_CAP:
            return
        streams = self._streams
        # An arm read twice is drawn once.
        fresh = list(dict.fromkeys([e for e in arms if e not in streams]))
        if len(fresh) < 2:  # a block of one costs more than the arm's own draw
            return
        length = -(-max(k, _FIRST_DRAW) // 8) * 8
        rows = _PHASE_FLOATS // length
        scratch = np.empty((min(len(fresh), rows), length))
        for lo in range(0, len(fresh), rows):
            pairs = fresh[lo : lo + rows]
            draws = scratch[: len(pairs)]
            for e, row in zip(pairs, draws):
                self._generator(e).random(out=row)
            hits = draws < self.sims[pairs][:, None]
            # Each pair's own copy of its row, which its first growth frees:
            # rows as views kept each block alive until its last pair grew,
            # about 0.17 MB per n = 120 kcfb trial.
            streams.update(zip(pairs, [row.copy() for row in np.packbits(hits, axis=1)]))
            self._ones.update(zip(pairs, hits.sum(axis=1).tolist()))

    def total(self, e: int, i: int, k: int) -> int:
        """The number of ones among rewards i, ..., i + k - 1 of pair e, k >= 1."""
        end = i + k
        buf = self._cover(e, end)
        tail = 8 * len(buf) - end
        if not i and tail < 8:
            # The whole tape but for the low bits of its last byte: the ones
            # its draws counted, less those bits.
            return self._ones[e] - (buf.item(-1) & (1 << tail) - 1).bit_count()
        lo, hi = i >> 3, (end + 7) >> 3
        covering = buf[lo:hi]
        ones = _ones_in(covering)
        # Less the set bits of the rewards before i (high bits of the first
        # covering byte) and from end on (low bits of the last).
        ones -= (covering.item(0) >> (8 - (i - 8 * lo))).bit_count()
        ones -= (covering.item(-1) & (1 << (8 * hi - end)) - 1).bit_count()
        return ones

    def above(self, e: int, i: int, k: int) -> bool:
        """Whether ``total(e, i, k) / k > 0.5``, for k >= 1: for i == 0,
        ``2 * ones > k`` (below ``_EXACT_K``), decided by the bounds of the
        ones count where they settle it; else the first k are counted once
        the tape holds k, and before that it grows to the length at which
        s(e) should settle them, ``k / (2 * max(s, 1 - s))`` plus about four
        standard deviations of the ones count, and on by doubling."""
        if i or k >= _EXACT_K:
            return self.total(e, i, k) / k > 0.5
        while True:
            buf = self._streams.get(e)
            h = 0 if buf is None else len(buf) << 3
            o = self._ones[e] if h else 0  # a pair with no tape has no ones
            # The first k rewards hold at least o - max(h - k, 0) ones and at
            # most o + max(k - h, 0); two calls of ``max`` here made n = 120
            # kcfb jobs about 3 % slower.
            if 2 * (o - (h - k if h > k else 0)) > k:
                return True
            if 2 * (o + (k - h if k > h else 0)) <= k:
                return False
            if h >= k:
                return 2 * self.total(e, 0, k) > k
            s = self.sims.item(e)
            settle = math.ceil(k / (2 * max(s, 1 - s)) + 4 * math.sqrt(k))
            self._cover(e, min(k, max(settle, h + 1)))

    def _cover(self, e: int, end: int) -> np.ndarray:
        """Pair e's tape, grown to hold at least ``end`` rewards."""
        buf = self._streams.get(e)
        have = 0 if buf is None else len(buf) << 3
        if buf is not None and end <= have:
            return buf
        grow = -(-max(end - have, have, _FIRST_DRAW) // 8) * 8
        s = self.sims[e]
        parts = [] if buf is None else [buf]
        rng = self._generator(e)
        if have:
            rng.bit_generator.advance(have)
        ones = self._ones[e] if have else 0
        for j in range(0, grow, _PIECE):
            hits = rng.random(min(_PIECE, grow - j)) < s
            parts.append(np.packbits(hits))
            ones += int(np.count_nonzero(hits))
        self._ones[e] = ones
        # A first growth of one part is stored as drawn: copying it made such
        # a growth about 10 % slower.
        buf = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self._streams[e] = buf
        return buf


class _FloatTape(_Tape):
    """Gaussian rewards, ``s(e) + sigma * standard_normal()``, as floats.
    The tape keeps its pairs' generators: ``standard_normal`` rejects a
    varying number of outputs, so no jump count finds a tape's end."""

    def __init__(self, seed: int, sims: np.ndarray, sigma: float) -> None:
        super().__init__(seed, sims)
        self.sigma = sigma
        # Each pair's generator, at the end of its tape.
        self._rngs: dict[int, np.random.Generator] = {}

    def rewards(self, e: int, i: int, k: int) -> np.ndarray:
        """Rewards i, ..., i + k - 1 of pair e as a new float64 array; k == 0 draws nothing."""
        return self._cover(e, i + k)[i : i + k].copy() if k else np.empty(0)

    def _columns(self, lo: int, hi: int) -> np.ndarray:
        """The first ``_COLUMNS`` rewards of pairs lo to hi - 1, a column each."""
        return np.array([self._cover(e, _COLUMNS)[:_COLUMNS] for e in range(lo, hi)]).T

    def draw_first(self, arms: Iterable[int], k: int) -> None:
        """Nothing: a float tape draws each arm as it is read."""

    def total(self, e: int, i: int, k: int) -> float:
        """The sum of rewards i, ..., i + k - 1 of pair e, as a copy sums."""
        return float(self._cover(e, i + k)[i : i + k].sum())

    def above(self, e: int, i: int, k: int) -> bool:
        """Whether ``total(e, i, k) / k > 0.5``, for k >= 1."""
        return self.total(e, i, k) / k > 0.5

    def _cover(self, e: int, end: int) -> np.ndarray:
        """Pair e's tape, grown to hold at least ``end`` rewards."""
        buf = self._streams.get(e)
        have = 0 if buf is None else len(buf)
        if buf is not None and end <= have:
            return buf
        rng = self._rngs.get(e) or self._generator(e)
        fresh = rng.standard_normal(max(end - have, have, _FIRST_DRAW))
        fresh *= self.sigma
        fresh += self.sims[e]
        self._rngs[e] = rng
        buf = fresh if buf is None else np.concatenate((buf, fresh))
        self._streams[e] = buf
        return buf


class Oracle:
    """Stateful noisy similarity oracle over one instance.

    It keeps only pull counts and reads every reward statistic from the tape.
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
        self._total = 0
        self._tape = _tape if _tape is not None else (
            _BitTape(seed, instance.sims) if self.noise.kind == "bernoulli"
            else _FloatTape(seed, instance.sims, self.noise.sigma)
        )

    @property
    def total_pulls(self) -> int:
        return self._total

    def replay(self) -> "Oracle":
        """Fresh counters over the same instance, noise and reward tape."""
        return Oracle(self.instance, self.noise, self.seed, _tape=self._tape)

    def _check(self, arms: Sequence[int], k: int, least: int = 0) -> None:
        """k >= least, every arm is a pair index whose count k more pulls
        leave below 2**63, and k pulls of each fit the budget."""
        if k < least:
            raise ValueError(f"k must be >= {least}")
        for e in arms:
            if not (0 <= e < self._m):
                raise InvalidPairError(f"pair index {e} out of range (m={self._m})")
        # No pair's count exceeds the total, so only then can one overflow.
        if self._total + k > _MAX_PULLS:
            for e in arms:
                if self._counts.item(e) + k > _MAX_PULLS:
                    raise ParameterError(
                        f"{_count(k)} more pulls of pair {e} cannot be counted: the"
                        f" oracle counts at most {_MAX_PULLS} pulls per pair"
                    )
        requested = k * len(arms)
        if self.budget is not None and self._total + requested > self.budget:
            raise BudgetExhaustedError(
                f"budget {_count(self.budget)} exhausted: {_count(self._total)} used,"
                f" {_count(requested)} requested"
            )

    def pull(self, e: int) -> float:
        """One noisy sample of pair e's similarity."""
        self._check((e,), 1)
        reward = self._tape.rewards(e, self._counts.item(e), 1).item(0)
        self.advance(e, 1)
        return reward

    def pull_many(self, e: int, k: int) -> np.ndarray:
        """k pulls of pair e at once; identical stream to k single pulls.

        Raises before mutating anything if the budget cannot cover all k.
        """
        self._check((e,), k)
        rewards = self._tape.rewards(e, self._counts.item(e), k)
        self.advance(e, k)
        return rewards

    def pull_means(self, arms: Iterable[int], k: int) -> np.ndarray:
        """The mean of k pulls of each arm, in order: ``pull_many(e, k).mean()``
        for each e, bit for bit, with the same counters afterwards.

        Raises before mutating anything if an arm is not a pair index or the
        budget cannot cover all ``k * len(arms)`` pulls.
        """
        # An int or float64 sum below 2**53 divides by k to the same float.
        return self._read_phase(arms, k, above=False) / k

    def pull_above(self, arms: Iterable[int], k: int) -> np.ndarray:
        """Whether the mean of k pulls of each arm exceeds 0.5, in order:
        ``pull_means(arms, k) > 0.5``, bit for bit, with the same counters
        and errors, but reading only as many rewards as settle each answer.
        """
        return self._read_phase(arms, k, above=True)

    def _read_phase(self, arms: Iterable[int], k: int, above: bool) -> np.ndarray:
        """The tape's ``above(e, i, k)``, or else its ``total(e, i, k)``, for
        each arm e at its count i, tallying k pulls of each, after checking
        every arm, k >= 1 and the block's budget.  The arms that have no
        tape yet are drawn first, in blocks (``_BitTape.draw_first``)."""
        arms = arms.tolist() if isinstance(arms, np.ndarray) else list(arms)
        self._check(arms, k, least=1)
        tape = self._tape
        tape.draw_first(arms, k)
        read = tape.above if above else tape.total
        counts = self._counts
        out = []
        for e in arms:
            i = counts.item(e)
            out.append(read(e, i, k))
            counts[e] = i + k
            self._total += k
        return np.array(out, dtype=bool if above else np.float64)

    def pull_each(self, arms: Sequence[int]) -> list[float]:
        """One pull of each arm, in order: ``[self.pull(e) for e in arms]``,
        bit for bit, with the same counters and the same error, raised at
        the same arm after the same pulls.  Distinct arms that have never
        been pulled read row 0 of the tape's table, where it keeps one: a
        mean of one reward is the reward."""
        try:
            self._check(arms, 1)
        except NoisyccError:
            for e in arms:  # pulls the arms before the refused one, then raises
                self._read_phase((e,), 1, above=False)
            raise
        pairs = np.array(arms, dtype=np.intp)
        if len(set(arms)) == len(arms) > 0 and not self._counts[pairs].any():
            means = self._tape.table()
            if means is not None:
                self._counts[pairs] = 1
                self._total += len(arms)
                return [means[e] for e in arms]
        return self._read_phase(arms, 1, above=False).tolist()

    def running_means(self, e: int, k: int, mu: float, run: int) -> Iterable[float]:
        """Pair e's running means after each of its next ``run`` pulls,
        without pulling them: ``mu += (r - mu) / k`` one reward at a time,
        continuing ``mu``, the mean this fold gives after pair e's last ``k``
        pulls.

        Each mean is folded, as it is consumed, from a reward read off the
        tape for it; this read builds no table, and a read of none draws
        nothing.  The means the tape's table holds are read through
        ``table_column``.
        """
        if not (0 <= e < self._m and 0 <= run):
            self._check((e,), run)  # raises
        return _folded(self._tape.rewards(e, self._counts.item(e), run).tolist(), k, mu)

    def table_column(self, e: int, k: int) -> memoryview:
        """Pair e's running means after its pulls k + 1, ..., ``_COLUMNS``
        of a fold of its last ``k`` pulls, as a strided view of the tape's
        table, built at the tape's first table read: where the tape keeps
        one and the fold began at pair e's first pull (k equals its pull
        count), else an empty view.  The table holds the scalar fold's
        floats, bit for bit, and its replays share it.  A view taken once
        serves every later read of the fold that stays in the table: entry j
        is the mean after pull k + j + 1."""
        if not 0 <= e < self._m:
            self._check((e,), 0)  # raises
        means = self._tape.table() if self._counts.item(e) == k < _COLUMNS else None
        if means is None:
            return memoryview(b"").cast("d")
        return means[k * self._m + e :: self._m]

    def advance(self, e: int, k: int) -> None:
        """Count pair e's next k rewards as pulled, as k calls of ``pull``
        would, without reading them: the counts are all an oracle keeps.

        Raises before mutating anything if the budget cannot cover all k.
        """
        total = self._total + k
        # Where no check of _check can fail, it is not called: the bandit
        # advances twice per run.
        if not (
            0 <= e < self._m and 0 <= k and total <= _MAX_PULLS
            and (self.budget is None or total <= self.budget)
        ):
            self._check((e,), k)
        self._counts[e] = self._counts.item(e) + k
        self._total = total

    def pulls_report(self) -> tuple[int, np.ndarray]:
        """(total pulls, per-pair pull counts) as a consistent snapshot."""
        return self._total, self._counts.copy()
