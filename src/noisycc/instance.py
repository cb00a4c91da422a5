"""Correlation-clustering instances: pair indexing, validation, generation, I/O.

An instance is ``n`` elements plus a dense vector of ``m = n*(n-1)/2`` true
pairwise similarities in ``[0, 1]``.  Pairs are stored in lexicographic order
over ``(u, v)`` with ``u < v``, so pair indices can be computed in O(1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidPairError, InvalidSpecError


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(u: int, v: int, n: int) -> int:
    """Index of pair (u, v), u < v, under the lexicographic pair order."""
    if not (0 <= u < v < n):
        raise InvalidPairError(f"invalid pair ({u}, {v}) for n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def incident_pairs(p: int, others: np.ndarray, n: int) -> np.ndarray:
    """Pair indices of (p, u) for every element u in ``others`` (none equal to p)."""
    lo = np.minimum(p, others)
    hi = np.maximum(p, others)
    return lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)


def pair_mask(pairs, m: int) -> np.ndarray:
    """Boolean length-m vector that is true exactly at the given pair indices."""
    mask = np.zeros(m, dtype=bool)
    mask[list(pairs)] = True
    return mask


def pair_of(e: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index: the (u, v) with u < v at pair index e."""
    m = num_pairs(n)
    if not (0 <= e < m):
        raise InvalidPairError(f"pair index {e} out of range for n={n} (m={m})")
    # Count pairs from the tail: index m-1-e sits in the triangle of size b+1.
    rev = m - 1 - e
    b = (math.isqrt(8 * rev + 1) - 1) // 2
    u = n - 2 - b
    v = e - (u * n - u * (u + 1) // 2) + u + 1
    return u, v


@lru_cache(maxsize=None)
def pair_endpoints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (U, V) with the endpoints of every pair in canonical order."""
    us, vs = (a.astype(np.int64) for a in np.triu_indices(n, k=1))
    us.setflags(write=False)
    vs.setflags(write=False)
    return us, vs


@dataclass(eq=False)
class Instance:
    """n elements plus the m true similarities, immutable after construction.

    ``ground_truth`` carries planted cluster labels when the instance came
    from the planted generator; it plays no role in any algorithm.
    """

    n: int
    sims: np.ndarray
    ground_truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidSpecError(f"n must be >= 1, got {self.n}")
        sims = np.asarray(self.sims, dtype=np.float64)
        m = num_pairs(self.n)
        if sims.shape != (m,):
            raise InvalidSpecError(
                f"sims must have length {m} for n={self.n}, got shape {sims.shape}"
            )
        if not np.all((sims >= 0.0) & (sims <= 1.0)):
            raise InvalidSpecError("similarities must be finite and lie in [0, 1]")
        sims.setflags(write=False)
        object.__setattr__(self, "sims", sims)
        if self.ground_truth is not None:
            gt = np.asarray(self.ground_truth, dtype=np.int64)
            if gt.shape != (self.n,):
                raise InvalidSpecError("ground_truth must have one label per element")
            if np.min(gt) < 0:
                raise InvalidSpecError("ground_truth labels must be non-negative")
            gt.setflags(write=False)
            object.__setattr__(self, "ground_truth", gt)

    @property
    def m(self) -> int:
        return num_pairs(self.n)

    def similarity(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        return float(self.sims[pair_index(u, v, self.n)])


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of a synthetic instance.

    kind "planted": k balanced clusters, intra-cluster similarity ``in_mean``,
    inter-cluster ``out_mean``; each pair's value is then replaced by
    ``1 - value`` with probability ``flip_noise`` (which leaves the distance
    to the 0.5 threshold unchanged).

    kind "uniform_random": i.i.d. similarities from U[lo, hi].
    """

    kind: str
    n: int
    seed: int = 0
    k: int | None = None
    flip_noise: float = 0.0
    in_mean: float = 0.9
    out_mean: float = 0.1
    lo: float = 0.0
    hi: float = 1.0

    def validate(self) -> None:
        if self.kind not in ("planted", "uniform_random"):
            raise InvalidSpecError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise InvalidSpecError("n must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise InvalidSpecError("seed must be a 64-bit unsigned integer")
        if self.kind == "planted":
            if self.k is None or not (1 <= self.k <= self.n):
                raise InvalidSpecError(f"planted requires 1 <= k <= n, got k={self.k}")
            if not (0.0 <= self.flip_noise < 0.5):
                raise InvalidSpecError("flip_noise must lie in [0, 0.5)")
            for name, value in (("in_mean", self.in_mean), ("out_mean", self.out_mean)):
                if not (0.0 <= value <= 1.0):
                    raise InvalidSpecError(f"{name} must lie in [0, 1]")
        else:
            if not (0.0 <= self.lo <= self.hi <= 1.0):
                raise InvalidSpecError("uniform_random requires 0 <= lo <= hi <= 1")


def generate(spec: GeneratorSpec) -> Instance:
    """Deterministically build the instance described by ``spec``."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    m = num_pairs(spec.n)
    if spec.kind == "planted":
        labels = np.arange(spec.n, dtype=np.int64) % spec.k
        us, vs = pair_endpoints(spec.n)
        sims = np.where(labels[us] == labels[vs], spec.in_mean, spec.out_mean)
        if m:
            flips = rng.random(m) < spec.flip_noise
            sims = np.where(flips, 1.0 - sims, sims)
        return Instance(spec.n, sims, ground_truth=labels)
    sims = rng.uniform(spec.lo, spec.hi, m) if m else np.empty(0)
    return Instance(spec.n, sims)


def to_json(instance: Instance) -> str:
    obj: dict = {"n": instance.n, "sims": [float(s) for s in instance.sims]}
    if instance.ground_truth is not None:
        obj["ground_truth"] = [int(g) for g in instance.ground_truth]
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(to_json(instance))


def load_instance(path: str | Path) -> Instance:
    """Read the JSON instance format, rejecting malformed files."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict) or "n" not in obj or "sims" not in obj:
        raise InvalidSpecError("instance file must contain 'n' and 'sims'")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidSpecError("'n' must be an integer")
    return Instance(n, np.asarray(obj["sims"], dtype=np.float64), obj.get("ground_truth"))
