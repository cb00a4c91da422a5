"""Reference KwikCluster: one pivot at a time, with plain array operations.

``noisycc.offline.pivot_cluster`` keeps the survivors as bytes, builds their
array only when a phase runs its step, and may replay a phase from its memo.
The property tests hold it to this loop: same labels, and the same draws from
the generator, one ``rng.integers(len(survivors))`` per phase.
"""

import numpy as np

from noisycc.instance import pair_index


def reference_kwikcluster(sims: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.full(n, -1, dtype=np.int64)
    survivors = np.arange(n, dtype=np.int64)
    cluster = 0
    while len(survivors):
        i = int(rng.integers(len(survivors)))
        p = int(survivors[i])
        others = np.delete(survivors, i)
        join = np.array(
            [sims[pair_index(min(p, u), max(p, u), n)] > 0.5 for u in others.tolist()],
            dtype=bool,
        )
        labels[p] = cluster
        labels[others[join]] = cluster
        survivors = others[~join]
        cluster += 1
    return labels
