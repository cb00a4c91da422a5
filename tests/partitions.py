"""Reference enumerator for the exact optimum: every set partition in order."""

import numpy as np

from noisycc.offline import OptResult, pairwise_cost


def iter_partitions(n: int):
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


def enumerated_opt(sims, n: int) -> OptResult:
    """First strict minimum of ``pairwise_cost`` in RGS order over all partitions."""
    best = None
    for labels in iter_partitions(n):
        value = pairwise_cost(sims, labels)
        if best is None or value < best.opt_value:
            best = OptResult(value, labels)
    return best
