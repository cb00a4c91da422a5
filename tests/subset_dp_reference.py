"""Reference subset DP: the cluster weights from Python lists, and one
scalar step per (set, cluster) candidate.

The table loop is that of ``noisycc.offline.min_cost_partition`` as it was
before each element's sets were solved as one min-plus subset convolution
(``offline._subset_min_plus``); the weights loop is ``offline._subset_dp``'s
as it was before the weights were doubled as arrays.  The property tests hold
``offline._subset_dp`` to both element for element.
"""

from array import array

import numpy as np

from noisycc.instance import pair_endpoints


def reference_weights(sims, n: int) -> array:
    """w[S] = sum over pairs in S of (1 - 2s), each element doubling the
    list of the sets below it."""
    us, vs = pair_endpoints(n)
    a = np.zeros((n, n))
    a[us, vs] = 1.0 - 2.0 * np.asarray(sims, dtype=np.float64)
    a = a.tolist()
    w = [0.0]  # w[S] over the subsets S of range(i); element i doubles it
    for i in range(n):
        c = [0.0]  # c[S] = sum over j in S of a[j][i]
        for j in range(i):
            c += [x + a[j][i] for x in c]
        w += [x + y for x, y in zip(w, c)]
    return array("d", w)


def reference_subset_dp(w, n: int) -> array:
    """f[S] = min over C ⊆ S holding S's lowest element of w[C] + f[S ∖ C]."""
    f = array("d", [0.0]) * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        rest = sub = S ^ low
        best = w[low] + f[rest]
        while sub:
            value = w[low | sub] + f[rest ^ sub]
            if value < best:
                best = value
            sub = (sub - 1) & rest
        f[S] = best
    return f
