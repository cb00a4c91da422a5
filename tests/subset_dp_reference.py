"""Reference subset DP: one scalar step per (set, cluster) candidate.

This is the table loop of ``noisycc.offline.min_cost_partition`` as it was
before each element's sets were solved as one min-plus subset convolution
(``offline._subset_min_plus``).  The property tests hold ``offline._subset_dp``
to it element for element.
"""

from array import array


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
