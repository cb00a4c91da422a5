"""Memoised replays above n = 64, where a survivor set no longer fits one
machine word: a shared phase table must still give the same labels and
reports as running every replay in full."""

import numpy as np
import pytest

from noisycc import GeneratorSpec, Oracle, generate, num_pairs
from noisycc.kcfb import run_kcfb
from noisycc.kcfc import run_kcfc_sequential

REPLAYS = 40


def report_fields(report):
    """Everything in a report but the labels, which are compared apart."""
    return {k: v for k, v in vars(report).items() if k != "clustering"}


def kcfb_n120(oracle, rng, memo=None):
    return run_kcfb(oracle, 100 * num_pairs(120), rng, memo)


def kcfc_seq_n70(oracle, rng, memo=None):
    return run_kcfc_sequential(oracle, 1.0, 0.1, rng, 1.0, memo)


@pytest.mark.parametrize("n,run", [(120, kcfb_n120), (70, kcfc_seq_n70)])
def test_same_labels_and_reports_replay_by_replay(n, run):
    instance = generate(GeneratorSpec("planted", n, 5, 4, 0.1, 0.9, 0.1))
    oracle = Oracle(instance, seed=11)
    run(oracle, np.random.default_rng(11))
    plain_rng, memo_rng = np.random.default_rng(12), np.random.default_rng(12)
    memo = {}
    phases = 0
    for _ in range(REPLAYS):
        plain = run(oracle.replay(), plain_rng)
        memoised = run(oracle.replay(), memo_rng, memo)
        assert np.array_equal(plain.clustering, memoised.clustering)
        assert report_fields(plain) == report_fields(memoised)
        phases += int(plain.clustering.max()) + 1
    assert 0 < len(memo) < phases
