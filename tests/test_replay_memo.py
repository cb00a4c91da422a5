"""Memoised replays: a phase table shared across the replays of one trial
must give the same labels, reports and Monte-Carlo estimate as running every
replay in full."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycc import GeneratorSpec, NoiseModel, Oracle, generate, num_pairs
from noisycc.cli import _mc_expected_cost
from noisycc.kcfb import run_kcfb
from noisycc.kcfc import run_kcfc_sequential
from noisycc.uniform import OfflineSolver

REPLAYS = 60


@st.composite
def replay_cases(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(n, 4)))
    spec = GeneratorSpec(
        "planted", n, draw(st.integers(0, 2**32 - 1)), k, draw(st.sampled_from([0.0, 0.1, 0.3])),
        draw(st.floats(0.7, 0.95)), draw(st.floats(0.05, 0.3)),
    )
    noise = draw(st.sampled_from([NoiseModel(), NoiseModel("gaussian", 0.3)]))
    if draw(st.booleans()):
        m = num_pairs(n)
        # From m (one pull per pair) upward.
        budget = m + draw(st.integers(0, 60 * max(m, 1)))
        algo = "kcfb"
        run = lambda o, rng, memo=None: run_kcfb(o, budget, rng, memo)  # noqa: E731
    else:
        algo = "kcfc-seq"
        run = lambda o, rng, memo=None: run_kcfc_sequential(o, 1.0, 0.1, rng, 1.0, memo)  # noqa: E731
    return generate(spec), noise, draw(st.integers(0, 2**32 - 1)), algo, run


def report_fields(report):
    """Everything in a report but the labels, which are compared apart."""
    return {k: v for k, v in vars(report).items() if k != "clustering"}


class TestMemoisedReplays:
    @settings(max_examples=40, deadline=None)
    @given(replay_cases())
    def test_same_labels_and_reports_replay_by_replay(self, case):
        instance, noise, seed, _, run = case
        oracle = Oracle(instance, noise, seed=seed)
        run(oracle, np.random.default_rng(seed))
        plain_rng, memo_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        memo = {}
        phases = 0
        for _ in range(REPLAYS):
            plain = run(oracle.replay(), plain_rng)
            memoised = run(oracle.replay(), memo_rng, memo)
            assert np.array_equal(plain.clustering, memoised.clustering)
            assert report_fields(plain) == report_fields(memoised)
            phases += int(plain.clustering.max()) + 1
        # Fewer first phases are possible than replays, so the table must hit.
        assert len(memo) < phases

    @settings(max_examples=40, deadline=None)
    @given(replay_cases())
    def test_same_estimate(self, case):
        instance, noise, seed, algo, run = case
        oracle = Oracle(instance, noise, seed=seed)
        report = run(oracle, np.random.default_rng(seed))
        replay_ss = np.random.SeedSequence(seed)
        estimates = [
            _mc_expected_cost(
                algo, instance, oracle, report, replay_run, OfflineSolver(), replay_ss, REPLAYS
            )
            for replay_run in (lambda o, rng, memo=None: run(o, rng), run)
        ]
        assert estimates[0] == estimates[1]
