import math
from unittest import mock

import numpy as np
import pytest
from deadline import deadline
from hypothesis import given, settings
from hypothesis import strategies as st
from reads import pulled_mean
from tbhs_reference import reference_tbhs

import noisycc.oracle
from noisycc import tbhs
from noisycc import (
    BudgetExhaustedError,
    GeneratorSpec,
    Instance,
    NoiseModel,
    NoSamplesError,
    Oracle,
    ParameterError,
    TbhsConfig,
    TbhsOutput,
    containment_check,
    generate,
    num_pairs,
    radius,
    run_tbhs,
)

# Frozen via 50-digit evaluation of sqrt(ln(4*6/0.1) / 2).
RADIUS_M6_P1_D01 = 1.6553910298388703217


class TestRadius:
    def test_closed_form_value(self):
        assert radius(6, 1, 0.1) == pytest.approx(RADIUS_M6_P1_D01, rel=1e-9)

    def test_engineered_exact_one(self):
        # delta = 4/e^2 makes the log argument e^2, so the radius is exactly 1.
        assert radius(1, 1, 4.0 / math.e**2) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_delta_decreases(self):
        for m in (1, 5, 40):
            for pulls in (1, 3, 10, 1000):
                assert radius(m, pulls, 0.2) > radius(m, pulls, 0.4)

    def test_monotone_decreasing_past_threshold(self):
        # For these parameters the log argument exceeds e^2 from pulls = 2 on,
        # where the radius is analytically strictly decreasing.
        for m, delta in [(1, 0.5), (6, 0.1), (45, 0.05)]:
            assert 4 * m * 4 / delta > math.e**2
            values = [radius(m, k, delta) for k in range(2, 200)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_pulls_rejected(self):
        with pytest.raises(NoSamplesError):
            radius(6, 0, 0.1)

    def test_scale_multiplies(self):
        assert radius(6, 3, 0.1, scale=2.5) == pytest.approx(2.5 * radius(6, 3, 0.1), rel=1e-12)


class TestRadiusSpan:
    """``_radius_span`` against ``radius`` itself, bit for bit: views of the
    memo's table within it, lists past it."""

    M, DELTA, SCALE = 7, 0.05, 0.75

    def span(self, memo, k, run, step):
        return tbhs._radius_span(memo, self.M, self.DELTA, self.SCALE, k, run, step)

    def radii(self, k, run, step):
        return [radius(self.M, k + t * step, self.DELTA, self.SCALE) for t in range(1, run + 1)]

    @pytest.mark.parametrize("step", [1, 2])
    def test_spans_equal_radius(self, step):
        # One memo, uncached: short spans, spans that grow the table, spans
        # that cross the last memoised count and spans wholly past it.
        memo = tbhs._radii_memo.__wrapped__(self.M, self.DELTA, self.SCALE)
        cap = tbhs._MEMO_COUNTS
        for k, run in [(0, 1), (1, 3), (2, 40), (0, 300), (90, 200), (cap - 70, 30),
                       (cap - 7, 9), (cap - 1, 1), (cap, 4), (cap + 11, 5), (3, 2)]:
            span = self.span(memo, k, run, step)
            assert [r.hex() for r in span] == [r.hex() for r in self.radii(k, run, step)]
            assert isinstance(span, memoryview) == (k + run * step <= cap)
        assert len(memo[0]) == cap + 1

    def test_views_outlive_the_growth(self):
        memo = tbhs._radii_memo.__wrapped__(self.M, self.DELTA, self.SCALE)
        early = self.span(memo, 0, 5, 1)
        table = memo[0]
        # The memo holds what its spans have needed, not every count.
        assert 5 < len(table) < tbhs._MEMO_COUNTS
        late = self.span(memo, 100, 50, 2)
        assert memo[0] is not table and len(memo[0]) >= 2 * len(table)
        assert list(early) == self.radii(0, 5, 1)
        assert list(late) == self.radii(100, 50, 2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TbhsConfig(0.0, 0.1)
        with pytest.raises(ParameterError):
            TbhsConfig(0.5, 0.1)
        with pytest.raises(ParameterError):
            TbhsConfig(0.1, 0.0)
        with pytest.raises(ParameterError):
            TbhsConfig(0.1, 1.0)
        with pytest.raises(ParameterError):
            TbhsConfig(0.1, 0.1, radius_scale=0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, -math.inf])
    def test_radius_scale_must_be_finite(self, scale):
        # An infinite radius never classifies an arm, so the bandit would
        # never stop.
        with pytest.raises(ParameterError, match="radius_scale"):
            TbhsConfig(0.1, 0.1, radius_scale=scale)


class TestUnclassifiableRadius:
    """A Bernoulli mean lies in [0, 1], so a radius that stays above
    0.5 + epsilon for 2**63 pulls can never classify an arm."""

    def test_bernoulli_rejected_before_any_pull(self):
        inst = Instance(4, [0.9, 0.1, 0.9, 0.1, 0.9, 0.1])
        oracle = Oracle(inst, seed=0)
        with deadline(5), pytest.raises(ParameterError, match="2\\*\\*63 pulls"):
            run_tbhs(oracle, range(6), TbhsConfig(0.1, 0.1, radius_scale=1e300))
        assert oracle.total_pulls == 0

    def test_boundary_scale(self):
        # The radius at 2**63 - 1 pulls is about 2.3e-9 * scale here.
        assert not tbhs._unclassifiable(45, TbhsConfig(0.1, 0.1, radius_scale=1e8))
        assert tbhs._unclassifiable(45, TbhsConfig(0.1, 0.1, radius_scale=1e9))

    def test_gaussian_means_are_unbounded(self):
        # Rewards of spread 1e11 push the first means far past a radius of
        # about 1.5e9, so the same config classifies every Gaussian arm.
        inst = Instance(3, [0.9, 0.1, 0.9])
        oracle = Oracle(inst, NoiseModel("gaussian", 1e11), seed=0)
        with deadline(5):
            out = run_tbhs(oracle, range(3), TbhsConfig(0.1, 0.1, radius_scale=1e9))
        assert out.good | out.bad == frozenset(range(3))


class TestRunTbhs:
    def test_deterministic_rewards_classify_exactly(self):
        # Zero-variance Bernoulli arms: similarity 1 always ends good,
        # similarity 0 always ends bad.
        sims = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        inst = Instance(4, sims)
        for seed in range(10):
            out = run_tbhs(Oracle(inst, seed=seed), range(6), TbhsConfig(0.1, 0.1))
            assert out.good == frozenset({0, 2, 4})
            assert out.bad == frozenset({1, 3, 5})

    def test_single_boundary_arm_terminates(self):
        inst = Instance(2, [0.5])
        for seed in range(20):
            out = run_tbhs(Oracle(inst, seed=seed, budget=10**8), [0], TbhsConfig(0.2, 0.1))
            assert out.good | out.bad == frozenset({0})
            assert len(out.good) + len(out.bad) == 1

    def test_empty_arm_set(self):
        inst = Instance(3, [0.5] * 3)
        out = run_tbhs(Oracle(inst, seed=0), [], TbhsConfig(0.1, 0.1))
        assert out == TbhsOutput(frozenset(), frozenset(), 0, 0)

    def test_partition_property_random_instances(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            m = num_pairs(n)
            inst = Instance(n, rng.random(m))
            arms = frozenset(range(m))
            out = run_tbhs(Oracle(inst, seed=seed, budget=10**8), arms, TbhsConfig(0.15, 0.2))
            assert out.good | out.bad == arms
            assert out.good & out.bad == frozenset()

    def test_pull_accounting(self):
        inst = Instance(4, [0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        oracle = Oracle(inst, seed=3)
        out = run_tbhs(oracle, range(6), TbhsConfig(0.1, 0.1))
        assert out.pulls_used == oracle.total_pulls
        assert out.pulls_used == 6 + 2 * out.rounds
        assert out.pulls_used >= 6

    def test_subset_of_arms_only(self):
        inst = Instance(4, [0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        oracle = Oracle(inst, seed=3)
        arms = {1, 4, 5}
        out = run_tbhs(oracle, arms, TbhsConfig(0.1, 0.1))
        assert out.good | out.bad == frozenset(arms)
        _, per_pair = oracle.pulls_report()
        assert per_pair[0] == per_pair[2] == per_pair[3] == 0

    def test_budget_error_propagates(self):
        inst = Instance(4, [0.51] * 6)
        oracle = Oracle(inst, seed=0, budget=10)
        with pytest.raises(BudgetExhaustedError):
            run_tbhs(oracle, range(6), TbhsConfig(0.01, 0.01))
        assert oracle.total_pulls <= 10

    def test_radius_scale_widens_and_still_terminates(self):
        inst = Instance(2, [0.9])
        base = run_tbhs(Oracle(inst, seed=1), [0], TbhsConfig(0.1, 0.1))
        scaled = run_tbhs(Oracle(inst, seed=1), [0], TbhsConfig(0.1, 0.1, radius_scale=2.0))
        assert scaled.good | scaled.bad == frozenset({0})
        assert scaled.pulls_used > base.pulls_used


def tbhs_outcome(run, inst, noise, seed, budget, arms, config):
    """Everything a caller can see of one bandit call: its output or its
    exception, and the oracle's counters and per-arm means afterwards."""
    oracle = Oracle(inst, noise, seed=seed, budget=budget)
    try:
        result = run(oracle, arms, config)
    except BudgetExhaustedError as exc:
        result = (type(exc), str(exc))
    total, counts = oracle.pulls_report()
    means = {e: pulled_mean(oracle, e) for e in np.flatnonzero(counts).tolist()}
    return result, total, counts.tolist(), means


@st.composite
def bandit_cases(draw):
    n = draw(st.integers(2, 6))
    m = num_pairs(n)
    sims = draw(st.one_of(
        st.just([0.5] * m),
        st.lists(st.integers(0, 8).map(lambda k: k / 8), min_size=m, max_size=m),
        st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
    ))
    gaussian = draw(st.booleans())
    noise = NoiseModel("gaussian", draw(st.sampled_from([0.1, 0.3, 1.0]))) if gaussian else None
    # The bandit needs about radius^-2 pulls per arm near 0.5, so keep the
    # slack (and for Gaussian rewards the radius scale) away from extremes.
    near_half = gaussian or any(abs(s - 0.5) < 0.1 for s in sims)
    epsilon = draw(st.floats(0.05 if near_half else 0.01, 0.3))
    scale = draw(st.sampled_from([0.5, 1.0])) if gaussian else 1.0
    config = TbhsConfig(epsilon, draw(st.sampled_from([0.01, 0.1, 0.5])), scale)
    arms = draw(st.one_of(
        st.just(range(m)),
        st.lists(st.integers(0, m - 1), min_size=1, max_size=m),
    ))
    budget = draw(st.none() | st.integers(0, 500))
    seed = draw(st.integers(0, 2**32 - 1))
    return Instance(n, sims), noise, seed, budget, arms, config


class TestMatchesRoundAtATime:
    """The run-length loop against ``tests/tbhs_reference.py``, which pulls
    and selects one round at a time."""

    @settings(max_examples=150, deadline=None)
    @given(bandit_cases())
    def test_random_cases(self, case):
        assert tbhs_outcome(run_tbhs, *case) == tbhs_outcome(reference_tbhs, *case)

    # Ids as the cases were first named, so that their test names stay stable.
    @pytest.mark.parametrize("arms,sims,budget", [
        pytest.param([0], [0.5], None, id="arms0-sims0-None-None"),  # e_g == e_b every round
        pytest.param(range(6), [0.5] * 6, None, id="arms1-sims1-None-None"),  # constant ties
        pytest.param(range(6), [1.0] * 6, None, id="arms2-sims2-None-None"),  # arm 0: both minima
        pytest.param(range(6), [0.5] * 6, 301, id="arms3-sims3-301-None"),
        pytest.param([0], [0.5], 100, id="arms5-sims5-100-None"),  # out on a round's 2nd pull
    ])
    def test_edge_cases(self, arms, sims, budget):
        inst = Instance(4, sims + [0.5] * (6 - len(sims)))
        for seed in range(5):
            case = (inst, None, seed, budget, arms, TbhsConfig(0.05, 0.1))
            assert tbhs_outcome(run_tbhs, *case) == tbhs_outcome(reference_tbhs, *case)

    @pytest.mark.parametrize("limit_arm,arms", [
        (0, [0, 1, 2]),
        (1, [0, 1, 2]),
        (2, [0, 1, 2]),
        (1, [0, 2]),  # the arm at the limit is not the bandit's
    ])
    def test_first_pulls_stop_at_the_count_limit(self, limit_arm, arms):
        # The arms before the one at the limit are pulled, and pulling that
        # one raises.  Only counters are compared: a reward read of an arm at
        # such a count would grow its tape toward 2**63 rewards.
        def outcome(run):
            oracle = Oracle(Instance(3, [0.9, 0.1, 0.8]))
            oracle.advance(limit_arm, 2**63 - 1)
            try:
                result = run(oracle, arms, TbhsConfig(0.1, 0.1))
            except ParameterError as exc:
                result = str(exc)
            total, counts = oracle.pulls_report()
            return result, total, counts.tolist()

        assert outcome(run_tbhs) == outcome(reference_tbhs)

    def test_beyond_the_radius_memo(self):
        # Tens of thousands of pulls of one arm: radii past the memoised
        # counts come from radius() directly, and the memo stays bounded.
        case = (Instance(2, [0.5]), None, 1, None, [0], TbhsConfig(0.02, 0.1))
        new = tbhs_outcome(run_tbhs, *case)
        assert new == tbhs_outcome(reference_tbhs, *case)
        assert new[1] > 2 * tbhs._MEMO_COUNTS
        assert len(tbhs._radii_memo(1, 0.1, 1.0)[0]) <= tbhs._MEMO_COUNTS + 1

    def test_memo_keeps_few_keys(self):
        inst = Instance(2, [0.9])
        for i in range(tbhs._MEMO_KEYS + 5):
            run_tbhs(Oracle(inst, seed=i), [0], TbhsConfig(0.1, 0.1 / (i + 1)))
        assert tbhs._radii_memo.cache_info().currsize <= tbhs._MEMO_KEYS


def after_pulls(run, pulls):
    """``run`` on an oracle whose arms were first pulled ``pulls[e]`` times each
    with ``pull_many``: they enter the bandit at non-zero counts."""

    def go(oracle, arms, config):
        for e, k in pulls.items():
            oracle.pull_many(e, k)
        return run(oracle, arms, config)

    return go


def then_on_the_same_tape(run, arms, config):
    """``run`` twice more after the first call: on the same oracle, whose
    shared arms then enter at non-zero counts, and on a replay of it, whose
    arms enter at count 0, over a tape the first call has read."""

    def go(oracle, first_arms, first_config):
        first = run(oracle, first_arms, first_config)
        replayed = run(oracle.replay(), arms, config)
        return first, replayed, run(oracle, arms, config)

    return go


class TestTableReadsMatchRoundAtATime:
    """Bandits whose arms read means from the tape's table, from the scalar
    fold, or from both, against ``tests/tbhs_reference.py``."""

    @settings(max_examples=60, deadline=None)
    @given(bandit_cases(), st.data())
    def test_arms_pulled_before_the_bandit(self, case, data):
        m = case[0].m
        pulls = data.draw(st.dictionaries(
            st.integers(0, m - 1), st.sampled_from([1, 2, 7, 300, 511, 512, 600]), max_size=m,
        ))
        assert (tbhs_outcome(after_pulls(run_tbhs, pulls), *case)
                == tbhs_outcome(after_pulls(reference_tbhs, pulls), *case))

    @settings(max_examples=60, deadline=None)
    @given(bandit_cases(), st.data())
    def test_two_calls_on_one_tape(self, case, data):
        m = case[0].m
        arms = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))
        config = TbhsConfig(
            data.draw(st.floats(0.05, 0.3)), data.draw(st.sampled_from([0.01, 0.1])),
            case[-1].radius_scale,
        )
        assert (tbhs_outcome(then_on_the_same_tape(run_tbhs, arms, config), *case)
                == tbhs_outcome(then_on_the_same_tape(reference_tbhs, arms, config), *case))


    @settings(max_examples=100, deadline=None)
    @given(bandit_cases())
    def test_random_cases_without_a_table(self, case):
        # As on an instance of more than _TABLE_PAIRS pairs: the tape keeps
        # no table, and every running mean is folded from its rewards.
        with mock.patch.object(noisycc.oracle, "_TABLE_PAIRS", 0):
            assert Oracle(case[0])._tape.table() is None
            assert tbhs_outcome(run_tbhs, *case) == tbhs_outcome(reference_tbhs, *case)

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", 0.3)],
                             ids=["bernoulli", "gaussian"])
    @pytest.mark.parametrize("arms", [range(6), [1, 4], [2]], ids=["all", "two", "one"])
    def test_runs_cross_the_table_end(self, noise, arms):
        # Arms within 0.05 of 0.5 under a small slack need more than the
        # table's 512 rewards, so runs that read the table go on past it.
        inst = Instance(4, [0.47, 0.52, 0.5, 0.45, 0.54, 0.49])
        for seed in range(5):
            case = (inst, noise, seed, None, arms, TbhsConfig(0.05, 0.1))
            new = tbhs_outcome(run_tbhs, *case)
            assert new == tbhs_outcome(reference_tbhs, *case)
            assert max(new[2]) > 512


class TestRunLength:
    """How far a run reads: as far as the tape's table holds its arms'
    means, so a lone arm that settles within the table is one run, one
    ``Oracle.advance`` call."""

    @pytest.mark.parametrize("s,seed,rounds,good", [
        (0.6, 0, 222, [0]),
        (0.38, 2, 180, []),
    ])
    def test_lone_arm_settles_in_one_run_inside_the_table(self, monkeypatch, s, seed,
                                                         rounds, good):
        advances = []
        advance = Oracle.advance

        def counted(self, e, k):
            advances.append(k)
            advance(self, e, k)

        monkeypatch.setattr(Oracle, "advance", counted)
        out = run_tbhs(Oracle(Instance(2, [s]), seed=seed), [0], TbhsConfig(0.05, 0.1))
        assert (out.rounds, sorted(out.good)) == (rounds, good)
        # More rounds than a read past the table holds, within the table's
        # 512 rewards: the first pull and two per round.
        assert tbhs._BLOCK < rounds and 1 + 2 * rounds <= 512
        assert advances == [2 * rounds]

    @pytest.mark.parametrize("noise", [None, NoiseModel("gaussian", 0.3)],
                             ids=["bernoulli", "gaussian"])
    def test_folds_only_past_the_arms_column(self, monkeypatch, noise):
        # An arm's column holds its means after pulls 2 to 512, so a run
        # reads it there whatever the other arm reads, and folds an arm's
        # rewards only from 511 pulls on: a lone arm at 511 needs the mean
        # after pull 513.  Arms near 0.5 go past the table, others stop within.
        folded_at = []
        running_means = Oracle.running_means

        def recorded(self, e, k, mu, run):
            folded_at.append(k)
            return running_means(self, e, k, mu, run)

        monkeypatch.setattr(Oracle, "running_means", recorded)
        inst = Instance(4, [0.7, 0.55, 0.3, 0.5, 0.3, 0.48])
        for seed in range(5):
            case = (inst, noise, seed, None, range(6), TbhsConfig(0.05, 0.1))
            new = tbhs_outcome(run_tbhs, *case)
            assert new == tbhs_outcome(reference_tbhs, *case)
        assert folded_at and min(folded_at) >= 511


@st.composite
def long_run_cases(draw):
    """Bandits whose lone arms read 100 to 250 rounds of their columns in a
    run: slack at most 0.01 and similarities at least 0.15 from 0.5, a few
    values shared by many arms, so that another arm's bound may overtake a
    lone arm's, and budgets that may stop a run inside its column."""
    n = draw(st.integers(2, 5))
    m = num_pairs(n)
    values = draw(st.lists(st.floats(0.2, 0.35) | st.floats(0.65, 0.8), min_size=1, max_size=3))
    sims = draw(st.lists(st.sampled_from(values), min_size=m, max_size=m))
    gaussian = draw(st.booleans())
    noise = NoiseModel("gaussian", 0.3) if gaussian else None
    scale = draw(st.sampled_from([0.5, 1.0])) if gaussian else 1.0
    epsilon = draw(st.floats(0.001, 0.01))
    config = TbhsConfig(epsilon, draw(st.sampled_from([0.01, 0.1, 0.5])), scale)
    arms = draw(st.one_of(
        st.just(range(m)),
        st.lists(st.integers(0, m - 1), min_size=1, max_size=m),
    ))
    budget = draw(st.none() | st.integers(0, 3000))
    seed = draw(st.integers(0, 2**32 - 1))
    return Instance(n, sims), noise, seed, budget, arms, config


class TestLongTableRunsMatchRoundAtATime:
    """Long lone-arm runs inside the table, whose stop is searched in one
    numpy pass (``tbhs._stop_in``), against ``tests/tbhs_reference.py``."""

    @settings(max_examples=80, deadline=None)
    @given(long_run_cases())
    def test_random_cases(self, case):
        assert tbhs_outcome(run_tbhs, *case) == tbhs_outcome(reference_tbhs, *case)

    def test_the_array_search_meets_every_stop(self, monkeypatch):
        # A lone run stops where its arm is classified, where another arm's
        # LCB or UCB overtakes it, or at the end of its read: the column's
        # end or the budget's.
        stops = set()
        stop_in = tbhs._stop_in

        def recorded(means, radii, lo_g, hi_b, good_at, bad_at):
            done, mg, lg, ug = stop_in(means, radii, lo_g, hi_b, good_at, bad_at)
            assert len(means) > tbhs._HEAD
            stops.add("good" if lg >= good_at else "bad" if ug <= bad_at
                      else "lo_g" if lg < lo_g else "hi_b" if ug > hi_b else "end")
            return done, mg, lg, ug

        monkeypatch.setattr(tbhs, "_stop_in", recorded)
        for sims in ([0.7, 0.3, 0.7, 0.3, 0.8, 0.2], [0.65, 0.35, 0.66, 0.34, 0.65, 0.35],
                     [0.3] * 6):
            for noise, scale in ((None, 1.0), (NoiseModel("gaussian", 0.3), 0.5)):
                for budget in (None, 400):
                    for seed in range(5):
                        case = (Instance(4, sims), noise, seed, budget, range(6),
                                TbhsConfig(0.01, 0.1, scale))
                        assert tbhs_outcome(run_tbhs, *case) == tbhs_outcome(reference_tbhs, *case)
        assert stops == {"good", "bad", "lo_g", "hi_b", "end"}


class TestPinnedOutputs:
    """Pinned (pulls_used, rounds, good) of ``run_tbhs``: any change to arm
    selection, tie-breaking or the reward stream changes them."""

    @staticmethod
    def summary(out):
        return out.pulls_used, out.rounds, sorted(out.good)

    @pytest.mark.parametrize("seed,expected", [
        (0, (856, 425, [1, 4])),
        (1, (708, 351, [0, 1, 2])),
    ])
    def test_all_half_instance(self, seed, expected):
        # Every arm has s = 0.5, so equal (pulls, mean) states tie constantly.
        inst = Instance(4, [0.5] * 6)
        out = run_tbhs(Oracle(inst, seed=seed), range(6), TbhsConfig(0.2, 0.1))
        assert self.summary(out) == expected

    def test_planted_at_kcfc_slack(self):
        inst = generate(GeneratorSpec("planted", n=8, k=2, flip_noise=0.1, seed=7))
        m = inst.m
        out = run_tbhs(Oracle(inst, seed=3), range(m), TbhsConfig(1.0 / (12 * m), 0.1))
        good = [1, 3, 5, 6, 8, 10, 12, 14, 16, 19, 21, 24, 26]
        assert self.summary(out) == (1278, 625, good)

    def test_gaussian_oracle(self):
        inst = Instance(4, [0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        oracle = Oracle(inst, NoiseModel("gaussian", 0.3), seed=4)
        out = run_tbhs(oracle, range(6), TbhsConfig(0.1, 0.1, radius_scale=0.6))
        assert self.summary(out) == (86, 40, [0, 1, 4])

    def test_subset_of_arms(self):
        inst = Instance(4, [0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        out = run_tbhs(Oracle(inst, seed=3), {1, 4, 5}, TbhsConfig(0.1, 0.1))
        assert self.summary(out) == (201, 99, [1, 4])

    @pytest.mark.parametrize("budget,counts", [
        (400, [2, 197, 2, 197, 1, 1]),  # runs out on e_g's pull
        (401, [2, 198, 2, 197, 1, 1]),  # e_g pulled, runs out on e_b's pull
    ])
    def test_budget_stop(self, budget, counts):
        # Arms 1 and 3 hold (e_g, e_b) for many rounds in a row when the
        # budget runs out.
        inst = Instance(4, [0.55, 0.6, 0.45, 0.5, 0.4, 0.52])
        oracle = Oracle(inst, seed=5, budget=budget)
        with pytest.raises(BudgetExhaustedError) as exc:
            run_tbhs(oracle, range(6), TbhsConfig(0.05, 0.1))
        assert str(exc.value) == f"budget {budget} exhausted: {budget} used, 1 requested"
        total, per_pair = oracle.pulls_report()
        assert total == oracle.total_pulls == budget
        assert per_pair.tolist() == counts


class TestContainment:
    def test_all_high_in_good(self):
        inst = Instance(3, [0.9, 0.8, 0.7])
        out = TbhsOutput(frozenset({0, 1, 2}), frozenset(), 10, 2)
        assert containment_check(out, inst, 0.1)

    def test_explicit_violation(self):
        inst = Instance(3, [0.9, 0.8, 0.7])
        out = TbhsOutput(frozenset({1, 2}), frozenset({0}), 10, 2)
        assert not containment_check(out, inst, 0.1)

    def test_band_arms_land_anywhere(self):
        inst = Instance(3, [0.55, 0.45, 0.5])
        out = TbhsOutput(frozenset({1}), frozenset({0, 2}), 10, 2)
        assert containment_check(out, inst, 0.1)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        outcomes = set()
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = num_pairs(n)
            inst = Instance(n, rng.choice([0.1, 0.45, 0.5, 0.55, 0.9], size=m))
            good = frozenset(np.flatnonzero(rng.random(m) < 0.5).tolist())
            out = TbhsOutput(good, frozenset(range(m)) - good, 0, 0)
            expected = all(
                (s <= 0.6 or e in out.good) and (s >= 0.4 or e in out.bad)
                for e, s in enumerate(inst.sims.tolist())
            )
            assert containment_check(out, inst, 0.1) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_noise_free_classification_is_contained(self):
        sims = [1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        inst = Instance(5, sims)
        out = run_tbhs(Oracle(inst, seed=0), range(10), TbhsConfig(0.2, 0.1))
        assert containment_check(out, inst, 0.2)


class TestHoeffdingCoverage:
    def test_anytime_event_coverage_quick(self):
        # 100-run spot check of the anytime confidence sequence at delta=0.1;
        # the acceptance suite runs the full 500-run version.
        inst = Instance(2, [0.7])
        delta = 0.1
        ks = np.arange(1, 501)
        rads = np.array([radius(1, int(k), delta) for k in ks])
        covered = 0
        for seed in range(100):
            rewards = Oracle(inst, seed=seed).pull_many(0, 500)
            means = np.cumsum(rewards) / ks
            if np.all(np.abs(means - 0.7) < rads):
                covered += 1
        assert covered >= 90
