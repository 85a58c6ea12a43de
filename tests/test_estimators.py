import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_arena import (
    CdfEst,
    CdfEstimate,
    ConfidenceBoost,
    MeanEst,
    OnlineAlgorithm,
    ProtocolError,
    QuantileReduction,
    ValidationError,
    empirical_cdf,
    median_from_cdf,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestCdfEstQueries:
    def test_single_choice(self):
        assert all(CdfEst(1).next_query(rng(s)) == 1 for s in range(5))

    def test_uniform_frequencies(self):
        n, draws = 4, 100_000
        g = rng(2)
        alg = CdfEst(n)
        counts = np.zeros(n + 1)
        for _ in range(draws):
            counts[alg.next_query(g)] += 1
            alg.observe(0)
        se = np.sqrt(0.25 * 0.75 / draws)
        assert np.all(np.abs(counts[1:] / draws - 0.25) < 4 * se)

    def test_replay_determinism(self):
        def take(seed):
            g = rng(seed)
            alg = CdfEst(8)
            out = []
            for _ in range(50):
                out.append(alg.next_query(g))
                alg.observe(0)
            return out

        assert take(7) == take(7)


class TestCdfEstEstimate:
    def test_single_positive_round(self):
        alg = CdfEst(4)
        alg.ingest(3, 1)  # query 3, sample 2
        assert alg.estimate().values.tolist() == [0, 0, 0, 4, 0, 1]

    def test_single_negative_round(self):
        alg = CdfEst(4)
        alg.ingest(3, 0)  # query 3, sample 4
        assert alg.estimate().values.tolist() == [0, 0, 0, 0, 0, 1]

    def test_average_over_all_queries_is_threshold_function(self):
        # hidden sample x=2: averaging the estimate over the four equiprobable
        # queries recovers 1(2 <= i) exactly
        n, x = 4, 2
        acc = np.zeros(n + 2)
        for q in range(1, n + 1):
            alg = CdfEst(n)
            alg.ingest(q, int(x <= q))
            acc += alg.estimate().values
        assert np.allclose(acc / n, [0, 0, 1, 1, 1, 1])

    def test_no_observations(self):
        with pytest.raises(ValidationError, match="no observations"):
            CdfEst(4).estimate()


class TestMedianFromCdf:
    def test_first_value_above_half(self):
        assert median_from_cdf(CdfEstimate.from_values([0, 4, 0, 0, 1])) == 2
        assert median_from_cdf(CdfEstimate.from_values([0, 0, 4, 0, 1])) == 3

    def test_only_top_exceeds_half(self):
        assert median_from_cdf(CdfEstimate.from_values([0.1, 0.2, 0.3, 0.4, 1])) == 5

    def test_non_monotone_literal_min_rule(self):
        assert median_from_cdf(CdfEstimate.from_values([0.51, 0.49, 0.6, 0.9, 1])) == 1

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.floats(min_value=0, max_value=2, allow_nan=False),
                    min_size=n,
                    max_size=n,
                ),
                st.integers(min_value=1, max_value=n),
                st.floats(min_value=0.01, max_value=1.0),
            )
        )
    )
    def test_monotone_under_pointwise_increase(self, case):
        values, bump_at, bump = case
        before = median_from_cdf(CdfEstimate.from_values(values + [1.0]))
        raised = list(values)
        raised[bump_at - 1] += bump
        after = median_from_cdf(CdfEstimate.from_values(raised + [1.0]))
        assert after <= before


class TestMeanEst:
    def test_single_above_round(self):
        alg = MeanEst(4)
        alg.ingest(2, 0)  # sample 3 > query 2
        assert alg.estimate() == 5.0

    def test_constant_low_sample(self):
        alg = MeanEst(6)
        g = rng(3)
        for _ in range(20):
            q = alg.next_query(g)
            alg.observe(int(1 <= q))  # x = 1 always
            assert alg.estimate() == 1.0

    def test_average_over_all_queries_is_sample(self):
        n, x = 4, 3
        acc = 0.0
        for q in range(1, n + 1):
            alg = MeanEst(n)
            alg.ingest(q, int(x <= q))
            acc += alg.estimate()
        assert acc / n == 3.0

    def test_no_observations(self):
        with pytest.raises(ValidationError, match="no observations"):
            MeanEst(4).estimate()


def test_exact_unbiasedness_small_enumeration():
    # all query sequences, fixed samples: mean estimate is exact
    n, xs = 3, (2, 4)
    f = empirical_cdf(xs, n)
    acc = np.zeros(n + 2)
    acc_mu = 0.0
    for qs in itertools.product(range(1, n + 1), repeat=len(xs)):
        cdf, mean = CdfEst(n), MeanEst(n)
        for q, x in zip(qs, xs):
            cdf.ingest(q, int(x <= q))
            mean.ingest(q, int(x <= q))
        acc += cdf.estimate().values
        acc_mu += mean.estimate()
    count = n ** len(xs)
    assert np.max(np.abs(acc / count - f.floats())) < 1e-12
    assert abs(acc_mu / count - float(f.mean())) < 1e-12


@pytest.mark.parametrize("cls", [CdfEst, MeanEst])
def test_batch_methods_replay_live_play(cls):
    n, horizon = 7, 60
    samples = rng(4).integers(1, n + 2, size=horizon)
    g_batch, g_live = rng(5), rng(5)
    queries = cls(n).query_batch(g_batch, horizon)
    feedback = samples <= queries
    batch = cls(n).estimate_batch(queries, feedback)
    alg = cls(n)
    for t in range(horizon):
        assert alg.next_query(g_live) == queries[t]
        alg.observe(int(feedback[t]))
        live = alg.estimate()
        assert np.array_equal(batch[..., t], live.values if cls is CdfEst else live)
    assert g_batch.random() == g_live.random()  # same rng consumption

    # uneven consecutive blocks, one of a single row, equal the whole call,
    # and leave the instance where live play leaves it
    blocked = cls(n)
    cuts = [0, 13, 14, 41, horizon]
    parts = [blocked.estimate_batch(queries[a:b], feedback[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert [p.shape[-1] for p in parts] == [13, 1, 27, 19]
    assert np.array_equal(np.concatenate(parts, axis=-1), batch)
    assert blocked.t == alg.t == horizon
    if cls is CdfEst:
        assert np.array_equal(blocked.snapshot().values, alg.snapshot().values)
    else:
        assert type(blocked.snapshot()) is float and blocked.snapshot() == alg.snapshot()


_BATCH_WRAPPERS = {
    "quantile-0.75": lambda g: QuantileReduction(CdfEst(7), 0.75, g),
    "quantile-0.25": lambda g: QuantileReduction(CdfEst(7), 0.25, g),
    "boosted-cdf": lambda g: ConfidenceBoost(lambda: CdfEst(7), 0.25, g, copies=6),
    "boosted-mean": lambda g: ConfidenceBoost(lambda: MeanEst(7), 0.25, g, copies=5),
}


@pytest.mark.parametrize("name", sorted(_BATCH_WRAPPERS))
def test_wrapper_batch_methods_replay_live_play(name):
    # uneven blocks, one of a single row; early rounds leave some copies idle
    n, horizon = 7, 60
    samples = rng(4).integers(1, n + 2, size=horizon)
    g_batch, g_live = rng(5), rng(5)  # the algorithm lane
    batch, live = _BATCH_WRAPPERS[name](rng(6)), _BATCH_WRAPPERS[name](rng(6))  # own lanes
    queries = batch.query_batch(g_batch, horizon)
    feedback = samples <= queries
    cuts = [0, 13, 14, 41, horizon]
    rows = np.concatenate(
        [batch.estimate_batch(queries[a:b], feedback[a:b]) for a, b in zip(cuts, cuts[1:])], axis=-1
    )
    for t in range(horizon):
        assert live.next_query(g_live) == queries[t]
        live.observe(int(feedback[t]))
        if name.startswith("quantile"):
            assert np.array_equal(rows[:, t], live.inner.snapshot().values)
            assert median_from_cdf(CdfEstimate(n, rows[:, t])) == live.snapshot()
        elif name == "boosted-cdf":
            assert np.array_equal(rows[:, t], live.snapshot().values)
        else:
            assert rows[t] == live.snapshot()
    assert g_batch.random() == g_live.random()  # same rng consumption
    assert batch._rng.random() == live._rng.random()
    assert batch.t == live.t == horizon
    if name.startswith("boosted"):
        assert [c.t for c in batch.copies] == [c.t for c in live.copies]
        assert min(c.t for c in live.copies) > 0
        final = batch.snapshot()
        expect = live.snapshot()
        if name == "boosted-cdf":
            assert np.array_equal(final.values, expect.values)
        else:
            assert type(final) is float and final == expect
    else:
        assert batch.snapshot() == live.snapshot()


_FAST_FORWARD = {
    "cdfest": lambda g: CdfEst(7),
    "meanest": lambda g: MeanEst(7),
    **_BATCH_WRAPPERS,
}


@pytest.mark.parametrize("cut", [0, 1, 20, 60])  # the whole call runs in blocks of 20
@pytest.mark.parametrize("name", sorted(_FAST_FORWARD))
def test_ingest_batch_then_estimate_batch_is_the_tail_of_one_replay(name, cut):
    n, horizon = 7, 60
    samples = rng(4).integers(1, n + 2, size=horizon)
    whole, forwarded = _FAST_FORWARD[name](rng(6)), _FAST_FORWARD[name](rng(6))
    queries = whole.query_batch(rng(5), horizon)
    feedback = samples <= queries
    rows = np.concatenate(
        [whole.estimate_batch(queries[a : a + 20], feedback[a : a + 20]) for a in range(0, horizon, 20)],
        axis=-1,
    )
    assert forwarded.ingest_batch(queries[:cut], feedback[:cut]) is None
    assert forwarded.t == cut
    if cut < horizon:
        tail = forwarded.estimate_batch(queries[cut:], feedback[cut:])
        assert tail.dtype == rows.dtype and np.array_equal(tail, rows[..., cut:])
    # the state afterwards is the whole replay's
    assert forwarded.t == whole.t == horizon
    final, expect = forwarded.snapshot(), whole.snapshot()
    if hasattr(expect, "values"):
        assert np.array_equal(final.values, expect.values)
    else:
        assert type(final) is type(expect) and final == expect
    # and so is every uniform querier's statistic: the bare one, a wrapper's inner or each copy
    parts = [(forwarded, whole)]
    if hasattr(whole, "inner"):
        parts.append((forwarded.inner, whole.inner))
    if hasattr(whole, "copies"):
        parts.extend(zip(forwarded.copies, whole.copies))
    for a, b in parts:
        assert a.t == b.t and np.array_equal(getattr(a, "_stat", 0), getattr(b, "_stat", 0))
    if hasattr(whole, "_rng"):  # the wrapper's own lane is left where the replay leaves it
        assert forwarded._rng.random() == whole._rng.random()


def test_live_median_equals_np_median_bitwise():
    from threshold_arena.estimators import _live_median

    g = rng(11)
    copies, lanes = 7, 300
    # multiples of 1/7 and 1/3 give ties and inexact middle-pair sums
    values = g.integers(0, 30, size=(copies, lanes, 4)) / g.choice([3.0, 7.0], size=(copies, lanes, 4))
    live = g.random((copies, lanes)) < 0.5
    live[g.integers(copies, size=lanes), np.arange(lanes)] = True
    counts = live.sum(axis=0)
    assert {1, 2, 3, 4}.issubset(set(counts.tolist())) and (counts < copies).any()
    # copies along the last axis, as the booster lays them out
    rows = _live_median(values.transpose(2, 1, 0), live.T)
    means = _live_median(values[:, :, 0].T, live.T)
    for r in range(lanes):
        assert np.array_equal(rows[:, r], np.median(values[live[:, r], r], axis=0))
        assert means[r] == np.median(values[live[:, r], r, 0])
    # the booster's snapshot skips idle copies and takes the same median
    boost = ConfidenceBoost(lambda: CdfEst(4), 0.25, rng(3), copies=4)
    g_live = rng(4)
    for bit in (1, 0, 1):
        boost.next_query(g_live)
        boost.observe(bit)
    live_copies = [c for c in boost.copies if c.t > 0]
    assert 1 < len(live_copies) < 4
    stacked = np.stack([c.snapshot().values for c in live_copies])
    assert np.array_equal(boost.snapshot().values, np.median(stacked, axis=0))


def test_alternation_protocol_enforced():
    alg = CdfEst(4)
    with pytest.raises(ProtocolError, match="observe"):
        alg.observe(1)
    alg.next_query(rng())
    with pytest.raises(ProtocolError, match="next_query"):
        alg.next_query(rng())


class _BitRecorder(OnlineAlgorithm):
    kind = "median"

    def __init__(self, n):
        super().__init__(n)
        self.bits = []

    def _query(self, g):
        return 1

    def _ingest(self, query, feedback):
        self.bits.append(feedback)

    def snapshot(self):
        return 1


class TestQuantileReduction:
    def test_tau_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValidationError):
                QuantileReduction(CdfEst(4), bad, rng())

    def test_inner_kind_validation(self):
        with pytest.raises(ValidationError, match="median"):
            QuantileReduction(MeanEst(4), 0.75, rng())

    def test_identity_wrapper_draws_nothing(self):
        wrapper = QuantileReduction(_BitRecorder(4), 0.5, rng=None)
        g = rng(1)
        for bit in (1, 0, 1, 1):
            wrapper.next_query(g)
            wrapper.observe(bit)
        assert wrapper.inner.bits == [1, 0, 1, 1]

    def test_zero_bit_stays_zero_above_half(self):
        wrapper = QuantileReduction(_BitRecorder(4), 0.75, rng(5))
        g = rng(1)
        for _ in range(200):
            wrapper.next_query(g)
            wrapper.observe(0)
        assert wrapper.inner.bits == [0] * 200

    def test_one_bit_thinned_above_half(self):
        # tau = 3/4: a positive bit survives with probability 1/(2 tau) = 2/3
        wrapper = QuantileReduction(_BitRecorder(4), 0.75, rng(5))
        g = rng(1)
        trials = 30_000
        for _ in range(trials):
            wrapper.next_query(g)
            wrapper.observe(1)
        rate = np.mean(wrapper.inner.bits)
        se = np.sqrt((2 / 3) * (1 / 3) / trials)
        assert abs(rate - 2 / 3) < 4 * se

    def test_zero_bit_lifted_below_half(self):
        # tau = 1/4: a zero bit flips to one with probability 1 - 1/(2(1-tau)) = 1/3
        wrapper = QuantileReduction(_BitRecorder(4), 0.25, rng(6))
        g = rng(1)
        trials = 30_000
        for _ in range(trials):
            wrapper.next_query(g)
            wrapper.observe(0)
        rate = np.mean(wrapper.inner.bits)
        se = np.sqrt((1 / 3) * (2 / 3) / trials)
        assert abs(rate - 1 / 3) < 4 * se
        wrapper.next_query(g)
        wrapper.observe(1)
        assert wrapper.inner.bits[-1] == 1  # positive bits always survive below 1/2

    def test_snapshot_passes_through_inner_median(self):
        inner = CdfEst(4)
        wrapper = QuantileReduction(inner, 0.5, rng=None)
        g = rng(2)
        wrapper.next_query(g)
        wrapper.observe(1)
        assert wrapper.snapshot() == median_from_cdf(inner.estimate())


class _FixedMean(OnlineAlgorithm):
    kind = "mean"

    def __init__(self, n, value):
        super().__init__(n)
        self.value = value
        self.t = 1  # pretend it has seen data

    def _query(self, g):
        return 1

    def _ingest(self, query, feedback):
        pass

    def snapshot(self):
        return self.value


class TestConfidenceBoost:
    def test_delta_validation(self):
        with pytest.raises(ValidationError):
            ConfidenceBoost(lambda: MeanEst(4), 0.5, rng())
        with pytest.raises(ValidationError):
            ConfidenceBoost(lambda: MeanEst(4), 0.0, rng())

    def test_copy_count(self):
        boost = ConfidenceBoost(lambda: MeanEst(4), 0.05, rng())
        assert boost.k == int(np.ceil(18 * np.log(1 / 0.05)))

    def test_single_copy_is_identity(self):
        boost = ConfidenceBoost(lambda: MeanEst(6), 0.25, rng(4), copies=1)
        bare = MeanEst(6)
        g1, g2 = rng(9), rng(9)
        for _ in range(40):
            q1, q2 = boost.next_query(g1), bare.next_query(g2)
            assert q1 == q2
            bit = int(3 <= q1)
            boost.observe(bit)
            bare.observe(bit)
        assert boost.snapshot() == bare.snapshot()

    def test_median_of_three(self):
        values = iter([2.0, 5.0, 9.0])
        boost = ConfidenceBoost(lambda: _FixedMean(4, next(values)), 0.25, rng(), copies=3)
        assert boost.snapshot() == 5.0

    def test_requires_some_observations(self):
        boost = ConfidenceBoost(lambda: MeanEst(4), 0.25, rng(), copies=3)
        with pytest.raises(ValidationError, match="no observations"):
            boost.snapshot()

    @settings(max_examples=40)
    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=n,
                    max_size=n,
                ).map(sorted),
                min_size=3,
                max_size=3,
            )
        )
    )
    def test_pointwise_median_of_monotone_cdfs_is_monotone(self, triples):
        stacked = np.stack(
            [np.concatenate([[0.0], vals, [1.0]]) for vals in triples]
        )
        med = np.median(stacked, axis=0)
        assert np.all(np.diff(med) >= 0)
