import itertools

import numpy as np
import pytest

from threshold_arena import (
    CdfEstimate,
    StochasticCdf,
    ValidationError,
    boosted_quantile,
    noisy_binary_search,
    search_budget,
    stitch_quantile_anchors,
    stochastic_cdf,
)
from threshold_arena.estimators import (
    ANCHOR_TAUS,
    SEARCH_WEIGHT_ETA,
    SearchResult,
    _quantile_search,
)


def step_oracle(k):
    return lambda i, rng: 1 if i >= k else 0


def pmf_oracle(pmf):
    cum = np.cumsum(pmf)
    cum[-1] = 1.0

    def oracle(q, rng):
        x = int(np.searchsorted(cum, rng.random(), side="right")) + 1
        return 1 if x <= q else 0

    return oracle


def good_anchors(cdf_values, tau, slack=0.125):
    # cdf_values is F(0..n+1); anchors w with dist([F(w-1), F(w)], tau) <= 1/8
    n = len(cdf_values) - 2
    return {
        w
        for w in range(1, n + 1)
        if max(0.0, cdf_values[w - 1] - tau, tau - cdf_values[w]) <= slack + 1e-12
    }


class TestNoisyBinarySearch:
    def test_all_zero_coins(self):
        res = noisy_binary_search(lambda i, rng: 0, 64, 0.5)
        assert res.index == 64 and not res.capped

    def test_single_coin(self):
        res = noisy_binary_search(lambda i, rng: 0, 1, 0.5)
        assert res.index == 1

    def test_step_oracle_every_run(self):
        # deterministic feedback makes the whole search path deterministic
        for k in (1, 17, 33, 64):
            indices = {noisy_binary_search(step_oracle(k), 64, 0.5).index for _ in range(100)}
            assert indices == {k - 1}

    def test_budget_cap_flag(self):
        res = noisy_binary_search(lambda i, rng: 0, 64, 0.5, budget=3)
        assert res.capped and res.queries == 3

    def test_query_count_within_budget(self):
        res = noisy_binary_search(pmf_oracle(np.r_[np.full(16, 1 / 16), 0.0]), 16, 0.5,
                                  rng=np.random.default_rng(0))
        assert res.queries <= search_budget(16)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            noisy_binary_search(step_oracle(1), 0, 0.5)
        with pytest.raises(ValidationError):
            noisy_binary_search(step_oracle(1), 4, 1.5)
        with pytest.raises(ValidationError, match="budget must be >= 1, got 0"):
            noisy_binary_search(step_oracle(1), 4, 0.5, budget=0)


class TestBoostedQuantile:
    def test_point_mass_anchor_exact(self):
        n = 8
        for j in (1, 4, 8):
            pmf = np.zeros(n + 1)
            pmf[j - 1] = 1.0
            for seed in range(3):
                res = boosted_quantile(pmf_oracle(pmf), n, 0.5, rng=np.random.default_rng(seed))
                assert res.index == j

    def test_single_support_point(self):
        res = boosted_quantile(step_oracle(1), 1, 0.5)
        assert res.index == 1

    def test_uniform_within_eighth_of_target(self):
        n = 64
        pmf = np.r_[np.full(n, 1 / n), 0.0]
        cdf = np.r_[0.0, np.cumsum(pmf)]
        cdf[-1] = 1.0
        g = np.random.default_rng(12)
        hits = sum(
            abs(cdf[boosted_quantile(pmf_oracle(pmf), n, 0.5, rng=g).index] - 0.5)
            <= 1 / 8 + 1 / n
            for _ in range(100)
        )
        assert hits >= 99

    def test_trials_must_be_odd(self):
        with pytest.raises(ValidationError):
            boosted_quantile(step_oracle(1), 4, 0.5, trials=4)

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValidationError, match="budget must be >= 1, got 0"):
            boosted_quantile(step_oracle(1), 4, 0.5, budget=0)

    def test_capped_propagates_only_when_all_trials_cap(self):
        res = boosted_quantile(step_oracle(3), 8, 0.5, budget=2)
        assert res.capped
        res = boosted_quantile(step_oracle(3), 8, 0.5)
        assert not res.capped


class TestStitching:
    def test_constant_anchors(self):
        est = stitch_quantile_anchors({tau: 2 for tau in ANCHOR_TAUS}, n=5)
        assert est.values.tolist() == [0, 0, 1, 1, 1, 1, 1]

    def test_mixed_anchors(self):
        anchors = {1 / 8: 1, 2 / 8: 3, 3 / 8: 5, 4 / 8: 5, 5 / 8: 5, 6 / 8: 5, 7 / 8: 5, 1.0: 5}
        est = stitch_quantile_anchors(anchors, n=5)
        assert est.values.tolist() == [0, 1 / 8, 1 / 8, 2 / 8, 2 / 8, 1, 1]

    def test_anchor_out_of_range(self):
        with pytest.raises(ValidationError):
            stitch_quantile_anchors({0.5: 6}, n=5)


class TestStochasticCdf:
    def test_point_mass_at_one_is_exact(self):
        n = 8
        pmf = np.zeros(n + 1)
        pmf[0] = 1.0
        res = stochastic_cdf(pmf_oracle(pmf), n, rng=np.random.default_rng(3))
        assert all(q.index == 1 for q in res.anchors.values())
        assert res.estimate.values.tolist() == [0.0] + [1.0] * (n + 1)

    def test_uniform_all_anchors_good(self):
        n = 32
        pmf = np.r_[np.full(n, 1 / n), 0.0]
        cdf = np.r_[0.0, np.cumsum(pmf)]
        cdf[-1] = 1.0
        res = stochastic_cdf(pmf_oracle(pmf), n, rng=np.random.default_rng(5))
        for tau, anchor in res.anchors.items():
            assert anchor.index in good_anchors(cdf, tau)
        assert np.max(np.abs(res.estimate.values[1:] - cdf[1:])) <= 0.25

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValidationError, match="budget must be >= 1, got 0"):
            stochastic_cdf(step_oracle(1), 4, budget=0)

    @pytest.mark.parametrize("n", [0, -3])
    def test_size_below_one_rejected_before_any_query(self, n):
        calls = []

        def oracle(q, rng):
            calls.append(q)
            return 1

        with pytest.raises(ValidationError, match=f"n must be >= 1, got {n}"):
            stochastic_cdf(oracle, n)
        assert calls == []

    def test_query_budget_and_anchor_keys(self):
        n = 16
        pmf = np.r_[np.full(n, 1 / n), 0.0]
        res = stochastic_cdf(pmf_oracle(pmf), n, rng=np.random.default_rng(8))
        assert set(res.anchors) == set(ANCHOR_TAUS)
        assert res.queries <= 8 * 5 * search_budget(n)


class TestStochasticCdfOnline:
    def test_matches_functional_form_on_same_bits(self):
        # drive the online adapter with the same feedback the functional form
        # consumes: identical anchors, identical stitched estimate
        n = 16
        pmf = np.r_[np.full(n, 1 / n), 0.0]
        functional = stochastic_cdf(pmf_oracle(pmf), n, rng=np.random.default_rng(21))

        cum = np.cumsum(pmf)
        cum[-1] = 1.0
        g = np.random.default_rng(21)
        alg = StochasticCdf(n)
        dummy = np.random.default_rng(0)
        while not alg.done:
            q = alg.next_query(dummy)
            x = int(np.searchsorted(cum, g.random(), side="right")) + 1
            alg.observe(int(x <= q))
        assert {t: a.index for t, a in alg._anchors.items()} == {
            t: a.index for t, a in functional.anchors.items()
        }
        assert np.array_equal(alg.snapshot().values, functional.estimate.values)

    def test_snapshot_is_shared_read_only_and_unchanged_by_a_write(self):
        # every round's snapshot is written into: the write raises, and each
        # snapshot is the previous object until an anchor resolves and equals
        # a fresh stitch of the anchors
        n = 8
        oracle = pmf_oracle(np.r_[np.full(n, 1 / n), 0.0])
        alg = StochasticCdf(n, budget=20)
        g, dummy = np.random.default_rng(4), np.random.default_rng(0)
        previous, resolved = alg.snapshot(), 0
        for _ in range(8 * 5 * 20 + 10):
            alg.observe(oracle(alg.next_query(dummy), g))
            snap = alg.snapshot()
            assert (snap is previous) == (len(alg._anchors) == resolved)
            with pytest.raises(ValueError, match="read-only"):
                snap.values[1] = 0.5
            assert np.array_equal(snap.values, stitch_quantile_anchors(
                {tau: a.index for tau, a in alg._anchors.items()}, n).values)
            previous, resolved = snap, len(alg._anchors)
        assert alg.done and resolved == len(ANCHOR_TAUS)

    def test_idles_after_completion(self):
        n = 4
        alg = StochasticCdf(n, budget=4)
        g = np.random.default_rng(0)
        for _ in range(8 * 5 * 4 + 50):
            q = alg.next_query(g)
            assert 1 <= q <= n
            alg.observe(1)
        assert alg.done
        snap = alg.snapshot()
        assert isinstance(snap, CdfEstimate)


# ---------------------------------------------------------------------------
# The optimised search kernel against a plain copy of the original loop.
# ---------------------------------------------------------------------------

def reference_quantile_search(n, tau, budget, renorms):
    """Plain form of the search loop: a fresh cumsum and a full maximum every
    step, each through its numpy wrapper. Appends the total to `renorms`
    each time the weights are renormalised."""
    weights = np.full(n + 1, 1.0 / (n + 1))
    up = 1.0 + SEARCH_WEIGHT_ETA
    dn = 1.0 - SEARCH_WEIGHT_ETA
    exp_one = 2.0 * (1.0 - tau)
    exp_zero = 2.0 * tau
    factors = {
        1: (up ** exp_one, dn ** exp_one),
        0: (dn ** exp_zero, up ** exp_zero),
    }
    noop = {1: exp_one == 0.0, 0: exp_zero == 0.0}
    queries = 0
    while True:
        csum = np.cumsum(weights)
        total = csum[-1]
        if np.max(weights) > 0.75 * total:
            return SearchResult(int(np.argmax(weights)), queries, False)
        if total > 1e250 or total < 1e-250:
            renorms.append(float(total))
            weights /= total
            continue
        k = int(np.searchsorted(csum, 0.5 * total))
        if k <= 0:
            coin = 1
        elif k >= n:
            coin = n
        else:
            coin = k if csum[k - 1] >= total - csum[k] else k + 1
        while True:
            if queries >= budget:
                return SearchResult(int(np.argmax(weights)), queries, True)
            bit = 1 if (yield coin) else 0
            queries += 1
            if not noop[bit]:
                break
        left, right = factors[bit]
        weights[:coin] *= left
        weights[coin:] *= right


def run_recorded(search, oracle, rng):
    """Drive a search generator; return its result and the coins it flipped."""
    coins = []
    try:
        coin = next(search)
        while True:
            coins.append(coin)
            coin = search.send(oracle(coin, rng))
    except StopIteration as stop:
        return stop.value, coins


def assert_same_search(n, tau, budget, make_oracle, seed=0, coins=None):
    """Check the kernel against the reference; extends `coins` with the coins flipped."""
    renorms = []
    expected = run_recorded(reference_quantile_search(n, tau, budget, renorms),
                            make_oracle(), np.random.default_rng(seed))
    actual = run_recorded(_quantile_search(n, tau, budget),
                          make_oracle(), np.random.default_rng(seed))
    assert actual == expected
    if coins is not None:
        coins.extend(expected[1])
    return expected[0], renorms


class TestSearchKernelEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 64, 256, 1024])
    @pytest.mark.parametrize("tau", [0.0, 1 / 8, 1 / 2, 1.0])
    def test_step_oracles(self, n, tau):
        # coins whose bit moved the weights: coin 1 and coin n are the two
        # edges of the multiply's window (one left factor, n left factors)
        informative = set()
        for k in sorted({1, (n + 1) // 2, n}):
            coins = []
            assert_same_search(n, tau, search_budget(n), lambda: step_oracle(k), coins=coins)
            informative.update(c for c in coins if (tau < 1.0 if c >= k else tau > 0.0))
        # at tau = 0 (tau = 1) bit 0 (bit 1) is a no-op, so a step oracle
        # cannot drive an informative flip to the far edge
        if 0.0 < tau < 1.0:
            assert {1, n} <= informative

    @pytest.mark.parametrize("n", [1, 2, 64, 256, 1024])
    @pytest.mark.parametrize("tau", [0.0, 1 / 8, 1 / 2, 1.0])
    def test_iid_pmf_oracles(self, n, tau):
        master = np.random.default_rng(n)
        # one pmf without mass at n+1 (the stochastic_cdf domain), one with
        pmfs = [np.r_[master.dirichlet(np.ones(n)), 0.0], master.dirichlet(np.ones(n + 1))]
        for seed, pmf in enumerate(pmfs):
            assert_same_search(n, tau, search_budget(n), lambda: pmf_oracle(pmf), seed)

    def test_budget_capped(self):
        n = 64
        pmf = np.r_[np.full(n, 1 / n), 0.0]
        for budget in (1, 7, 40):
            result, _ = assert_same_search(n, 0.5, budget, lambda: pmf_oracle(pmf), budget)
            assert result.capped and result.queries == budget
        # tau = 1 without mass at n+1: coin n always answers 1, so the search
        # never concentrates and runs to its full budget
        result, _ = assert_same_search(n, 1.0, search_budget(n), lambda: pmf_oracle(pmf), 3)
        assert result.capped and result.queries == search_budget(n)

    def test_renormalisation_branch(self):
        # i.i.d. oracles never drive the total weight past 1e+-250 within a
        # budget. Alternating bits on a single coin scale both weights by
        # 0.9375 every two steps while neither exceeds 3/4 of the total, so
        # the total falls under 1e-250 and is renormalised; constant bits
        # afterwards must then still halt the search. The > 1e250 side is
        # not reached: the total only grows when the heavy side gains
        # weight, and that concentrates the search into halting first.
        def alternating_then_ones():
            bits = itertools.chain(itertools.islice(itertools.cycle((1, 0)), 20_000),
                                   itertools.repeat(1))
            return lambda i, rng: next(bits)

        result, renorms = assert_same_search(1, 0.5, 40_000, alternating_then_ones)
        assert renorms and all(total < 1e-250 for total in renorms)
        assert result.index == 0 and not result.capped
