"""Online estimation algorithms driven by one threshold query per round.

Every algorithm speaks the same protocol: next_query(rng) -> q in {1..n},
then observe(bit) with bit = 1(sample <= q), strictly alternating, and
snapshot() returns the current estimate at any point in between. All
randomness flows through injected numpy Generators; nothing global.

Contents: the uniform-query unbiased estimators (CdfEst, MeanEst), noisy
binary search over monotone coins plus its boosted-quantile and stitched-CDF
consumers, the feedback-rewriting quantile wrapper, the median-of-copies
confidence booster, and two deterministic baselines used by the breaker
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import CdfEstimate, ProtocolError, ValidationError

# Tunables, recorded here once. The search budget is a hard per-search cap of
# ceil(SEARCH_BUDGET_SCALE * log2(n + 2)) oracle calls; a boosted quantile
# spends at most BOOST_TRIALS times that. BOOST_COPIES_SCALE sets how many
# independent copies the confidence booster runs per log(1/delta).
SEARCH_WEIGHT_ETA = 0.25
SEARCH_BUDGET_SCALE = 200
BOOST_TRIALS = 5
BOOST_COPIES_SCALE = 18

CoinOracle = Callable[[int, Optional[np.random.Generator]], int]


class OnlineAlgorithm:
    """Base class enforcing the strict next_query / observe alternation.

    Subclasses implement _query(rng) and _ingest(query, feedback), and set
    kind, the estimate snapshot() returns: "cdf", "mean", "median" or
    "quantile" (a quantile-kind instance also sets tau). A subclass whose
    queries and estimates never depend on the rng sets deterministic = True;
    the breaker construction is refused to any other. The public
    ingest(query, feedback) is also usable directly to replay an offline
    (query, feedback) log without touching the rng.
    """

    deterministic = False

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self.t = 0
        self._awaiting = False
        self._last_query: int | None = None

    def next_query(self, rng: np.random.Generator) -> int:
        if self._awaiting:
            raise ProtocolError("algorithm", self.t + 1, "next_query called again before observe")
        q = int(self._query(rng))
        self._last_query = q
        self._awaiting = True
        return q

    def observe(self, feedback: int) -> None:
        if not self._awaiting:
            raise ProtocolError("algorithm", self.t + 1, "observe called before next_query")
        self._awaiting = False
        self.ingest(self._last_query, int(feedback))

    def ingest(self, query: int, feedback: int) -> None:
        self._ingest(int(query), int(feedback))
        self.t += 1

    def _query(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def _ingest(self, query: int, feedback: int) -> None:
        raise NotImplementedError

    def snapshot(self):
        raise NotImplementedError


class _UniformQueries(OnlineAlgorithm):
    """Queries i.i.d. uniform indices whatever the feedback.

    Since the queries ignore feedback, a whole game's queries can be drawn up
    front: query_batch(rng, horizon) equals `horizon` successive next_query
    calls and consumes the rng the same way.

    A subclass keeps one count statistic in self._stat and defines three
    methods: _increments(queries, feedback), the statistic's increment in
    each round of a block, with one column per round (a CdfEst block is
    (n+2) x rounds, one row per value; a MeanEst block is one count per
    round); _totals(queries, feedback), their sum over the block; and
    _estimates(stat, t), which turns statistics into estimates and takes
    any trailing axes, along which t broadcasts. From those,
    estimate_batch(queries, feedback) ingests a block of rounds: it
    continues from the instance's state and advances it, and its column i
    equals estimate() after the block's round i+1, bit for bit; its
    cumulative sums and its division by t run along the rounds.
    ingest_batch(queries, feedback) advances the state over a block as
    estimate_batch does, without building a column per round. So
    consecutive blocks of either kind equal one whole call, and snapshot()
    after the last block equals live play's. The confidence booster replays
    its copies from the same methods.
    """

    def _query(self, rng: np.random.Generator) -> int:
        return int(rng.integers(1, self.n + 1))

    def query_batch(self, rng: np.random.Generator, horizon: int) -> np.ndarray:
        return rng.integers(1, self.n + 1, size=horizon)

    def estimate_batch(self, queries: np.ndarray, feedback: np.ndarray) -> np.ndarray:
        """Column i holds the estimate after the block's round i+1 (CDF values or a mean)."""
        increments = self._increments(queries, feedback)
        increments[..., 0] += self._stat  # carried into every column by the cumulative sum
        stat = np.empty(increments.shape, dtype=np.int64)
        np.cumsum(increments, axis=-1, out=stat)
        tt = np.arange(self.t + 1, self.t + len(queries) + 1, dtype=np.float64)
        self._stat = stat[..., -1].copy()
        self.t += len(queries)
        return self._estimates(stat, tt)

    def ingest_batch(self, queries: np.ndarray, feedback: np.ndarray) -> None:
        """Advance the state over a block of rounds, as estimate_batch does, building no estimates."""
        self._stat = self._stat + self._totals(queries, feedback)
        self.t += len(queries)

    def _check_observed(self) -> None:
        if self.t == 0:
            raise ValidationError("no observations yet")


class CdfEst(_UniformQueries):
    """Uniform-random querying CDF estimator.

    Queries i.i.d. uniform indices and tallies positive feedback per index.
    Rescaling the tally at index i by n/t makes the estimate an average of
    per-round unbiased estimates of the threshold function 1(x <= i), which
    is why the output is left unclamped.
    """

    kind = "cdf"

    def __init__(self, n: int):
        super().__init__(n)
        self._stat = np.zeros(n + 2, dtype=np.int64)  # positive feedback per index

    def _ingest(self, query: int, feedback: int) -> None:
        if feedback:
            self._stat[query] += 1

    def _increments(self, queries: np.ndarray, feedback: np.ndarray) -> np.ndarray:
        hit = np.flatnonzero(feedback)
        tally = np.zeros((len(queries), self.n + 2), dtype=np.int64)
        tally[hit, queries[hit]] = 1
        # one row per value, each row's rounds strided: numpy's cumulative
        # sum along them into a value-major array is about three times as
        # fast as along contiguous rounds
        return tally.T

    def _totals(self, queries: np.ndarray, feedback: np.ndarray) -> np.ndarray:
        return np.bincount(queries[feedback.astype(bool, copy=False)], minlength=self.n + 2)

    def _estimates(self, tally: np.ndarray, t) -> np.ndarray:
        values = tally * (self.n / t)
        values[-1] = 1.0
        return values

    def estimate(self) -> CdfEstimate:
        self._check_observed()
        return CdfEstimate._trusted(self.n, self._estimates(self._stat, self.t))

    def snapshot(self) -> CdfEstimate:
        return self.estimate()


class MeanEst(_UniformQueries):
    """Uniform-random querying mean estimator.

    Tracks how often the hidden sample exceeded the query; 1 + (n/t) * count
    averages the per-round unbiased estimates 1 + n * 1(x > q) of the sample.
    """

    kind = "mean"

    def __init__(self, n: int):
        super().__init__(n)
        self._stat = 0  # rounds with the sample above the query

    def _ingest(self, query: int, feedback: int) -> None:
        if not feedback:
            self._stat += 1

    def _increments(self, queries: np.ndarray, feedback: np.ndarray) -> np.ndarray:
        return (feedback == 0).astype(np.int64)

    def _totals(self, queries: np.ndarray, feedback: np.ndarray) -> int:
        return len(feedback) - int(np.count_nonzero(feedback))

    def _estimates(self, above, t):
        return 1.0 + (self.n / t) * above

    def estimate(self) -> float:
        self._check_observed()
        return float(self._estimates(self._stat, self.t))

    def snapshot(self) -> float:
        return self.estimate()


def median_from_cdf(f_hat: CdfEstimate) -> int:
    """Smallest index whose estimated CDF value exceeds 1/2.

    Always exists because the value at n+1 is pinned to 1; non-monotone
    inputs are handled by the literal minimum rule.
    """
    return int(np.argmax(f_hat.values[1:] > 0.5)) + 1


# ---------------------------------------------------------------------------
# Noisy binary search over monotone coins.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search: the crossing lies in [p_index, p_index+1]."""

    index: int      # interval index m in {0..n}
    queries: int
    capped: bool    # budget ran out before the weights concentrated


@dataclass(frozen=True)
class QuantileEstimate:
    """Median-of-trials quantile anchor w in {1..n}."""

    index: int
    queries: int
    capped: bool              # every trial hit its cap
    trial_indices: tuple[int, ...]


def search_budget(n: int) -> int:
    """Hard per-search cap on oracle calls: ceil(SEARCH_BUDGET_SCALE * log2(n + 2))."""
    return int(math.ceil(SEARCH_BUDGET_SCALE * math.log2(n + 2)))


def _quantile_search(n: int, tau: float, budget: int | None = None):
    """Generator core of the search: yields coin indices, receives bits.

    budget defaults to search_budget(n); the first step rejects one below 1.

    Maintains one weight per candidate interval m in {0..n} (crossing between
    coin m and coin m+1, with virtual endpoint biases 0 and 1). Each step
    flips the coin at the weighted median boundary and multiplies the two
    sides by powers of (1 +- eta); the exponents 2*(1-tau) on feedback 1 and
    2*tau on feedback 0 put the zero-drift point of the weight ratio exactly
    at bias tau, and reduce to the plain 1 +- eta update at tau = 1/2. Halts
    once a single interval holds more than 3/4 of the weight, else at the
    budget. Updates are deterministic functions of the feedback, so a
    deterministic oracle makes the whole search path deterministic.

    Returns a SearchResult via StopIteration.value.

    Per-step cost is dominated by numpy call overhead, so the loop calls
    ufuncs and ndarray methods directly (np.add.accumulate is what np.cumsum
    computes), reuses one prefix-sum buffer, and skips the O(n) maximum
    while a running upper bound on it, `peak`, is at most 3/4 of the total.
    The bound is safe because rounding is monotone: for weights w <= peak
    and a positive factor f <= fmax, fl(w * f) <= fl(peak * fmax). Every
    floating-point operation on the weights is the same as in the plain
    loop, so results are unchanged bit for bit.
    """
    if budget is None:
        budget = search_budget(n)
    elif budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    weights = np.full(n + 1, 1.0 / (n + 1))
    csum = np.empty_like(weights)
    up = 1.0 + SEARCH_WEIGHT_ETA
    dn = 1.0 - SEARCH_WEIGHT_ETA
    exp_one = 2.0 * (1.0 - tau)
    exp_zero = 2.0 * tau
    # (left, right) multipliers and growth of the max bound, indexed by bit.
    factors = (
        (dn ** exp_zero, up ** exp_zero),
        (up ** exp_one, dn ** exp_one),
    )
    growth = (max(factors[0]), max(factors[1]))
    noop = (exp_zero == 0.0, exp_one == 0.0)
    peak = math.inf
    queries = 0
    while True:
        np.add.accumulate(weights, out=csum)
        total = float(csum[-1])
        if peak > 0.75 * total:
            peak = float(weights.max())
            if peak > 0.75 * total:
                return SearchResult(int(weights.argmax()), queries, False)
        if total > 1e250 or total < 1e-250:
            weights /= total
            peak = math.inf
            continue
        # Candidate k holds the weighted median; flip the boundary coin on its
        # heavier side so both neighbor groups keep losing mass to it.
        k = int(csum.searchsorted(0.5 * total))
        if k <= 0:
            coin = 1
        elif k >= n:
            coin = n
        else:
            coin = k if csum[k - 1] >= total - csum[k] else k + 1
        while True:
            if queries >= budget:
                return SearchResult(int(weights.argmax()), queries, True)
            bit = 1 if (yield coin) else 0
            queries += 1
            if not noop[bit]:
                break
            # Uninformative outcome for this tau: weights are unchanged, so
            # the query point cannot move either. Flip the same coin again.
        left, right = factors[bit]
        weights[:coin] *= left
        weights[coin:] *= right
        peak *= growth[bit]


def _drive(gen, oracle: CoinOracle, rng: Optional[np.random.Generator]):
    """Run a query/feedback generator against an oracle callable."""
    try:
        query = next(gen)
        while True:
            query = gen.send(oracle(query, rng))
    except StopIteration as stop:
        return stop.value


def noisy_binary_search(
    coin_oracle: CoinOracle,
    n: int,
    tau: float,
    budget: int | None = None,
    rng: np.random.Generator | None = None,
) -> SearchResult:
    """Locate the interval where monotone coin biases cross tau.

    coin_oracle(i, rng) must return one Bernoulli sample of coin i in {1..n},
    where the unknown biases p_1 <= ... <= p_n are flanked by virtual
    endpoints p_0 = 0 and p_{n+1} = 1. With the default budget the returned
    index m in {0..n} satisfies dist([p_m, p_{m+1}], tau) <= 1/8 with
    probability at least 3/4; when the budget runs out first, the current
    best guess is returned with capped=True.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"tau must lie in [0, 1], got {tau}")
    return _drive(_quantile_search(n, tau, budget), coin_oracle, rng)


def _boost_pipeline(n: int, tau: float, trials: int, budget: int | None):
    """Generator: runs `trials` searches back to back, votes by lower median.

    The good anchor set {w : dist([F(w-1), F(w)], tau) <= 1/8} is an interval
    of indices, so the median of trial outputs is good whenever a majority of
    trials are.
    """
    results = []
    for _ in range(trials):
        res = yield from _quantile_search(n, tau, budget)
        results.append(res)
    anchors = sorted(min(r.index + 1, n) for r in results)
    w = anchors[(len(anchors) - 1) // 2]
    return QuantileEstimate(
        index=w,
        queries=sum(r.queries for r in results),
        capped=all(r.capped for r in results),
        trial_indices=tuple(anchors),
    )


def boosted_quantile(
    comparison_oracle: CoinOracle,
    n: int,
    tau: float,
    rng: np.random.Generator | None = None,
    trials: int = BOOST_TRIALS,
    budget: int | None = None,
) -> QuantileEstimate:
    """Quantile anchor w in {1..n} from repeated budget-capped searches.

    comparison_oracle(q, rng) must answer 1(x <= q) for a fresh i.i.d. sample
    x from a fixed distribution on {1..n} with CDF F. The returned anchor
    satisfies dist([F(w-1), F(w)], tau) <= 1/8 with probability at least
    0.99; capped propagates only if every trial hit its budget.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not 0.0 <= tau <= 1.0:
        raise ValidationError(f"tau must lie in [0, 1], got {tau}")
    if trials < 1 or trials % 2 == 0:
        raise ValidationError(f"trials must be a positive odd count, got {trials}")
    return _drive(_boost_pipeline(n, tau, trials, budget), comparison_oracle, rng)


ANCHOR_TAUS = tuple((k + 1) / 8 for k in range(8))


def stitch_quantile_anchors(anchors: dict[float, int], n: int) -> CdfEstimate:
    """Assemble a CDF estimate from per-tau anchors.

    F(j) = max{tau : w_tau <= j}, with the max over an empty set taken as 0;
    the value at n+1 is pinned to 1.
    """
    values = np.zeros(n + 2)
    for tau, w in anchors.items():
        if not 1 <= w <= n:
            raise ValidationError(f"anchor {w} for tau={tau} outside 1..{n}")
        values[w : n + 1] = np.maximum(values[w : n + 1], tau)
    values[n + 1] = 1.0
    return CdfEstimate(n, values)


@dataclass(frozen=True)
class StochasticCdfResult:
    estimate: CdfEstimate
    anchors: dict[float, QuantileEstimate]
    queries: int
    capped: bool  # some anchor had every trial capped


def _anchor_pipeline(n: int, trials: int, budget: int | None, out: dict):
    """Generator: boosted anchor per tau in ANCHOR_TAUS, filling `out` as it goes.

    Its first step rejects a trials below 1, which would leave each anchor
    with no trial to vote; an even count votes by the lower median.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    for tau in ANCHOR_TAUS:
        out[tau] = yield from _boost_pipeline(n, tau, trials, budget)


def stochastic_cdf(
    comparison_oracle: CoinOracle,
    n: int,
    rng: np.random.Generator | None = None,
    trials: int = BOOST_TRIALS,
    budget: int | None = None,
) -> StochasticCdfResult:
    """Full-CDF estimate against an i.i.d. sample source on {1..n}.

    Computes a boosted anchor for each tau in {1/8, ..., 1} and stitches
    them. Against a fixed distribution with CDF F the result satisfies
    sup_i |F_hat(i) - F(i)| <= 1/4 with probability at least 3/4, using at
    most 8 * trials * budget oracle calls.
    """
    anchors: dict[float, QuantileEstimate] = {}
    _drive(_anchor_pipeline(n, trials, budget, anchors), comparison_oracle, rng)
    estimate = stitch_quantile_anchors({tau: qe.index for tau, qe in anchors.items()}, n)
    return StochasticCdfResult(
        estimate=estimate,
        anchors=anchors,
        queries=sum(qe.queries for qe in anchors.values()),
        capped=any(qe.capped for qe in anchors.values()),
    )


class StochasticCdf(OnlineAlgorithm):
    """Runs the quantile-anchor schedule inside the online protocol.

    Queries follow the internal searches; once every anchor is resolved the
    algorithm keeps querying uniformly at random and ignores the feedback.
    snapshot() stitches the anchors resolved so far.
    """

    kind = "cdf"

    def __init__(self, n: int, trials: int = BOOST_TRIALS, budget: int | None = None):
        super().__init__(n)
        self._anchors: dict[float, QuantileEstimate] = {}
        self._gen = _anchor_pipeline(n, trials, budget, self._anchors)
        self._done = False
        self._pending = next(self._gen)  # a search with budget >= 1 queries at least once

    def _query(self, rng: np.random.Generator) -> int:
        if self._done:
            return int(rng.integers(1, self.n + 1))
        return self._pending

    def _ingest(self, query: int, feedback: int) -> None:
        if self._done:
            return
        try:
            self._pending = self._gen.send(feedback)
        except StopIteration:
            self._done = True

    @property
    def done(self) -> bool:
        return self._done

    def snapshot(self) -> CdfEstimate:
        return stitch_quantile_anchors(
            {tau: qe.index for tau, qe in self._anchors.items()}, self.n
        )


# ---------------------------------------------------------------------------
# Wrappers.
# ---------------------------------------------------------------------------

def _median_of(alg: OnlineAlgorithm) -> int:
    if alg.kind == "cdf":
        return median_from_cdf(alg.snapshot())
    return int(alg.snapshot())


def _live_median(values: np.ndarray, live: np.ndarray) -> np.ndarray:
    """np.median over the last axis of the entries where live holds, bit for bit.

    values holds one estimate per copy along its last axis; live is boolean
    with values' trailing shape, and every lane needs a live entry. Entries
    that are not live sort last as +inf, so a lane with c live entries takes
    the sorted entries (c-1)//2 and c//2 and averages them: for even c that
    is the mean of the middle pair that np.median takes, and for odd c both
    are the middle entry, and (a + a) / 2 == a exactly.
    """
    ordered = np.sort(np.where(live, values, np.inf), axis=-1)
    count = live.sum(axis=-1).ravel()
    ordered = ordered.reshape(-1, count.size, ordered.shape[-1])
    lane = np.arange(count.size)
    middle = ordered[:, lane, (count - 1) // 2] + ordered[:, lane, count // 2]
    return middle.reshape(values.shape[:-1]) / 2


class QuantileReduction(OnlineAlgorithm):
    """Feedback rewriting that turns a median estimator into a tau-quantile one.

    For tau > 1/2 each bit b becomes b * B with B ~ Bernoulli(1/(2 tau)); for
    tau < 1/2 it becomes b * B + (1 - B) with B ~ Bernoulli(1/(2 (1 - tau))).
    Either is the feedback the inner algorithm would see if a sample were
    occasionally swapped for n+1 (respectively 1), which shifts the inner
    median onto the tau-quantile. tau = 1/2 is the identity wrapper and draws
    nothing, so it is bit-identical to the bare inner algorithm.

    The coins B come from rng, which must be a lane of their own: draws of
    the inner algorithm on the same generator would interleave with them.
    Built over a CDF-kind inner algorithm with batch methods, the wrapper
    gets them too: query_batch and batch_copies (else 1) are the inner's,
    estimate_batch returns the inner CDF block fed the rewritten feedback,
    whose median index is each round's estimate, and ingest_batch feeds the
    rewritten feedback to the inner ingest_batch. Both draw the block's
    coins first, as live play draws them.
    """

    kind = "quantile"

    def __init__(self, inner: OnlineAlgorithm, tau: float, rng: np.random.Generator | None):
        if not 0.0 < tau < 1.0:
            raise ValidationError(f"tau must lie strictly inside (0, 1), got {tau}")
        if inner.kind not in ("cdf", "median"):
            raise ValidationError(f"inner algorithm must estimate a median, got kind {inner.kind!r}")
        if tau != 0.5 and rng is None:
            raise ValidationError("tau != 1/2 needs a Generator for the rewrite coins")
        super().__init__(inner.n)
        self.inner = inner
        self.tau = float(tau)
        self._rng = rng
        self._p = 1.0 / (2.0 * tau) if tau > 0.5 else 1.0 / (2.0 * (1.0 - tau))
        if inner.kind == "cdf" and all(
            hasattr(inner, m) for m in ("query_batch", "ingest_batch", "estimate_batch")
        ):
            self.query_batch = inner.query_batch
            self.estimate_batch = self._estimate_batch
            self.ingest_batch = self._ingest_batch
            self.batch_copies = getattr(inner, "batch_copies", 1)

    def _query(self, rng: np.random.Generator) -> int:
        return self.inner.next_query(rng)

    def _ingest(self, query: int, feedback: int) -> None:
        if self.tau == 0.5:
            self.inner.observe(feedback)
            return
        b = 1 if self._rng.random() < self._p else 0
        if self.tau > 0.5:
            out = feedback & b
        else:
            out = feedback if b else 1
        self.inner.observe(out)

    def snapshot(self) -> int:
        return _median_of(self.inner)

    def _rewrite_batch(self, feedback: np.ndarray) -> np.ndarray:
        """A block's feedback as the inner algorithm sees it; advances t over the block."""
        if self.tau != 0.5:
            coins = self._rng.random(len(feedback)) < self._p
            feedback = feedback & coins if self.tau > 0.5 else feedback | ~coins
        self.t += len(feedback)
        return feedback

    def _estimate_batch(self, queries: np.ndarray, feedback: np.ndarray) -> np.ndarray:
        return self.inner.estimate_batch(queries, self._rewrite_batch(feedback))

    def _ingest_batch(self, queries: np.ndarray, feedback: np.ndarray) -> None:
        self.inner.ingest_batch(queries, self._rewrite_batch(feedback))


class ConfidenceBoost(OnlineAlgorithm):
    """Random-routing ensemble returning the median of its copies' estimates.

    Runs k = max(1, ceil(BOOST_COPIES_SCALE * ln(1/delta))) independent
    copies unless copies is given, routes each round to a uniformly random
    copy, and snapshots the median estimate: pointwise over CDF values for
    CDF-kind copies, the scalar median otherwise. Copies that have seen no
    rounds yet are skipped.

    The routing comes from rng, which must be a lane of its own. When the
    copies are cdf- or mean-kind uniform queriers, a round's query does not
    depend on which copy it is routed to, so the booster is built with batch
    methods: query_batch is a copy's, estimate_batch replays every copy at
    once, and ingest_batch hands each copy its routed rounds. Each of
    estimate_batch's rounds holds k copies' estimates, which batch_copies
    reports so the replay can size its blocks.
    """

    def __init__(
        self,
        factory: Callable[[], OnlineAlgorithm],
        delta: float,
        rng: np.random.Generator,
        copies: int | None = None,
    ):
        if not 0.0 < delta <= 0.25:
            raise ValidationError(f"delta must lie in (0, 1/4], got {delta}")
        if copies is None:
            copies = max(1, math.ceil(BOOST_COPIES_SCALE * math.log(1.0 / delta)))
        if copies < 1:
            raise ValidationError(f"copies must be >= 1, got {copies}")
        self.copies = [factory() for _ in range(copies)]
        kinds = {c.kind for c in self.copies}
        ns = {c.n for c in self.copies}
        if len(kinds) != 1 or len(ns) != 1:
            raise ValidationError("factory must produce copies of one kind and support size")
        super().__init__(ns.pop())
        self.kind = kinds.pop()
        self.delta = float(delta)
        self._rng = rng
        self._active: int | None = None
        if self.kind in ("cdf", "mean") and all(isinstance(c, _UniformQueries) for c in self.copies):
            self.query_batch = self.copies[0].query_batch
            self.estimate_batch = self._estimate_batch
            self.ingest_batch = self._ingest_batch
            self.batch_copies = len(self.copies)

    @property
    def k(self) -> int:
        return len(self.copies)

    def _query(self, rng: np.random.Generator) -> int:
        self._active = int(self._rng.integers(len(self.copies)))
        return self.copies[self._active].next_query(rng)

    def _ingest(self, query: int, feedback: int) -> None:
        if self._active is None:
            raise ProtocolError("algorithm", self.t + 1, "confidence boost cannot ingest without a routed query")
        self.copies[self._active].observe(feedback)
        self._active = None

    def snapshot(self):
        live = [c.snapshot() for c in self.copies if c.t > 0]
        if not live:
            raise ValidationError("no observations yet")
        everyone = np.ones(len(live), dtype=bool)
        if self.kind == "cdf":
            values = _live_median(np.stack([s.values for s in live], axis=-1), everyone)
            return CdfEstimate._trusted(self.n, values)
        if self.kind == "mean":
            return float(_live_median(np.array(live, dtype=np.float64), everyone))
        estimates = sorted(int(s) for s in live)
        return estimates[(len(estimates) - 1) // 2]

    def _estimate_batch(self, queries: np.ndarray, feedback: np.ndarray) -> np.ndarray:
        """Column i holds snapshot() after the block's round i+1: median CDF values or means.

        The block's routing is drawn as live play draws it. Each copy's
        statistic and round count after every round come from cumulative
        sums over one-hot routing along the rounds, with the copies along a
        last axis, and the copies' _estimates turn them into estimates; a
        copy with no round yet is not live. Every copy's state is advanced,
        so snapshot() afterwards equals live play's.
        """
        rounds, k = len(queries), self.k
        first = self.copies[0]
        route = self._rng.integers(k, size=rounds)
        played = np.arange(rounds)
        increments = first._increments(queries, feedback)
        stat = np.zeros(increments.shape + (k,), dtype=np.int64)
        stat[..., played, route] = increments
        stat[..., 0, :] += np.array([c._stat for c in self.copies]).T
        np.cumsum(stat, axis=-2, out=stat)
        t = np.zeros((rounds, k), dtype=np.int64)
        t[played, route] = 1
        t[0] += [c.t for c in self.copies]
        np.cumsum(t, axis=0, out=t)
        # each copy's statistic becomes its row of one fresh array
        finals = stat[..., -1, :].T.copy()
        for copy, last, count in zip(self.copies, finals, t[-1].tolist()):
            copy._stat = last
            copy.t = count
        self.t += rounds
        return _live_median(first._estimates(stat, np.maximum(t, 1)), t > 0)

    def _ingest_batch(self, queries: np.ndarray, feedback: np.ndarray) -> None:
        route = self._rng.integers(self.k, size=len(queries))
        for i, copy in enumerate(self.copies):
            mine = route == i
            copy.ingest_batch(queries[mine], feedback[mine])
        self.t += len(queries)


# ---------------------------------------------------------------------------
# Deterministic baselines (exist to be broken).
# ---------------------------------------------------------------------------

class MidpointBaseline(OnlineAlgorithm):
    """Queries round-robin over {1..n} and always estimates n // 2."""

    kind = "median"
    deterministic = True

    def _query(self, rng: np.random.Generator) -> int:
        return (self.t % self.n) + 1

    def _ingest(self, query: int, feedback: int) -> None:
        pass

    def snapshot(self) -> int:
        return max(1, self.n // 2)


class HalvingBaseline(OnlineAlgorithm):
    """Deterministic halving tracker.

    Keeps a live interval [lo, hi], queries its midpoint, and moves the
    boundary after every single bit of feedback; when the interval collapses
    the estimate is updated and the search restarts from the full range.
    """

    kind = "median"
    deterministic = True

    def __init__(self, n: int):
        super().__init__(n)
        self._lo = 1
        self._hi = n
        self._estimate = max(1, n // 2)

    def _query(self, rng: np.random.Generator) -> int:
        return (self._lo + self._hi) // 2

    def _ingest(self, query: int, feedback: int) -> None:
        if feedback:
            self._hi = query
        else:
            self._lo = min(query + 1, self.n)
        if self._lo >= self._hi:
            self._estimate = self._lo
            self._lo, self._hi = 1, self.n

    def snapshot(self) -> int:
        return self._estimate
