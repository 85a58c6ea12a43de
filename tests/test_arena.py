import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from threshold_arena import (
    AdversarySpec,
    ProtocolError,
    AlgorithmSpec,
    GameConfig,
    NondeterminismError,
    ValidationError,
    breaker_report,
    build_adversary,
    derive_rng,
    estimate_query_complexity,
    monte_carlo,
    recompute_errors,
    resolve_metric,
    run_game,
    spawn_lane,
    summary_to_dict,
    validate_config,
    write_trajectory_csv,
)
from threshold_arena import CdfEst, CdfEstimate, StochasticCdf, empirical_cdf, ks_distance, median_from_cdf
from threshold_arena.adversaries import Adversary
from threshold_arena.arena import ROLE_ADVERSARY, ROLE_ALGORITHM, CHUNK_RUNS
from threshold_arena.estimators import MidpointBaseline


def test_derive_rng_lanes_are_independent_and_stable():
    a1 = derive_rng(5, 0, ROLE_ALGORITHM).random(4)
    a2 = derive_rng(5, 0, ROLE_ALGORITHM).random(4)
    b = derive_rng(5, 0, ROLE_ADVERSARY).random(4)
    c = derive_rng(5, 1, ROLE_ALGORITHM).random(4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    with pytest.raises(ValidationError):
        derive_rng(-1, 0, ROLE_ALGORITHM)


def test_spawn_lane_draws_nothing_from_its_parent():
    parent, twin = derive_rng(5, 0, ROLE_ALGORITHM), derive_rng(5, 0, ROLE_ALGORITHM)
    parent.random(3)
    twin.random(3)
    first, second = spawn_lane(parent), spawn_lane(parent)
    assert parent.random() == twin.random()
    a, b = first.random(4), second.random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(spawn_lane(derive_rng(5, 0, ROLE_ALGORITHM)).random(4), a)


@pytest.mark.parametrize(
    "wrapper",
    [
        AlgorithmSpec("quantile", {"tau": 0.75, "inner": "cdfest"}),
        AlgorithmSpec("boosted", {"delta": 0.1, "inner": "cdfest"}),
        AlgorithmSpec(
            "quantile", {"tau": 0.25, "inner": {"name": "boosted", "params": {"delta": 0.2, "inner": "cdfest"}}}
        ),
    ],
    ids=["quantile", "boosted", "quantile-boosted"],
)
def test_wrappers_leave_the_algorithm_lane_to_the_inner_queries(wrapper):
    def queries(algorithm):
        config = GameConfig(n=8, horizon=60, algorithm=algorithm, adversary="uniform", seed=4)
        return run_game(config, run_id=1).queries

    assert np.array_equal(queries(wrapper), queries("cdfest"))


class TestResolveMetric:
    def test_defaults_by_kind(self):
        cases = {
            "cdfest": "cdf",
            "meanest": "mean",
            "midpoint": "median",
        }
        for name, metric in cases.items():
            config = GameConfig(n=4, horizon=2, algorithm=name, adversary="uniform")
            assert resolve_metric(config)[0] == metric

    def test_cdf_algorithm_can_be_scored_on_median(self):
        config = GameConfig(n=4, horizon=2, algorithm="cdfest", adversary="uniform", metric="median")
        assert resolve_metric(config) == ("median", 0.5)

    def test_incompatible_metric(self):
        config = GameConfig(n=4, horizon=2, algorithm="meanest", adversary="uniform", metric="cdf")
        with pytest.raises(ValidationError, match="incompatible"):
            resolve_metric(config)

    def test_quantile_tau_comes_from_wrapper(self):
        config = GameConfig(
            n=4,
            horizon=2,
            algorithm=AlgorithmSpec("quantile", {"tau": 0.75, "inner": "cdfest"}),
            adversary="uniform",
        )
        assert resolve_metric(config) == ("quantile", 0.75)

    def test_unknown_names(self):
        with pytest.raises(ValidationError, match="unknown algorithm"):
            validate_config(GameConfig(n=4, horizon=2, algorithm="nope", adversary="uniform"))
        with pytest.raises(ValidationError, match="unknown adversary"):
            validate_config(GameConfig(n=4, horizon=2, algorithm="cdfest", adversary="nope"))


class TestRunGame:
    def test_point_mass_single_round(self):
        config = GameConfig(
            n=2, horizon=1, algorithm="cdfest", adversary=AdversarySpec("point-mass", {"j": 1}), seed=3
        )
        tr = run_game(config)
        assert tr.records[0].feedback == 1  # both queries sit at or above the sample
        q = tr.records[0].query
        assert tr.final_snapshot.values[q] == 2.0

    def test_mean_est_identity_case(self):
        config = GameConfig(
            n=6, horizon=30, algorithm="meanest", adversary=AdversarySpec("point-mass", {"j": 1}), seed=1
        )
        tr = run_game(config)
        assert np.all(tr.errors == 0.0)
        assert all(e == 1.0 for e in tr.estimates)

    def test_determinism(self):
        config = GameConfig(n=8, horizon=50, algorithm="cdfest", adversary="uniform", seed=11)
        t1, t2 = run_game(config), run_game(config)
        assert t1.records == t2.records
        assert np.array_equal(t1.errors, t2.errors)

    def test_distinct_runs_distinct_games(self):
        config = GameConfig(n=8, horizon=50, algorithm="cdfest", adversary="uniform", seed=11)
        assert run_game(config, run_id=0).records != run_game(config, run_id=1).records

    def test_protocol_error_names_offender(self):
        config = GameConfig(
            n=4, horizon=3, algorithm="cdfest", adversary=AdversarySpec("sequence", {"samples": [2, 9]}), seed=0
        )
        with pytest.raises(ValidationError):
            run_game(config)  # out-of-range sample rejected at adversary construction
        config = GameConfig(
            n=4, horizon=3, algorithm="cdfest", adversary=AdversarySpec("sequence", {"samples": [2, 2]}), seed=0
        )
        with pytest.raises(ValidationError, match="exhausted"):
            run_game(config)


def test_low_quantile_reduction_end_to_end():
    # tau = 1/4 against uniform on {1..8}: the wrapper's estimate should be a
    # good quarter-quantile of the true empirical CDF most of the time
    config = GameConfig(
        n=8,
        horizon=4000,
        algorithm=AlgorithmSpec("quantile", {"tau": 0.25, "inner": "cdfest"}),
        adversary="uniform",
        seed=31,
    )
    summary = monte_carlo(config, 60, epsilon=0.15)
    assert summary.success_at_horizon >= 0.9


def test_boosted_cdf_kind_in_arena():
    config = GameConfig(
        n=8,
        horizon=600,
        algorithm=AlgorithmSpec("boosted", {"delta": 0.25, "inner": "cdfest", "copies": 5}),
        adversary="uniform",
        metric="cdf",
        seed=32,
    )
    tr = run_game(config)
    snap = tr.final_snapshot
    assert snap.values[-1] == 1.0 and np.all(snap.values >= 0)
    assert tr.errors[-1] <= 0.5


def test_amplified_adversary_across_checkpoints():
    config = GameConfig(
        n=8,
        horizon=100,  # crosses segment checkpoints 1 and 33
        algorithm="cdfest",
        adversary=AdversarySpec("amplified", {"inner": "uniform", "t0": 1}),
        seed=33,
    )
    tr = run_game(config)
    assert tr.horizon == 100
    assert all(1 <= r.sample <= 8 for r in tr.records)


def test_out_of_range_query_blames_algorithm():
    from threshold_arena import register_algorithm
    from threshold_arena.estimators import OnlineAlgorithm

    class _Rogue(OnlineAlgorithm):
        kind = "median"

        def _query(self, rng):
            return self.n + 5

        def _ingest(self, query, feedback):
            pass

        def snapshot(self):
            return 1

    register_algorithm("rogue-query", lambda p, n, h, rng: _Rogue(n))
    config = GameConfig(n=4, horizon=2, algorithm="rogue-query", adversary="uniform", seed=1)
    with pytest.raises(ProtocolError, match="algorithm at round 1"):
        run_game(config)


def test_out_of_range_estimate_blames_algorithm():
    from threshold_arena import register_algorithm
    from threshold_arena.estimators import OnlineAlgorithm

    class _RogueEstimate(OnlineAlgorithm):
        kind = "median"

        def _query(self, rng):
            return 1

        def _ingest(self, query, feedback):
            pass

        def snapshot(self):
            return self.n + 9

    register_algorithm("rogue-estimate", lambda p, n, h, rng: _RogueEstimate(n))
    config = GameConfig(n=4, horizon=2, algorithm="rogue-estimate", adversary="uniform", seed=1)
    with pytest.raises(ProtocolError, match="outside"):
        run_game(config)


class _QueryOutOfRange(CdfEst):
    """cdfest whose query in round `bad` is 0, live and in query_batch alike."""

    def __init__(self, n, bad):
        super().__init__(n)
        self.bad = bad

    def _query(self, rng):
        q = super()._query(rng)
        return 0 if self.t + 1 == self.bad else q

    def query_batch(self, rng, horizon):
        queries = super().query_batch(rng, horizon)
        queries[self.bad - 1 : self.bad] = 0
        return queries


class _SampleOutOfRange(Adversary):
    """Samples 1, except n+5 in round `bad`, live and in sample_batch alike."""

    def __init__(self, n, bad):
        self.n, self.bad = n, bad

    def next_sample(self, past):
        return self.n + 5 if len(past) + 1 == self.bad else 1

    def sample_batch(self, queries):
        samples = np.ones(len(queries), dtype=np.int64)
        samples[self.bad - 1 : self.bad] = self.n + 5
        return samples


@pytest.mark.parametrize(
    "query_round,sample_round,message",
    [
        (None, 3, "adversary at round 3: sample 9 outside 1..5"),
        (5, None, "algorithm at round 5: query 0 outside 1..4"),
        (5, 3, "adversary at round 3: sample 9 outside 1..5"),
        (3, 5, "algorithm at round 3: query 0 outside 1..4"),
        (4, 4, "algorithm at round 4: query 0 outside 1..4"),  # a round's query is checked first
    ],
)
def test_engines_reject_out_of_range_batches_alike(query_round, sample_round, message, monkeypatch):
    import threshold_arena.arena as arena_mod
    from threshold_arena import register_adversary, register_algorithm

    register_algorithm("bad-query", lambda p, n, h, rng: _QueryOutOfRange(n, p["round"]))
    register_adversary("bad-sample", lambda p, n, h, rng: _SampleOutOfRange(n, p["round"]))
    algorithm = AlgorithmSpec("bad-query", {"round": query_round}) if query_round else "cdfest"
    adversary = AdversarySpec("bad-sample", {"round": sample_round}) if sample_round else "uniform"
    config = GameConfig(n=4, horizon=8, algorithm=algorithm, adversary=adversary, seed=1)

    def rejection(call):
        with pytest.raises(ProtocolError) as caught:
            call()
        return str(caught.value)

    assert rejection(lambda: run_game(config)) == message
    monkeypatch.setattr(arena_mod, "_play", None)  # Monte Carlo must meet the batches
    assert rejection(lambda: monte_carlo(config, 4)) == message
    assert rejection(lambda: monte_carlo(config, 4, sink=lambda run_id, tr: None)) == message


class _PastWriter(Adversary):
    """Assigns into the past queries it is handed, live and in sample_batch alike.

    Keeps each array it was handed with a copy taken before the write."""

    def __init__(self, n, handed):
        self.n, self.handed = n, handed

    def next_sample(self, past):
        self.handed.append((past, past.copy()))
        past[:] = 1
        return 1

    def sample_batch(self, queries):
        self.handed.append((queries, queries.copy()))
        queries[:] = 1
        return np.ones(len(queries), dtype=np.int64)


def test_engines_refuse_an_adversary_that_writes_into_past(monkeypatch):
    import threshold_arena.arena as arena_mod
    from threshold_arena import register_adversary

    handed = []
    register_adversary("past-writer", lambda p, n, h, rng: _PastWriter(n, handed))
    config = GameConfig(n=4, horizon=8, algorithm="cdfest", adversary="past-writer", seed=1)

    def refusal(call):
        handed.clear()
        with pytest.raises(ValueError) as caught:
            call()
        (past, before), = handed  # the first write fails
        assert np.array_equal(past, before)  # and leaves the run's queries as they were
        return str(caught.value)

    message = refusal(lambda: run_game(config))
    assert "read-only" in message
    monkeypatch.setattr(arena_mod, "_play", None)  # Monte Carlo replays the run
    assert refusal(lambda: monte_carlo(config, 4)) == message
    assert refusal(lambda: monte_carlo(config, 4, sink=lambda run_id, tr: None)) == message


class _IndexOutOfRange(MidpointBaseline):
    """Midpoint whose index estimate leaves 1..n+1 after round 7; counts its queries."""

    queried: list = []

    def _query(self, rng):
        _IndexOutOfRange.queried.append(self.t + 1)
        return super()._query(rng)

    def snapshot(self):
        return self.n + 2 if self.t == 7 else super().snapshot()


class _MedianNotReady(MidpointBaseline):
    def snapshot(self):
        if self.t == 5:
            raise ValidationError("estimate not ready")
        return super().snapshot()


class _CdfNotReady(StochasticCdf):
    def snapshot(self):
        if self.t == 5:
            raise ValidationError("estimate not ready")
        return super().snapshot()


@pytest.mark.parametrize(
    "cls,message",
    [
        (_IndexOutOfRange, "algorithm at round 7: index estimate 18 outside 1..17"),
        (_MedianNotReady, "algorithm at round 5: estimate not ready"),
        (_CdfNotReady, "algorithm at round 5: estimate not ready"),
    ],
    ids=["index-out-of-range", "median-not-ready", "cdf-not-ready"],
)
def test_round_loop_reports_a_bad_estimate_at_its_round(cls, message):
    from threshold_arena import register_algorithm

    # n=16: rounds 5 and 7 lie inside the first scoring block (910 rows)
    register_algorithm("bad-estimate", lambda p, n, h, rng: cls(n))
    config = GameConfig(n=16, horizon=50, algorithm="bad-estimate", adversary="uniform", seed=1)
    for call in (lambda: run_game(config), lambda: monte_carlo(config, 2)):
        _IndexOutOfRange.queried = []
        with pytest.raises(ProtocolError) as caught:
            call()
        assert str(caught.value) == message
        assert caught.value.offender == "algorithm"
        if cls is _IndexOutOfRange:
            assert _IndexOutOfRange.queried == list(range(1, 8))  # no eighth round was played


@pytest.mark.parametrize("name", ["cdfest", "stochastic-cdf"])
def test_cdf_errors_match_an_independent_reference(name):
    # the per-round kernels of core, not the block scorer: the algorithm is
    # rebuilt from the (query, feedback) log and scored against the exact
    # empirical CDF of each prefix; n=16, T=3000 spans four scoring blocks
    n, horizon = 16, 3000
    config = GameConfig(n=n, horizon=horizon, algorithm=name, adversary="mirror", seed=29)
    tr = run_game(config)
    alg = CdfEst(n) if name == "cdfest" else StochasticCdf(n)
    samples = tr.samples.tolist()
    for t, (q, b) in enumerate(zip(tr.queries.tolist(), tr.feedback.tolist()), start=1):
        alg.ingest(q, b)
        snap = alg.snapshot()
        assert ks_distance(snap, empirical_cdf(samples[:t], n)) == tr.errors[t - 1], t
        assert median_from_cdf(snap) == tr.estimates[t - 1], t
    assert np.array_equal(alg.snapshot().values, tr.final_snapshot.values)


def test_protocol_causality_replay():
    # the adversary's sample at round t is a pure function of its lane rng and
    # the queries of rounds 1..t-1: replay each prefix against a fresh instance
    adversaries = (
        "uniform",
        "mirror",
        AdversarySpec("median-lb", {"k": 4, "m": 1, "epsilon": 0}),
        _amplified("mirror"),  # 40 rounds cross its segments at 1 and 33
        AdversarySpec("sequence", {"samples": _PREFIX_SEQUENCE[:40]}),
    )
    for adversary in adversaries:
        config = GameConfig(n=16, horizon=40, algorithm="cdfest", adversary=adversary, seed=5)
        tr = run_game(config)
        fresh = build_adversary(config.adversary, config.n, config.horizon, derive_rng(5, 0, ROLE_ADVERSARY))
        for t, sample in enumerate(tr.samples.tolist()):
            assert fresh.next_sample(tr.queries[:t]) == sample


class TestRecomputeErrors:
    @pytest.mark.parametrize(
        "algorithm,metric",
        [
            ("cdfest", "median"),
            ("meanest", "mean"),
            (AlgorithmSpec("quantile", {"tau": 0.75, "inner": "cdfest"}), None),
        ],
    )
    def test_matches_recorded_series_exactly(self, algorithm, metric):
        config = GameConfig(
            n=8, horizon=120, algorithm=algorithm, adversary="uniform", metric=metric, seed=9
        )
        tr = run_game(config)
        assert np.array_equal(recompute_errors(tr), tr.errors)

    def test_cdf_metric_rejected(self):
        config = GameConfig(n=8, horizon=10, algorithm="cdfest", adversary="uniform", seed=9)
        with pytest.raises(ValidationError):
            recompute_errors(run_game(config))


_PREFIX_SEQUENCE = [(7 * t) % 17 + 1 for t in range(1100)]


def _amplified(inner):
    return AdversarySpec("amplified", {"inner": inner})


# inner adversaries of the amplifier in the parity tests; the sequence covers
# the third segment, which it is built for in round 34
_AMPLIFIED_INNERS = {
    "uniform": "uniform",
    "mirror": "mirror",
    "coin": "coin",
    "median-lb": {"name": "median-lb", "params": {"k": 4, "m": 1, "epsilon": "1/32"}},
    "sequence": {"name": "sequence", "params": {"samples": _PREFIX_SEQUENCE}},
}


# (algorithm, metric, adversary) of the matchups the wrappers and the
# amplifier bring to the replay
_WRAPPER_MATCHUPS = {
    "quantile-0.75-uniform": (AlgorithmSpec("quantile", {"tau": 0.75, "inner": "cdfest"}), None, "uniform"),
    "quantile-0.25-uniform": (AlgorithmSpec("quantile", {"tau": 0.25, "inner": "cdfest"}), None, "uniform"),
    "boosted-cdfest-cdf-uniform": (AlgorithmSpec("boosted", {"delta": 0.1, "inner": "cdfest"}), "cdf", "uniform"),
    "boosted-cdfest-median-mirror": (
        AlgorithmSpec("boosted", {"delta": 0.1, "inner": "cdfest"}), "median", "mirror"
    ),
    "boosted-meanest-mean-uniform": (AlgorithmSpec("boosted", {"delta": 0.1, "inner": "meanest"}), None, "uniform"),
    **{
        f"{algorithm}-amplified-{name}": (algorithm, None, _amplified(inner))
        for algorithm in ("cdfest", "meanest")
        for name, inner in _AMPLIFIED_INNERS.items()
    },
}


class TestMonteCarlo:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        config = GameConfig(n=8, horizon=10, algorithm="meanest", adversary="uniform")
        with pytest.raises(ValidationError, match=f"workers must be >= 1, got {workers}"):
            monte_carlo(config, 4, workers=workers)

    def test_default_workers_counts_the_cpus_this_process_may_use(self, monkeypatch):
        import os

        import threshold_arena.arena as arena_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert arena_mod.default_workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert arena_mod.default_workers() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert arena_mod.default_workers() == 1

    def test_single_run_equals_run_game(self):
        config = GameConfig(n=8, horizon=60, algorithm="meanest", adversary="uniform", seed=2)
        summary = monte_carlo(config, 1, epsilon=0.25)
        tr = run_game(config, run_id=0)
        assert np.array_equal(summary.mean_error, tr.errors)
        assert np.array_equal(summary.mse, tr.errors**2)
        assert summary.final_errors[0] == tr.errors[-1]
        assert summary.success_at_horizon == float(tr.errors[-1] <= 0.25)

    def test_aggregation_is_pure(self):
        config = GameConfig(n=6, horizon=40, algorithm="cdfest", adversary="mirror", metric="cdf", seed=4)
        runs = 10  # single chunk: plain sequential accumulation
        summary = monte_carlo(config, runs, epsilon=0.5)
        games = [run_game(config, run_id=r) for r in range(runs)]
        acc = games[0].errors.copy()
        for g in games[1:]:
            acc += g.errors
        assert np.array_equal(summary.mean_error, acc / runs)
        assert np.array_equal(summary.final_errors, [g.errors[-1] for g in games])

    def test_deterministic_matchup_constant_across_runs(self):
        config = GameConfig(
            n=8, horizon=20, algorithm="midpoint", adversary=AdversarySpec("point-mass", {"j": 2}), seed=6
        )
        summary = monte_carlo(config, 5)
        assert np.all(summary.final_errors == summary.final_errors[0])
        assert np.array_equal(summary.mse, summary.mean_error**2)

    @pytest.mark.parametrize(
        "algorithm,metric,adversary,options",
        [
            # explicit ids keep the names of the first seven cases stable
            pytest.param("cdfest", "cdf", "uniform", {}, id="cdfest-cdf-uniform"),
            pytest.param(
                "cdfest", "median", AdversarySpec("cdf-lb", {"epsilon": 0.02}), {},
                id="cdfest-median-adversary1",
            ),
            pytest.param("cdfest", "cdf", "mirror", {}, id="cdfest-cdf-mirror"),
            pytest.param("cdfest", "median", "coin", {}, id="cdfest-median-coin"),
            pytest.param("meanest", "mean", "uniform", {}, id="meanest-mean-uniform"),
            pytest.param("meanest", "mean", "mirror", {}, id="meanest-mean-mirror"),
            pytest.param(
                "meanest", "mean", AdversarySpec("median-lb", {"k": 4, "m": 1, "epsilon": "1/32"}), {},
                id="meanest-mean-adversary6",
            ),
            pytest.param(
                "cdfest", "cdf", AdversarySpec("point-mass", {"j": 5}), {}, id="cdfest-cdf-point-mass"
            ),
            pytest.param(
                "cdfest", "cdf", AdversarySpec("stochastic", {"pmf": [1 / 16] * 8 + [0.0] * 4 + [1 / 8] * 4 + [0.0]}), {},
                id="cdfest-cdf-stochastic",
            ),
            pytest.param(
                "cdfest", "cdf", AdversarySpec("sequence", {"samples": [(5 * t) % 17 + 1 for t in range(48)]}), {},
                id="cdfest-cdf-sequence",
            ),
            pytest.param(
                "cdfest", "cdf", AdversarySpec("cdf-lb", {"epsilon": 0.02, "sigma": "alt"}), {},
                id="cdfest-cdf-cdf-lb",
            ),
            pytest.param("meanest", "mean", "coin", {}, id="meanest-mean-coin"),
            pytest.param(
                "cdfest", "median", "uniform", {"anytime": True, "burn_in": 10}, id="cdfest-median-anytime"
            ),
            *[
                pytest.param(*case, {}, id=name)
                for name, case in sorted(_WRAPPER_MATCHUPS.items())
            ],
        ],
    )
    def test_fast_path_matches_general_path_bitwise(self, algorithm, metric, adversary, options):
        config = GameConfig(
            n=16, horizon=48, algorithm=algorithm, adversary=adversary, metric=metric, seed=13, **options
        )
        runs = 2 * CHUNK_RUNS + 5
        fast = monte_carlo(config, runs, epsilon=0.3)
        # reference: the round loop, summed in the same chunks and order
        games = [run_game(config, run_id=r) for r in range(runs)]
        idx = isinstance(games[0].final_snapshot, CdfEstimate)

        def squared(x):
            return x * x

        sum_err, sum_sq, idx_sum = np.zeros(48), np.zeros(48), np.zeros(18)
        for lo in range(0, runs, CHUNK_RUNS):
            chunk = games[lo : lo + CHUNK_RUNS]
            sum_err += sum((g.errors for g in chunk), np.zeros(48))
            sum_sq += sum((squared(g.errors) for g in chunk), np.zeros(48))
            if idx:
                idx_sum += sum(
                    (squared(g.final_snapshot.values - g.empirical().floats()) for g in chunk),
                    np.zeros(18),
                )
        assert np.array_equal(fast.mean_error, sum_err / runs)
        assert np.array_equal(fast.mse, sum_sq / runs)
        assert np.array_equal(fast.final_errors, [g.errors[-1] for g in games])
        assert np.array_equal(fast.success_rate, sum(g.errors <= 0.3 for g in games) / runs)
        anytime = sum(bool((g.errors[config.burn_in :] <= 0.3).all()) for g in games)
        assert fast.success_anytime == anytime / runs
        if idx:
            assert np.array_equal(fast.index_mse, idx_sum / runs)

    def test_worker_count_does_not_change_results(self):
        config = GameConfig(n=8, horizon=40, algorithm="cdfest", adversary="uniform", seed=3)
        serial = monte_carlo(config, 3 * CHUNK_RUNS, epsilon=0.2, workers=1)
        parallel = monte_carlo(config, 3 * CHUNK_RUNS, epsilon=0.2, workers=3)
        assert np.array_equal(serial.mse, parallel.mse)
        assert np.array_equal(serial.final_errors, parallel.final_errors)
        assert serial.success_at_horizon == parallel.success_at_horizon

    def test_sink_receives_every_run(self, tmp_path):
        config = GameConfig(n=4, horizon=6, algorithm="cdfest", adversary="uniform", seed=1)
        got = []
        monte_carlo(config, 7, sink=lambda run_id, tr: got.append((run_id, tr.horizon)))
        assert got == [(r, 6) for r in range(7)]

    def test_worst_index_mse_within_bound_at_midscale(self):
        # n=8, T=800, 1000 runs: every per-index MSE within 3 stderr of n/T
        config = GameConfig(n=8, horizon=800, algorithm="cdfest", adversary="uniform", seed=88)
        summary = monte_carlo(config, 1000)
        mse = summary.index_mse[1:9]
        stderr = summary.index_mse_stderr[1:9]
        assert np.all(mse - 3 * stderr <= 8 / 800)

    def test_anytime_success(self):
        config = GameConfig(
            n=6,
            horizon=30,
            algorithm="meanest",
            adversary=AdversarySpec("point-mass", {"j": 1}),
            seed=2,
            anytime=True,
            burn_in=2,
        )
        summary = monte_carlo(config, 4, epsilon=0.01)
        assert summary.success_anytime == 1.0  # zero error at every round


@pytest.mark.parametrize(
    "algorithm,adversary,message",
    [
        ("cdfest", AdversarySpec("stochastic", {"pmf": [0.6, 0.6, -0.2, 0, 0]}), "pmf has a negative entry at value 3"),
        ("cdfest", AdversarySpec("stochastic", {"pmf": [0.2, 0.1, 0.1, 0.1, 0]}), "pmf sums to 0.5, not 1"),
        ("meanest", AdversarySpec("stochastic", {"pmf": [0.5, 0.5]}), "pmf must have n+1 = 5 entries, got 2"),
        (
            "cdfest",
            AdversarySpec("sequence", {"samples": [1, 2, 3]}),
            "sample sequence exhausted after 3 rounds, before the horizon 8",
        ),
        ("meanest", AdversarySpec("sequence", {"samples": [1, 6] * 4}), "sample 6 outside 1..5"),
        (
            "cdfest",
            AdversarySpec("median-lb", {"k": 4, "m": 1, "epsilon": 0}),
            "median-lb config has n = 4k = 16, game has n = 4",
        ),
        (
            AlgorithmSpec("quantile", {"tau": 0.75}),
            AdversarySpec("stochastic", {"pmf": [0.6, 0.6, -0.2, 0, 0]}),
            "pmf has a negative entry at value 3",
        ),
        (AlgorithmSpec("quantile", {"tau": 1.0}), "uniform", "tau must lie strictly inside (0, 1), got 1.0"),
        (AlgorithmSpec("boosted", {"delta": 0.5, "inner": "cdfest"}), "uniform", "delta must lie in (0, 1/4], got 0.5"),
        (
            AlgorithmSpec("boosted", {"delta": 0.1}),
            _amplified({"name": "stochastic", "params": {"pmf": [0.2, 0.1, 0.1, 0.1, 0]}}),
            "pmf sums to 0.5, not 1",
        ),
        (
            "cdfest",
            AdversarySpec("amplified", {"inner": {"name": "sequence", "params": {"samples": [1, 2, 3]}}, "t0": 4}),
            "sample sequence exhausted after 3 rounds, before the horizon 4",
        ),
        # malformed parameters, as command-line text or config files give them
        ("cdfest", AdversarySpec("point-mass", {"j": "abc"}), "point-mass parameter j must be an integer, got 'abc'"),
        ("cdfest", AdversarySpec("stochastic", {"pmf": "abc"}), "stochastic parameter pmf must be a list of numbers, got 'abc'"),
        ("cdfest", AdversarySpec("cdf-lb", {"epsilon": "abc"}), "cdf-lb parameter epsilon must be a number, got 'abc'"),
        (
            "cdfest",
            AdversarySpec("cdf-lb", {"epsilon": 0.05, "sigma": 5}),
            "sigma must be a string or an iterable of +1 and -1, got 5",
        ),
        (
            "cdfest",
            AdversarySpec("cdf-lb", {"epsilon": 0.05, "sigma": ["x", 1, 1, 1]}),
            "sigma entries must be +1 or -1, got ['x', 1, 1, 1]",
        ),
        (
            "cdfest",
            AdversarySpec("median-lb", {"k": "abc", "m": 1, "epsilon": 0}),
            "median-lb parameter k must be an integer, got 'abc'",
        ),
        (
            "cdfest",
            AdversarySpec("median-lb", {"k": 4, "m": 1, "epsilon": "abc"}),
            "median-lb parameter epsilon must be a number, got 'abc'",
        ),
        (
            "cdfest",
            AdversarySpec("amplified", {"inner": "uniform", "t0": "abc"}),
            "amplified parameter t0 must be an integer, got 'abc'",
        ),
        (
            "cdfest",
            AdversarySpec("sequence", {"path": "/nonexistent/samples.txt"}),
            "cannot read sequence file /nonexistent/samples.txt: "
            "[Errno 2] No such file or directory: '/nonexistent/samples.txt'",
        ),
        (
            "cdfest",
            AdversarySpec("sequence", {"samples": [1, 2.5, 3]}),
            "sequence parameter samples must be a list of integers, got [1, 2.5, 3]",
        ),
        (AlgorithmSpec("stochastic-cdf", {"trials": 0}), "uniform", "trials must be >= 1, got 0"),
        (
            AlgorithmSpec("stochastic-cdf", {"trials": 2.5}),
            "uniform",
            "stochastic-cdf parameter trials must be an integer, got 2.5",
        ),
        (
            AlgorithmSpec("stochastic-cdf", {"budget": "x"}),
            "uniform",
            "stochastic-cdf parameter budget must be an integer, got 'x'",
        ),
        (AlgorithmSpec("stochastic-cdf", {"budget": 0}), "uniform", "budget must be >= 1, got 0"),
        (AlgorithmSpec("stochastic-cdf", {"budget": -5}), "uniform", "budget must be >= 1, got -5"),
        (AlgorithmSpec("boosted", {"delta": "abc"}), "uniform", "boosted parameter delta must be a number, got 'abc'"),
        (
            AlgorithmSpec("boosted", {"delta": 0.1, "copies": 2.5}),
            "uniform",
            "boosted parameter copies must be an integer, got 2.5",
        ),
        (
            AlgorithmSpec("boosted", {"delta": 0.1, "copies": "x"}),
            "uniform",
            "boosted parameter copies must be an integer, got 'x'",
        ),
        (AlgorithmSpec("quantile", {"tau": "abc"}), "uniform", "quantile parameter tau must be a number, got 'abc'"),
    ],
    ids=[
        "negative-pmf", "pmf-sum", "pmf-length", "short-sequence", "sequence-range", "median-lb-n",
        "quantile-negative-pmf", "quantile-tau", "boosted-delta", "boosted-amplified-pmf-sum",
        "amplified-short-sequence",
        "point-mass-j-text", "stochastic-pmf-text", "cdf-lb-epsilon-text", "cdf-lb-sigma-int",
        "cdf-lb-sigma-text-entry", "median-lb-k-text", "median-lb-epsilon-text", "amplified-t0-text",
        "sequence-missing-file", "sequence-float-sample",
        "stochastic-cdf-trials-0", "stochastic-cdf-trials-float", "stochastic-cdf-budget-text",
        "stochastic-cdf-budget-0", "stochastic-cdf-budget-negative",
        "boosted-delta-text", "boosted-copies-float", "boosted-copies-text", "quantile-tau-text",
    ],
)
def test_engines_reject_the_same_inputs(algorithm, adversary, message):
    config = GameConfig(n=4, horizon=8, algorithm=algorithm, adversary=adversary, seed=1)
    entry_points = [
        lambda: validate_config(config),
        lambda: run_game(config),  # round loop
        lambda: monte_carlo(config, 4),  # vectorized replay
        lambda: monte_carlo(config, 4, sink=lambda run_id, tr: None),  # replay with a sink
    ]
    for call in entry_points:
        with pytest.raises(ValidationError) as caught:
            call()
        assert str(caught.value) == message


@pytest.mark.parametrize("algorithm", ["cdfest", AlgorithmSpec("quantile", {"tau": 0.75})])
def test_engines_reject_a_segment_past_its_sequence_alike(algorithm):
    # the amplifier builds its second segment, of 32 rounds, in round 2
    adversary = _amplified({"name": "sequence", "params": {"samples": [1, 2, 3]}})
    config = GameConfig(n=4, horizon=8, algorithm=algorithm, adversary=adversary, seed=1)
    entry_points = [
        lambda: run_game(config),
        lambda: monte_carlo(config, 4),
        lambda: monte_carlo(config, 4, sink=lambda run_id, tr: None),
    ]
    for call in entry_points:
        with pytest.raises(ValidationError) as caught:
            call()
        assert str(caught.value) == "sample sequence exhausted after 3 rounds, before the horizon 32"


_PARITY_ADVERSARIES = {
    "uniform": "uniform",
    "mirror": "mirror",
    "sequence": AdversarySpec("sequence", {"samples": [(5 * t) % 17 + 1 for t in range(48)]}),
    "coin": "coin",
    "median-lb": AdversarySpec("median-lb", {"k": 4, "m": 1, "epsilon": "1/32", "sigma": "+-+-"}),
    **{f"amplified-{name}": _amplified(inner) for name, inner in _AMPLIFIED_INNERS.items()},
}


@pytest.mark.parametrize("adversary", sorted(_PARITY_ADVERSARIES))
@pytest.mark.parametrize(
    "algorithm,metric",
    [
        ("cdfest", "cdf"),
        ("cdfest", "median"),
        ("meanest", "mean"),
        pytest.param(AlgorithmSpec("quantile", {"tau": 0.75}), "quantile", id="quantile-0.75"),
        pytest.param(AlgorithmSpec("quantile", {"tau": 0.25}), "quantile", id="quantile-0.25"),
        pytest.param(AlgorithmSpec("boosted", {"delta": 0.1, "inner": "cdfest"}), "cdf", id="boosted-cdfest-cdf"),
        pytest.param(
            AlgorithmSpec("boosted", {"delta": 0.1, "inner": "cdfest"}), "median", id="boosted-cdfest-median"
        ),
        pytest.param(AlgorithmSpec("boosted", {"delta": 0.1, "inner": "meanest"}), "mean", id="boosted-meanest"),
    ],
)
def test_sink_trajectories_equal_run_game(algorithm, metric, adversary):
    config = GameConfig(
        n=16, horizon=48, algorithm=algorithm, adversary=_PARITY_ADVERSARIES[adversary],
        metric=metric, seed=17,
    )
    got = []
    monte_carlo(config, CHUNK_RUNS + 3, workers=1, sink=lambda run_id, tr: got.append((run_id, tr)))
    assert [run_id for run_id, _ in got] == list(range(CHUNK_RUNS + 3))
    for run_id, replayed in got:
        played = run_game(config, run_id)
        for column in ("queries", "samples", "feedback", "errors", "estimates"):
            a, b = getattr(replayed, column), getattr(played, column)
            assert a.dtype == b.dtype and np.array_equal(a, b), column
        assert (replayed.n, replayed.metric, replayed.tau) == (played.n, played.metric, played.tau)
        if metric in ("mean", "quantile"):
            assert type(replayed.final_snapshot) is (float if metric == "mean" else int)
            assert replayed.final_snapshot == played.final_snapshot
        else:
            assert np.array_equal(replayed.final_snapshot.values, played.final_snapshot.values)
            assert replayed.final_snapshot.values.base is None  # not a view of the T x (n+2) replay
        assert replayed.records == played.records


def test_sink_does_not_force_the_round_loop(monkeypatch):
    import threshold_arena.arena as arena_mod

    def refuse(*args):
        raise AssertionError("round loop played")

    monkeypatch.setattr(arena_mod, "_play", refuse)
    config = GameConfig(n=8, horizon=20, algorithm="cdfest", adversary="uniform", seed=1)
    got = []
    monte_carlo(config, 3, sink=lambda run_id, tr: got.append(run_id))
    assert got == [0, 1, 2]


def test_median_kind_batch_methods_take_the_round_loop():
    # estimate_batch of a median-kind algorithm returns indices, not CDF rows;
    # the replay only scores cdf- and mean-kind algorithms
    from threshold_arena import register_algorithm
    from threshold_arena.estimators import MidpointBaseline

    class _BatchMidpoint(MidpointBaseline):
        def query_batch(self, rng, horizon):
            return np.arange(horizon, dtype=np.int64) % self.n + 1

        def estimate_batch(self, queries, feedback):
            return np.full(len(queries), max(1, self.n // 2), dtype=np.int64)

    register_algorithm("batch-midpoint", lambda p, n, h, rng: _BatchMidpoint(n))
    config = GameConfig(n=8, horizon=10, algorithm="batch-midpoint", adversary="uniform", seed=3)
    summary = monte_carlo(config, 4, epsilon=0.2)
    games = [run_game(config, run_id=r) for r in range(4)]
    assert np.array_equal(summary.mean_error, sum(g.errors for g in games) / 4)
    assert np.array_equal(summary.final_errors, [g.errors[-1] for g in games])
    assert summary.success_at_horizon == sum(g.errors[-1] <= 0.2 for g in games) / 4


@pytest.mark.parametrize("name", sorted(_WRAPPER_MATCHUPS))
def test_wrapper_matchups_take_the_replay(name, monkeypatch):
    import threshold_arena.arena as arena_mod

    algorithm, metric, adversary = _WRAPPER_MATCHUPS[name]
    config = GameConfig(n=16, horizon=40, algorithm=algorithm, adversary=adversary, metric=metric, seed=3)
    games = [run_game(config, run_id=r) for r in range(2)]

    def refuse(*args):
        raise AssertionError("round loop played")

    monkeypatch.setattr(arena_mod, "_play", refuse)
    summary = monte_carlo(config, 2)
    assert np.array_equal(summary.final_errors, [g.errors[-1] for g in games])


class _EchoAdversary(Adversary):
    """Steps one past its previous sample, cycling; it keeps that sample itself and has no sample_batch."""

    def __init__(self, n):
        self.n = n
        self._last = 0

    def next_sample(self, past):
        self._last = self._last % self.n + 1
        return self._last


_ROUND_LOOP_WRAPPERS = {
    "quantile-stochastic-cdf": (AlgorithmSpec("quantile", {"tau": 0.75, "inner": "stochastic-cdf"}), "uniform"),
    "quantile-halving": (AlgorithmSpec("quantile", {"tau": 0.25, "inner": "halving"}), "uniform"),
    "boosted-halving": (AlgorithmSpec("boosted", {"delta": 0.1, "inner": "halving"}), "uniform"),
    "boosted-stochastic-cdf": (AlgorithmSpec("boosted", {"delta": 0.2, "inner": "stochastic-cdf"}), "uniform"),
    "amplified-echo": ("cdfest", _amplified("echo")),
    "quantile-amplified-echo": (AlgorithmSpec("quantile", {"tau": 0.75}), _amplified("echo")),
}


@pytest.mark.parametrize("name", sorted(_ROUND_LOOP_WRAPPERS))
def test_wrappers_without_inner_batch_methods_take_the_round_loop(name, monkeypatch):
    import threshold_arena.arena as arena_mod
    from threshold_arena import register_adversary

    register_adversary("echo", lambda p, n, horizon, rng: _EchoAdversary(n))
    algorithm, adversary = _ROUND_LOOP_WRAPPERS[name]
    config = GameConfig(n=8, horizon=40, algorithm=algorithm, adversary=adversary, seed=7)
    games = [run_game(config, run_id=r) for r in range(3)]

    def refuse(*args):
        raise AssertionError("replayed")

    monkeypatch.setattr(arena_mod, "_replay", refuse)
    summary = monte_carlo(config, 3, epsilon=0.2)
    assert np.array_equal(summary.final_errors, [g.errors[-1] for g in games])
    assert np.array_equal(summary.mean_error, sum(g.errors for g in games) / 3)


_PREFIX_ALGORITHMS = {
    "cdfest": "cdfest",
    "meanest": "meanest",
    "stochastic-cdf": "stochastic-cdf",
    "quantile": AlgorithmSpec("quantile", {"tau": 0.75}),
    "boosted": AlgorithmSpec("boosted", {"delta": 0.1}),
    "midpoint": "midpoint",
    "halving": "halving",
}
_PREFIX_ADVERSARIES = {
    "uniform": "uniform",
    "point-mass": AdversarySpec("point-mass", {"j": 5}),
    "stochastic": AdversarySpec("stochastic", {"pmf": [1 / 16] * 8 + [0.0] * 4 + [1 / 8] * 4 + [0.0]}),
    "cdf-lb": AdversarySpec("cdf-lb", {"epsilon": 0.02, "sigma": "alt"}),
    "median-lb": AdversarySpec("median-lb", {"k": 4, "m": 1, "epsilon": "1/32", "sigma": "+-+-"}),
    "coin": "coin",
    "mirror": "mirror",
    "sequence": AdversarySpec("sequence", {"samples": _PREFIX_SEQUENCE}),
    # segments of 1, 32 and 1056 rounds, each built with its own length
    "amplified": AdversarySpec(
        "amplified", {"inner": {"name": "sequence", "params": {"samples": _PREFIX_SEQUENCE}}}
    ),
}


@pytest.mark.parametrize("adversary", sorted(_PREFIX_ADVERSARIES))
@pytest.mark.parametrize("algorithm", sorted(_PREFIX_ALGORITHMS))
def test_runs_are_horizon_prefix_consistent(algorithm, adversary):
    # the contract estimate_query_complexity reads shorter horizons by
    def game(horizon):
        config = GameConfig(
            n=16, horizon=horizon, algorithm=_PREFIX_ALGORITHMS[algorithm],
            adversary=_PREFIX_ADVERSARIES[adversary], seed=9,
        )
        return run_game(config, run_id=2)

    full = game(40)
    for t in (1, 2, 33, 39):
        short = game(t)
        for column in ("queries", "samples", "feedback", "errors", "estimates"):
            assert np.array_equal(getattr(short, column), getattr(full, column)[:t]), (t, column)


@pytest.mark.parametrize(
    "algorithm,metric,adversary,n,horizon",
    [
        ("cdfest", "cdf", "uniform", 64, 700),  # blocks of 248, 248 and 204 rows
        ("cdfest", "median", "mirror", 64, 700),
        ("meanest", "mean", "mirror", 16, (1 << 14) + 300),  # blocks of 16384 and 300 rows
    ],
)
def test_blocked_replay_equals_round_loop(algorithm, metric, adversary, n, horizon):
    config = GameConfig(
        n=n, horizon=horizon, algorithm=algorithm, adversary=adversary, metric=metric, seed=23,
        anytime=True, burn_in=5,
    )
    runs, eps = 3, 0.2
    got = []
    summary = monte_carlo(config, runs, epsilon=eps, sink=lambda run_id, tr: got.append(tr))
    games = [run_game(config, run_id=r) for r in range(runs)]
    for replayed, played in zip(got, games):
        for column in ("queries", "samples", "feedback", "errors", "estimates"):
            assert np.array_equal(getattr(replayed, column), getattr(played, column)), column
        if metric == "mean":
            assert replayed.final_snapshot == played.final_snapshot
        else:
            assert np.array_equal(replayed.final_snapshot.values, played.final_snapshot.values)
    assert np.array_equal(summary.mean_error, sum((g.errors for g in games), np.zeros(horizon)) / runs)
    assert np.array_equal(summary.final_errors, [g.errors[-1] for g in games])
    if metric != "mean":
        idx = [(g.final_snapshot.values - g.empirical().floats()) ** 2 for g in games]
        assert np.array_equal(summary.index_mse, sum(idx, np.zeros(n + 2)) / runs)
    ok = np.array([g.errors <= eps for g in games])
    assert np.array_equal(summary.success_rate, ok.sum(axis=0) / runs)
    # anytime success at horizon t: no failure in rounds burn_in+1..t
    late = ok.copy()
    late[:, : config.burn_in] = True
    assert np.array_equal(summary.anytime_rate, np.logical_and.accumulate(late, axis=1).sum(axis=0) / runs)
    assert summary.success_anytime == summary.anytime_rate[-1]


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize(
    "algorithm,metric",
    [
        ("cdfest", "cdf"),
        ("halving", "median"),
        (AlgorithmSpec("quantile", {"tau": 0.75, "inner": "stochastic-cdf"}), "quantile"),
        ("meanest", "mean"),
    ],
    ids=["cdf", "halving", "quantile-stochastic-cdf", "mean"],
)
def test_round_loop_blocks_do_not_change_the_game(algorithm, metric, cells, monkeypatch):
    import threshold_arena.arena as arena_mod

    # 40 cells at n=16 make blocks of 2 rows (40 for the mean), 1 cell blocks of 1 row
    config = GameConfig(
        n=16, horizon=101, algorithm=algorithm, adversary="mirror", metric=metric, seed=37
    )
    whole = run_game(config, run_id=1)
    summary = monte_carlo(config, 3, epsilon=0.2)
    monkeypatch.setattr(arena_mod, "REPLAY_BLOCK_CELLS", cells)
    blocked = run_game(config, run_id=1)
    for column in ("queries", "samples", "feedback", "errors", "estimates"):
        a, b = getattr(blocked, column), getattr(whole, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column
    if metric == "cdf":
        assert np.array_equal(blocked.final_snapshot.values, whole.final_snapshot.values)
    else:
        assert blocked.final_snapshot == whole.final_snapshot
    again = monte_carlo(config, 3, epsilon=0.2)
    for field in ("mean_error", "mse", "success_rate", "anytime_rate", "final_errors", "index_mse"):
        assert np.array_equal(getattr(again, field), getattr(summary, field)), field


def test_replay_memory_is_bounded_in_time_blocks():
    import tracemalloc

    import threshold_arena.arena as arena_mod

    # one replayed run at n=64, T=2^16 held about 168 MiB of T x (n+2) arrays;
    # a run scored from a later start, as a search probe is, holds the same bound
    config = GameConfig(n=64, horizon=1 << 16, algorithm="cdfest", adversary="uniform", seed=1)
    for start in (1, (1 << 15) + 1):
        tracemalloc.start()
        try:
            arena_mod._chunk_worker((config, 0, 1, 0.1, False, start, [start - 1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, (start, peak / 2**20)


@pytest.mark.parametrize("start", [1, 909, 910, 911])  # 910-row blocks at n=16
@pytest.mark.parametrize(
    "algorithm,metric",
    [
        ("cdfest", "cdf"),
        ("cdfest", "median"),
        ("halving", "median"),
        ("meanest", "mean"),
        (AlgorithmSpec("quantile", {"tau": 0.75}), "quantile"),
        (AlgorithmSpec("quantile", {"tau": 0.25}), "quantile"),
        (AlgorithmSpec("boosted", {"delta": 0.25, "copies": 3, "inner": "cdfest"}), "cdf"),
        (AlgorithmSpec("boosted", {"delta": 0.25, "copies": 3}), "mean"),
    ],
    ids=[
        "cdf", "median", "median-round-loop", "mean", "quantile-0.75", "quantile-0.25",
        "boosted-cdf", "boosted-mean",
    ],
)
def test_run_scored_from_start_is_the_tail_of_the_whole_run(algorithm, metric, start):
    import threshold_arena.arena as arena_mod

    config = GameConfig(
        n=16, horizon=2000, algorithm=algorithm, adversary="uniform", metric=metric, seed=17
    )

    def scored_from(first):
        alg, adversary, alg_rng = arena_mod._build_sides(config, 3)
        engine = arena_mod._play if algorithm == "halving" else arena_mod._replay
        return engine(config, *arena_mod._metric_of(config, alg), alg, adversary, alg_rng, False, first)

    whole_errs, whole_idx, _ = scored_from(1)
    errs, idx, _ = scored_from(start)
    assert len(errs) == config.horizon - start + 1
    assert np.array_equal(errs, whole_errs[start - 1 :])
    assert (idx is None and whole_idx is None) or np.array_equal(idx, whole_idx)


# 600 samples: shorter than a replayed search probe's floor
_SEQUENCE_600 = AdversarySpec("sequence", {"samples": [(5 * t) % 9 + 1 for t in range(600)]})


def _record_probes(monkeypatch) -> list[int]:
    """The horizon of each probe a search plays, in order, as it starts them (one that raises too)."""
    import threshold_arena.arena as arena_mod

    played, run_chunks = [], arena_mod._run_chunks

    def probe(config, *rest, **options):
        played.append(config.horizon)
        return run_chunks(config, *rest, **options)

    monkeypatch.setattr(arena_mod, "_run_chunks", probe)
    return played


class TestQueryComplexity:
    def test_trivial_epsilon_resolves_to_one(self):
        config = GameConfig(n=4, horizon=1, algorithm="cdfest", adversary="uniform", metric="median", seed=8)
        est = estimate_query_complexity(config, 0.5, runs=200)
        assert est.resolved and est.t_hat == 1

    def test_meanest_within_analytic_budget(self):
        config = GameConfig(n=16, horizon=1, algorithm="meanest", adversary="uniform", seed=8)
        est = estimate_query_complexity(config, 0.25, runs=200)
        assert est.resolved and 1 <= est.t_hat <= 16
        assert est.curve == sorted(est.curve)

    def test_cdfest_within_analytic_budget(self):
        import math

        n, eps = 8, 0.2
        config = GameConfig(n=n, horizon=1, algorithm="cdfest", adversary="uniform", seed=8)
        est = estimate_query_complexity(config, eps, runs=200)
        assert est.resolved and est.t_hat <= math.ceil(3 * n * math.log(8 * n) / eps**2)

    def test_cdfest_growth_with_n(self):
        # doubling n roughly scales the threshold like n log n; assert a loose band
        t_hats = {}
        for n in (8, 16):
            config = GameConfig(n=n, horizon=1, algorithm="cdfest", adversary="uniform", seed=8)
            t_hats[n] = estimate_query_complexity(config, 0.2, runs=200).t_hat
        ratio = t_hats[16] / t_hats[8]
        assert 1.5 <= ratio <= 6, t_hats

    def test_run_floor_enforced(self):
        config = GameConfig(n=4, horizon=1, algorithm="meanest", adversary="uniform", seed=8)
        with pytest.raises(ValidationError, match="200"):
            estimate_query_complexity(config, 0.25, runs=100)

    @pytest.mark.parametrize("t_cap", [0, -5])
    def test_cap_below_one_rejected(self, t_cap):
        config = GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=8)
        with pytest.raises(ValidationError, match=f"t_cap must be >= 1, got {t_cap}"):
            estimate_query_complexity(config, 0.2, runs=200, t_cap=t_cap)

    def test_cap_reported_unresolved(self):
        config = GameConfig(
            n=64, horizon=1, algorithm="cdfest", adversary="coin", metric="median", seed=8
        )
        est = estimate_query_complexity(config, 0.01, runs=200, t_cap=4)
        assert not est.resolved and est.t_hat == 4

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        config = GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=8)
        with pytest.raises(ValidationError, match=f"workers must be >= 1, got {workers}"):
            estimate_query_complexity(config, 0.2, runs=200, workers=workers)

    def test_round_loop_probe_skips_snapshots_of_its_unscored_prefix(self, monkeypatch):
        import threshold_arena.estimators as est_mod

        calls, snapshot = [], est_mod.HalvingBaseline.snapshot

        def counted(self):
            calls.append(1)
            return snapshot(self)

        monkeypatch.setattr(est_mod.HalvingBaseline, "snapshot", counted)
        played = _record_probes(monkeypatch)
        config = GameConfig(n=16, horizon=1, algorithm="halving", adversary="uniform", metric="median", seed=3)
        estimate_query_complexity(config, 0.1, runs=200, t_cap=64)
        assert played == [2, 8, 32, 64]
        # one snapshot per scored round, plus _score_run's final one per run
        # and probe; snapshotting every played round would make 22,000 calls
        assert len(calls) == 200 * 64 + 200 * len(played) == 13_600

    def test_anytime_search_with_burn_in_starts_above_it(self):
        # the doubling used to start at horizon 1, an invalid game for burn_in 10
        config = GameConfig(
            n=16, horizon=1, algorithm="cdfest", adversary="uniform", anytime=True, burn_in=10
        )
        est = estimate_query_complexity(config, 0.2, runs=200, t_cap=64)
        assert not est.resolved and est.t_hat == 64
        assert [h for h, _ in est.curve] == [16, 32, 64]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "config,epsilon,t_cap",
        [
            pytest.param(
                GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=8),
                0.2, 1 << 20, id="cdf",
            ),
            pytest.param(
                GameConfig(
                    n=8, horizon=1, algorithm="cdfest", adversary="mirror", metric="median", seed=3
                ),
                0.15, 1 << 20, id="median",
            ),
            pytest.param(
                GameConfig(n=16, horizon=1, algorithm="meanest", adversary="uniform", seed=4),
                0.1, 1 << 20, id="mean",
            ),
            pytest.param(
                GameConfig(
                    n=8, horizon=1, algorithm=AlgorithmSpec("quantile", {"tau": 0.75}),
                    adversary="uniform", seed=5,
                ),
                0.2, 1 << 20, id="quantile-round-loop",
            ),
            pytest.param(
                GameConfig(
                    n=8, horizon=1, algorithm="meanest", adversary="uniform", seed=2,
                    anytime=True, burn_in=6,
                ),
                0.3, 1 << 20, id="anytime-burn-in",
            ),
            pytest.param(
                GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=6, burn_in=10),
                0.2, 1 << 20, id="burn-in",
            ),
            pytest.param(
                GameConfig(
                    n=16, horizon=1, algorithm="cdfest", adversary="coin", metric="median", seed=8
                ),
                0.01, 32, id="cap-miss",
            ),
            pytest.param(
                # the anytime rate sits near 0.25 at every probe: many runs
                # fail early and must keep that failure in later probes
                GameConfig(
                    n=4, horizon=1, algorithm="cdfest", adversary="uniform", seed=1,
                    anytime=True, burn_in=40,
                ),
                0.3, 256, id="anytime-early-failures",
            ),
            pytest.param(
                GameConfig(
                    n=16, horizon=1, algorithm="halving", adversary="uniform", metric="median", seed=3
                ),
                0.1, 64, id="halving-round-loop",
            ),
            pytest.param(
                # the probe for 16 plays to 32; 32 fails and 64 is past the cap
                GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=8),
                0.2, 48, id="cap-not-a-power-of-two",
            ),
            pytest.param(
                # 512 passes, but 1024 is past the cap: the search returns the cap unresolved
                GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=0),
                0.2, 512, id="pass-at-the-cap",
            ),
        ],
    )
    def test_search_matches_fresh_probe_reference(self, config, epsilon, t_cap, workers):
        def reference(config, epsilon, target, runs, t_cap, workers):
            # the search with a fresh monte_carlo at every probed horizon
            rates = {}

            def rate(horizon):
                if horizon not in rates:
                    probe = dataclasses.replace(config, horizon=horizon)
                    summary = monte_carlo(probe, runs, epsilon=epsilon, workers=workers)
                    rates[horizon] = (
                        summary.success_anytime if config.anytime else summary.success_at_horizon
                    )
                return rates[horizon]

            horizon = 1 << config.burn_in.bit_length()
            while horizon <= t_cap:
                if rate(horizon) >= target and 2 * horizon <= t_cap and rate(2 * horizon) >= target:
                    break
                horizon *= 2
            else:
                return t_cap, False, sorted(rates.items())
            lo, hi = max(horizon // 2, config.burn_in), horizon
            while hi - lo > max(1, hi // 10):
                mid = (lo + hi) // 2
                if rate(mid) >= target:
                    hi = mid
                else:
                    lo = mid
            return hi, True, sorted(rates.items())

        est = estimate_query_complexity(config, epsilon, runs=200, t_cap=t_cap, workers=workers)
        expected = reference(config, epsilon, 0.75, 200, t_cap, workers)
        assert (est.t_hat, est.resolved, est.curve) == expected
        assert all(type(rate) is float for _, rate in est.curve)

    @pytest.mark.parametrize(
        "config,epsilon,t_cap",
        [
            (GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=8), 0.2, 1 << 20),
            (
                GameConfig(
                    n=8, horizon=1, algorithm="meanest", adversary="uniform", seed=2,
                    anytime=True, burn_in=6,
                ),
                0.3, 1 << 20,
            ),
            (
                # many probes, and runs that fail early keep their failure
                GameConfig(
                    n=4, horizon=1, algorithm="cdfest", adversary="uniform", seed=1,
                    anytime=True, burn_in=40,
                ),
                0.3, 256,
            ),
            (GameConfig(n=8, horizon=1, algorithm="meanest", adversary="uniform", seed=2), 0.1, 1 << 20),
        ],
        ids=["cdf", "anytime-burn-in", "anytime-early-failures", "mean"],
    )
    def test_search_scores_each_round_of_each_run_once(self, config, epsilon, t_cap, monkeypatch):
        import threshold_arena.arena as arena_mod
        import threshold_arena.estimators as est_mod

        scored, built, ingested = [], [], []
        score_block = arena_mod._score_block
        uniform = est_mod._UniformQueries
        estimate_batch, ingest_batch = uniform.estimate_batch, uniform.ingest_batch

        def counted(metric, tau, n, counts, t0, samples, *rest):
            scored.append(len(samples))
            return score_block(metric, tau, n, counts, t0, samples, *rest)

        def counted_estimates(self, queries, feedback):
            built.append(len(queries))
            return estimate_batch(self, queries, feedback)

        def counted_ingests(self, queries, feedback):
            ingested.append(len(queries))
            return ingest_batch(self, queries, feedback)

        monkeypatch.setattr(arena_mod, "_score_block", counted)
        monkeypatch.setattr(uniform, "estimate_batch", counted_estimates)
        monkeypatch.setattr(uniform, "ingest_batch", counted_ingests)
        played = _record_probes(monkeypatch)
        est = estimate_query_complexity(config, epsilon, runs=200, t_cap=t_cap)
        # a replayed probe may play past the longest horizon asked about (up
        # to its floor), and those rounds are scored once too
        assert len(est.curve) > 2 and sum(scored) == 200 * max(played)
        assert max(played) <= t_cap
        # estimates are built for the scored rounds only: each probe
        # fast-forwards every run over the rounds the probes before it scored
        assert sum(built) == 200 * max(played)
        assert sum(ingested) == 200 * sum(played[:-1])

    @pytest.mark.parametrize(
        "config,epsilon,runs,t_cap,probes,floor",
        [
            (
                GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=8),
                0.2, 200, 1 << 20, [1024], 1024,
            ),
            # the floor is the cap: 16 fails with 32 past the cap, so no
            # probe may play to 32
            (GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=8), 0.2, 200, 16, [16], 16),
            # 512 passes with 1024 past the cap, so no probe confirms it at 1024
            (GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=0), 0.2, 200, 512, [512], 512),
            (
                GameConfig(
                    n=8, horizon=1, algorithm="meanest", adversary="uniform", seed=2,
                    anytime=True, burn_in=6,
                ),
                0.3, 200, 1 << 20, [1024], 1024,
            ),
            # the round loop has no floor: every probe plays to a horizon asked about
            (
                GameConfig(
                    n=16, horizon=1, algorithm="halving", adversary="uniform", metric="median", seed=3
                ),
                0.1, 200, 64, [2, 8, 32, 64], None,
            ),
            # the two complexity-sweep cells of the benchmark at its seed 1,
            # which played [2, 8, 32, 128, 512, 2048, 8192, 16384] and
            # [2, 8, 32, 128, 256] before replayed probes had a floor
            (
                GameConfig(n=16, horizon=1, algorithm="cdfest", adversary="uniform", seed=1835504127),
                0.1, 400, 1 << 20, [1024, 4096, 16384], 1024,
            ),
            (
                GameConfig(n=16, horizon=1, algorithm="meanest", adversary="mirror", seed=1731038949),
                0.05, 400, 1 << 20, [1024], 1024,
            ),
            # a sequence of 600 samples refuses the floor's horizon when it
            # is built, and an amplified one at round 34, where its third
            # segment (1056 rounds) is built: the first probe raises, and the
            # search plays it again, and every later probe, without the floor
            (
                GameConfig(n=8, horizon=1, algorithm="meanest", seed=2, adversary=_SEQUENCE_600),
                0.1, 200, 1 << 20, [1024, 2, 8, 32], 1024,
            ),
            (
                GameConfig(
                    n=8, horizon=1, algorithm="meanest", seed=2,
                    adversary=AdversarySpec("amplified", {"inner": _SEQUENCE_600}),
                ),
                0.25, 200, 1 << 20, [1024, 2], 1024,
            ),
        ],
        ids=["cdf", "cap-16", "cap-512", "anytime-burn-in", "halving-round-loop",
             "sweep-cdfest", "sweep-meanest", "sequence-below-the-floor", "amplified-sequence-below-the-floor"],
    )
    def test_search_plays_only_horizons_it_asks_about(self, config, epsilon, runs, t_cap, probes, floor, monkeypatch):
        played = _record_probes(monkeypatch)
        est = estimate_query_complexity(config, epsilon, runs=runs, t_cap=t_cap)
        # each doubling probe plays to 2h, which the search asks about next,
        # and a replayed probe plays at least its floor, asked about or not
        assert played == probes and set(played) <= {horizon for horizon, _ in est.curve} | {floor}
        assert max(played) <= t_cap

    @pytest.mark.parametrize(
        "config,epsilon,t_cap,expected",
        [
            (
                GameConfig(n=8, horizon=1, algorithm="cdfest", adversary="uniform", seed=0),
                0.2, 1 << 20,
                (512, True, [(1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0), (16, 0.0), (32, 0.0),
                             (64, 0.03), (128, 0.135), (256, 0.435), (384, 0.55), (448, 0.715),
                             (480, 0.745), (512, 0.785), (1024, 0.975)]),
            ),
            (
                GameConfig(n=16, horizon=1, algorithm="meanest", adversary="mirror", seed=0),
                0.05, 1 << 20,
                (88, True, [(1, 0.0), (2, 0.12), (4, 0.215), (8, 0.24), (16, 0.385), (32, 0.47),
                            (64, 0.65), (80, 0.745), (88, 0.75), (96, 0.785), (128, 0.86),
                            (256, 0.98)]),
            ),
            (
                GameConfig(
                    n=16, horizon=1, algorithm="halving", adversary="uniform", metric="median", seed=3
                ),
                0.1, 64,
                (64, False, [(1, 0.055), (2, 0.555), (4, 0.7), (8, 0.44), (16, 0.485), (32, 0.49),
                             (64, 0.475)]),
            ),
            (
                GameConfig(
                    n=8, horizon=1, algorithm="meanest", adversary="uniform", seed=2,
                    anytime=True, burn_in=6,
                ),
                0.3, 1 << 20,
                (7, True, [(7, 0.965), (8, 0.94), (16, 0.92)]),
            ),
            (
                GameConfig(
                    n=8, horizon=1, algorithm="meanest", seed=2,
                    adversary=AdversarySpec("amplified", {"inner": _SEQUENCE_600}),
                ),
                0.25, 1 << 20,
                (1, True, [(1, 1.0), (2, 1.0)]),
            ),
        ],
        ids=["cdfest-uniform", "meanest-mirror", "halving-round-loop", "anytime-burn-in", "amplified-sequence"],
    )
    def test_search_results_are_pinned(self, config, epsilon, t_cap, expected):
        # recorded before the search paired its probes (the last three before
        # replayed probes got a floor): a change to a seeded stream that moves
        # the search and monte_carlo alike still fails here
        est = estimate_query_complexity(config, epsilon, runs=200, t_cap=t_cap)
        assert (est.t_hat, est.resolved, est.curve) == expected


class TestExport:
    def test_trajectory_csv(self, tmp_path):
        config = GameConfig(n=4, horizon=3, algorithm="cdfest", adversary="uniform", seed=2)
        trajectories = [(r, run_game(config, run_id=r)) for r in range(2)]
        plain = tmp_path / "t.csv"
        write_trajectory_csv(plain, trajectories)
        lines = plain.read_text().strip().splitlines()
        assert lines[0] == "run_id,t,query,feedback,error"
        assert len(lines) == 1 + 2 * 3
        revealed = tmp_path / "r.csv"
        write_trajectory_csv(revealed, trajectories, reveal_samples=True)
        header = revealed.read_text().splitlines()[0]
        assert header == "run_id,t,query,feedback,error,sample"

    def test_summary_json_serializable(self):
        config = GameConfig(
            n=4,
            horizon=5,
            algorithm="cdfest",
            adversary=AdversarySpec("cdf-lb", {"epsilon": Fraction(1, 20)}),
            seed=2,
        )
        summary = monte_carlo(config, 3, epsilon=0.5)
        payload = json.loads(json.dumps(summary_to_dict(summary, t_hat=7)))
        assert payload["runs"] == 3 and payload["t_hat"] == 7
        assert len(payload["mse"]) == 5
        assert payload["config"]["adversary"]["name"] == "cdf-lb"


class TestBreakerReport:
    def test_breaks_both_shipped_baselines(self):
        for name in ("midpoint", "halving"):
            report = breaker_report(name, 16, 160)
            assert report.feedback_identical
            assert report.max_error >= Fraction(1, 16)
            assert report.broken

    def test_rejects_randomized_algorithms(self):
        with pytest.raises(ValidationError, match="deterministic"):
            breaker_report("cdfest", 16, 160)

    @pytest.mark.parametrize(
        "algorithm",
        [
            AlgorithmSpec("boosted", {"delta": 0.2, "inner": "halving"}),
            AlgorithmSpec("quantile", {"tau": 0.5, "inner": "halving"}),
        ],
        ids=["boosted-halving", "quantile-halving"],
    )
    def test_rejects_wrappers_around_a_deterministic_baseline(self, algorithm):
        # a wrapper is not deterministic, whatever it wraps
        with pytest.raises(ValidationError, match="deterministic"):
            breaker_report(algorithm, 16, 160)

    def test_a_baseline_that_claims_determinism_and_draws_is_caught(self):
        with pytest.raises(NondeterminismError):
            breaker_report(_register_drawing_midpoint(), 16, 160)


class _DrawingMidpoint(MidpointBaseline):
    """Claims determinism, as MidpointBaseline does, but queries off the rng."""

    def _query(self, rng):
        return int(rng.integers(1, self.n + 1))


def _register_drawing_midpoint() -> str:
    from threshold_arena import register_algorithm

    register_algorithm("drawing-midpoint", lambda p, n, h, rng: _DrawingMidpoint(n))
    return "drawing-midpoint"


def test_facts_are_read_off_algorithms_built_where_needed():
    from threshold_arena import register_algorithm

    built = []

    def counting(params, n, horizon, rng):
        built.append(n)
        return CdfEst(n)

    register_algorithm("counted-cdfest", counting)
    config = GameConfig(n=8, horizon=20, algorithm="counted-cdfest", adversary="uniform", seed=3)
    monte_carlo(config, 70, workers=1)
    assert len(built) == 71  # one per run, and run 0's in the parent
    built.clear()
    run_game(config)
    assert len(built) == 1
    built.clear()
    validate_config(config)
    assert len(built) == 1
