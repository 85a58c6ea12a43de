"""Round protocol, Monte Carlo aggregation, and query-complexity estimation.

A game couples one OnlineAlgorithm with one Adversary for a fixed horizon:
each round the algorithm commits a query and the adversary commits a sample,
neither seeing the other's current choice, then the feedback bit goes to the
algorithm and the query joins the past queries, which the adversary is handed
as a read-only int64 array. Its own past samples it keeps itself, and the
feedback follows from a sample and a query, so the past queries are all the
protocol shows it. Every round's estimate is scored against the exact running
empirical CDF / mean.

Everything is reproducible: a master seed is split into independent
per-(run, role) lanes via numpy SeedSequence spawn keys, and runs are
aggregated in a fixed chunk order regardless of worker count. The registries
hold builders only: what the arena needs to know of an algorithm (its kind,
whether it is deterministic, a quantile kind's tau) it reads off the object
the builder returns, in the places where one is built anyway. The quantile
and boosted wrappers draw their coins and routing on lanes spawned from the
algorithm lane (spawn_lane), never on the algorithm lane itself. Monte Carlo
builds both sides of every run once; when a cdf-, mean- or quantile-kind
algorithm has query_batch and estimate_batch and the adversary has
sample_batch (queries that ignore feedback, samples that depend only on
queries), the run is replayed as arrays from the very same random streams,
else it is played round by round. The wrappers have the batch methods when
what they wrap does, and so does the anytime amplifier. Both engines score
with one kernel (_score_run, _score_block) in blocks of rounds: the round
loop buffers each round's estimate, the replay takes estimate_batch's
blocks. A block has one column per round: a CDF block is (n+2) x rounds,
one row per value, so the cumulative sums over rounds, the division by t
and the reductions over values run along whole rows, and a block of scalar
estimates is one row. Either engine yields the same columnar Trajectory,
which is what sinks and the CSV export consume. Both engines play a run
from round 1 and score it from a given start round: Monte Carlo scores
every round, and the query-complexity search scores only the rounds past
its longest probe. The replay fast-forwards the algorithm over the rounds
before start with ingest_batch, which advances its state without building
estimates, so it builds estimates for the scored rounds only. Both callers
run their chunks through one worker (_chunk_worker) and one pool map
(_run_chunks). A process pool is opened, and multiprocessing imported,
only when workers > 1 (_open_pool).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .core import (
    ProtocolError,
    Trajectory,
    ValidationError,
    _quantile_error_floats,
    as_fraction,
    mean_error,
)
from . import adversaries as adv_mod
from . import estimators as est_mod
from .adversaries import Adversary
from .estimators import OnlineAlgorithm

if TYPE_CHECKING:
    from concurrent.futures import Executor

ROLE_ALGORITHM = 1
ROLE_ADVERSARY = 2

# Runs are reduced in fixed chunks of this size; the reduction tree (and so
# every floating-point sum) is identical no matter how many workers run it.
CHUNK_RUNS = 32

# Both engines score a run in blocks of about this many cells ((n+2) x
# rounds, or rounds for the mean metric), so scoring memory is O(block),
# plus O(T) for the run's columns, whatever the horizon.
REPLAY_BLOCK_CELLS = 1 << 14


def derive_rng(master_seed: int, run_id: int, role: int) -> np.random.Generator:
    """Independent, reproducible generator lane for (seed, run, role)."""
    if master_seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {master_seed}")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(run_id, role))
    return np.random.Generator(np.random.PCG64(ss))


def spawn_lane(rng: np.random.Generator) -> np.random.Generator:
    """A new generator lane for a wrapper's own draws, drawing nothing from rng.

    The lane is seeded with the next child of the SeedSequence behind rng,
    so on the algorithm lane of (seed, run) the wrappers of one build get
    spawn keys (run, ROLE_ALGORITHM, 0), (run, ROLE_ALGORITHM, 1), ... in
    build order, whatever the rng has drawn. numpy >= 1.25 calls this
    Generator.spawn; older releases keep the seed sequence private.
    """
    bits = rng.bit_generator
    seq = getattr(bits, "seed_seq", None) or bits._seed_seq
    return np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))


# ---------------------------------------------------------------------------
# Named specs and registries (picklable, so Monte Carlo workers can rebuild).
# ---------------------------------------------------------------------------

@dataclass
class ComponentSpec:
    """A registered algorithm or adversary name plus its builder parameters."""

    name: str
    params: dict = field(default_factory=dict)


AlgorithmSpec = AdversarySpec = ComponentSpec


_ALGORITHM_BUILDERS: dict[str, Callable[[dict, int, int, np.random.Generator], OnlineAlgorithm]] = {}
_ADVERSARY_BUILDERS: dict[str, Callable[[dict, int, int, np.random.Generator], Adversary]] = {}


def register_algorithm(name, build) -> None:
    """Expose an algorithm builder: build(params, n, horizon, rng) -> OnlineAlgorithm.

    The arena reads what it needs off the built algorithm: its kind
    ("cdf" | "mean" | "median" | "quantile"), its deterministic flag (the
    breaker takes only deterministic baselines) and, for the quantile kind,
    its tau, the quantile it is scored against.

    A builder may read horizon only to validate: a run's first t rounds must
    not depend on it. estimate_query_complexity relies on this when it reads
    the success rate at a shorter horizon off a longer probe's rounds.
    """
    _ALGORITHM_BUILDERS[name] = build


def register_adversary(name, build) -> None:
    """Expose an adversary builder: build(params, n, horizon, rng) -> Adversary.

    As for algorithms, a builder may read horizon only to validate: a run's
    first t rounds must not depend on it.
    """
    _ADVERSARY_BUILDERS[name] = build


def _as_spec(value, role: str) -> ComponentSpec:
    """Coerce a spec, a bare name or a {"name", "params"} dict (config files)."""
    if isinstance(value, ComponentSpec):
        return value
    if isinstance(value, str):
        return ComponentSpec(value)
    if (
        isinstance(value, dict)
        and isinstance(value.get("name"), str)
        and isinstance(value.get("params", {}), dict)
    ):
        return ComponentSpec(value["name"], dict(value.get("params", {})))
    raise ValidationError(
        f"cannot interpret {value!r} as an {role} spec: "
        f'need a name or {{"name": str, "params": dict}}'
    )


def _registered(registry: dict, spec: ComponentSpec, role: str):
    try:
        return registry[spec.name]
    except KeyError:
        raise ValidationError(f"unknown {role} {spec.name!r}; registered: {sorted(registry)}")


def build_algorithm(spec: AlgorithmSpec, n: int, horizon: int, rng) -> OnlineAlgorithm:
    return _registered(_ALGORITHM_BUILDERS, spec, "algorithm")(spec.params, n, horizon, rng)


def build_adversary(spec: AdversarySpec, n: int, horizon: int, rng) -> Adversary:
    return _registered(_ADVERSARY_BUILDERS, spec, "adversary")(spec.params, n, horizon, rng)


# Component parameters come from outside the program (command-line text or a
# config file), so each is converted where its builder reads it, by _param.

def _integer(value) -> int:
    """An int from an int, an integral float or integer text; 2.5 is refused."""
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _numbers(values) -> list[float]:
    """A list of floats from a list of numbers; text is refused."""
    if isinstance(values, str):
        raise TypeError("text is not a list of numbers")
    return [float(v) for v in values]


def _integers(values) -> list[int]:
    """A list of ints from a list of ints or integral floats; text is refused."""
    if isinstance(values, str):
        raise TypeError("text is not a list of integers")
    values = list(values)
    numbers = [int(v) for v in values]
    if numbers != values:  # an entry was text, or a float such as 2.5
        raise ValueError("not a list of integers")
    return numbers


_EXPECTED = {
    _integer: "an integer",
    float: "a number",
    as_fraction: "a number",
    _numbers: "a list of numbers",
    _integers: "a list of integers",
}


def _param(component: str, params: dict, key: str, convert, default=None):
    """params[key] converted by convert, or default when the key is absent.

    A value that convert cannot take raises ValidationError naming the
    component, the parameter and the value.
    """
    if key not in params:
        return default
    value = params[key]
    try:
        return convert(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ValidationError(
            f"{component} parameter {key} must be {_EXPECTED[convert]}, got {value!r}"
        ) from None


# Built-in algorithms.

def _build_cdfest(params, n, horizon, rng):
    return est_mod.CdfEst(n)


def _build_meanest(params, n, horizon, rng):
    return est_mod.MeanEst(n)


def _build_stochastic_cdf(params, n, horizon, rng):
    return est_mod.StochasticCdf(
        n,
        trials=_param("stochastic-cdf", params, "trials", _integer, est_mod.BOOST_TRIALS),
        budget=_param("stochastic-cdf", params, "budget", _integer),
    )


# The wrappers draw their coins and routing on a lane of their own, spawned
# from the algorithm's rng after (quantile) or before (boosted) building what
# they wrap: the inner algorithm's draws stay the bare algorithm's, and each
# stream can be regenerated as arrays. tau = 1/2 draws nothing and spawns
# nothing, so it is the bare inner algorithm bit for bit.

def _build_quantile(params, n, horizon, rng):
    if "tau" not in params:
        raise ValidationError("quantile wrapper needs a tau parameter")
    tau = _param("quantile", params, "tau", float)
    inner = build_algorithm(_as_spec(params.get("inner", "cdfest"), "algorithm"), n, horizon, rng)
    coins = None if tau == 0.5 else spawn_lane(rng)
    return est_mod.QuantileReduction(inner, tau, coins)


def _build_boosted(params, n, horizon, rng):
    if "delta" not in params:
        raise ValidationError("boosted wrapper needs a delta parameter")
    inner = _as_spec(params.get("inner", "meanest"), "algorithm")
    return est_mod.ConfidenceBoost(
        lambda: build_algorithm(inner, n, horizon, rng),
        _param("boosted", params, "delta", float),
        spawn_lane(rng),
        copies=_param("boosted", params, "copies", _integer),
    )


register_algorithm("cdfest", _build_cdfest)
register_algorithm("meanest", _build_meanest)
register_algorithm("stochastic-cdf", _build_stochastic_cdf)
register_algorithm("quantile", _build_quantile)
register_algorithm("boosted", _build_boosted)
register_algorithm("midpoint", lambda p, n, horizon, rng: est_mod.MidpointBaseline(n))
register_algorithm("halving", lambda p, n, horizon, rng: est_mod.HalvingBaseline(n))


# Built-in adversaries.

def _uniform_pmf(params, n):
    return adv_mod.uniform_pmf(n)


def _point_mass_pmf(params, n):
    if "j" not in params:
        raise ValidationError("point-mass adversary needs a location parameter j")
    return adv_mod.point_mass_pmf(_param("point-mass", params, "j", _integer), n)


def _stochastic_pmf(params, n):
    if "pmf" not in params:
        raise ValidationError("stochastic adversary needs an explicit pmf")
    pmf = np.asarray(_param("stochastic", params, "pmf", _numbers), dtype=np.float64)
    if pmf.size != n + 1:
        raise ValidationError(f"pmf must have n+1 = {n + 1} entries, got {pmf.size}")
    return pmf


def _cdf_lb_pmf(params, n):
    if "epsilon" not in params:
        raise ValidationError("cdf-lb adversary needs an epsilon parameter")
    epsilon = _param("cdf-lb", params, "epsilon", as_fraction)
    fracs = adv_mod.cdf_lb_family(n, epsilon, params.get("sigma", "+"))
    return np.asarray([float(p) for p in fracs], dtype=np.float64)


def _build_iid(pmf_fn):
    def build(params, n, horizon, rng):
        return adv_mod.StochasticAdversary(pmf_fn(params, n), rng)

    return build


def _build_median_lb(params, n, horizon, rng):
    for key in ("k", "m", "epsilon"):
        if key not in params:
            raise ValidationError(f"median-lb adversary needs a {key} parameter")
    config = adv_mod.MedianLbConfig(
        _param("median-lb", params, "k", _integer),
        _param("median-lb", params, "m", _integer),
        _param("median-lb", params, "epsilon", as_fraction),
        params.get("sigma", "+"),
    )
    if config.n != n:
        raise ValidationError(f"median-lb config has n = 4k = {config.n}, game has n = {n}")
    return adv_mod.MedianLbAdversary(config, rng)


def _build_sequence(params, n, horizon, rng):
    if "samples" in params:
        samples = _param("sequence", params, "samples", _integers)
    elif "path" in params:
        samples = adv_mod.load_sample_sequence(params["path"])
    else:
        raise ValidationError("sequence adversary needs samples or a path parameter")
    adversary = adv_mod.SequenceAdversary(samples, n)
    if len(adversary.samples) < horizon:
        raise ValidationError(
            f"sample sequence exhausted after {len(adversary.samples)} rounds, "
            f"before the horizon {horizon}"
        )
    return adversary


def _build_amplified(params, n, horizon, rng):
    if "inner" not in params:
        raise ValidationError("amplified adversary needs an inner adversary spec")
    inner = _as_spec(params["inner"], "adversary")
    factory = lambda segment: build_adversary(inner, n, segment, rng)
    return adv_mod.AnytimeAdversary(factory, t0=_param("amplified", params, "t0", _integer, 1))


register_adversary("uniform", _build_iid(_uniform_pmf))
register_adversary("point-mass", _build_iid(_point_mass_pmf))
register_adversary("stochastic", _build_iid(_stochastic_pmf))
register_adversary("cdf-lb", _build_iid(_cdf_lb_pmf))
register_adversary("median-lb", _build_median_lb)
register_adversary("coin", lambda p, n, horizon, rng: adv_mod.ConstantCoinAdversary(n, rng))
register_adversary("mirror", lambda p, n, horizon, rng: adv_mod.AdaptiveMirrorAdversary(n))
register_adversary("sequence", _build_sequence)
register_adversary("amplified", _build_amplified)


# ---------------------------------------------------------------------------
# Game configuration.
# ---------------------------------------------------------------------------

_COMPATIBLE_METRICS = {
    "cdf": ("cdf", "median"),
    "median": ("median",),
    "mean": ("mean",),
    "quantile": ("quantile",),
}


@dataclass
class GameConfig:
    """One matchup: algorithm vs adversary at a fixed horizon and master seed.

    metric defaults to the algorithm kind's natural metric; a CDF-kind
    algorithm may instead be scored on the median it implies. anytime=True
    makes Monte Carlo success mean "error <= epsilon at every round past
    burn_in" instead of only at the horizon.
    """

    n: int
    horizon: int
    algorithm: AlgorithmSpec | str
    adversary: AdversarySpec | str
    metric: str | None = None
    seed: int = 0
    anytime: bool = False
    burn_in: int = 0

    def __post_init__(self) -> None:
        self.algorithm = _as_spec(self.algorithm, "algorithm")
        self.adversary = _as_spec(self.adversary, "adversary")


def _metric_of(config: GameConfig, alg: OnlineAlgorithm) -> tuple[str, float]:
    """(metric, tau) that scores config's games, read off one of its built algorithms."""
    kind = alg.kind
    metric = config.metric or kind
    if metric not in _COMPATIBLE_METRICS[kind]:
        raise ValidationError(
            f"metric {metric!r} is incompatible with a {kind!r}-kind algorithm"
        )
    if metric != "quantile":
        return metric, 0.5
    tau = getattr(alg, "tau", None)
    if tau is None:
        raise ValidationError("quantile metric needs tau")
    return metric, float(tau)


def resolve_metric(config: GameConfig) -> tuple[str, float]:
    """Check the config's shape and return (metric, tau) for scoring.

    Builds run 0's algorithm to read its kind and, for the quantile metric,
    its tau, so a builder's error surfaces here too.
    """
    return _metric_of(config, _build_algorithm(config, 0)[0])


def validate_config(config: GameConfig) -> None:
    """Check a config's shape and metric, and run the builders' checks on run 0's sides.

    Both sides of run 0 are built once; the metric is read off the algorithm.
    An amplified adversary builds only its first segment here. Later segments
    are built mid-game, and one that fails then (a sequence too short for it)
    fails both engines alike with the builder's error.
    """
    _metric_of(config, _build_sides(config, 0)[0])


def _build_algorithm(config: GameConfig, run_id: int):
    """(algorithm, algorithm rng) of one run, built once the config's shape is checked."""
    if config.n < 2:
        raise ValidationError(f"n must be >= 2, got {config.n}")
    if config.horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {config.horizon}")
    if not 0 <= config.burn_in < config.horizon:
        raise ValidationError(f"burn_in must lie in [0, horizon), got {config.burn_in}")
    alg_rng = derive_rng(config.seed, run_id, ROLE_ALGORITHM)
    return build_algorithm(config.algorithm, config.n, config.horizon, alg_rng), alg_rng


def _build_sides(config: GameConfig, run_id: int):
    """(algorithm, adversary, algorithm rng) of one run, on the run's rng lanes."""
    alg, alg_rng = _build_algorithm(config, run_id)
    adv_rng = derive_rng(config.seed, run_id, ROLE_ADVERSARY)
    return alg, build_adversary(config.adversary, config.n, config.horizon, adv_rng), alg_rng


# ---------------------------------------------------------------------------
# Single game, and the scoring both engines share.
# ---------------------------------------------------------------------------

def run_game(config: GameConfig, run_id: int = 0) -> Trajectory:
    """Play one seeded game and record the full trajectory.

    The adversary's sample at round t is requested with the queries of
    rounds 1..t-1 only, as a read-only array; determinism is total given
    (seed, run_id). Contract violations raise ProtocolError naming the
    offender and the round.
    """
    alg, adversary, alg_rng = _build_sides(config, run_id)
    metric, tau = _metric_of(config, alg)
    return _play(config, metric, tau, alg, adversary, alg_rng, True, 1)[2]


def _play(config, metric, tau, alg, adversary, alg_rng, keep_trajectory: bool, start: int):
    """The round loop: _replay's result for any pair of sides, played round by round.

    Every round is checked as it is played, so a query, sample or index
    estimate out of range, or a ValidationError from snapshot(), raises
    ProtocolError at its own round, before the next round is played. The
    adversary gets past[:i], a read-only view of the query column, so one
    that writes into it raises numpy's ValueError. Each round's estimate
    goes into its column of a block buffer allocated once per run (the CDF
    values of a CDF-kind algorithm, else the scalar estimate), and
    _score_run scores full blocks.
    """
    n, horizon = config.n, config.horizon
    kind = alg.kind
    queries, samples, feedback = (np.empty(horizon, dtype=np.int64) for _ in range(3))
    past = queries.view()
    past.flags.writeable = False
    block = _block_rounds(metric, n)

    def blocks():
        shape = (n + 2, block) if kind == "cdf" else block
        buffer = np.empty(shape, dtype=np.int64 if kind in ("median", "quantile") else np.float64)
        slots = buffer.T  # slots[r] is round r's column
        for i in range(horizon):
            t, r = i + 1, i % block
            q = alg.next_query(alg_rng)
            if not 1 <= q <= n:
                raise ProtocolError("algorithm", t, f"query {q} outside 1..{n}")
            x = adversary.next_sample(past[:i])
            if not 1 <= x <= n + 1:
                raise ProtocolError("adversary", t, f"sample {x} outside 1..{n + 1}")
            b = 1 if x <= q else 0
            alg.observe(b)
            queries[i], samples[i], feedback[i] = q, x, b
            try:
                snap = alg.snapshot()
            except ValidationError as exc:
                raise ProtocolError("algorithm", t, str(exc))
            if kind == "cdf":
                snap = snap.values
            elif kind != "mean" and not 1 <= int(snap) <= n + 1:
                raise ProtocolError("algorithm", t, f"index estimate {int(snap)} outside 1..{n + 1}")
            slots[r] = snap
            if r == block - 1 or t == horizon:
                yield i - r, buffer[..., : r + 1]

    return _score_run(
        config, metric, tau, alg, queries, samples, feedback, blocks(), keep_trajectory, start
    )


def _block_rounds(metric: str, n: int, copies: int = 1) -> int:
    """Rounds per scoring block: about REPLAY_BLOCK_CELLS cells, a round holding copies estimates."""
    return max(1, REPLAY_BLOCK_CELLS // ((1 if metric == "mean" else n + 2) * copies))


def _score_block(
    metric: str, tau: float, n: int, counts, t0: int, samples, est, want_estimates: bool
):
    """Errors of rounds t0+1 .. t0+len(samples), and their scalar estimates.

    counts holds the per-value sample counts of rounds 1..t0 and is advanced
    in place. est holds the algorithm's estimates of the same rounds, one
    column per round: a row of means for the mean metric, else an
    (n+2) x rounds CDF block (one row per value) or a row of indices. The
    running counts have est's layout: entry (v, r) holds the samples <= v
    among rounds 1..t0+r+1, one comparison of the block's samples with
    0..n+1 summed along the rounds, plus the cumulative counts of the rounds
    before. Each round's empirical CDF is those integers over t, so every
    float operation is the one a whole-horizon pass does, and errors do not
    depend on how the horizon is cut into blocks. Only the entries an error
    reads are divided: values 1..n+1 for the cdf metric, the two around each
    median index otherwise. The division by t and the max over values run
    along whole rows of rounds. The scalar estimates (the median index for a
    CDF) are returned when want_estimates, else None. The quantile metric
    scores the median index of CDF blocks against tau: those are the blocks
    of the median estimator inside a quantile wrapper.
    """
    rounds = len(samples)
    tt = np.arange(t0 + 1, t0 + rounds + 1, dtype=np.float64)
    if metric == "mean":
        total = int(counts @ np.arange(n + 2))
        counts += np.bincount(samples, minlength=n + 2)
        return np.abs(est - (total + np.cumsum(samples)) / tt) / n, est
    # block temporaries are few and accumulated in place: with many small
    # blocks, each freed array is memory the allocator may hand back and
    # fault in again
    below = (samples[:, None] <= np.arange(n + 2)).astype(np.int64)
    below[0] += np.cumsum(counts)
    # summed round-major into a value-major array, the fastest of the layouts
    # for numpy's cumulative sum
    running = np.empty((n + 2, rounds), dtype=np.int64)
    np.cumsum(below, axis=0, out=running.T)
    counts += np.bincount(samples, minlength=n + 2)
    med = est if est.ndim == 1 else None  # a row of indices is its own estimate
    if med is None and (metric != "cdf" or want_estimates):
        med = np.argmax(est[1:] > 0.5, axis=0) + 1
    if metric == "cdf":
        f = np.divide(running[1:], tt)
        diff = np.subtract(est[1:], f, out=f)
        errs = np.abs(diff, out=diff).max(axis=0)
    else:
        r = np.arange(rounds)
        errs = np.maximum(0.0, np.maximum(running[med - 1, r] / tt - tau, tau - running[med, r] / tt))
    return errs, med


def _score_run(config, metric, tau, alg, queries, samples, feedback, blocks, keep_trajectory, start):
    """(errors, squared final index errors or None, Trajectory or None) of one run.

    blocks yields (lo, est) for consecutive blocks, once their samples are in
    place: est holds the estimates of rounds lo+1 .. lo+k, one column per
    round (k = est.shape[-1]), as _score_block takes them, in a buffer the
    next block may overwrite. Rounds before start are played but not
    scored: the running counts start from their samples, a block that
    straddles start (the round loop's) is scored from start on, a block
    that ends before it is skipped, and the errors returned are those of
    rounds start .. horizon (a trajectory is kept with start 1 only). The
    replay's blocks begin at start. The final CDF's index errors are
    computed for a CDF-kind algorithm only.
    """
    n, horizon = config.n, config.horizon
    skipped = start - 1
    counts = None
    errs = np.empty(horizon - skipped)
    estimates = None
    if keep_trajectory:
        estimates = np.empty(horizon, dtype=np.float64 if metric == "mean" else np.int64)
    for lo, est in blocks:
        hi = lo + est.shape[-1]
        if hi <= skipped:
            continue
        first = max(lo, skipped)
        if counts is None:  # the round loop fills samples as it plays them
            counts = np.bincount(samples[:first], minlength=n + 2)
        errs[first - skipped : hi - skipped], block_estimates = _score_block(
            metric, tau, n, counts, first, samples[first:hi], est[..., first - lo :], keep_trajectory
        )
        if keep_trajectory:
            estimates[lo:hi] = block_estimates
    final = alg.snapshot()
    idx_sq = None
    if alg.kind == "cdf":
        diff = final.values - np.cumsum(counts) / horizon
        idx_sq = diff * diff
    if not keep_trajectory:
        return errs, idx_sq, None
    feedback = feedback.astype(np.int64, copy=False)
    return errs, idx_sq, Trajectory(n, metric, tau, queries, samples, feedback, errs, estimates, final)


def recompute_errors(trajectory: Trajectory) -> np.ndarray:
    """Rebuild the error series from the raw (sample, estimate) log.

    Supported for scalar-estimate metrics (median, quantile, mean); the
    result matches the recorded series bit for bit because the same float
    kernels run on the same values.
    """
    if trajectory.metric == "cdf":
        raise ValidationError("cdf error series requires replaying the algorithm, not the log")
    n = trajectory.n
    cum = np.zeros(n + 2, dtype=np.int64)
    total = 0
    out = np.empty(trajectory.horizon)
    rounds = zip(trajectory.samples.tolist(), trajectory.estimates.tolist())
    for idx, (x, est) in enumerate(rounds):
        cum[x:] += 1
        total += x
        t = idx + 1
        if trajectory.metric == "mean":
            out[idx] = mean_error(float(est), total / t, n)
        else:
            out[idx] = _quantile_error_floats(cum / t, int(est), trajectory.tau)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo.
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloSummary:
    """Cross-run aggregates; arrays are per round (length = horizon).

    success arrays appear only when an epsilon was supplied: entry t-1 of
    success_rate is the share of runs with error <= epsilon at round t, and
    of anytime_rate the share with error <= epsilon at every round from
    burn_in+1 through t (1 for t <= burn_in). Since a run's first t rounds do
    not depend on the horizon, these are also the success rates at horizon t.
    index_mse / index_mse_stderr hold the per-index squared error of the
    final CDF estimate for CDF-kind algorithms, else None.
    """

    config: GameConfig
    runs: int
    metric: str
    tau: float
    epsilon: float | None
    mean_error: np.ndarray
    mse: np.ndarray
    success_rate: np.ndarray | None
    final_errors: np.ndarray
    success_at_horizon: float | None
    success_anytime: float | None
    anytime_rate: np.ndarray | None
    index_mse: np.ndarray | None
    index_mse_stderr: np.ndarray | None


def _new_partial(rounds: int, n: int, epsilon, cdf_kind: bool) -> dict:
    return {
        "sum_err": np.zeros(rounds),
        "sum_sq": np.zeros(rounds),
        "succ": np.zeros(rounds, dtype=np.int64) if epsilon is not None else None,
        # each run's first failure, as _absorb_run records it, in run order
        "first_fail": [] if epsilon is not None else None,
        "finals": [],
        "idx_sum": np.zeros(n + 2) if cdf_kind else None,
        "idx_sumsq": np.zeros(n + 2) if cdf_kind else None,
    }


def _absorb_run(partial: dict, errs, epsilon, burn_in: int, start: int, failed: int, idx_sq) -> None:
    """Add one run's errors of rounds start .. horizon to a partial.

    A run's first failure is f when round f+1 is its first round past
    burn_in with error above epsilon, else the horizon. failed is the run's
    first failure among rounds 1 .. start-1, so start-1 when it had none;
    a run that has failed keeps its failure.
    """
    partial["sum_err"] += errs
    partial["sum_sq"] += errs * errs
    if epsilon is not None:
        ok = errs <= epsilon
        partial["succ"] += ok
        skipped = start - 1
        if failed >= skipped:
            late = max(burn_in - skipped, 0)
            fails = np.flatnonzero(~ok[late:])
            failed = skipped + (late + int(fails[0]) if fails.size else len(errs))
        partial["first_fail"].append(failed)
    partial["finals"].append(errs[-1])
    if idx_sq is not None:
        partial["idx_sum"] += idx_sq
        partial["idx_sumsq"] += idx_sq * idx_sq


def _first_outside(values: np.ndarray, top: int) -> int:
    """Index of the first entry outside 1..top, or len(values) if there is none."""
    bad = np.flatnonzero((values < 1) | (values > top))
    return int(bad[0]) if bad.size else len(values)


def _replay(config, metric, tau, alg, adversary, alg_rng, keep_trajectory: bool, start: int):
    """_play's result for a run whose sides have batch methods, computed as arrays.

    The run's queries, samples and feedback are drawn for the whole horizon
    (O(T)). The adversary gets a read-only view of the queries before the
    first one out of range, as in the round loop, and the earliest round
    with a query or sample out of range raises the round loop's
    ProtocolError. The algorithm is then fast-forwarded over rounds
    1..start-1 with one ingest_batch call, which advances its state (and
    draws a wrapper's coins or routing) as estimate_batch would, but builds
    no estimates. Estimates of rounds start..horizon come block by block
    from estimate_batch, (n+2) x rounds for a CDF, so no (n+2) x T array is
    built; an algorithm whose estimate_batch computes batch_copies estimates
    per round (the booster) gets that many times fewer rounds per block.
    """
    n, horizon = config.n, config.horizon
    queries = alg.query_batch(alg_rng, horizon)
    q_end = _first_outside(queries, n)
    past = queries[:q_end]
    past.flags.writeable = False
    samples = adversary.sample_batch(past)
    x_end = _first_outside(samples, n + 1)
    if x_end < len(samples):
        raise ProtocolError("adversary", x_end + 1, f"sample {samples[x_end]} outside 1..{n + 1}")
    if q_end < horizon:
        raise ProtocolError("algorithm", q_end + 1, f"query {queries[q_end]} outside 1..{n}")
    feedback = samples <= queries
    skipped = start - 1
    if skipped:
        alg.ingest_batch(queries[:skipped], feedback[:skipped])
    block = _block_rounds(metric, n, getattr(alg, "batch_copies", 1))
    blocks = (
        (lo, alg.estimate_batch(queries[lo : lo + block], feedback[lo : lo + block]))
        for lo in range(skipped, horizon, block)
    )
    return _score_run(
        config, metric, tau, alg, queries, samples, feedback, blocks, keep_trajectory, start
    )


def _chunk_worker(args) -> dict:
    """Partial sums of runs [lo, hi), each run replayed as arrays when its sides allow.

    A run is replayed when the algorithm is cdf-, mean- or quantile-kind,
    the built algorithm has query_batch, ingest_batch and estimate_batch and
    the built adversary has sample_batch, else it is played round by round.
    A quantile-kind estimate_batch returns a CDF block whose median index is
    each round's estimate, as the quantile wrapper's does. Both engines score with
    _score_run on the same values, so errors, estimates and trajectories
    are bit-identical.

    Every run is played from round 1 and scored from round start; failed
    holds each run's first failure before start (see _absorb_run), and the
    partial's arrays cover rounds start .. horizon.

    export is falsy, or a picklable function of (run_id, Trajectory): the
    chunk then keeps each run's trajectory and ships export's results in run
    order under "exported" (the CLI's exporter formats the run's CSV text
    here, so only text crosses the pool).
    """
    config, lo, hi, epsilon, export, start, failed = args
    exported = []
    for run, failed_before in zip(range(lo, hi), failed):
        alg, adversary, alg_rng = _build_sides(config, run)
        if run == lo:  # every run's algorithm is of one kind
            metric, tau = _metric_of(config, alg)
            partial = _new_partial(config.horizon - start + 1, config.n, epsilon, alg.kind == "cdf")
        replayable = (
            alg.kind in ("cdf", "mean", "quantile")
            and all(hasattr(alg, m) for m in ("query_batch", "ingest_batch", "estimate_batch"))
            and hasattr(adversary, "sample_batch")
        )
        errs, idx_sq, trajectory = (_replay if replayable else _play)(
            config, metric, tau, alg, adversary, alg_rng, bool(export), start
        )
        if export:
            exported.append(export(run, trajectory))
        _absorb_run(partial, errs, epsilon, config.burn_in, start, failed_before, idx_sq)
    if export:
        partial["exported"] = exported
    return partial


def _open_pool(workers: int) -> Executor:
    """A process pool of workers processes.

    multiprocessing is imported here, when a pool is opened, so that
    importing the package does not pay for it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _run_chunks(config, runs, epsilon, workers, pool, start, failed, export=False, receive=None) -> dict:
    """The partial of runs 0 .. runs-1, reduced in a fixed chunk order.

    Each chunk of CHUNK_RUNS runs goes to _chunk_worker with start and its
    runs' entries of failed. With workers > 1 the chunks run on pool, or on
    a pool opened for this call when pool is None; receive gets each
    chunk's exported results in run order.
    """
    jobs = [
        (config, lo, min(lo + CHUNK_RUNS, runs), epsilon, export, start, failed[lo : lo + CHUNK_RUNS])
        for lo in range(0, runs, CHUNK_RUNS)
    ]
    partials = []
    with contextlib.ExitStack() as stack:
        if workers > 1 and len(jobs) > 1:
            pool = pool or stack.enter_context(_open_pool(workers))
        else:
            pool = None
        for part in (pool.map if pool else map)(_chunk_worker, jobs):
            for item in part.pop("exported", ()):
                receive(item)
            partials.append(part)

    combined, *rest = partials
    for part in rest:  # fixed chunk order keeps float sums reproducible
        for key, value in part.items():
            if value is not None:
                combined[key] += value
    return combined


def _run_and_trajectory(run_id: int, trajectory: Trajectory) -> tuple[int, Trajectory]:
    """The exporter behind monte_carlo's sink: ships each run's trajectory as it is."""
    return run_id, trajectory


def monte_carlo(
    config: GameConfig,
    runs: int,
    epsilon: float | None = None,
    workers: int = 1,
    sink: Callable[[int, Trajectory], None] | None = None,
    *,
    _export: tuple[Callable[[int, Trajectory], Any], Callable[[Any], None]] | None = None,
) -> MonteCarloSummary:
    """Aggregate `runs` independent seeded games of one config.

    Run r uses the rng lanes derived from (config.seed, r), so the summary
    equals what r separate run_game(config, run_id=r) calls would produce.
    With workers > 1 the fixed-size chunks are farmed to a process pool;
    results are bit-identical to the serial path. A sink receives every
    (run_id, Trajectory) in run order; the vectorized replay and the round
    loop build equal trajectories, so a sink does not change the engine.
    A replayed run needs O(T) memory for its columns plus a fixed block of
    estimate cells, not O(T*n).

    _export=(export, receive) is the export channel a sink is built on:
    export, a picklable function, runs in the chunk's worker on every
    (run_id, Trajectory), and receive gets its results in run order, so the
    parent holds what export returns, never trajectories (the CLI formats
    CSV text in the workers this way).
    """
    if runs < 1:
        raise ValidationError(f"runs must be >= 1, got {runs}")
    if epsilon is not None and not epsilon >= 0:  # also rejects nan
        raise ValidationError(f"epsilon must be a nonnegative number, got {epsilon}")
    if sink is not None:
        if _export is not None:
            raise ValidationError("monte_carlo takes a sink or an export, not both")
        _export = (_run_and_trajectory, lambda pair: sink(*pair))
    metric, tau = resolve_metric(config)
    export, receive = _export or (False, None)
    combined = _run_chunks(config, runs, epsilon, workers, None, 1, [0] * runs, export, receive)
    index_mse = index_stderr = None
    if combined["idx_sum"] is not None:  # a CDF-kind algorithm
        index_mse = combined["idx_sum"] / runs
        var = combined["idx_sumsq"] / runs - index_mse**2
        index_stderr = np.sqrt(np.maximum(var, 0.0) / runs)
    success_rate = anytime_rate = None
    if epsilon is not None:
        success_rate = combined["succ"] / runs
        # first_fail[f]: runs whose first failure is f (f = horizon: none)
        first_fail = np.bincount(combined["first_fail"], minlength=config.horizon + 1)
        # runs whose first failure comes after round t, for t = 1..horizon
        anytime_rate = np.cumsum(first_fail[::-1])[::-1][1:] / runs
    return MonteCarloSummary(
        config=config,
        runs=runs,
        metric=metric,
        tau=tau,
        epsilon=epsilon,
        mean_error=combined["sum_err"] / runs,
        mse=combined["sum_sq"] / runs,
        success_rate=success_rate,
        final_errors=np.asarray(combined["finals"]),
        success_at_horizon=float(success_rate[-1]) if epsilon is not None else None,
        success_anytime=float(anytime_rate[-1]) if epsilon is not None else None,
        anytime_rate=anytime_rate,
        index_mse=index_mse,
        index_mse_stderr=index_stderr,
    )


# ---------------------------------------------------------------------------
# Empirical query complexity.
# ---------------------------------------------------------------------------

@dataclass
class ComplexityEstimate:
    t_hat: int
    resolved: bool
    epsilon: float
    target: float
    runs: int
    curve: list[tuple[int, float]]  # probed (horizon, success rate), sorted


def estimate_query_complexity(
    config: GameConfig,
    epsilon: float,
    target: float = 0.75,
    runs: int = 400,
    t_cap: int = 1 << 20,
    workers: int = 1,
    *,
    _pool: Executor | None = None,
) -> ComplexityEstimate:
    """Smallest horizon at which the config wins with the target probability.

    Doubles the horizon, from the smallest power of two above burn_in, until
    the success rate clears the target at both T and 2T <= t_cap, then
    bisects down to +-10%. Success means final error <= epsilon (or error <=
    epsilon at every round past burn_in when config.anytime). Hitting t_cap
    returns the cap with resolved=False, also when T passes but 2T is past
    the cap: no probe plays past t_cap. With anytime the search answers a
    fixed-burn-in question, whose rate can only fall as T grows: when its
    first probe misses the target, it runs to t_cap.

    Every registered matchup is horizon-prefix consistent (see
    register_algorithm), so the longest probe H gives the success rate at
    every h <= H, and the search keeps two running totals: the runs that
    succeed at each round 1..H, and each run's first failure past burn_in
    (see _absorb_run). A probe runs only when h exceeds H. Whenever 2h <=
    t_cap the doubling asks for 2h right after h, as the confirmation when
    h passes and as the next h when it fails, so the probe for h plays to
    2h: every horizon played is one the search asks for, in about half as
    many probes. A probe plays every run again from round 1, on the run's
    own rng lanes, which redraws the same rounds, and scores only the
    rounds past H; a run that failed before H keeps its failure. A replayed
    run fast-forwards its algorithm over rounds 1..H (see _replay). Each
    round of each run is so estimated and scored once, and the bisection
    reads its rates off the totals. Rates are integer counts over runs. All probes share one process
    pool when workers > 1: _pool lends an open one (the CLI sweep holds one
    for all its cells), else the search opens its own.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValidationError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    if not 0.0 < target <= 1.0:
        raise ValidationError(f"target must lie in (0, 1], got {target}")
    if runs < 200:
        raise ValidationError(f"need >= 200 runs to resolve a {target} success rate, got {runs}")
    if t_cap < 1:
        raise ValidationError(f"t_cap must be >= 1, got {t_cap}")
    rates: dict[int, float] = {}
    succ = np.zeros(0, dtype=np.int64)  # runs with error <= epsilon at rounds 1..H
    failed = [0] * runs  # each run's first failure among rounds 1..H

    def rate(horizon: int, play: int = 0) -> float:
        nonlocal succ, failed
        if horizon not in rates:
            if horizon > len(succ):  # a probe, played to max(horizon, play)
                probe = dataclasses.replace(config, horizon=max(horizon, play))
                part = _run_chunks(probe, runs, epsilon, workers, pool, len(succ) + 1, failed)
                succ = np.concatenate([succ, part["succ"]])
                failed = part["first_fail"]
            if config.anytime:
                wins = sum(f >= horizon for f in failed)
            else:
                wins = int(succ[horizon - 1])
            rates[horizon] = wins / runs
        return rates[horizon]

    if workers > 1 and _pool is None:
        shared = _open_pool(workers)
    else:
        shared = contextlib.nullcontext(_pool)
    with shared as pool:
        horizon = 1 << config.burn_in.bit_length()  # smallest power of two > burn_in
        while horizon <= t_cap:
            # rate(2h) comes next whenever 2h <= t_cap: one probe serves both
            double = 2 * horizon if 2 * horizon <= t_cap else 0
            if rate(horizon, double) >= target and double and rate(double) >= target:
                break
            horizon *= 2
        else:
            return ComplexityEstimate(t_cap, False, epsilon, target, runs, sorted(rates.items()))

        # the answer lies in (lo, hi]; horizons up to burn_in are not games
        lo, hi = max(horizon // 2, config.burn_in), horizon
        while hi - lo > max(1, hi // 10):
            mid = (lo + hi) // 2
            if rate(mid) >= target:
                hi = mid
            else:
                lo = mid
    return ComplexityEstimate(hi, True, epsilon, target, runs, sorted(rates.items()))


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------

TRAJECTORY_CSV_HEADER = "run_id,t,query,feedback,error"


def trajectory_csv_header(reveal_samples: bool = False) -> str:
    return TRAJECTORY_CSV_HEADER + (",sample" if reveal_samples else "")


def trajectory_csv_text(run_id, trajectory: Trajectory, reveal_samples: bool = False) -> str:
    """All CSV lines of one trajectory as one string; hidden samples only on request.

    The lines are one list of five pieces per row, filled column by column
    by slice assignment: the run prefix, t, the ",query,feedback," pair, the
    error and the line end (",sample" if shown, then the newline). Pairs and
    samples are formatted once per distinct value, and errors print as
    repr(float), so the text does not depend on the numpy version.
    """
    horizon = trajectory.horizon
    pieces = [f"{run_id},"] * (5 * horizon)
    pieces[1::5] = map(str, range(1, horizon + 1))
    pairs = 2 * trajectory.queries + trajectory.feedback
    pieces[2::5] = _format_distinct(pairs, lambda c: f",{c >> 1},{c & 1},")
    pieces[3::5] = map(repr, trajectory.errors.tolist())
    if reveal_samples:
        pieces[4::5] = _format_distinct(trajectory.samples, ",{}\n".format)
    else:
        pieces[4::5] = ["\n"] * horizon
    return "".join(pieces)


def _format_distinct(values: np.ndarray, fmt: Callable[[int], str]):
    """fmt(v) for each entry v of an integer array, calling fmt once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    table = [fmt(v) for v in distinct.tolist()]
    return map(table.__getitem__, inverse.tolist())


def write_trajectory_csv(path, trajectories, reveal_samples: bool = False) -> None:
    """CSV export: run_id,t,query,feedback,error (+sample with reveal_samples).

    trajectories is an iterable of (run_id, Trajectory).
    """
    with open(path, "w") as fh:
        fh.write(trajectory_csv_header(reveal_samples) + "\n")
        for run_id, trajectory in trajectories:
            fh.write(trajectory_csv_text(run_id, trajectory, reveal_samples))


def config_to_dict(config: GameConfig) -> dict:
    out = dataclasses.asdict(config)
    out["algorithm"] = {"name": config.algorithm.name, "params": _jsonable(config.algorithm.params)}
    out["adversary"] = {"name": config.adversary.name, "params": _jsonable(config.adversary.params)}
    return out


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, ComponentSpec):
        return {"name": value.name, "params": _jsonable(value.params)}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def summary_to_dict(summary: MonteCarloSummary, t_hat: int | None = None) -> dict:
    out = {
        "config": config_to_dict(summary.config),
        "runs": summary.runs,
        "metric": summary.metric,
        "tau": summary.tau,
        "epsilon": summary.epsilon,
        "mean_error": summary.mean_error.tolist(),
        "mse": summary.mse.tolist(),
        "success_rate": None if summary.success_rate is None else summary.success_rate.tolist(),
        "success_at_horizon": summary.success_at_horizon,
        "success_anytime": summary.success_anytime,
        "final_errors": summary.final_errors.tolist(),
        "index_mse": None if summary.index_mse is None else summary.index_mse.tolist(),
    }
    if t_hat is not None:
        out["t_hat"] = t_hat
    return out


def write_summary_json(path, summary: MonteCarloSummary, t_hat: int | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(summary_to_dict(summary, t_hat=t_hat), fh, indent=2)
        fh.write("\n")


def default_workers() -> int:
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Breaker harness: defeat a deterministic baseline and document it.
# ---------------------------------------------------------------------------

@dataclass
class BreakerReport:
    """Outcome of running one deterministic baseline against its breaker pair."""

    algorithm: str
    n: int
    horizon: int
    p: Fraction
    feedback_identical: bool
    estimate: int
    error_left: Fraction
    error_right: Fraction
    threshold: Fraction

    @property
    def max_error(self):
        return max(self.error_left, self.error_right)

    @property
    def broken(self) -> bool:
        return self.feedback_identical and self.max_error >= self.threshold

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "horizon": self.horizon,
            "p": str(self.p),
            "feedback_identical": self.feedback_identical,
            "estimate": self.estimate,
            "error_left": float(self.error_left),
            "error_right": float(self.error_right),
            "error_left_exact": str(self.error_left),
            "error_right_exact": str(self.error_right),
            "max_error": float(self.max_error),
            "threshold": float(self.threshold),
            "broken": self.broken,
        }


def breaker_report(algorithm, n: int, horizon: int) -> BreakerReport:
    """Build the breaker pair for a deterministic baseline and replay both sides.

    Replays the baseline against the left and right sequences, checks that the
    two feedback streams are bitwise identical, and scores the shared final
    median estimate exactly against both empirical CDFs. The construction
    guarantees the larger error is at least 1/16. The baseline is
    deterministic and both sequences are fixed, so no seed can change the
    report; its games are played on seed 0.
    """
    from .core import empirical_cdf, quantile_error

    spec = _as_spec(algorithm, "algorithm")
    factory = lambda: build_algorithm(spec, n, horizon, derive_rng(0, 0, ROLE_ALGORITHM))
    baseline = factory()
    if not baseline.deterministic:
        raise ValidationError(f"algorithm {spec.name!r} is not deterministic")
    if baseline.kind != "median":
        raise ValidationError(f"breaker needs a median-kind baseline, got {baseline.kind!r}")
    pair = adv_mod.build_breaker_pair(factory, n, horizon)

    def replay(samples):
        config = GameConfig(
            n=n,
            horizon=horizon,
            algorithm=spec,
            adversary=AdversarySpec("sequence", {"samples": list(samples)}),
            metric="median",
        )
        return run_game(config)

    left_run = replay(pair.left)
    right_run = replay(pair.right)
    feedback_identical = np.array_equal(left_run.feedback, right_run.feedback)
    estimate = int(left_run.estimates[-1])
    error_left = quantile_error(empirical_cdf(pair.left, n), estimate, Fraction(1, 2))
    error_right = quantile_error(empirical_cdf(pair.right, n), int(right_run.estimates[-1]), Fraction(1, 2))
    return BreakerReport(
        algorithm=spec.name,
        n=n,
        horizon=horizon,
        p=pair.p,
        feedback_identical=feedback_identical,
        estimate=estimate,
        error_left=error_left,
        error_right=error_right,
        threshold=Fraction(1, 16),
    )
