"""Sample-producing opponents for the threshold-query protocol.

Each adversary exposes next_sample(past) -> sample in {1..n+1}, where past
is a read-only int64 array of the queries of rounds 1..t-1. That is all the
protocol shows an adversary: its own past samples it keeps itself if it
wants them, and each feedback bit follows from a sample and a query.
Oblivious adversaries ignore past entirely; the sample for the current round
can never depend on the current query. Instances are single-run: build a
fresh one per game.

Adversaries may also expose sample_batch(queries) -> int64 array: on a
fresh instance entry i equals next_sample(queries[:i]), consuming the rng
the same way, so the arena can replay a whole game against a
feedback-oblivious algorithm as arrays. The anytime amplifier has it when
its segment adversaries do: it builds each segment when live play would and
hands it that segment's slice of the queries, so its stream is live play's.

Besides plain i.i.d. samplers this module carries the hard-instance
machinery: the perturbed-staircase CDF family, the two-phase median
lower-bound adversary, the deterministic-algorithm breaker pair, and the
growing-segment wrapper that turns fixed-horizon adversaries into anytime
ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import Callable, Iterator

import numpy as np

from .core import NondeterminismError, ValidationError, as_fraction


class Adversary:
    """Produces the hidden sample each round, seeing the queries of rounds 1..t-1."""

    n: int

    def next_sample(self, past: np.ndarray) -> int:
        raise NotImplementedError


def _as_float_pmf(pmf) -> np.ndarray:
    arr = np.array(pmf, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError("pmf must be a 1-d array over {1..n+1} with n >= 1")
    if (arr < 0).any():
        raise ValidationError(f"pmf has a negative entry at value {int(arr.argmin()) + 1}")
    total = float(arr.sum())
    if not abs(total - 1.0) <= 1e-9:  # also rejects nan
        raise ValidationError(f"pmf sums to {total!r}, not 1")
    return arr


class StochasticAdversary(Adversary):
    """I.i.d. samples from a fixed pmf on {1..n+1}; oblivious."""

    def __init__(self, pmf, rng: np.random.Generator):
        arr = _as_float_pmf(pmf)
        self.n = arr.size - 1
        self.pmf = arr
        self._cum = np.cumsum(arr)
        self._cum[-1] = 1.0  # guard against float cumsum undershoot
        self._rng = rng

    def next_sample(self, past: np.ndarray) -> int:
        return int(np.searchsorted(self._cum, self._rng.random(), side="right")) + 1

    def sample_batch(self, queries: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._cum, self._rng.random(len(queries)), side="right") + 1


def uniform_pmf(n: int) -> np.ndarray:
    """Uniform on {1..n}; note the sample space still includes n+1 with mass 0."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    return np.concatenate([np.full(n, 1.0 / n), [0.0]])


def point_mass_pmf(j: int, n: int) -> np.ndarray:
    if not 1 <= j <= n + 1:
        raise ValidationError(f"point mass location {j} outside 1..{n + 1}")
    pmf = np.zeros(n + 1)
    pmf[j - 1] = 1.0
    return pmf


class ConstantCoinAdversary(Adversary):
    """Commits at construction, by one fair coin flip, to all-1s or all-2s."""

    def __init__(self, n: int, rng: np.random.Generator):
        if n < 2:
            raise ValidationError(f"n must be >= 2, got {n}")
        self.n = n
        self.value = 1 if rng.random() < 0.5 else 2

    def next_sample(self, past: np.ndarray) -> int:
        return self.value

    def sample_batch(self, queries: np.ndarray) -> np.ndarray:
        return np.full(len(queries), self.value, dtype=np.int64)


class AdaptiveMirrorAdversary(Adversary):
    """Adaptive stressor: answers just above the previous round's query.

    x_1 = n/2, then x_t = q_{t-1} + 1 clamped to n+1, which keeps the
    feedback bit maximally unpredictable for uniform queriers.
    """

    def __init__(self, n: int):
        if n < 2 or n % 2:
            raise ValidationError(f"n must be even and >= 2, got {n}")
        self.n = n

    def next_sample(self, past: np.ndarray) -> int:
        if not len(past):
            return self.n // 2
        return min(int(past[-1]) + 1, self.n + 1)

    def sample_batch(self, queries: np.ndarray) -> np.ndarray:
        samples = np.empty(len(queries), dtype=np.int64)
        samples[:1] = self.n // 2
        samples[1:] = np.minimum(queries[:-1] + 1, self.n + 1)
        return samples


class SequenceAdversary(Adversary):
    """Replays a committed sample sequence; the canonical oblivious adversary."""

    def __init__(self, samples: Sequence[int], n: int):
        samples = [int(x) for x in samples]
        if not samples:
            raise ValidationError("sample sequence is empty")
        for x in samples:
            if not 1 <= x <= n + 1:
                raise ValidationError(f"sample {x} outside 1..{n + 1}")
        self.n = n
        self.samples = samples

    def next_sample(self, past: np.ndarray) -> int:
        t = len(past)
        if t >= len(self.samples):
            raise ValidationError(
                f"sample sequence exhausted after {len(self.samples)} rounds"
            )
        return self.samples[t]

    def sample_batch(self, queries: np.ndarray) -> np.ndarray:
        if len(queries) > len(self.samples):
            raise ValidationError(
                f"sample sequence exhausted after {len(self.samples)} rounds"
            )
        return np.asarray(self.samples[: len(queries)], dtype=np.int64)


def save_sample_sequence(path, samples: Sequence[int]) -> None:
    """Write one sample per line, the interchange format for replays."""
    Path(path).write_text("".join(f"{int(x)}\n" for x in samples))


def load_sample_sequence(path) -> list[int]:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read sequence file {path}: {exc}")
    lines = [ln.strip() for ln in text.splitlines()]
    try:
        return [int(ln) for ln in lines if ln]
    except ValueError as exc:
        raise ValidationError(f"sequence file {path} is not newline-delimited integers: {exc}")


# ---------------------------------------------------------------------------
# Perturbed-staircase CDF family (full-CDF hardness).
# ---------------------------------------------------------------------------

def _parse_sigma(sigma, length: int) -> tuple[int, ...]:
    """Accept +-1 iterables or compact strings: '+', '-', 'alt', or '+-+...'."""
    if isinstance(sigma, str):
        if sigma in ("+", "+1"):
            out = (1,) * length
        elif sigma in ("-", "-1"):
            out = (-1,) * length
        elif sigma == "alt":
            out = tuple(1 if i % 2 == 0 else -1 for i in range(length))
        else:
            mapping = {"+": 1, "-": -1}
            try:
                out = tuple(mapping[ch] for ch in sigma)
            except KeyError:
                raise ValidationError(f"sigma string {sigma!r} must use only '+' and '-'")
    elif isinstance(sigma, Iterable):
        try:
            out = tuple(int(s) for s in sigma)
        except (TypeError, ValueError):
            raise ValidationError(f"sigma entries must be +1 or -1, got {sigma!r}") from None
    else:
        raise ValidationError(f"sigma must be a string or an iterable of +1 and -1, got {sigma!r}")
    if len(out) != length:
        raise ValidationError(f"sigma must have length {length}, got {len(out)}")
    if any(s not in (-1, 1) for s in out):
        raise ValidationError("sigma entries must be +1 or -1")
    return out


def cdf_lb_family(n: int, epsilon, sigma) -> list[Fraction]:
    """Exact pmf on {1..n+1} whose CDF is i/(n+1) + sigma_i * epsilon at each i.

    epsilon must satisfy epsilon <= 1/(2(n+1)): beyond that an adjacent sign
    flip drives the implied mass 1/(n+1) - 2*epsilon negative, so the CDF
    would not be monotone for arbitrary sigma. Masses are validated
    individually as well.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    eps = as_fraction(epsilon)
    if eps < 0:
        raise ValidationError(f"epsilon must be nonnegative, got {epsilon}")
    bound = Fraction(1, 2 * (n + 1))
    if eps > bound:
        raise ValidationError(
            f"epsilon {epsilon} exceeds the nonnegativity bound 1/(2(n+1)) = {bound}; "
            f"adjacent sign flips would imply negative mass"
        )
    signs = _parse_sigma(sigma, n)
    cdf = [Fraction(0)]
    cdf += [Fraction(i, n + 1) + signs[i - 1] * eps for i in range(1, n + 1)]
    cdf.append(Fraction(1))
    pmf = []
    for i in range(1, n + 2):
        mass = cdf[i] - cdf[i - 1]
        if mass < 0:
            raise ValidationError(f"implied mass at value {i} is negative ({mass})")
        pmf.append(mass)
    return pmf


# ---------------------------------------------------------------------------
# Two-phase median lower-bound adversary.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MedianLbConfig:
    """Parameters of the two-phase hard instance.

    The support size is n = 4k (k even) and the intended horizon T = 2nm.
    Phase one plays i.i.d. samples from a staircase distribution perturbed at
    the odd indices strictly between k and 3k, with amplitude weights
    alpha_i = 2 - 4|i/n - 1/2| in [1, 2]; epsilon <= 1/(2n) keeps every mass
    positive. Phase two plays j*m copies of n then the rest 1s, where the odd
    offset j in {k+1, k+3, ..., 3k-1} is drawn at adversary construction.
    """

    k: int
    m: int
    epsilon: Fraction
    sigma: tuple[int, ...]

    def __init__(self, k: int, m: int, epsilon, sigma="+"):
        if k < 2 or k % 2:
            raise ValidationError(f"k must be even and >= 2, got {k}")
        if k < 3:
            warnings.warn(
                "k = 2 keeps the construction valid but the estimate-exclusion "
                "argument wants k >= 3",
                stacklevel=2,
            )
        if m < 1:
            raise ValidationError(f"m must be >= 1, got {m}")
        eps = as_fraction(epsilon)
        n = 4 * k
        if eps < 0 or eps > Fraction(1, 2 * n):
            raise ValidationError(
                f"epsilon must lie in [0, 1/(2n)] = [0, {Fraction(1, 2 * n)}], got {epsilon}"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "sigma", _parse_sigma(sigma, k))

    @property
    def n(self) -> int:
        return 4 * self.k

    @property
    def horizon(self) -> int:
        return 2 * self.n * self.m

    def alpha(self, i: int) -> Fraction:
        if not self.k < i < 3 * self.k:
            raise ValidationError(f"alpha defined only for k < i < 3k, got i={i}")
        return 2 - 4 * abs(Fraction(i, self.n) - Fraction(1, 2))

    def offsets(self) -> tuple[int, ...]:
        """The odd offsets j the adversary draws from."""
        return tuple(range(self.k + 1, 3 * self.k, 2))


def median_lb_cdf(config: MedianLbConfig) -> list[Fraction]:
    """Exact first-phase CDF values F(0..n+1).

    F(i) = i/n except at odd i with k < i < 3k, where the step is perturbed
    by sigma * alpha_i * epsilon; the distribution lives on {1..n}.
    """
    n, k, eps = config.n, config.k, config.epsilon
    values = [Fraction(0)]
    for i in range(1, n + 1):
        base = Fraction(i, n)
        if i % 2 == 1 and k < i < 3 * k:
            j = (i - k + 1) // 2  # perturbation slot 1..k
            base += config.sigma[j - 1] * config.alpha(i) * eps
        values.append(base)
    values.append(Fraction(1))
    return values


def median_lb_pmf(config: MedianLbConfig) -> list[Fraction]:
    """Exact first-phase pmf on {1..n+1} (zero mass at n+1)."""
    cdf = median_lb_cdf(config)
    pmf = [cdf[i] - cdf[i - 1] for i in range(1, config.n + 2)]
    for i, mass in enumerate(pmf, start=1):
        if mass <= 0 and i <= config.n:
            raise ValidationError(f"implied mass at value {i} is not positive ({mass})")
    return pmf


class MedianLbAdversary(Adversary):
    """Oblivious two-phase opponent: family samples, then n-blocks, then 1s.

    Rounds 1..T/2 are i.i.d. from the configured first-phase distribution;
    rounds T/2+1..T/2+j*m return n and the remainder return 1, making the
    final median error a quantile-estimation error for the first phase. Past
    the intended horizon it keeps returning 1.
    """

    def __init__(self, config: MedianLbConfig, rng: np.random.Generator):
        self.config = config
        self.n = config.n
        self.j = config.offsets()[int(rng.integers(config.k))]
        self._first_phase = StochasticAdversary(median_lb_pmf(config), rng)

    def next_sample(self, past: np.ndarray) -> int:
        t = len(past) + 1
        half = self.config.horizon // 2
        if t <= half:
            return self._first_phase.next_sample(past)
        if t <= half + self.j * self.config.m:
            return self.n
        return 1

    def sample_batch(self, queries: np.ndarray) -> np.ndarray:
        rounds = len(queries)
        half = self.config.horizon // 2
        phase1 = min(rounds, half)
        block_end = min(rounds, half + self.j * self.config.m)
        samples = np.ones(rounds, dtype=np.int64)
        samples[:phase1] = self._first_phase.sample_batch(queries[:phase1])
        samples[phase1:block_end] = self.n
        return samples


# ---------------------------------------------------------------------------
# Anytime amplifier.
# ---------------------------------------------------------------------------

def amplifier_checkpoints(t0: int = 1) -> Iterator[int]:
    """Cumulative segment boundaries: each new segment is 32x everything so far."""
    total = t0
    while True:
        yield total
        total *= 33


class AnytimeAdversary(Adversary):
    """Plays fixed-horizon adversaries on segments of 33x-growing extent.

    The factory is invoked once per segment with the segment length; each
    segment adversary sees only its segment's queries, a view of the tail
    of past, so per-segment behavior matches a fresh fixed-horizon run. When
    the first segment adversary has sample_batch, the amplifier is built
    with one.
    """

    def __init__(self, factory: Callable[[int], Adversary], t0: int = 1):
        if t0 < 1:
            raise ValidationError(f"t0 must be >= 1, got {t0}")
        self._factory = factory
        self._segment = factory(t0)
        self._segment_len = t0
        self._segment_start = 0  # rounds completed before this segment
        self.n = self._segment.n
        if hasattr(self._segment, "sample_batch"):
            self.sample_batch = self._sample_batch

    def _next_segment(self) -> None:
        self._segment_start += self._segment_len
        self._segment_len = 32 * self._segment_start
        self._segment = self._factory(self._segment_len)

    def next_sample(self, past: np.ndarray) -> int:
        if len(past) - self._segment_start >= self._segment_len:
            self._next_segment()
        return self._segment.next_sample(past[self._segment_start :])

    def _sample_batch(self, queries: np.ndarray) -> np.ndarray:
        """Each segment, built when live play builds it, samples its slice of the queries."""
        samples = np.empty(len(queries), dtype=np.int64)
        while True:
            lo = self._segment_start
            hi = min(lo + self._segment_len, len(queries))
            samples[lo:hi] = self._segment.sample_batch(queries[lo:hi])
            if hi == len(queries):
                return samples
            self._next_segment()


# ---------------------------------------------------------------------------
# Breaker pair for deterministic algorithms.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BreakerPair:
    """Two sample sequences that feed a deterministic algorithm identical bits.

    left is supported on the low half plus the shared tail, right on the high
    half plus the same tail; no index is a 1/16-good median for both.
    """

    n: int
    horizon: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    queries: tuple[int, ...]      # the algorithm's precomputed first-phase queries
    p: Fraction                   # fraction of first-phase queries in {1..n/2-1}
    tail: tuple[int, ...]


def breaker_round_choice(n: int, q: int) -> tuple[int, int, int]:
    """Per-round assignment (l, r, feedback) given the precomputed query.

    Picks the larger of {1..q} and {q+1..n} (ties go to the low half) and
    returns its minimum as l, its maximum as r; both sit on the same side of
    q, so the feedback bit is shared.
    """
    if not 1 <= q <= n:
        raise ValidationError(f"query {q} outside 1..{n}")
    if q >= n - q:
        return 1, q, 1
    return q + 1, n, 0


def _simulate_first_phase(
    algorithm_factory: Callable[[], "object"], n: int, rounds: int, seed: int
) -> list[int]:
    alg = algorithm_factory()
    rng = np.random.default_rng(seed)
    queries = []
    for t in range(1, rounds + 1):
        q = alg.next_query(rng)
        if not 1 <= q <= n:
            raise ValidationError(f"algorithm produced query {q} outside 1..{n} at round {t}")
        _, _, feedback = breaker_round_choice(n, q)
        alg.observe(feedback)
        queries.append(q)
    return queries


def build_breaker_pair(algorithm_factory: Callable[[], "object"], n: int, horizon: int) -> BreakerPair:
    """Construct the (L, R) pair that defeats a deterministic algorithm.

    Simulates the algorithm for horizon/2 rounds (twice, with different rng
    seeds; any divergence raises NondeterminismError), assigns each round the
    extremes of the larger side of its query, then appends a shared tail of
    1s and ns whose split depends on how often the queries landed strictly
    below n/2.
    """
    if n < 2 or n % 2:
        raise ValidationError(f"n must be even and >= 2, got {n}")
    if horizon < 16 or horizon % 16:
        raise ValidationError(f"horizon must be a positive multiple of 16, got {horizon}")
    half = horizon // 2
    queries = _simulate_first_phase(algorithm_factory, n, half, seed=0x5EED1)
    replay = _simulate_first_phase(algorithm_factory, n, half, seed=0x5EED2)
    if queries != replay:
        raise NondeterminismError(
            "algorithm", None, "query sequence changed under a different rng seed"
        )
    left_head, right_head = [], []
    for q in queries:
        l, r, _ = breaker_round_choice(n, q)
        left_head.append(l)
        right_head.append(r)
    low_hits = sum(1 for q in queries if 1 <= q <= n // 2 - 1)
    p = Fraction(2 * low_hits, horizon)
    if abs(Fraction(1, 2) - p) > Fraction(1, 8):
        tail = (1,) * (horizon // 4) + (n,) * (horizon // 4)
    else:
        tail = (1,) * (horizon // 8) + (n,) * (3 * horizon // 8)
    return BreakerPair(
        n=n,
        horizon=horizon,
        left=tuple(left_head) + tail,
        right=tuple(right_head) + tail,
        queries=tuple(queries),
        p=p,
        tail=tail,
    )
