"""Domain types and error metrics for online estimation from threshold queries.

Protocol in one line: each round an algorithm picks a query q in {1..n}, the
opponent commits a hidden sample x in {1..n+1} without seeing q, and the
algorithm observes only the bit 1(x <= q).

Ground truth lives here. Empirical CDFs are stored as integer counts so every
error metric on them is an exact rational; estimator outputs stay in floating
point. That split keeps "equals" in tests meaning equals, with no tolerance
disputes on the ground-truth side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence, Union

import numpy as np

Query = int
Sample = int
RealLike = Union[int, float, Fraction]


class ArenaError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(ArenaError, ValueError):
    """A parameter or input violates its documented precondition."""


class ProtocolError(ArenaError, RuntimeError):
    """An algorithm or adversary broke the round protocol."""

    def __init__(self, offender: str, round_index: int | None, message: str):
        self.offender = offender
        self.round_index = round_index
        self.message = message
        where = f" at round {round_index}" if round_index is not None else ""
        super().__init__(f"{offender}{where}: {message}")

    def __reduce__(self):
        # rebuilt from its parts, so it crosses a process pool intact
        return type(self), (self.offender, self.round_index, self.message)


class NondeterminismError(ProtocolError):
    """An algorithm declared deterministic produced seed-dependent queries."""


@dataclass(frozen=True)
class RoundRecord:
    """One time step: (query, hidden sample, feedback bit)."""

    t: int
    query: int
    sample: int
    feedback: int

    def __post_init__(self) -> None:
        if self.feedback != int(self.sample <= self.query):
            raise ValidationError(
                f"feedback {self.feedback} inconsistent with sample {self.sample}, "
                f"query {self.query} at round {self.t}"
            )


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Exact empirical CDF of a sample sequence.

    counts[i] = #{samples <= i} for i in 0..n+1, so value(i) is the exact
    rational counts[i]/t. Treat instances as immutable.
    """

    n: int
    t: int
    counts: np.ndarray  # shape (n+2,), cumulative int64

    def value(self, i: int) -> Fraction:
        return Fraction(int(self.counts[i]), self.t)

    def fractions(self) -> list[Fraction]:
        """All values F(0..n+1) as exact rationals."""
        return [Fraction(int(c), self.t) for c in self.counts]

    def floats(self) -> np.ndarray:
        return self.counts / self.t

    def mean(self) -> Fraction:
        """Exact empirical mean, recovered from the cumulative counts."""
        # sum(x) = (n+1)*t - sum_{i=1..n} counts[i]
        total = (self.n + 1) * self.t - int(self.counts[1 : self.n + 1].sum())
        return Fraction(total, self.t)


def empirical_cdf(samples: Sequence[int], n: int) -> EmpiricalCdf:
    """Exact step function of a sample sequence on support {1..n+1}.

    Raises ValidationError on an empty sequence (undefined at t=0) or on any
    sample outside {1..n+1}.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0:
        raise ValidationError("empirical CDF undefined at t=0 (empty sample sequence)")
    if samples.min() < 1 or samples.max() > n + 1:
        bad = samples[(samples < 1) | (samples > n + 1)][0]
        raise ValidationError(f"sample {bad} outside support range 1..{n + 1}")
    counts = np.bincount(samples, minlength=n + 2)[: n + 2].cumsum()
    return EmpiricalCdf(n=n, t=int(samples.size), counts=counts)


@dataclass(frozen=True, eq=False)
class CdfEstimate:
    """Raw CDF estimate over {1..n+1}; entry n+1 is pinned to 1.

    Values may be non-monotone and may exceed 1: the per-round estimates
    averaged into this object are unbiased only if left unclamped. Entry 0 is
    kept at 0 so estimate and ground-truth arrays align index for index.
    """

    n: int
    values: np.ndarray  # shape (n+2,), float64

    def __post_init__(self) -> None:
        if self.values.shape != (self.n + 2,):
            raise ValidationError(
                f"CDF estimate for n={self.n} needs {self.n + 2} entries, "
                f"got shape {self.values.shape}"
            )
        if self.values[self.n + 1] != 1.0:
            raise ValidationError("CDF estimate must be 1 at index n+1")
        if np.any(self.values < 0):
            raise ValidationError("CDF estimate entries must be nonnegative")

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "CdfEstimate":
        """Build from the values at indices 1..n+1 (index 0 implied zero)."""
        arr = np.concatenate([[0.0], np.asarray(values, dtype=np.float64)])
        return cls(n=arr.size - 2, values=arr)

    @classmethod
    def _trusted(cls, n: int, values: np.ndarray) -> "CdfEstimate":
        # Skips validation; for construction sites that guarantee the
        # invariants and sit inside per-round loops.
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "values", values)
        return obj

    def value(self, i: int) -> float:
        return float(self.values[i])

    def floats(self) -> np.ndarray:
        return self.values


def as_fraction(value: RealLike) -> Fraction:
    """Exact rational from user input; floats convert via their decimal repr.

    Fraction(0.1) would be the binary float 0.100000000000000005551..., not
    the 1/10 a caller typing 0.1 means; repr round-trips the intended decimal.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


def quantile_error(cdf: EmpiricalCdf, m_hat: int, tau: RealLike) -> Fraction:
    """Exact distance from tau to the interval [F(m_hat - 1), F(m_hat)].

    Zero exactly when tau falls inside the interval; otherwise the gap to the
    nearer endpoint. tau=1/2 gives the median estimation error.
    """
    if not 1 <= m_hat <= cdf.n + 1:
        raise ValidationError(f"estimate {m_hat} outside range 1..{cdf.n + 1}")
    tau = as_fraction(tau)
    if not 0 <= tau <= 1:
        raise ValidationError(f"tau must lie in [0, 1], got {tau}")
    lo = cdf.value(m_hat - 1)
    hi = cdf.value(m_hat)
    return max(Fraction(0), lo - tau, tau - hi)


def ks_distance(f_hat, f) -> float:
    """Sup over i in {1..n+1} of |f_hat(i) - f(i)|.

    Accepts any pair of CdfEstimate / EmpiricalCdf objects over the same n.
    """
    if f_hat.n != f.n:
        raise ValidationError(f"CDF shapes differ: n={f_hat.n} vs n={f.n}")
    return _ks_floats(f_hat.floats(), f.floats())


def mean_error(mu_hat: float, mu: float, n: int) -> float:
    """Normalized mean estimation error |mu_hat - mu| / n."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    return abs(mu_hat - mu) / n


# Float kernels of the metrics, one round at a time. The arena scores whole
# blocks of rounds (arena._score_block); ks_distance, recompute_errors and
# the tests use these kernels as references independent of that code.

def _ks_floats(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a[1:] - b[1:])))


def _quantile_error_floats(f: np.ndarray, m_hat: int, tau: float) -> float:
    return max(0.0, f[m_hat - 1] - tau, tau - f[m_hat])


@dataclass(eq=False)
class Trajectory:
    """One game as columns: entry t-1 of every array belongs to round t.

    queries, samples and feedback are int64 arrays of the round triples;
    errors holds the configured metric's error after each round, and
    estimates the matching scalar estimate (int64 median or quantile index,
    or float64 mean). final_snapshot is the algorithm's full estimate at the
    horizon (a CdfEstimate for CDF-kind algorithms). records rebuilds the
    per-round RoundRecord list on demand.
    """

    n: int
    metric: str
    tau: float
    queries: np.ndarray
    samples: np.ndarray
    feedback: np.ndarray
    errors: np.ndarray
    estimates: np.ndarray
    final_snapshot: Any = None

    def __post_init__(self) -> None:
        columns = ("queries", "samples", "feedback", "errors", "estimates")
        lengths = [len(getattr(self, name)) for name in columns]
        if len(set(lengths)) != 1:
            raise ValidationError(
                "trajectory columns differ in length: "
                + ", ".join(f"{name} {size}" for name, size in zip(columns, lengths))
            )

    @property
    def horizon(self) -> int:
        return len(self.errors)

    @property
    def records(self) -> list[RoundRecord]:
        rounds = zip(self.queries.tolist(), self.samples.tolist(), self.feedback.tolist())
        return [RoundRecord(t, q, x, b) for t, (q, x, b) in enumerate(rounds, start=1)]

    def empirical(self) -> EmpiricalCdf:
        return empirical_cdf(self.samples, self.n)
