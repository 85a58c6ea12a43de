"""Reference computations and output checkers for the benchmark workloads.

Every reference here is computed from plain integer counts and
`fractions.Fraction`, never with `threshold_arena.core` or the program's
float kernels. Each checker takes plain data (lists, arrays, dicts) and
returns a list of problems; an empty list means the output is correct. The
workloads count an operation as failed when its checker reports a problem,
and `selftest.py` feeds each checker a corrupted output to show that it does.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TOL = 1e-12
# Documented constants of the noisy search: each search spends at most
# ceil(200 * log2(n + 2)) oracle calls, and an anchor runs 5 searches.
SEARCH_BUDGET_SCALE = 200
BOOST_TRIALS = 5
ANCHORS = tuple(Fraction(k, 8) for k in range(1, 9))


def parse_trajectory_csv(text: str):
    """Columns of a `threshold-arena run --reveal-samples` CSV as arrays."""
    header, _, body = text.partition("\n")
    names = ["run_id", "t", "query", "feedback", "error", "sample"]
    if header.split(",") != names:
        raise ValueError(f"unexpected CSV header {header!r}")
    cells = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=np.float64)
    table = cells.reshape(-1, len(names))
    cols = {name: table[:, i] for i, name in enumerate(names)}
    for name in names:
        if name != "error":
            cols[name] = cols[name].astype(np.int64)
    return cols


def cdfest_ks_numerators(queries, feedback, samples, n: int) -> np.ndarray:
    """max_i |n*tally_t(i) - count_t(i)| for t = 1..T, exact in integers.

    tally_t(i) counts rounds s <= t with query i and feedback 1, count_t(i)
    counts rounds s <= t with sample <= i; the CdfEst value is
    n * tally_t(i) / t and the empirical CDF is count_t(i) / t, so the KS
    distance after round t is this numerator over t. Index n+1 is left out:
    both sides are 1 there.
    """
    horizon = len(queries)
    rows = np.arange(horizon)
    hit = feedback == 1
    hits = np.zeros((horizon, n + 2), dtype=np.int64)
    hits[rows[hit], queries[hit]] = 1
    tally = hits.cumsum(axis=0)
    occur = np.zeros((horizon, n + 2), dtype=np.int64)
    occur[rows, samples] = 1
    counts = occur.cumsum(axis=0).cumsum(axis=1)
    return np.abs(n * tally[:, 1 : n + 1] - counts[:, 1 : n + 1]).max(axis=1)


def check_cli_export(cols, summary: dict, n: int, horizon: int, runs: int, eps: float) -> list[str]:
    """The `run` CSV and summary.json of cdfest against an i.i.d. adversary."""
    problems = []
    rows = runs * horizon
    if len(cols["t"]) != rows:
        return [f"CSV has {len(cols['t'])} rows, expected runs*T = {rows}"]
    run_id, t = cols["run_id"], cols["t"]
    q, b, x, err = cols["query"], cols["feedback"], cols["sample"], cols["error"]
    if not (np.array_equal(run_id, np.repeat(np.arange(runs), horizon))
            and np.array_equal(t, np.tile(np.arange(1, horizon + 1), runs))):
        problems.append("rows are not runs 0..runs-1 by rounds 1..T in order")
    if q.min() < 1 or q.max() > n:
        problems.append(f"query outside 1..{n}")
    if x.min() < 1 or x.max() > n + 1:
        problems.append(f"sample outside 1..{n + 1}")
    bad = np.flatnonzero(b != (x <= q))
    if bad.size:
        problems.append(f"feedback != 1(x <= q) on {bad.size} rows, first at row {bad[0] + 1}")
    if problems:
        return problems
    tt = np.arange(1, horizon + 1)
    worst = 0.0
    for r in range(runs):
        sl = slice(r * horizon, (r + 1) * horizon)
        exact = cdfest_ks_numerators(q[sl], b[sl], x[sl], n) / tt
        worst = max(worst, float(np.abs(err[sl] - exact).max()))
    if worst > TOL:
        problems.append(f"an error differs from the exact KS distance by {worst:.3g}")
    per_round = err.reshape(runs, horizon)
    mean = per_round.sum(axis=0) / runs
    gap = float(np.abs(np.asarray(summary["mean_error"]) - mean).max())
    if gap > TOL:
        problems.append(f"summary mean_error differs from the CSV mean by {gap:.3g}")
    finals = per_round[:, -1]
    if summary["final_errors"] != finals.tolist():
        problems.append("summary final_errors differ from the CSV's last rounds")
    wins = int(np.count_nonzero(finals <= eps))
    if summary["success_at_horizon"] != wins / runs:
        problems.append(
            f"success_at_horizon {summary['success_at_horizon']} != {wins}/{runs} final errors <= {eps}"
        )
    return problems


def exact_final_error(metric: str, tau: float, n: int, queries, feedback, samples, estimate) -> Fraction:
    """Error after the last round, from the run's samples and estimate.

    For the cdf metric the CdfEst estimate is rebuilt from the run's
    (query, feedback) tallies; for median and quantile metrics the estimate
    is the index the algorithm reported.
    """
    horizon = len(samples)
    count = [0] * (n + 2)
    for xv in samples:
        count[xv] += 1
    cum = [0] * (n + 2)
    for i in range(1, n + 2):
        cum[i] = cum[i - 1] + count[i]
    if metric == "cdf":
        numerators = cdfest_ks_numerators(np.asarray(queries), np.asarray(feedback), np.asarray(samples), n)
        return Fraction(int(numerators[-1]), horizon)
    m = int(estimate)
    if not 1 <= m <= n + 1:
        raise ValueError(f"estimate {m} outside 1..{n + 1}")
    target = Fraction(tau)
    lo, hi = Fraction(cum[m - 1], horizon), Fraction(cum[m], horizon)
    return max(Fraction(0), lo - target, target - hi)


def check_replay(metric: str, tau: float, n: int, queries, feedback, samples,
                 estimate, final_error: float, mc_final: float) -> list[str]:
    """A run_game replay of one Monte Carlo run of a wrapper matchup."""
    problems = []
    for t, (qv, xv, bv) in enumerate(zip(queries, samples, feedback), start=1):
        if not (1 <= qv <= n and 1 <= xv <= n + 1 and bv == (1 if xv <= qv else 0)):
            problems.append(f"round {t}: query {qv}, sample {xv}, feedback {bv} break the protocol")
            break
    exact = exact_final_error(metric, tau, n, queries, feedback, samples, estimate)
    if abs(final_error - exact) > TOL:
        problems.append(f"final error {final_error!r} != exact {exact} ({float(exact)!r})")
    if final_error != mc_final:
        problems.append(f"replayed final error {final_error!r} != monte_carlo's {mc_final!r}")
    return problems


def search_call_bound(n: int) -> int:
    return len(ANCHORS) * BOOST_TRIALS * math.ceil(SEARCH_BUDGET_SCALE * math.log2(n + 2))


def stitch(anchors: dict, n: int) -> list[Fraction]:
    """F(j) = max{tau : w_tau <= j}, 0 when no anchor lies at or below j."""
    out = [Fraction(0)] * (n + 2)
    for tau, w in anchors.items():
        for j in range(w, n + 1):
            out[j] = max(out[j], Fraction(tau))
    out[n + 1] = Fraction(1)
    return out


def check_stochastic_cdf(values, anchors: dict, queries: int, oracle_calls: int,
                         cum: list[int], total: int, n: int) -> tuple[list[str], Fraction]:
    """One stochastic_cdf result against an oracle with CDF cum[j] / total.

    Returns the problems and the exact KS distance to the oracle's CDF; the
    caller checks the paper's guarantee (KS <= 1/4 for at least 3/4 of the
    calls) over all calls at one n.
    """
    problems = []
    if oracle_calls != queries:
        problems.append(f"oracle answered {oracle_calls} calls, result reports {queries}")
    if queries > search_call_bound(n):
        problems.append(f"{queries} oracle calls exceed the bound {search_call_bound(n)}")
    est = [Fraction(v) for v in values]
    if len(est) != n + 2 or est[0] != 0 or est[n + 1] != 1:
        problems.append("estimate is not a CDF over 0..n+1 pinned to 0 and 1")
        return problems, Fraction(1)
    if any(v * 8 != int(v * 8) or not 0 <= v <= 1 for v in est):
        problems.append("estimate takes a value outside {0, 1/8, ..., 1}")
    if any(a > b for a, b in zip(est, est[1:])):
        problems.append("estimate decreases")
    if sorted(anchors) != list(ANCHORS) or not all(1 <= w <= n for w in anchors.values()):
        problems.append(f"anchors {anchors} are not one index in 1..{n} per tau in 1/8..1")
    elif est != stitch(anchors, n):
        problems.append("estimate is not the stitching of the reported anchors")
    ks = max(abs(est[j] - Fraction(cum[j], total)) for j in range(1, n + 1))
    return problems, ks


def analytic_budget(algorithm: str, n: int, eps: float) -> int:
    """Horizon at which the paper's bounds guarantee success w.p. >= 3/4.

    cdfest: 3 n ln(8n) / eps^2. meanest: MSE <= 1/(4T), so Chebyshev gives
    P(error > eps) <= 1/(4 T eps^2) <= 1/4 from T = 1/eps^2.
    """
    if algorithm == "cdfest":
        return math.ceil(3 * n * math.log(8 * n) / eps**2)
    if algorithm == "meanest":
        return math.ceil(1 / eps**2)
    raise ValueError(f"no analytic budget for {algorithm!r}")


def check_complexity_cell(algorithm: str, n: int, eps: float, target: float,
                          t_hat: int, resolved: bool, curve) -> list[str]:
    problems = []
    if not resolved:
        problems.append("cell is unresolved")
    budget = analytic_budget(algorithm, n, eps)
    if t_hat > budget:
        problems.append(f"t_hat {t_hat} exceeds the analytic budget {budget}")
    rates = dict(curve)
    if t_hat not in rates:
        problems.append(f"t_hat {t_hat} was never probed")
    elif rates[t_hat] < target:
        problems.append(f"success rate {rates[t_hat]} at t_hat is below the target {target}")
    return problems


def check_spot(mc_finals, replay_finals, eps: float, rate: float) -> list[str]:
    """A monte_carlo at a probed horizon against scalar run_game replays."""
    problems = []
    head = [float(v) for v in mc_finals[: len(replay_finals)]]
    if head != [float(v) for v in replay_finals]:
        problems.append("monte_carlo final errors differ from the run_game replays")
    wins = sum(1 for v in mc_finals if v <= eps)
    if wins / len(mc_finals) != rate:
        problems.append(f"{wins}/{len(mc_finals)} final errors <= {eps}, curve says {rate}")
    return problems
