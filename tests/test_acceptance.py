"""Acceptance suite: one test per published guarantee, at stated tolerances.

Each test prints a single PASS/FAIL line (run pytest -s to see them). Seeds
are fixed; statistical assertions carry explicit Monte Carlo slack.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

import threshold_arena as ta


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_exact_unbiasedness():
    started = time.perf_counter()
    worst_cdf = worst_mean = 0.0
    g = np.random.default_rng(101)
    for n in (2, 3, 4):
        for t in (1, 2, 3):
            for _ in range(20):
                xs = g.integers(1, n + 2, size=t)
                truth = ta.empirical_cdf(xs, n)
                acc = np.zeros(n + 2)
                acc_mu = 0.0
                for qs in itertools.product(range(1, n + 1), repeat=t):
                    cdf_alg, mean_alg = ta.CdfEst(n), ta.MeanEst(n)
                    for q, x in zip(qs, xs):
                        bit = int(x <= q)
                        cdf_alg.ingest(q, bit)
                        mean_alg.ingest(q, bit)
                    acc += cdf_alg.estimate().values
                    acc_mu += mean_alg.estimate()
                count = n**t
                worst_cdf = max(worst_cdf, float(np.max(np.abs(acc / count - truth.floats()))))
                worst_mean = max(worst_mean, abs(acc_mu / count - float(truth.mean())))
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1 exact unbiasedness",
        worst_cdf <= 1e-12 and worst_mean <= 1e-12 and elapsed < 10,
        f"cdf dev {worst_cdf:.2e}, mean dev {worst_mean:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_cdfest_mse_bound():
    started = time.perf_counter()
    worst_gap = -np.inf
    worst_at = ""
    for n in (8, 32):
        adversaries = [
            ta.AdversarySpec("uniform"),
            ta.AdversarySpec("point-mass", {"j": 1}),
            ta.AdversarySpec("cdf-lb", {"epsilon": Fraction(1, 4 * (n + 1)), "sigma": "+"}),
            ta.AdversarySpec("mirror"),
        ]
        for adversary in adversaries:
            for horizon in (400, 3200):
                config = ta.GameConfig(
                    n=n, horizon=horizon, algorithm="cdfest", adversary=adversary,
                    metric="cdf", seed=202,
                )
                summary = ta.monte_carlo(config, 1000)
                mse = summary.index_mse[1 : n + 1]
                stderr = summary.index_mse_stderr[1 : n + 1]
                gap = float(np.max(mse - 3 * stderr) - n / horizon)
                if gap > worst_gap:
                    worst_gap = gap
                    worst_at = f"{adversary.name} n={n} T={horizon}"
    elapsed = time.perf_counter() - started
    _report(
        "criterion 2 CdfEst per-index MSE <= n/T",
        worst_gap <= 0 and elapsed < 120,
        f"worst gap {worst_gap:.5f} at {worst_at}, {elapsed:.1f}s",
    )


def test_criterion_03_cdfest_success_budget():
    n, eps = 8, 0.2
    horizon = math.ceil(3 * n * math.log(8 * n) / eps**2)
    config = ta.GameConfig(n=n, horizon=horizon, algorithm="cdfest", adversary="uniform",
                           metric="cdf", seed=303)
    summary = ta.monte_carlo(config, 400, epsilon=eps)
    _report(
        "criterion 3 CdfEst success at analytic budget",
        summary.success_at_horizon >= 0.75,
        f"T={horizon}, success {summary.success_at_horizon:.3f}",
    )


def test_criterion_04_meanest_mse_window():
    started = time.perf_counter()
    results = []
    ok = True
    for horizon in (16, 256, 4096):
        config = ta.GameConfig(n=16, horizon=horizon, algorithm="meanest",
                               adversary="uniform", seed=404)
        summary = ta.monte_carlo(config, 2000)
        sq = summary.final_errors**2
        mse = float(np.mean(sq))
        stderr = float(np.std(sq) / np.sqrt(sq.size))
        lo, hi = 1 / (48 * horizon), 1 / (4 * horizon)
        ok &= lo - 3 * stderr <= mse <= hi + 3 * stderr
        results.append(f"T={horizon}: {mse:.2e} in [{lo:.2e}, {hi:.2e}]")
    elapsed = time.perf_counter() - started
    _report(
        "criterion 4 MeanEst MSE window",
        ok and elapsed < 60,
        "; ".join(results) + f", {elapsed:.1f}s",
    )


def test_criterion_05_deterministic_breaker():
    started = time.perf_counter()
    details = []
    ok = True
    for baseline in ("midpoint", "halving"):
        report = ta.breaker_report(baseline, 16, 160)
        ok &= report.feedback_identical and report.max_error >= Fraction(1, 16)
        details.append(f"{baseline}: max err {report.max_error}")
    elapsed = time.perf_counter() - started
    _report(
        "criterion 5 deterministic breaker",
        ok and elapsed < 5,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_06_stochastic_cdf():
    started = time.perf_counter()
    mean_queries = {}
    rates = {}
    for n in (64, 256, 1024):
        master = np.random.default_rng(600 + n)
        hits = 0
        queries = []
        for dist in range(5):
            pmf = np.concatenate([master.dirichlet(np.ones(n)), [0.0]])
            cum = np.cumsum(pmf)
            cum[-1] = 1.0
            cdf = np.concatenate([[0.0], cum])

            # The bound method skips the np.searchsorted wrapper; draws and
            # comparisons are the same, so samples and results are too.
            def oracle(q, rng, cum=cum):
                x = int(cum.searchsorted(rng.random(), side="right")) + 1
                return 1 if x <= q else 0

            for run in range(40):
                result = ta.stochastic_cdf(oracle, n, rng=np.random.default_rng(9000 + n + 31 * dist + run))
                ks = float(np.max(np.abs(result.estimate.values[1:] - cdf[1:])))
                hits += ks <= 0.25
                queries.append(result.queries)
        rates[n] = hits / 200
        mean_queries[n] = float(np.mean(queries))
    ratio = mean_queries[1024] / mean_queries[64]
    bound = (math.log2(1024) / math.log2(64)) * 1.5
    elapsed = time.perf_counter() - started
    _report(
        "criterion 6 StochasticCDF accuracy and query scaling",
        all(r >= 0.75 for r in rates.values()) and ratio <= bound and elapsed < 120,
        f"success {rates}, query ratio {ratio:.2f} <= {bound:.2f}, {elapsed:.1f}s",
    )


def test_criterion_07_step_oracle_search():
    n = 64
    ok = True
    details = []
    for k in (1, 17, 33, 64):
        oracle = lambda i, rng, k=k: 1 if i >= k else 0
        exact = sum(ta.noisy_binary_search(oracle, n, 0.5).index == k - 1 for _ in range(1000))
        boosted = sum(
            ta.boosted_quantile(oracle, n, 0.5, rng=np.random.default_rng(700 + k + r)).index == k
            for r in range(1000)
        )
        ok &= exact >= 750 and boosted >= 990
        details.append(f"k={k}: search {exact}/1000, boosted {boosted}/1000")
    _report("criterion 7 step-oracle search", ok, "; ".join(details))


def test_criterion_08_quantile_reduction():
    n, eps = 8, 0.2
    budget = math.ceil(3 * n * math.log(8 * n) / eps**2)
    config = ta.GameConfig(
        n=n,
        horizon=4 * budget,
        algorithm=ta.AlgorithmSpec("quantile", {"tau": 0.75, "inner": "cdfest"}),
        adversary="uniform",
        seed=808,
    )
    summary = ta.monte_carlo(config, 400, epsilon=eps)

    # tau = 1/2 wrapper is bit-identical to the bare algorithm
    wrapped = ta.GameConfig(
        n=n, horizon=256,
        algorithm=ta.AlgorithmSpec("quantile", {"tau": 0.5, "inner": "cdfest"}),
        adversary="uniform", seed=808,
    )
    bare = ta.GameConfig(n=n, horizon=256, algorithm="cdfest", adversary="uniform",
                         metric="median", seed=808)
    tw, tb = ta.run_game(wrapped), ta.run_game(bare)
    identical = tw.records == tb.records and np.array_equal(tw.errors, tb.errors)
    _report(
        "criterion 8 quantile reduction",
        summary.success_at_horizon >= 0.75 and identical,
        f"tau=3/4 success {summary.success_at_horizon:.3f} at T={4 * budget}, "
        f"tau=1/2 bit-identical {identical}",
    )


def test_criterion_09_confidence_boost():
    base_budget = math.ceil(1 / 0.1**2)
    config = ta.GameConfig(
        n=16,
        horizon=40 * base_budget,
        algorithm=ta.AlgorithmSpec("boosted", {"delta": 0.05, "inner": "meanest"}),
        adversary="uniform",
        seed=909,
    )
    summary = ta.monte_carlo(config, 400, epsilon=0.1)
    successes = int(round(summary.success_at_horizon * 400))
    _report(
        "criterion 9 confidence boosting",
        successes >= 380,
        f"{successes}/400 runs within 0.1 at T={40 * base_budget}",
    )


def test_criterion_10_constant_coin_floor():
    config = ta.GameConfig(n=64, horizon=16, algorithm="cdfest", adversary="coin",
                           metric="median", seed=1010)
    summary = ta.monte_carlo(config, 2000)
    failure_rate = float(np.mean(summary.final_errors >= 0.25))
    _report(
        "criterion 10 constant-coin failure floor",
        failure_rate >= 0.25,
        f"failure rate {failure_rate:.3f} (analytic floor ~0.39)",
    )


def test_criterion_11_construction_validity():
    g = np.random.default_rng(1111)
    # perturbed-staircase family: exact CDF identity for 50 random parameterizations
    for _ in range(50):
        n = int(g.integers(2, 40))
        sigma = tuple(int(s) for s in g.choice([-1, 1], size=n))
        eps = Fraction(int(g.integers(0, 101)), 100) * Fraction(1, 2 * (n + 1))
        pmf = ta.cdf_lb_family(n, eps, sigma)
        cdf = list(itertools.accumulate(pmf))
        assert cdf[-1] == 1
        for i in range(1, n + 1):
            assert cdf[i - 1] == Fraction(i, n + 1) + sigma[i - 1] * eps

    # two-phase construction: exact first-phase CDF and exact mixture identity
    for trial in range(50):
        k = int(g.choice([2, 4, 6]))
        m = int(g.integers(1, 4))
        n = 4 * k
        eps = Fraction(int(g.integers(0, 101)), 100) * Fraction(1, 2 * n)
        sigma = tuple(int(s) for s in g.choice([-1, 1], size=k))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = ta.MedianLbConfig(k, m, eps, sigma)
        cdf = ta.median_lb_cdf(config)
        pmf = ta.median_lb_pmf(config)
        assert list(itertools.accumulate(pmf))[-1] == 1
        for i in range(1, n + 1):
            expected = Fraction(i, n)
            if i % 2 == 1 and k < i < 3 * k:
                slot = (i - k + 1) // 2
                expected += sigma[slot - 1] * (2 - 4 * abs(Fraction(i, n) - Fraction(1, 2))) * eps
            assert cdf[i] == expected

        adversary = ta.MedianLbAdversary(config, np.random.default_rng(trial))
        queries = np.ones(config.horizon, dtype=np.int64)
        samples = [adversary.next_sample(queries[:i]) for i in range(config.horizon)]
        full = ta.empirical_cdf(samples, n)
        half = ta.empirical_cdf(samples[: config.horizon // 2], n)
        j = Fraction(adversary.j)
        for i in range(1, n + 1):
            expected = (
                Fraction(1, 2) * half.value(i) + Fraction(1, 2) - j / (2 * n)
                + (j / (2 * n)) * (i == n)
            )
            assert full.value(i) == expected
    _report("criterion 11 construction validity", True, "100 exact parameterizations checked")
