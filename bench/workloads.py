"""The four benchmark workloads.

Each workload turns the benchmark seed into its inputs (`setup`), lists the
operations of one round (`ops`; every round repeats the same operations on
the same inputs), and checks each operation's output (`check`) outside the
timed section. An operation returns (protocol rounds delivered, output).

Input sizes are fixed; the seed only changes the random inputs: the master
seeds of the games, and the oracles' distributions in `search-anchors`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent per-operation seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class Workload:
    name = ""

    def __init__(self, ta, seed: int, out_dir: Path):
        self.ta = ta
        self.seed = seed
        self.out = out_dir / self.name
        self.first: dict = {}

    def check(self, index: int, output) -> list[str]:
        """Full check of an operation's first output; later rounds must repeat it."""
        if index in self.first:
            return [] if output == self.first[index] else ["output differs from the first round's"]
        self.first[index] = output
        return self.check_first(index, output)


class CliExport(Workload):
    """`threshold-arena run` with a CSV sink: the scalar loop plus export."""

    name = "cli-export"
    N, T, RUNS, EPS, WORKERS = 16, 2000, 200, 0.2, 2

    def setup(self) -> None:
        (cli_seed,) = sub_seeds(self.seed, 1)
        self.argv = [
            "run", "--algo", "cdfest", "--adv", "uniform",
            "--n", str(self.N), "--T", str(self.T), "--runs", str(self.RUNS),
            "--eps", str(self.EPS), "--seed", str(cli_seed), "--reveal-samples",
            "--workers", str(self.WORKERS), "--out-dir", str(self.out),
        ]
        self.ta.cli.build_parser().parse_args(self.argv)
        self.ta.arena.validate_config(self.ta.GameConfig(
            n=self.N, horizon=self.T, algorithm="cdfest", adversary="uniform", seed=cli_seed
        ))

    def ops(self):
        return [self._run]

    def _run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.ta.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"threshold-arena run exited with {code}")
        return self.RUNS * self.T, None

    def trace_counts(self, tracer, output) -> None:
        tracer.add("arena.export.bytes", sum(p.stat().st_size for p in self.out.iterdir()))

    def check(self, index: int, output) -> list[str]:
        # The same flags must give byte-identical files on every round.
        digest = hashlib.sha256()
        for name in ("trajectory.csv", "summary.json"):
            digest.update((self.out / name).read_bytes())
        return super().check(index, digest.hexdigest())

    def check_first(self, index: int, digest) -> list[str]:
        cols = checks.parse_trajectory_csv((self.out / "trajectory.csv").read_text())
        summary = json.loads((self.out / "summary.json").read_text())
        return checks.check_cli_export(cols, summary, self.N, self.T, self.RUNS, self.EPS)


class WrapperMix(Workload):
    """Sink-free monte_carlo over matchups the vectorized engine refuses."""

    name = "wrapper-mix"
    # (algorithm, params, adversary, n, T, runs, metric)
    MATCHUPS = (
        ("boosted", {"delta": 0.05, "inner": "cdfest"}, "uniform", 16, 4000, 1, "median"),
        ("quantile", {"tau": 0.75, "inner": "cdfest"}, "uniform", 8, 6240, 4, None),
        ("cdfest", {}, ("amplified", {"inner": "uniform"}), 16, 20000, 1, None),
    )

    def setup(self) -> None:
        ta = self.ta
        self.configs = []
        for (algo, params, adv, n, horizon, runs, metric), s in zip(
            self.MATCHUPS, sub_seeds(self.seed, len(self.MATCHUPS))
        ):
            adv_spec = ta.AdversarySpec(*adv) if isinstance(adv, tuple) else adv
            config = ta.GameConfig(n=n, horizon=horizon, algorithm=ta.AlgorithmSpec(algo, dict(params)),
                                   adversary=adv_spec, metric=metric, seed=s)
            ta.arena.validate_config(config)
            self.configs.append((config, runs))

    def ops(self):
        return [lambda c=c, r=r: self._run(c, r) for c, r in self.configs]

    def _run(self, config, runs):
        summary = self.ta.arena.monte_carlo(config, runs)
        return runs * config.horizon, summary.final_errors.tolist()

    def check_first(self, index: int, finals) -> list[str]:
        config, runs = self.configs[index]
        metric, tau = self.ta.arena.resolve_metric(config)
        problems = []
        for run_id in sorted({0, runs - 1}):
            traj = self.ta.arena.run_game(config, run_id=run_id)
            rec = traj.records
            problems += checks.check_replay(
                metric, tau, config.n,
                [r.query for r in rec], [r.feedback for r in rec], [r.sample for r in rec],
                traj.estimates[-1], float(traj.errors[-1]), finals[run_id],
            )
        return problems


class Oracle:
    """Comparison oracle: 1(x <= q) for a fresh x with P(x <= j) = cum[j]/total.

    x is drawn by inverting a uniform integer r in [0, total), so x <= q
    exactly when r < cum[q]; the draws come in blocks from the oracle's own
    generator, and `calls` counts the answers given.
    """

    BLOCK = 4096

    def __init__(self, cum: list[int], total: int, seed: int):
        self.cum = cum
        self.total = total
        self.rng = np.random.default_rng(seed)
        self.draws: list[int] = []
        self.calls = 0

    def __call__(self, q, rng=None) -> int:
        if not self.draws:
            self.draws = self.rng.integers(0, self.total, size=self.BLOCK).tolist()
        self.calls += 1
        return 1 if self.draws.pop() < self.cum[q] else 0


class SearchAnchors(Workload):
    """stochastic_cdf against i.i.d. oracles with Dirichlet(1) pmfs on {1..n}."""

    name = "search-anchors"
    NS = (64, 1024)
    PER_N = 8
    TOTAL = 1 << 40  # pmf resolution: masses are integers over 2^40

    wrap_oracle = None  # set by the traced run to time the oracle

    def setup(self) -> None:
        self.inputs = []
        seeds = iter(sub_seeds(self.seed, 2 * len(self.NS) * self.PER_N))
        for n in self.NS:
            for _ in range(self.PER_N):
                self.inputs.append((n, self._cdf(n, next(seeds)), next(seeds)))
        self.ks: dict[int, list[Fraction]] = {n: [] for n in self.NS}

    def _cdf(self, n: int, seed: int) -> list[int]:
        """Integer CDF table cum[0..n+1] of a Dirichlet(1) pmf on {1..n}."""
        gaps = np.random.default_rng(seed).dirichlet(np.ones(n))
        mass = np.floor(gaps * self.TOTAL).astype(np.int64)
        mass[int(np.argmax(mass))] += self.TOTAL - int(mass.sum())
        cum = [0]
        for m in mass.tolist():
            cum.append(cum[-1] + m)
        return cum + [self.TOTAL]

    def ops(self):
        return [lambda i=i: self._run(i) for i in range(len(self.inputs))]

    def _run(self, index: int):
        n, cum, oracle_seed = self.inputs[index]
        oracle = Oracle(cum, self.TOTAL, oracle_seed)
        answer = oracle if self.wrap_oracle is None else self.wrap_oracle(oracle)
        result = self.ta.estimators.stochastic_cdf(answer, n)
        out = {
            "values": result.estimate.values.tolist(),
            "anchors": {tau: qe.index for tau, qe in result.anchors.items()},
            "capped": sum(1 for qe in result.anchors.values() if qe.capped),
            "queries": result.queries,
            "oracle_calls": oracle.calls,
        }
        return oracle.calls, out

    def trace_counts(self, tracer, out) -> None:
        tracer.add("estimators.search.oracle_calls", out["oracle_calls"])
        tracer.add("estimators.search.anchors", len(out["anchors"]))
        tracer.add("estimators.search.capped_anchors", out["capped"])

    def check_first(self, index: int, out) -> list[str]:
        n, cum, _ = self.inputs[index]
        problems, ks = checks.check_stochastic_cdf(
            out["values"], out["anchors"], out["queries"], out["oracle_calls"], cum, self.TOTAL, n
        )
        self.ks[n].append(ks)
        return problems

    def final_check(self) -> dict[int, list[str]]:
        """The paper's guarantee, per n: KS <= 1/4 on at least 3/4 of the calls."""
        failures = {}
        for n, values in self.ks.items():
            good = sum(1 for v in values if v <= Fraction(1, 4))
            if values and 4 * good < 3 * len(values):
                failures[n] = [f"n={n}: only {good}/{len(values)} calls reach KS <= 1/4"]
        return {i: failures[n] for i, (n, _, _) in enumerate(self.inputs) if n in failures}


class ComplexitySweep(Workload):
    """estimate_query_complexity on the vectorized engine, two cells."""

    name = "complexity-sweep"
    RUNS, TARGET, WORKERS = 400, 0.75, 2
    CELLS = (("cdfest", "uniform", 16, 0.1), ("meanest", "mirror", 16, 0.05))
    SPOT_REPLAYS = 3

    def setup(self) -> None:
        ta = self.ta
        self.configs = []
        for (algo, adv, n, eps), s in zip(self.CELLS, sub_seeds(self.seed, len(self.CELLS))):
            config = ta.GameConfig(n=n, horizon=1, algorithm=algo, adversary=adv, seed=s)
            ta.arena.validate_config(config)
            self.configs.append((config, eps))

    def ops(self):
        return [lambda c=c, e=e: self._run(c, e) for c, e in self.configs]

    def _run(self, config, eps):
        est = self.ta.arena.estimate_query_complexity(
            config, eps, target=self.TARGET, runs=self.RUNS, workers=self.WORKERS
        )
        out = {"t_hat": est.t_hat, "resolved": est.resolved, "curve": [list(p) for p in est.curve]}
        # Rounds of the answer, not of the probes: a search that reuses work
        # across horizons delivers the same answer with fewer simulated rounds.
        return self.RUNS * est.t_hat, out

    def check_first(self, index: int, out) -> list[str]:
        config, eps = self.configs[index]
        algo, _, n, _ = self.CELLS[index]
        problems = checks.check_complexity_cell(
            algo, n, eps, self.TARGET, out["t_hat"], out["resolved"], out["curve"]
        )
        if problems:
            return problems
        # Spot check at t_hat: whichever engine monte_carlo picks must agree
        # with the scalar loop, and its success share with the curve.
        arena = self.ta.arena
        probe = dataclasses.replace(config, horizon=out["t_hat"])
        summary = arena.monte_carlo(probe, self.RUNS, epsilon=eps, workers=self.WORKERS)
        replays = [float(arena.run_game(probe, run_id=r).errors[-1]) for r in range(self.SPOT_REPLAYS)]
        rate = dict(out["curve"])[out["t_hat"]]
        return checks.check_spot(summary.final_errors.tolist(), replays, eps, rate)


WORKLOADS = {w.name: w for w in (CliExport, WrapperMix, SearchAnchors, ComplexitySweep)}
