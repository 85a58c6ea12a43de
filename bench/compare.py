"""Summarise one result file, or compare the result files of two commits.

    python3 bench/compare.py results.jsonl
    python3 bench/compare.py parent.jsonl change.jsonl

Result files are the JSON lines series.py writes.
For each workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles over its runs and their spread (quartile
distance over median). Given two files it also pairs the runs by seed and
prints the share of pairs the second side won (ties count for neither) and
a verdict:

* gain: the second side won at least 9/10 of the pairs and the medians
  differ by more than the first side's quartile distance;
* regression: the second side's median is worse than the first's by more
  than the metric's bound;
* unresolved: the first side's own spread is wider than the bound, so a
  difference within it shows nothing, unless every run of one side beats
  every run of the other;
* within bound: none of the above.

The failed share of operations is printed per side, since a gain does not
count when more operations fail.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path) -> dict:
    """{workload: {seed: result}} of a result file."""
    out: dict = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs: dict, metric: str) -> dict:
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items() if metric in r["metrics"]}


def failed_share(runs: dict) -> str:
    failed = sum(r["failed"] for r in runs.values())
    attempted = sum(r["attempted"] for r in runs.values())
    return f"{failed}/{attempted} failed"


def verdict(spec: dict, a: dict, b: dict) -> str:
    lower = spec["better"] == "lower"
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    med_a, med_b = qa[1], qb[1]
    pairs = [(a[s], b[s]) for s in a if s in b]
    won = sum(1 for x, y in pairs if (y < x if lower else y > x))
    share = won / len(pairs) if pairs else 0.0
    worse = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    bound = spec.get("bound")
    spread_a = (qa[2] - qa[0]) / med_a
    b_all_better = all((y < x if lower else y > x) for x in a.values() for y in b.values())
    b_all_worse = all((y > x if lower else y < x) for x in a.values() for y in b.values())
    if share >= 0.9 and abs(med_b - med_a) > qa[2] - qa[0]:
        word = "gain"
    elif bound is not None and worse > bound:
        word = "regression"
    elif bound is not None and spread_a > bound and not (b_all_better or b_all_worse):
        word = "unresolved"
    else:
        word = "within bound"
    return f"won {won}/{len(pairs)} pairs, {100 * -worse:+.2f}% better, {word}"


def fmt(q: tuple[float, float, float]) -> str:
    spread = (q[2] - q[0]) / q[1] if q[1] else float("nan")
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] spread {100 * spread:.2f}%"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sides = [load(Path(p)) for p in argv]
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [side.get(workload, {}) for side in sides]
        if not all(runs):
            continue
        print(f"{workload}: " + "; ".join(f"{len(r)} runs, {failed_share(r)}" for r in runs))
        for spec in bench["end_to_end"]:
            series = [values(r, spec["name"]) for r in runs]
            if not all(series):
                continue
            line = f"  {spec['name']:>14} ({spec['unit']}, {spec['better']} is better)"
            line += " | ".join(f"  {fmt(quartiles(list(s.values())))}" for s in series)
            if len(series) == 2:
                line += f" | {verdict(spec, *series)}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
