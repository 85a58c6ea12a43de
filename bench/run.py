"""threshold-arena benchmark: one workload per invocation.

    python3 bench/run.py --workload cli-export --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`, nothing needs installing. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones of one traced round (see README.md).
Exit code 2 means the program could not be imported or the arguments are
wrong; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
perf = time.perf_counter

# The traced run prints exactly the per-layer metrics BENCHMARK.json lists.
LAYER_METRICS = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep playing whole rounds until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the program and set the workload up; print the seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def import_program():
    """Import threshold_arena from this checkout's src/; None if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import threshold_arena as ta
        import threshold_arena.arena
        import threshold_arena.cli
        import threshold_arena.estimators
    except ImportError as exc:
        print(f"cannot import threshold_arena from {src}: {exc}", file=sys.stderr)
        return None
    if Path(ta.__file__).resolve().parent.parent != src.resolve():
        print(f"threshold_arena was imported from {ta.__file__}, not from {src}", file=sys.stderr)
        return None
    return ta


class Tally:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def fail(self, what: str, problems: list[str], wrong_output: bool) -> None:
        self.failed += 1
        self.correct &= not wrong_output
        for problem in problems:
            print(f"{what}: {problem}", file=sys.stderr)


def play_round(workload, tally: Tally, tracer=None):
    """One round of the workload's operations; returns (wall_s, rounds, outputs).

    Only the operations are timed. Their outputs are checked by `check_round`
    afterwards, outside the timed section.
    """
    wall, rounds, outputs = 0.0, 0, []
    for index, op in enumerate(workload.ops()):
        tally.attempted += 1
        if tracer is not None:
            tracer.enter("bench.op")
        started = perf()
        try:
            done, output = op()
        except Exception:
            done, output = 0, None
            tally.fail(f"op {index}", [traceback.format_exc()], wrong_output=False)
            outputs.append((index, False, None))
        else:
            outputs.append((index, True, output))
        finally:
            wall += perf() - started
            if tracer is not None:
                tracer.exit()
        rounds += done
    return wall, rounds, outputs


def check_round(workload, outputs, tally: Tally) -> None:
    for index, ok, output in outputs:
        if not ok:
            continue
        try:
            problems = workload.check(index, output)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            tally.fail(f"op {index} check", problems, wrong_output=True)


def final_check(workload, tally: Tally) -> None:
    for index, problems in getattr(workload, "final_check", dict)().items():
        tally.fail(f"op {index} check", problems, wrong_output=True)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest finished child.

    Read after the first round's operations and before their checks.
    getrusage reports only the largest child, not a sum; the workloads'
    children are the pool workers, whose peaks are alike.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure(workload, seconds: float, tally: Tally) -> dict:
    walls, rates = [], []
    while True:
        wall, rounds, outputs = play_round(workload, tally)
        if not walls:
            peak = peak_rss_mib()  # before any check adds its own memory
        check_round(workload, outputs, tally)
        walls.append(wall)
        rates.append(rounds / wall)
        if sum(walls) >= seconds:
            break
    final_check(workload, tally)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "rounds_per_s": (statistics.median(rates), "rounds/s"),
        "peak_rss_mib": (peak, "MiB"),
    }


def traced(ta, workload, tally: Tally) -> dict:
    """One untraced round, one traced round, one tracemalloc round."""
    import tracemalloc

    import spans

    spool = OUT / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    for stale in spool.glob("*.json"):
        stale.unlink()

    untraced_wall, _, outputs = play_round(workload, tally)
    check_round(workload, outputs, tally)

    tracer = spans.Tracer(spool)
    spans.install(tracer, ta.arena, ta.cli, ta.estimators)
    if hasattr(workload, "wrap_oracle"):
        workload.wrap_oracle = lambda oracle: tracer.timed("bench.oracle", oracle)
    tracer.reset()
    started = perf()
    tracer.enter("bench.round")
    _, _, outputs = play_round(workload, tally, tracer)
    tracer.exit()
    wall = perf() - started
    busy = tracer.merge_workers()
    for _, ok, output in outputs:
        if ok and hasattr(workload, "trace_counts"):
            workload.trace_counts(tracer, output)
    check_round(workload, outputs, tally)
    metrics = layer_metrics(tracer)
    metrics["bench.self_s"] = sum(tracer.totals.get(n, (0, 0.0))[1] for n in ("bench.round", "bench.op"))
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = wall / untraced_wall
    metrics["trace.worker_busy_s"] = busy
    (OUT / f"spans-{workload.name}.json").write_text(json.dumps(
        [dict(zip(("name", "parent", "start", "end", "pid"), r)) for r in tracer.records]
    ))

    tracer.reset()
    tracer.alloc = True
    tracemalloc.start()
    try:
        _, _, outputs = play_round(workload, tally, tracer)
    finally:
        tracemalloc.stop()
    tracer.merge_workers()
    check_round(workload, outputs, tally)
    final_check(workload, tally)
    metrics["arena.monte_carlo.peak_alloc_mib"] = tracer.peaks.get("arena.monte_carlo.peak_alloc_mib", 0.0)
    return {name: (metrics[name], unit) for name, unit in LAYER_METRICS.items()}


def layer_metrics(tracer) -> dict:
    out = {}
    for name in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and span in tracer.totals:
            calls, self_s, _ = tracer.totals[span]
            out[name] = calls if field == "calls" else self_s
        else:
            out[name] = tracer.counts.get(name, 0)
    return out


def setup_seconds(args) -> float:
    """Median import-and-set-up time of fresh interpreters.

    Each probe is a new process that imports the program, builds the
    workload's inputs and validates its configs, as a run does before its
    first timed operation. Probes run after the measurement, so their memory
    stays out of peak_rss_mib.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = [float(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf()
    ta = import_program()
    if ta is None:
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](ta, args.seed, OUT)
    workload.setup()
    if args.setup_probe:
        print(perf() - started)
        return 0

    tally = Tally()
    if args.trace:
        metrics = traced(ta, workload, tally)
    else:
        metrics = measure(workload, args.seconds, tally)
        metrics["setup_s"] = (setup_seconds(args), "s")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
