"""Run the benchmark over many seeds and collect the results as JSON lines.

    python3 bench/series.py --seeds 1-10 --out results.jsonl
    python3 bench/series.py --seeds 1-10 --root ../parent --out parent.jsonl \\
                                         --root .         --out change.jsonl

Each --root is a source checkout holding bench/ (copy it into a checkout
that predates the benchmark, so both sides run identical benchmark code),
paired with the --out file its results go to. With two roots the order
alternates from seed to seed, so neither side always runs first. Each line
of an output file is the JSON result of one untraced run plus `workload`
and `seed`. Every workload of BENCHMARK.json runs once per seed, for the
file's `run_seconds`. Feed the files to compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--root", action="append", type=Path)
    parser.add_argument("--out", action="append", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = args.root or [HERE.parent]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")

    files = [open(path, "a") for path in args.out]
    try:
        for i, seed in enumerate(args.seeds):
            order = list(range(len(roots)))
            if i % 2:
                order.reverse()
            for workload in workloads:
                for k in order:
                    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                    proc = subprocess.run(cmd, cwd=roots[k], capture_output=True, text=True)
                    if proc.returncode != 0:
                        print(proc.stderr, file=sys.stderr)
                        print(f"{roots[k]} {workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                        return 1
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    result.update(workload=workload, seed=seed)
                    files[k].write(json.dumps(result) + "\n")
                    files[k].flush()
                    print(f"{roots[k]} {workload} seed {seed}: "
                          f"{result['attempted']} ops, {result['failed']} failed", file=sys.stderr)
    finally:
        for fh in files:
            fh.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
