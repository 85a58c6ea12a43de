"""Single-game speed of each algorithm: run_game against uniform, n=16, T=20000.

    python3 bench/single_game.py

Prints rounds per second (median of 5 games) for the algorithms of the
ROADMAP's baseline table. It is a reference measurement for README.md, not
one of the benchmark's workloads.
"""

from __future__ import annotations

import statistics
import sys
import time

import run

HORIZON, REPEATS = 20000, 5
GAMES = (
    ("cdfest", {}),
    ("meanest", {}),
    ("quantile", {"tau": 0.75, "inner": "cdfest"}),
    ("stochastic-cdf", {}),
    ("boosted", {"delta": 0.05, "inner": "meanest"}),  # 54 copies
    ("boosted", {"delta": 0.05, "inner": "cdfest"}),
)


def main() -> int:
    ta = run.import_program()
    if ta is None:
        return 2
    for name, params in GAMES:
        config = ta.GameConfig(n=16, horizon=HORIZON, algorithm=ta.AlgorithmSpec(name, params),
                               adversary="uniform", seed=0)
        rates = []
        for r in range(REPEATS):
            started = time.perf_counter()
            ta.arena.run_game(config, run_id=r)
            rates.append(HORIZON / (time.perf_counter() - started))
        label = f"{name}({params['inner']})" if name == "boosted" else name
        print(f"{label:>16}: {statistics.median(rates):8.0f} rounds/s "
              f"(runs: {', '.join(f'{v:.0f}' for v in rates)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
