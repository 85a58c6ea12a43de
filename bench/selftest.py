"""Checker self-tests: each workload's checker must count a corrupted output.

    python3 bench/selftest.py

For every workload this runs a small version of its operations, shows that
the clean output passes its checker, then corrupts the output in one place
and shows that the checker counts a failed operation:

* cli-export: one feedback bit flipped in trajectory.csv;
* wrapper-mix: one monte_carlo final error off by 1/16;
* search-anchors: the stochastic_cdf estimate's lowest anchor step moved up
  one index (still a monotone estimate on the 1/8 grid);
* complexity-sweep: a t_hat one above the analytic budget.

It runs none of the timed workloads and exits 0 only when every case holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run

ta = run.import_program()
if ta is None:
    sys.exit(2)

import checks  # noqa: E402  (numpy comes in with the program)
import workloads  # noqa: E402

OUT = run.OUT / "selftest"


def failures(workload, outputs) -> tuple[int, bool]:
    tally = run.Tally()
    run.check_round(workload, outputs, tally)
    return tally.failed, tally.correct


def play(workload):
    workload.setup()
    return [(i, True, op()[1]) for i, op in enumerate(workload.ops())]


def forget(workload) -> None:
    """Make the next check a first-round check again."""
    workload.first.clear()


def case_cli_export():
    class Small(workloads.CliExport):
        N, T, RUNS, WORKERS = 8, 60, 5, 1

    w = Small(ta, 3, OUT)
    outputs = play(w)
    clean = failures(w, outputs)
    path = w.out / "trajectory.csv"
    lines = path.read_text().split("\n")
    cells = lines[10].split(",")
    cells[3] = "0" if cells[3] == "1" else "1"
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines))
    forget(w)
    return clean, failures(w, outputs)


def case_wrapper_mix():
    class Small(workloads.WrapperMix):
        MATCHUPS = (
            ("boosted", {"delta": 0.25, "inner": "cdfest"}, "uniform", 8, 200, 2, "median"),
            ("quantile", {"tau": 0.75, "inner": "cdfest"}, "uniform", 8, 300, 2, None),
            ("cdfest", {}, ("amplified", {"inner": "uniform"}), 8, 400, 2, None),
        )

    w = Small(ta, 4, OUT)
    outputs = play(w)
    clean = failures(w, outputs)
    forget(w)
    index, ok, finals = outputs[1]
    finals = list(finals)
    finals[0] += 1 / 16
    outputs[1] = (index, ok, finals)
    return clean, failures(w, outputs)


def case_search_anchors():
    class Small(workloads.SearchAnchors):
        NS, PER_N = (16,), 2

    w = Small(ta, 5, OUT)
    outputs = play(w)
    clean = failures(w, outputs)
    forget(w)
    index, ok, out = outputs[0]
    n = w.inputs[index][0]
    out = copy.deepcopy(out)
    low = min(out["anchors"].values())
    if low == n:  # no room above: move the step down instead
        out["values"][low - 1] = out["values"][low]
    else:
        out["values"][low] = out["values"][low - 1]
    outputs[0] = (index, ok, out)
    return clean, failures(w, outputs)


def case_complexity_sweep():
    class Small(workloads.ComplexitySweep):
        CELLS = (("meanest", "mirror", 16, 0.05),)
        WORKERS = 1

    w = Small(ta, 6, OUT)
    outputs = play(w)
    clean = failures(w, outputs)
    forget(w)
    index, ok, out = outputs[0]
    budget = checks.analytic_budget("meanest", 16, 0.05)
    out = dict(out, t_hat=budget + 1, curve=out["curve"] + [[budget + 1, 1.0]])
    outputs[0] = (index, ok, out)
    return clean, failures(w, outputs)


def main() -> int:
    ok = True
    for name, case in (
        ("cli-export: flipped feedback bit", case_cli_export),
        ("wrapper-mix: final error off by 1/16", case_wrapper_mix),
        ("search-anchors: estimate shifted by one anchor", case_search_anchors),
        ("complexity-sweep: t_hat above the analytic budget", case_complexity_sweep),
    ):
        clean, corrupt = case()
        good = clean == (0, True) and corrupt == (1, False)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: clean output {clean[0]} failed, "
              f"corrupted output {corrupt[0]} failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
