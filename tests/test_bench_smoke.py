"""Smoke test of the benchmark harness under bench/, which drives the package's API.

Runs the checkers' self-test, the setup of every workload and a short round
of one workload, untraced and traced, as the benchmark runs them: each must
exit 0, and each round must report correct output and no failed operation.
Everything it writes goes to the gitignored .bench_out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-export", "wrapper-mix", "search-anchors", "complexity-sweep")


def _bench(script: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_checker_selftest_passes():
    assert _bench("selftest.py").startswith("PASS ")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_sets_up(workload):
    assert float(_bench("run.py", "--workload", workload, "--seed", "1", "--setup-probe")) > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_wrapper_mix_round_is_correct(trace):
    result = json.loads(
        _bench("run.py", "--workload", "wrapper-mix", "--seed", "1", "--seconds", "0.01", "--trace", trace)
    )
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0


def test_complexity_sweep_round_is_correct():
    # one operation of this workload is a whole estimate_query_complexity search
    result = json.loads(
        _bench("run.py", "--workload", "complexity-sweep", "--seed", "1", "--seconds", "0.01", "--trace", "0")
    )
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
