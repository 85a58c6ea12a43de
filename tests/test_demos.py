"""The demos run as scripts and exit 0.

Demo 06 is left out: it sweeps query complexity for about ten seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import threshold_arena

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_cdf_and_median_estimation.py",
        "02_mean_estimation.py",
        "03_noisy_binary_search.py",
        "04_adversarial_constructions.py",
        "05_deterministic_breaker.py",
    ],
)
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(threshold_arena.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
