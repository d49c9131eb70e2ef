"""The demo scripts run end to end at toy size."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_roc_band_demo():
    run_script("roc_band_demo.py", "--splits", "3", "--n-normal", "40", "--n-anomaly", "15")


def test_run_synthetic_study(tmp_path):
    run_script(
        "run_synthetic_study.py",
        "--root", str(tmp_path / "study"),
        "--tables", "1", "--sizes", "90,40,30", "--repetitions", "1",
        "--volume-samples", "200", "--workers", "1",
    )
