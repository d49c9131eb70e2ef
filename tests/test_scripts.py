"""The demo scripts and the README's library example run end to end at toy size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import pairwise_auc

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


def test_readme_library_example(capsys):
    readme = (REPO / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    scope = {}
    exec(compile(example.split("```", 1)[0], "README.md", "exec"), scope)
    printed = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines())
    assert list(printed) == ["AUC", "AUC@0.05", "TPR@0.05", "F1@0.05", "CVOL@0.05"]
    for text in printed.values():
        assert text == repr(float(text))
    fold, model = scope["fold"], scope["model"]
    want = pairwise_auc(fold.test_labels, model.score(fold.test))
    assert float(printed["AUC"]) == pytest.approx(want, abs=1e-12)
