"""The README walkthrough script and the benchmark's smoke run work against the current code."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_demo_quickstart_runs_and_prints_summary():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_quickstart.py")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for prefix in (
        "dataset: 900 samples, schema (6, 4), 3 classes",
        "splits: train 300 / val 300 / test 300 (sessions 1/2/3)",
        "meta-trained prototypical model in",
        "supervised 0-shot:",
        "fsl 1-shot:",
        "fsl 5-shot:",
        "adapter alignment: snapshot-vs-target MMD^2",
    ):
        assert any(line.startswith(prefix) for line in lines), (prefix, result.stdout)


@pytest.mark.slow
def test_perfbench_smoke_passes():
    # every workload at a tiny size, traced and untraced: metric names, units, spans, bindings
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    assert result.stdout.splitlines()[-1] == "smoke ok", result.stdout[-4000:]
