"""The README walkthrough script and the benchmark's smoke run and tracer work against the current code."""
import importlib.util
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


def test_perfbench_tracer_wraps_and_restores_every_binding():
    # a fast guard for the slow smoke run: a rename in the package that the tracer names fails here
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        targets = [tracer_mod._resolve(module, attr)[1] for module, attr, _, _ in tracer_mod.WRAPS]
        assert all(tracer_mod._is_wrapped(fn) for fn in targets)
        sites = [s for s in tracer_mod.REQUIRED_SITES if tracer_mod._site_value(s) is not None]
        assert [s for s in sites if not tracer_mod._is_wrapped(tracer_mod._site_value(s))] == []
        assert "evofa.adapt.classify_query" in sites
    finally:
        restored = tracer.uninstall()
    assert restored
    targets = [tracer_mod._resolve(module, attr)[1] for module, attr, _, _ in tracer_mod.WRAPS]
    assert not any(tracer_mod._is_wrapped(fn) for fn in targets)
