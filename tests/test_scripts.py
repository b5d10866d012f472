"""The README walkthrough script and the benchmark's smoke run and tracer work against the current code."""
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from evofa.cli import main as evofa_main
from evofa.harness import experiment_config_from_obj

ROOT = Path(__file__).resolve().parents[1]


def import_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_config_obj() -> dict:
    """The JSON block under README's "Minimal synthetic example"."""
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"Minimal\s+synthetic example:\s*```json\n(.*?)```", text, re.DOTALL).group(1))


def test_readme_config_is_the_quickstart_config():
    # README, the quickstart script and `evofa compare` on README's JSON run one config
    quickstart = import_by_path("demo_quickstart", ROOT / "scripts" / "demo_quickstart.py")
    assert experiment_config_from_obj(readme_config_obj()) == quickstart.CONFIG


@pytest.mark.slow
def test_demo_quickstart_runs_and_prints_summary(tmp_path):
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
    supervised = re.search(r"^supervised 0-shot: (\S+)", result.stdout, re.M).group(1)
    fsl, adapted = re.search(r"^fsl 1-shot: +(\S+)  fsl\+evofa: (\S+)", result.stdout, re.M).groups()

    (tmp_path / "exp.json").write_text(json.dumps(readme_config_obj()))
    assert evofa_main(["compare", "--config", str(tmp_path / "exp.json"), "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "results.csv", newline="") as f:
        cells = [row for row in csv.DictReader(f) if row["subject"] != "all"]
    assert [(row["method"], row["shots"]) for row in cells] == [("supervised", "0"), ("fsl", "1"), ("fsl+evofa", "1")]
    printed = {"supervised": supervised, "fsl": fsl, "fsl+evofa": adapted}
    assert {row["method"]: f"{float(row['mean_accuracy']):.4f}" for row in cells} == printed


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
    tracer_mod = import_by_path("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
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
