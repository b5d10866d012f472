"""Benchmark of the evofa pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each repetition runs the workload's ``evofa`` command(s) in fresh child
processes, one at a time, and checks their outputs. With ``--trace 0`` the
end-to-end metrics are measured with no instrumentation loaded; with
``--trace 1`` untraced and traced repetitions alternate, the traced ones
give the per-layer metrics and the pair gives the tracing overhead.
Repetitions start until ``--seconds`` have passed (at least one runs);
every metric is the median over repetitions. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A full
record (environment, host-speed probes, per-repetition values, digests) is
written to ``.perfbench-out/`` in the checkout.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that every metric named in BENCHMARK.json is emitted with its unit,
that every required span was hit and that the tracer restored every binding.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# EVOFA_THREADS=2 is not used: with two busy vCPUs, hypervisor steal doubled run_s
# between runs (perfbench/README.md).
THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "EVOFA_THREADS": "1",
}
os.environ.update(THREAD_VARS)  # before numpy loads, so the host probe is single-threaded

from layers import PER_LAYER_UNITS, SpanSummary, per_layer_metrics  # noqa: E402
from workloads import CSV_COLUMNS, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BUDGET_S = 150.0  # whole invocation, well inside the 180 s limit
SETUP_PROBES = 9

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
ACCURACY_NAMES = {
    ("supervised", 0): "accuracy.supervised",
    ("fsl", 1): "accuracy.fsl",
    ("fsl+evofa", 1): "accuracy.fsl_evofa",
    ("fsl+evofa", 5): "accuracy.fsl_evofa_5shot",
}


class RunFailed(Exception):
    """A child exited non-zero, timed out, or left missing or invalid output."""


# -- environment and host probe --------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "evofa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_VARS,
        "seed": seed,
    }


def host_probe() -> dict:
    """Fixed work timed before each repetition: tells host drift from code drift."""
    import numpy as np

    a = np.random.default_rng(0).random((256, 256))
    start = time.perf_counter()
    for _ in range(20):
        a = a @ a
        a /= np.abs(a).max()
    matmul_s = time.perf_counter() - start
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    loop_s = time.perf_counter() - start
    return {"matmul_s": matmul_s, "python_loop_s": loop_s}


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine so far (0 where not reported)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# -- child processes ----------------------------------------------------------------


@dataclass(frozen=True)
class Child:
    """Result of one finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    started: float  # time.monotonic() just before the spawn
    log: Path


def run_child(args: list[str], cwd: Path, env: dict, log: Path, deadline: float) -> Child:
    """Run child.py with ``args``; wait4 gives this child's own CPU time and peak RSS."""
    argv = [sys.executable, str(HERE / "child.py"), str(SRC)] + args
    box: dict = {}
    with open(log, "wb") as out:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)

        def reap():
            box["wait"] = os.wait4(proc.pid, 0)
            box["ended"] = time.monotonic()

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(max(1.0, deadline - time.monotonic()))
        finally:  # past the deadline, or interrupted: never leave the child running
            if waiter.is_alive():
                proc.kill()
                waiter.join()
                box["timeout"] = True
    _, status, usage = box["wait"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = -9999 if box.get("timeout") else proc.returncode
    return Child(
        code,
        box["ended"] - started,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        started,
        log,
    )


def child_env() -> dict:
    env = {**os.environ, **THREAD_VARS}
    env.pop("PYTHONPATH", None)  # the package comes from SRC only
    return env


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def run_cli(command: list[str], cwd: Path, env: dict, deadline: float, spans: Path | None) -> Child:
    args = ["cli"] + (["--trace", str(spans)] if spans else []) + ["--"] + command
    child = run_child(args, cwd, env, cwd / f"{command[0]}.log", deadline)
    if child.code != 0:
        raise RunFailed(f"evofa {command[0]} exited {child.code}: {_tail(child.log)}")
    return child


def setup_probe(config: Path, cwd: Path, env: dict, deadline: float) -> float:
    child = run_child(["setup", str(config)], cwd, env, cwd / "setup.log", deadline)
    if child.code != 0:
        raise RunFailed(f"set-up probe exited {child.code}: {_tail(child.log)}")
    try:
        return float(child.log.read_text().split()[-1]) - child.started
    except (IndexError, ValueError) as e:
        raise RunFailed(f"set-up probe printed no timestamp: {_tail(child.log)}") from e


# -- output checks --------------------------------------------------------------------


def check_results(csv_path: Path, workload: Workload, episodes: int) -> tuple[str, dict]:
    """Validate results.csv; return its SHA-256 and the aggregate accuracies."""
    if not csv_path.is_file():
        raise RunFailed(f"{csv_path.name} missing")
    raw = csv_path.read_bytes()
    lines = raw.decode(errors="replace").splitlines()
    if not lines or lines[0] != CSV_COLUMNS:
        raise RunFailed(f"{csv_path.name} has header {lines[:1]}")
    try:
        rows = [line.split(",") for line in lines[1:]]
        seen = tuple((r[1], r[3], int(r[4])) for r in rows)
        if seen != workload.expected_rows:
            raise RunFailed(f"{csv_path.name} rows {seen} != expected {workload.expected_rows}")
        cells = len({subject for subject, _, _ in seen}) - 1  # every subject plus "all"
        accuracies = {}
        for row, (subject, method, shots) in zip(rows, seen):
            mean, std = float(row[8]), float(row[9])
            if len(row) != 11 or not (0.0 <= mean <= 1.0) or not std >= 0.0:
                raise RunFailed(f"{csv_path.name}: bad row {row}")
            want = 0 if method == "supervised" else episodes * (cells if subject == "all" else 1)
            if int(row[7]) != want:
                raise RunFailed(f"{csv_path.name}: {method} row has {row[7]} episodes, expected {want}")
            if subject == "all":
                accuracies[ACCURACY_NAMES[(method, shots)]] = mean
    except (IndexError, ValueError) as e:
        raise RunFailed(f"{csv_path.name} is malformed: {e}") from e
    return hashlib.sha256(raw).hexdigest(), accuracies


# -- one invocation -----------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns the record (metrics, per-repetition values, checks)."""
    t_begin = time.monotonic()
    deadline = t_begin + BUDGET_S
    env = child_env()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(seed),
        "reps": [],
        "errors": [],
    }
    try:
        config, setup_cmd = workload.prepare(work, seed, smoke)
        episodes = json.loads(config.read_text())["eval_episodes"]
        setup_spans = SpanSummary()
        if setup_cmd:
            spans = work / "setup-spans.json" if trace else None
            child = run_cli(setup_cmd, work, env, deadline, spans)
            record["prepare_s"] = child.wall_s
            if spans:
                setup_spans.add_file(spans)
        if not trace:
            record["setup_s"] = [
                setup_probe(config, work, env, deadline) for _ in range(SETUP_PROBES)
            ]
        t_loop = time.monotonic()
        modes = (False, True) if trace else (False,)
        while True:
            t_iter = time.monotonic()
            for traced in modes:
                record["reps"].append(
                    run_rep(workload, config, work, env, deadline, traced, episodes, setup_spans)
                )
            now = time.monotonic()
            if now - t_loop >= seconds or now + (now - t_iter) > deadline:
                break
    except RunFailed as e:
        record["errors"].append(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["wall_s"] = time.monotonic() - t_begin
    summarize(record, workload, trace)
    return record


def run_rep(workload, config, work, env, deadline, traced, episodes, setup_spans) -> dict:
    """One repetition: every command of the workload in a fresh output directory."""
    rep_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=work))
    rep = {"traced": traced, "host_probe": host_probe()}
    summary = SpanSummary()
    children = []
    steal_before = steal_seconds()
    for i, command in enumerate(workload.commands(config, rep_dir / "out")):
        spans = rep_dir / f"spans-{i}.json" if traced else None
        children.append(run_cli(command, rep_dir, env, deadline, spans))
        if spans:
            summary.add_file(spans)
    rep["host_probe"]["steal_s"] = steal_seconds() - steal_before
    rep["run_s"] = sum(c.wall_s for c in children)
    rep["cpu_s"] = sum(c.cpu_s for c in children)
    rep["peak_rss_mb"] = max(c.maxrss_mb for c in children)
    rep["csv_sha256"], rep["accuracy"] = check_results(
        rep_dir / "out" / "results.csv", workload, episodes
    )
    if traced:
        if not (summary.restored and setup_spans.restored):
            raise RunFailed("tracer did not restore every binding")
        missed = sorted(set(workload.required_spans) - summary.called())
        if missed:
            raise RunFailed(f"traced run never called {missed}")
        rep["per_layer"] = per_layer_metrics(summary, setup_spans, int(THREAD_VARS["EVOFA_THREADS"]))
        rep["evofa_run_samples"] = len(summary.durations["adapt.evofa_run"])
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def summarize(record: dict, workload: Workload, trace: bool) -> None:
    """Fill in metrics, attempted/failed and the digest checks."""
    reps = record["reps"]
    record["attempted"] = len(reps) + (1 if record["errors"] else 0)
    failed = 1 if record["errors"] else 0
    digests = {r["csv_sha256"] for r in reps}
    if len(digests) > 1:
        record["errors"].append(f"results.csv differs between repetitions: {sorted(digests)}")
        failed = len(reps)
    record["failed"] = failed
    record["csv_sha256"] = digests.pop() if len(digests) == 1 else None
    if not record["smoke"] and record["csv_sha256"]:
        recorded = json.loads((HERE / "digests.json").read_text()).get(workload.name, {})
        expected = recorded.get(str(record["seed"]))
        record["digest_matches_recorded"] = None if expected is None else expected == record["csv_sha256"]
        if expected is not None and expected != record["csv_sha256"]:
            print(
                f"WARNING: {workload.name} seed {record['seed']}: results.csv sha256 "
                f"{record['csv_sha256']} differs from the recorded {expected} "
                "(perfbench/digests.json); the program's output bytes changed",
                file=sys.stderr,
            )
    metrics = {}
    if reps and not failed:
        plain = [r for r in reps if not r["traced"]]
        if trace:
            traced = [r for r in reps if r["traced"]]
            for name in PER_LAYER_UNITS:
                if name != "trace.overhead":
                    metrics[name] = statistics.median(r["per_layer"][name] for r in traced)
            metrics["trace.overhead"] = (
                statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in plain)
                - 1.0
            )
        else:
            for name in ("run_s", "cpu_s", "peak_rss_mb"):
                metrics[name] = statistics.median(r[name] for r in plain)
            metrics["setup_s"] = statistics.median(record["setup_s"])
        record["accuracy"] = reps[0]["accuracy"]
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics}


def report(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"repetitions {len(record['reps'])}  wall {record['wall_s']:.1f} s")
    print(f"  commit {env['git_commit']}  src {env['src_sha256'][:16]}  cpu {env['cpu_model']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"threads {env['threads']}")
    for i, rep in enumerate(record["reps"]):
        probe = rep["host_probe"]
        print(f"  rep {i} traced={int(rep['traced'])} run_s {rep['run_s']:.3f} cpu_s {rep['cpu_s']:.3f} "
              f"peak_rss_mb {rep['peak_rss_mb']:.1f}  host probe matmul {probe['matmul_s']:.4f} s "
              f"loop {probe['python_loop_s']:.4f} s  steal {probe['steal_s']:.2f} s")
    for name, value in record.get("accuracy", {}).items():
        print(f"  {name} = {value:.6f} fraction (aggregate row of results.csv)")
    print(f"  results.csv sha256 {record['csv_sha256']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def smoke(bench: dict) -> int:
    """Tiny-size run of every workload in both modes; checks names, units, spans, bindings."""
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            record = run_workload(workload, seed=0, seconds=0, trace=bool(trace), smoke=True)
            report(record)
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            if record["errors"] or got != want[trace]:
                problems.append(f"{name} trace={trace}: errors {record['errors']}; "
                                f"missing {sorted(set(want[trace]) - set(got))}; "
                                f"unexpected {sorted(set(got.items()) - set(want[trace].items()))}")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "evofa" / "cli.py").is_file():
        print(f"error: no evofa sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(json.loads((ROOT / "BENCHMARK.json").read_text()))
    if args.workload is None:
        parser.error("--workload is required")
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), False)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    report(record)
    correct = not record["errors"] and bool(record["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
