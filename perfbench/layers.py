"""Per-layer metrics from the span files that traced child processes write.

Layers are the evofa package's modules; a span's layer is its name up to the
first dot. Self time of a span is its duration minus the part of its interval
that its child spans cover (children of one parent may overlap when protocol
cells run on worker threads, so the union is subtracted, not the sum).
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

LAYERS = ("data", "autodiff", "backbone", "mmd", "fsl", "adapt", "checkpoint", "harness", "cli")
COMMANDS = ("compare", "train", "evaluate", "synth-gen")
MIB = float(2**20)

# name -> unit; every traced run reports all of these (0 where a layer has no work).
PER_LAYER_UNITS = {
    "autodiff.conv2d.fwd_s": "s",
    "autodiff.conv2d.bwd_s": "s",
    "autodiff.conv2d.gflop": "GFLOP",
    "autodiff.conv2d.gflops": "GFLOP/s",
    "autodiff.conv2d.im2col_peak_mb": "MiB",
    "autodiff.backward.s": "s",
    "autodiff.backward.calls": "count",
    "backbone.encode.s": "s",
    "backbone.encode.rows": "count",
    "backbone.encode.rows_per_distinct": "ratio",
    "backbone.adapt.s": "s",
    "mmd.mmd2.s": "s",
    "mmd.mmd2.calls": "count",
    "mmd.median_heuristic.s": "s",
    "mmd.median_heuristic.fallbacks": "count",
    "fsl.meta_train.s": "s",
    "fsl.meta_train.episodes_per_s": "1/s",
    "fsl.train_supervised_baseline.s": "s",
    "fsl.sample_episode.s": "s",
    "fsl.sample_episode.calls": "count",
    "fsl.classify_query.s": "s",
    "adapt.evofa_test.fsl.episodes_per_s": "1/s",
    "adapt.evofa_test.fsl_evofa.episodes_per_s": "1/s",
    "adapt.evofa_run.ms.p50": "ms",
    "adapt.evofa_run.ms.p90": "ms",
    "adapt.inner_adapt.s": "s",
    "adapt.outer_update.s": "s",
    "adapt.sample_snapshots.s": "s",
    "data.load.s": "s",
    "data.import_features.mb_per_s": "MiB/s",
    "data.split_select.s": "s",
    "data.export_features.s": "s",
    "checkpoint.save.s": "s",
    "checkpoint.load.s": "s",
    "checkpoint.crc64.s": "s",
    "checkpoint.crc64.mb_per_s": "MiB/s",
    "checkpoint.bytes": "bytes",
    "harness.run_protocol.s": "s",
    "harness.parallel_efficiency": "ratio",
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead": "ratio",
}


class SpanSummary:
    """Totals over the spans of one or more child processes."""

    def __init__(self):
        self.seconds = defaultdict(float)  # span name -> summed duration
        self.calls = defaultdict(int)
        self.self_seconds = defaultdict(float)  # span name -> summed self time
        self.attrs = defaultdict(float)  # "name:attr" -> summed value
        self.peaks = defaultdict(float)  # "name:attr" -> max value
        self.durations = defaultdict(list)  # span name -> durations, for percentiles
        self.by_method = defaultdict(float)  # evofa_test seconds/episodes per method
        self.cell_busy = 0.0
        self.eval_rows = 0
        self.distinct = set()
        self.restored = True

    def add_file(self, path: Path) -> None:
        obj = json.loads(Path(path).read_text())
        self.restored &= bool(obj["restored"])
        self.eval_rows += obj["eval_rows"]
        self.distinct.update(obj["distinct_eval_rows"])
        spans = obj["spans"]
        children = defaultdict(list)
        for sid, name, start, end, parent, _thread, _cell, attrs in spans:
            children[parent].append((start, end))
        for sid, name, start, end, parent, _thread, _cell, attrs in spans:
            duration = end - start
            self.seconds[name] += duration
            self.calls[name] += 1
            self.self_seconds[name] += duration - _covered(start, end, children.get(sid, ()))
            if name == "adapt.evofa_run":
                self.durations[name].append(duration)
            if name == "harness.run_cell":
                self.cell_busy += duration
            for key, value in (attrs or {}).items():
                self.attrs[f"{name}:{key}"] += value
                self.peaks[f"{name}:{key}"] = max(self.peaks[f"{name}:{key}"], value)
            if name == "adapt.evofa_test" and attrs:
                method = "fsl_evofa" if attrs["adapted"] else "fsl"
                self.by_method[f"{method}:s"] += duration
                self.by_method[f"{method}:episodes"] += attrs["episodes"]

    def called(self) -> set[str]:
        return {name for name, n in self.calls.items() if n}


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer_metrics(rep: SpanSummary, setup: SpanSummary, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (``setup`` covers the container write)."""
    s, calls, a = rep.seconds, rep.calls, rep.attrs
    conv_s = s["autodiff.conv2d"] + s["autodiff.conv2d.bwd"]
    gflop = (a["autodiff.conv2d:flops"] + a["autodiff.conv2d.bwd:flops"]) / 1e9
    runs_ms = sorted(d * 1e3 for d in rep.durations["adapt.evofa_run"])
    if len(runs_ms) >= 2:
        deciles = statistics.quantiles(runs_ms, n=10)
        p50, p90 = statistics.median(runs_ms), deciles[8]
    else:
        p50 = p90 = runs_ms[0] if runs_ms else 0.0
    protocol_wall = s["harness.run_protocol"]
    load_s = s["data.generate"] + s["data.import_features"]
    out = {
        "autodiff.conv2d.fwd_s": s["autodiff.conv2d"],
        "autodiff.conv2d.bwd_s": s["autodiff.conv2d.bwd"],
        "autodiff.conv2d.gflop": gflop,
        "autodiff.conv2d.gflops": _rate(gflop, conv_s),
        "autodiff.conv2d.im2col_peak_mb": rep.peaks["autodiff.conv2d:im2col_bytes"] / MIB,
        "autodiff.backward.s": s["autodiff.backward"],
        "autodiff.backward.calls": calls["autodiff.backward"],
        "backbone.encode.s": s["backbone.encode"],
        "backbone.encode.rows": a["backbone.encode:rows"],
        "backbone.encode.rows_per_distinct": _rate(rep.eval_rows, len(rep.distinct)),
        "backbone.adapt.s": s["backbone.adapt"],
        "mmd.mmd2.s": s["mmd.mmd2"],
        "mmd.mmd2.calls": calls["mmd.mmd2"],
        "mmd.median_heuristic.s": s["mmd.median_heuristic"],
        "mmd.median_heuristic.fallbacks": a["mmd.median_heuristic:fallback"],
        "fsl.meta_train.s": s["fsl.meta_train"],
        "fsl.meta_train.episodes_per_s": _rate(a["fsl.meta_train:episodes"], s["fsl.meta_train"]),
        "fsl.train_supervised_baseline.s": s["fsl.train_supervised_baseline"],
        "fsl.sample_episode.s": s["fsl.sample_episode"],
        "fsl.sample_episode.calls": calls["fsl.sample_episode"],
        "fsl.classify_query.s": s["fsl.classify_query"],
        "adapt.evofa_test.fsl.episodes_per_s": _rate(
            rep.by_method["fsl:episodes"], rep.by_method["fsl:s"]
        ),
        "adapt.evofa_test.fsl_evofa.episodes_per_s": _rate(
            rep.by_method["fsl_evofa:episodes"], rep.by_method["fsl_evofa:s"]
        ),
        "adapt.evofa_run.ms.p50": p50,
        "adapt.evofa_run.ms.p90": p90,
        "adapt.inner_adapt.s": s["adapt.inner_adapt"],
        "adapt.outer_update.s": s["adapt.outer_update"],
        "adapt.sample_snapshots.s": s["adapt.sample_snapshots"],
        "data.load.s": load_s,
        "data.import_features.mb_per_s": _rate(
            a["data.import_features:bytes"] / MIB, s["data.import_features"]
        ),
        "data.split_select.s": s["data.split"] + s["data.select"],
        "data.export_features.s": setup.seconds["data.export_features"],
        "checkpoint.save.s": s["checkpoint.save"],
        "checkpoint.load.s": s["checkpoint.load"],
        "checkpoint.crc64.s": s["checkpoint.crc64"],
        "checkpoint.crc64.mb_per_s": _rate(a["checkpoint.crc64:bytes"] / MIB, s["checkpoint.crc64"]),
        "checkpoint.bytes": a["checkpoint.save:bytes"],
        "harness.run_protocol.s": protocol_wall,
        "harness.parallel_efficiency": _rate(rep.cell_busy, threads * protocol_wall),
    }
    for command in COMMANDS:
        summary = setup if command == "synth-gen" else rep
        out[f"cli.{command}.self_s"] = summary.self_seconds[f"cli.{command}"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for name, t in rep.self_seconds.items() if name.split(".", 1)[0] == layer
        )
    return out
