"""Command-line interface.

Subcommands: synth-gen, import-check, train, evaluate, compare, report.
Every artifact-producing run writes a run-manifest.json beside its outputs;
files created by a failing run are removed so output trees never hold
partial results.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .data import DriftConfig, export_features, generate_synthetic_drift, import_features
from .errors import ConfigError
from .harness import (
    ResultTable,
    atomic_write_text,
    cell_pools,
    evaluate_cell,
    load_dataset,
    load_experiment_config,
    plan_cells,
    run_protocol,
    train_cell,
    write_run_manifest,
)


class _Outputs:
    """Tracks files a command creates so failures can clean up after themselves."""

    def __init__(self):
        self.paths: list[Path] = []

    def track(self, path: Path) -> Path:
        self.paths.append(Path(path))
        return path

    def discard_all(self) -> None:
        for path in self.paths:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _parse_shots(text: str) -> list[int]:
    try:
        shots = [int(k) for k in text.split(",")]
    except ValueError:
        raise ConfigError(f"--shots must be comma-separated integers, got {text!r}") from None
    if any(k < 1 for k in shots):
        raise ConfigError(f"--shots counts must be positive, got {text!r}")
    if len(set(shots)) != len(shots):
        raise ConfigError(f"--shots names a count more than once: {text!r}")
    return shots


def _write_results(out: _Outputs, out_dir: Path, table: ResultTable, cfg) -> Path:
    csv_path, json_path = table.write(out_dir)
    out.track(csv_path)
    out.track(json_path)
    out.track(write_run_manifest(out_dir, cfg))
    return csv_path


def _cmd_synth_gen(args, out: _Outputs) -> int:
    obj = json.loads(Path(args.config).read_text())
    if isinstance(obj, dict) and "synthetic" in obj:
        obj = obj["synthetic"]
    try:
        cfg = DriftConfig(**obj)
    except TypeError as e:
        raise ConfigError(f"bad synthetic dataset config: {e}") from e
    ds = generate_synthetic_drift(cfg)
    out_dir = Path(args.out)
    manifest = export_features(ds, out_dir)
    out.track(manifest)
    for path in sorted((out_dir / "features").glob("*.evfa")):
        out.track(path)
    _write_manifest_stub(out, out_dir, {"synthetic": asdict(cfg)})
    print(
        f"wrote {len(ds)} samples over {len(ds.subjects())} subjects "
        f"(schema {ds.schema[0]}x{ds.schema[1]}, {ds.num_classes} classes) to {manifest}"
    )
    return 0


def _write_manifest_stub(out: _Outputs, out_dir: Path, dataset_obj: dict) -> None:
    stub = {
        "version": "evofa-cli",
        "dataset": dataset_obj,
        "created_unix": time.time(),
    }
    path = Path(out_dir) / "run-manifest.json"
    atomic_write_text(path, json.dumps(stub, indent=2) + "\n")
    out.track(path)


def _cmd_import_check(args, out: _Outputs) -> int:
    ds = import_features(args.manifest)
    sessions = sorted({s.session_id for s in ds.samples})
    print(
        f"ok: {len(ds)} samples, {len(ds.subjects())} subjects, sessions {sessions}, "
        f"schema {ds.schema[0]}x{ds.schema[1]}, {ds.num_classes} classes"
    )
    return 0


def _cmd_train(args, out: _Outputs) -> int:
    cfg = load_experiment_config(args.config)
    ds = load_dataset(cfg)
    subject, session = plan_cells(cfg, ds, args.subject, args.session)[0]
    pools = cell_pools(cfg, ds, subject, session)
    history: list[tuple[int, float]] = []
    model = train_cell(
        cfg, pools, subject, session, on_epoch=lambda e, a: history.append((e, a))
    )
    out_dir = Path(args.out)
    ckpt_path = out.track(save_checkpoint(model, out_dir / "checkpoints" / "model.ckpt"))
    log_lines = ["epoch,val_accuracy"] + [f"{e},{a:.12g}" for e, a in history]
    log_path = out_dir / "logs" / "train_log.csv"
    atomic_write_text(log_path, "\n".join(log_lines) + "\n")
    out.track(log_path)
    out.track(write_run_manifest(out_dir, cfg))
    best = max((a for _, a in history), default=float("nan"))
    print(
        f"trained subject {subject} ({cfg.protocol}); best validation accuracy "
        f"{best:.4f}; checkpoint {ckpt_path}"
    )
    return 0


def _cmd_evaluate(args, out: _Outputs) -> int:
    cfg = load_experiment_config(args.config)
    if args.episodes is not None:
        cfg = replace(cfg, eval_episodes=args.episodes)
    if args.persist_adaptation:
        cfg = replace(cfg, persist_adaptation=True)
    shots = _parse_shots(args.shots) if args.shots is not None else [cfg.train.shot]
    ds = load_dataset(cfg)
    subject, session = plan_cells(cfg, ds, args.subject, args.session)[0]
    model = load_checkpoint(args.checkpoint)
    if model.config != cfg.train.backbone:
        raise ConfigError(
            "checkpoint architecture disagrees with the experiment backbone config"
        )
    adapt_cfg = cfg.adapt if args.adapt == "on" else None
    pools = cell_pools(cfg, ds, subject, session)
    rows = evaluate_cell(cfg, model, pools, subject, session, (adapt_cfg,), shots)
    _write_results(out, Path(args.out), ResultTable(rows).with_aggregates(), cfg)
    for row in rows:
        print(
            f"{row.method} {row.shots}-shot: {row.mean_accuracy:.4f} "
            f"+/- {row.std_accuracy:.4f} over {row.episodes} episodes"
        )
    return 0


def _cmd_compare(args, out: _Outputs) -> int:
    cfg = load_experiment_config(args.config)
    table = run_protocol(cfg)
    csv_path = _write_results(out, Path(args.out), table, cfg)
    for row in table.aggregate_rows():
        print(
            f"{row.method} {row.shots}-shot: {row.mean_accuracy:.4f} "
            f"+/- {row.std_accuracy:.4f} across subjects"
        )
    print(f"results: {csv_path}")
    return 0


def _cmd_report(args, out: _Outputs) -> int:
    path = Path(args.results)
    if path.is_dir():
        path = path / "results.json"
    try:
        obj = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(f"cannot read results {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"results {path} is not valid JSON: {e}") from e
    rows = obj.get("rows", [])
    if not rows:
        raise ConfigError(f"results {path} holds no rows")
    columns = ["protocol", "subject", "session", "method", "shots", "mean_accuracy", "std_accuracy"]
    widths = {c: len(c) for c in columns}
    rendered = []
    for row in rows:
        cells = {
            c: (f"{row[c]:.4f}" if isinstance(row.get(c), float) else str(row.get(c, "")))
            for c in columns
        }
        rendered.append(cells)
        for c in columns:
            widths[c] = max(widths[c], len(cells[c]))
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for cells in rendered:
        print("  ".join(cells[c].ljust(widths[c]) for c in columns))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evofa",
        description="Few-shot learning lab with evolvable test-time adaptation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic drifting dataset")
    p.add_argument("--config", required=True, help="JSON file of generator settings")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth_gen)

    p = sub.add_parser("import-check", help="validate a feature manifest")
    p.add_argument("--manifest", required=True, help="manifest.json path")
    p.set_defaults(func=_cmd_import_check)

    p = sub.add_parser("train", help="train the episodic model for one protocol cell")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--subject", type=int, help="protocol cell subject (default: first)")
    p.add_argument("--session", type=int, help="protocol cell session (inter only, with --subject)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on one protocol cell")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--checkpoint", required=True, help="model checkpoint path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--adapt", choices=("on", "off"), default="off")
    p.add_argument("--shots", help="comma-separated support sizes, e.g. 1,5")
    p.add_argument("--episodes", type=int, help="override evaluation episode count")
    p.add_argument("--subject", type=int, help="protocol cell subject (default: first)")
    p.add_argument("--session", type=int, help="protocol cell session (inter only, with --subject)")
    p.add_argument(
        "--persist-adaptation",
        action="store_true",
        help="carry adapted state across episodes instead of restoring",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="run the full protocol: supervised vs fsl vs fsl+evofa")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="print a results table from results.json")
    p.add_argument("--results", required=True, help="results.json path or its directory")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs = _Outputs()
    try:
        return args.func(args, outputs)
    except Exception as e:  # config, data, and contract errors all end the run
        outputs.discard_all()
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
