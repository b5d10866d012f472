"""Command-line interface.

Subcommands: synth-gen, import-check, train, evaluate, compare, report.
Every artifact-producing run writes a run-manifest.json beside its outputs.
Each command runs inside one ``data.all_or_nothing`` block, so a failing
command leaves the output tree as it found it: no partial results.
"""
from __future__ import annotations

import argparse
import ctypes
import os
import sys
from dataclasses import fields
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    _LIST,
    _OBJECT,
    all_or_nothing,
    atomic_write,
    export_features,
    field_kinds,
    generate_synthetic_drift,
    import_features,
    read_fields,
    read_json,
)
from .errors import ConfigError
from .harness import (
    _JSON_KINDS,
    ResultRow,
    ResultTable,
    cell_pools,
    evaluate_cell,
    load_dataset,
    load_drift_config,
    load_experiment_config,
    plan_cells,
    run_protocol,
    train_cell,
    write_run_manifest,
)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_TOP_PAD, _M_MMAP_THRESHOLD = -1, -2, -3


def _keep_freed_heap() -> None:
    """Make glibc's malloc keep this process's freed buffers for reuse; elsewhere do nothing.

    A training step on the 62x62 grid frees activation, column and gradient
    arrays of 2-16 MiB that the next step allocates again. By default glibc
    unmaps them or trims the heap top, and the next step faults fresh pages
    in. The three settings go together or not at all: either threshold alone
    switches off glibc's dynamic mmap threshold, which faults more, not less.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or it has no such name
        return
    if not libc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 1 << 30):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        mallopt(_M_TOP_PAD, 64 << 20)


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


def _write_results(out_dir: Path, table: ResultTable, cfg) -> Path:
    csv_path, _ = table.write(out_dir)
    write_run_manifest(out_dir, cfg)
    return csv_path


def _cmd_synth_gen(args) -> int:
    cfg = load_drift_config(args.config)
    ds = generate_synthetic_drift(cfg)
    out_dir = Path(args.out)
    manifest = export_features(ds, out_dir)[-1]
    write_run_manifest(out_dir, cfg)
    print(
        f"wrote {len(ds)} samples over {len(ds.subjects())} subjects "
        f"(schema {ds.schema[0]}x{ds.schema[1]}, {ds.num_classes} classes) to {manifest}"
    )
    return 0


def _cmd_import_check(args) -> int:
    ds = import_features(args.manifest)
    print(
        f"ok: {len(ds)} samples, {len(ds.subjects())} subjects, sessions {ds.sessions()}, "
        f"schema {ds.schema[0]}x{ds.schema[1]}, {ds.num_classes} classes"
    )
    return 0


def _cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    ds = load_dataset(cfg)
    subject, session = plan_cells(cfg, ds, args.subject, args.session)[0]
    pools = cell_pools(cfg, ds, subject, session)
    history: list[tuple[int, float]] = []
    model = train_cell(
        cfg, pools, subject, session, on_epoch=lambda e, a: history.append((e, a))
    )
    out_dir = Path(args.out)
    ckpt_path = save_checkpoint(model, out_dir / "checkpoints" / "model.ckpt")
    log_lines = ["epoch,val_accuracy"] + [f"{e},{a:.12g}" for e, a in history]
    atomic_write(out_dir / "logs" / "train_log.csv", ("\n".join(log_lines) + "\n").encode())
    write_run_manifest(out_dir, cfg)
    if history:
        validation = f"best validation accuracy {max(a for _, a in history):.4f}"
    else:
        validation = "no validation epoch ran (train.max_epochs is 0)"
    print(f"trained subject {subject} ({cfg.protocol}); {validation}; checkpoint {ckpt_path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = load_experiment_config(args.config)
    shots = _parse_shots(args.shots) if args.shots is not None else [cfg.train.shot]
    ds = load_dataset(cfg)
    subject, session = plan_cells(cfg, ds, args.subject, args.session)[0]
    model = load_checkpoint(args.checkpoint)
    want = cfg.train.model_config(cfg.backbone)
    differs = [f.name for f in fields(want) if getattr(model.config, f.name) != getattr(want, f.name)]
    if differs:
        name = differs[0]
        raise ConfigError(
            f"checkpoint {args.checkpoint} architecture disagrees with the experiment backbone "
            f"config: field {name!r} is {getattr(model.config, name)!r} in the checkpoint, "
            f"{getattr(want, name)!r} in the config"
        )
    adapt_cfg = cfg.adapt if args.adapt == "on" else None
    pools = cell_pools(cfg, ds, subject, session)
    rows = evaluate_cell(cfg, model, pools, subject, session, (adapt_cfg,), shots)
    _write_results(Path(args.out), ResultTable(rows).with_aggregates(), cfg)
    for row in rows:
        print(
            f"{row.method} {row.shots}-shot: {row.mean_accuracy:.4f} "
            f"+/- {row.std_accuracy:.4f} over {row.episodes} episodes"
        )
    return 0


def _cmd_compare(args) -> int:
    cfg = load_experiment_config(args.config)
    table = run_protocol(cfg)
    csv_path = _write_results(Path(args.out), table, cfg)
    for row in table.aggregate_rows():
        print(
            f"{row.method} {row.shots}-shot: {row.mean_accuracy:.4f} "
            f"+/- {row.std_accuracy:.4f} across subjects"
        )
    print(f"results: {csv_path}")
    return 0


# the top level of results.json, as ResultTable.to_json_obj writes it; read_fields checks each row
_RESULTS = {"version": _JSON_KINDS["str"], "std_semantics": _OBJECT, "rows": _LIST}


def _cmd_report(args) -> int:
    path = Path(args.results)
    if path.is_dir():
        path = path / "results.json"
    obj = read_json(path, "results", ConfigError)
    rows = read_fields(obj, _RESULTS, f"results {path}", ConfigError, ("rows",))["rows"]
    if not rows:
        raise ConfigError(f"results {path} holds no rows")
    columns = ["protocol", "subject", "session", "method", "shots", "mean_accuracy", "std_accuracy"]
    widths = {c: len(c) for c in columns}
    kinds = field_kinds(ResultRow, _JSON_KINDS)  # the rules a written row meets
    rendered = []
    for i, row in enumerate(rows):
        read_fields(row, kinds, f"results {path} row {i}", ConfigError, kinds)
        cells = {c: (f"{row[c]:.4f}" if c.endswith("_accuracy") else str(row[c])) for c in columns}
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
    p.add_argument("--subject", type=int, help="protocol cell subject (default: first)")
    p.add_argument("--session", type=int, help="protocol cell session (inter only, with --subject)")
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
    """Run one command; only here, not on import, is the process's malloc tuned."""
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        with all_or_nothing():  # a command that raises, an interrupt too, undoes what it wrote
            return args.func(args)
    except Exception as e:  # config, data, and contract errors all end the run
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
