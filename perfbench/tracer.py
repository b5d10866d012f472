"""In-memory span recorder that wraps the evofa package's public functions from outside.

A span is ``(id, name, start, end, parent, thread, cell, attrs)``. ``start``
and ``end`` come from ``time.perf_counter``; ``parent`` is the id of the span
that was open on the same thread when this one began (or, for the first span
of a worker thread, the innermost span open on the main thread); ``cell`` is
the id of the enclosing per-cell span, shared by every span inside one
protocol cell, and 0 outside cells. ``attrs`` holds counts computed after the
span closed (rows, bytes, FLOPs), so computing them is not charged to the
span itself.

Because ``from .x import y`` copies bindings, :meth:`Tracer.install` patches
every attribute of every loaded ``evofa`` module that is the wrapped
function, and :meth:`Tracer.uninstall` puts the originals back and checks
that none of its wrappers is left anywhere.
"""
from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

_WRAPPED = "__perfbench_original__"


# -- attribute extractors: (args, kwargs, result) -> dict -------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _encode_attrs(tracer):
    def attrs(args, kwargs, result):
        features = _arg(args, kwargs, 0, "features").data
        rows = 1 if features.ndim == 2 else features.shape[0]
        if _arg(args, kwargs, 2, "mode", "eval") == "eval":
            flat = np.ascontiguousarray(features).reshape(rows, -1)
            digests = tracer.distinct_eval_rows
            for row in flat:
                digests.add(hashlib.blake2b(row.tobytes(), digest_size=8).hexdigest())
            tracer.eval_rows += rows
        return {"rows": rows}

    return attrs


def _median_heuristic_attrs(args, kwargs, result):
    pooled = np.concatenate([np.asarray(getattr(a, "data", a)) for a in args[:2]], axis=0)
    # median_heuristic falls back to bandwidth 1.0 exactly when every point is identical
    return {"fallback": int(bool(np.all(pooled == pooled[:1])))}


def _meta_train_attrs(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"episodes": cfg.episodes_per_epoch * cfg.max_epochs}


def _evofa_test_attrs(args, kwargs, result):
    adapt_cfg = _arg(args, kwargs, 5, "adapt_cfg")
    return {"episodes": result.episodes, "adapted": int(adapt_cfg is not None)}


def _import_attrs(args, kwargs, result):
    # bytes the importer read: the manifest plus the .evfa binaries it names
    manifest = Path(_arg(args, kwargs, 0, "manifest_path"))
    total = manifest.stat().st_size
    for path in (manifest.parent / "features").glob("*.evfa"):
        total += path.stat().st_size
    return {"bytes": total}


def _save_attrs(args, kwargs, result):
    return {"bytes": Path(result).stat().st_size}


def _crc_attrs(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 0, "data"))}


# (module, attribute or Class.method, span name, attrs factory taking the tracer or None)
WRAPS = (
    ("evofa.autodiff", "backward", "autodiff.backward", None),
    ("evofa.backbone", "encode", "backbone.encode", _encode_attrs),
    ("evofa.backbone", "adapt", "backbone.adapt", None),
    ("evofa.mmd", "mmd2", "mmd.mmd2", None),
    ("evofa.mmd", "median_heuristic", "mmd.median_heuristic", lambda t: _median_heuristic_attrs),
    ("evofa.fsl", "meta_train", "fsl.meta_train", lambda t: _meta_train_attrs),
    ("evofa.fsl", "train_supervised_baseline", "fsl.train_supervised_baseline", None),
    ("evofa.fsl", "sample_episode", "fsl.sample_episode", None),
    ("evofa.fsl", "classify_query", "fsl.classify_query", None),
    ("evofa.fsl", "classify_pool", "fsl.classify_pool", None),
    ("evofa.adapt", "evofa_test", "adapt.evofa_test", lambda t: _evofa_test_attrs),
    ("evofa.adapt", "evofa_run", "adapt.evofa_run", None),
    ("evofa.adapt", "inner_adapt", "adapt.inner_adapt", None),
    ("evofa.adapt", "outer_update", "adapt.outer_update", None),
    ("evofa.adapt", "sample_snapshots_intra", "adapt.sample_snapshots", None),
    ("evofa.adapt", "sample_snapshots_inter", "adapt.sample_snapshots", None),
    ("evofa.data", "generate_synthetic_drift", "data.generate", None),
    ("evofa.data", "import_features", "data.import_features", lambda t: _import_attrs),
    ("evofa.data", "export_features", "data.export_features", None),
    ("evofa.data", "make_intra_split", "data.split", None),
    ("evofa.data", "make_inter_split", "data.split", None),
    ("evofa.data", "SplitSpec.select", "data.select", None),
    ("evofa.checkpoint", "save_checkpoint", "checkpoint.save", lambda t: _save_attrs),
    ("evofa.checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("evofa.checkpoint", "crc64", "checkpoint.crc64", lambda t: _crc_attrs),
    ("evofa.harness", "load_experiment_config", "harness.load_config", None),
    ("evofa.harness", "run_protocol", "harness.run_protocol", None),
    ("evofa.harness", "ResultTable.write", "harness.write_results", None),
)

# Binding sites that a correct install must reach where they exist (module
# attribute calls and names copied by ``from .x import y``).
REQUIRED_SITES = (
    "evofa.autodiff.conv2d",
    "evofa.autodiff.backward",
    "evofa.adapt.mmd2",
    "evofa.adapt.sample_episode",
    "evofa.adapt.classify_query",
    "evofa.harness.meta_train",
    "evofa.cli.meta_train",
    "evofa.harness.evofa_test",
    "evofa.cli.evofa_test",
    "evofa.harness.import_features",
    "evofa.cli.import_features",
    "evofa.harness._run_cell",
    "evofa.cli.main",
)


class Tracer:
    """Span recorder; a no-op until :meth:`install` patches the package."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.eval_rows = 0
        self.distinct_eval_rows: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None, new_cell=False):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = (0, 0)
        sid = next(self._ids)
        frame = (sid, sid if new_cell else parent[1])
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent[0], threading.get_ident(), frame[1], None))
            raise
        end = perf_counter()
        stack.pop()
        extra = attrs(args, kwargs, result) if attrs is not None else None
        self.spans.append((sid, name, start, end, parent[0], threading.get_ident(), frame[1], extra))
        return result

    # -- wrappers -------------------------------------------------------------------------

    def _wrap(self, name, fn, attrs=None, new_cell=False):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs, new_cell)

        setattr(wrapper, _WRAPPED, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_conv2d(self, fn):
        """conv2d forward span plus a span around the node's backward closure."""

        def wrapper(x, k, stride=1, pad=0):
            out = self.call("autodiff.conv2d", fn, (x, k, stride, pad), {}, _conv_attrs)
            node = out._parents[0] if x.ndim == 3 and out._parents else out
            backward_fn = node._grad_fn
            if backward_fn is not None:
                flops = 2 * _conv_flops(x, k, out)

                def timed_backward(g):
                    return self.call(
                        "autodiff.conv2d.bwd", backward_fn, (g,), {}, lambda *_: {"flops": flops}
                    )

                node._grad_fn = timed_backward
            return out

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def _wrap_cli_main(self, fn):
        def wrapper(argv=None):
            command = (argv or sys.argv[1:] or ["none"])[0]
            return self.call(f"cli.{command}", fn, (argv,), {})

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def install(self) -> None:
        """Import the package and patch every binding site of every wrapped function."""
        importlib.import_module("evofa.cli")  # loads every module of the package
        autodiff, harness, cli = (sys.modules[m] for m in ("evofa.autodiff", "evofa.harness", "evofa.cli"))
        plan = [
            (autodiff.conv2d, self._wrap_conv2d(autodiff.conv2d)),
            (harness._run_cell, self._wrap("harness.run_cell", harness._run_cell, new_cell=True)),
            (cli.main, self._wrap_cli_main(cli.main)),
        ]
        for module, attr, name, factory in WRAPS:
            owner, fn = _resolve(module, attr)
            attrs = factory(self) if factory is not None else None
            if "." in attr:  # a method: its only binding site is the class
                self._patch(owner, attr.split(".")[1], self._wrap(name, fn, attrs))
            else:
                plan.append((fn, self._wrap(name, fn, attrs)))
        for original, wrapper in plan:
            for mod in _evofa_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        # a site the package no longer has is fine; one it has but holding another object is not
        missed = [s for s in REQUIRED_SITES if _site_value(s) is not None and not _is_wrapped(_site_value(s))]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer left binding sites unwrapped: {missed}")

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every patched binding; True when no wrapper survives anywhere."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(owner.__dict__[attr] is original for owner, attr, original in self._patches)
        self._patches = []
        for mod in _evofa_modules():
            for value in vars(mod).values():
                if _is_wrapped(value) or (
                    isinstance(value, type) and any(_is_wrapped(v) for v in vars(value).values())
                ):
                    restored = False
        return restored

    def write(self, path: Path, restored: bool) -> None:
        obj = {
            "restored": restored,
            "eval_rows": self.eval_rows,
            "distinct_eval_rows": sorted(self.distinct_eval_rows),
            "spans": [list(span) for span in self.spans],
        }
        Path(path).write_text(json.dumps(obj, separators=(",", ":")))


def _conv_flops(x, k, out) -> int:
    batch = 1 if x.ndim == 3 else x.shape[0]
    c_out, c_in, kh, kw = k.shape
    return 2 * batch * c_out * c_in * kh * kw * out.shape[-2] * out.shape[-1]


def _conv_attrs(args, kwargs, out):
    x, k = args[0], args[1]
    batch = 1 if x.ndim == 3 else x.shape[0]
    _, c_in, kh, kw = k.shape
    im2col = batch * c_in * kh * kw * out.shape[-2] * out.shape[-1] * 8
    return {"flops": _conv_flops(x, k, out), "im2col_bytes": im2col}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, getattr(owner, attr.split(".")[-1])


def _evofa_modules():
    return [m for name, m in list(sys.modules.items()) if name == "evofa" or name.startswith("evofa.")]


def _site_value(site: str):
    module, attr = site.rsplit(".", 1)
    return getattr(sys.modules[module], attr, None)


def _is_wrapped(value) -> bool:
    return callable(value) and hasattr(value, _WRAPPED)
