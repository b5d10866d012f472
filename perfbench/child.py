"""One benchmark child process: run an ``evofa`` command, or time set-up only.

    child.py SRC cli [--trace SPANS.json] -- <evofa arguments>
    child.py SRC setup CONFIG

``cli`` runs ``evofa.cli.main`` on the arguments and exits with its status;
with ``--trace`` it wraps the package's public functions first and writes
the recorded spans to SPANS.json at exit. ``setup`` imports the package,
parses CONFIG, loads its dataset and prints ``time.monotonic()`` at that
point, so the parent can time interpreter start through first load.
"""
import sys
import time


def main(argv: list[str]) -> int:
    src, mode, rest = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    if mode == "setup":
        import evofa.cli  # noqa: F401  (the import is part of what set-up costs)
        from evofa.harness import load_dataset, load_experiment_config

        load_dataset(load_experiment_config(rest[0]))
        print(repr(time.monotonic()))
        return 0
    spans_path = None
    if rest[0] == "--trace":
        spans_path, rest = rest[1], rest[2:]
    rest = rest[1:]  # drop the "--" separator
    import evofa.cli

    if spans_path is None:
        return evofa.cli.main(rest)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return evofa.cli.main(rest)
    finally:
        tracer.write(spans_path, tracer.uninstall())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
