"""Sweep process of the benchmark: ``covproj sweep`` as users run it.

Usage (from the repository root, with ``PYTHONPATH=src``):

    python perfbench/launch.py MARKS.json TRACE sweep --config C --out DIR

Runs ``covproj.cli.main`` on the arguments after TRACE and exits with its
code. With TRACE 0 the only addition is a one-shot mark of when the first
grid cell starts, which ends the set-up period. With TRACE 1 every layer
entry point is traced (see ``tracer.py``). The marks, and the spans when
tracing, are written to MARKS.json after the sweep returns.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    marks_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from covproj import cli, sweep

    marks: dict = {}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        original = sweep._eval_cell

        def first_cell(*args, **kwargs):
            marks.setdefault("first_cell", time.monotonic())
            sweep._eval_cell = original
            return original(*args, **kwargs)

        sweep._eval_cell = first_cell
    code = cli.main(argv)
    if tracer is not None:
        marks["spans"] = tracer.spans
        marks["missing"] = tracer.missing
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
