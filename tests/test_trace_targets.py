"""The benchmark tracer's targets all resolve in the package.

``perfbench/tracer.py`` wraps named functions to time each layer; a target
that no longer exists is skipped at run time and silently empties its
per-layer metric. The tracer source is read and executed into a fresh
namespace, so nothing is imported from or written under ``perfbench/``.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def test_every_trace_target_resolves():
    missing = []
    for module_name, attr, _, _ in _tracer_module().TARGETS:
        owner = importlib.import_module(module_name)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
