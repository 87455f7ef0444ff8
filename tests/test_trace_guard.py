"""The benchmark's traced run wraps library functions by name
(``perfbench/spans.py``).  Installing and removing its wrappers here fails
as soon as a module it imports by name is gone, the way the traced
benchmark run would, and checks that removal leaves nothing behind."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(spans) -> list:
    """Every namespace the tracer may patch: the cohiggs modules and the
    classes whose methods it wraps."""
    for mod_name, *_ in spans.FUNCTIONS + spans.METHODS:
        importlib.import_module(mod_name)
    mods = [m for n, m in sorted(sys.modules.items()) if n == "cohiggs" or n.startswith("cohiggs.")]
    classes = [getattr(importlib.import_module(m), c, None) for m, c, *_ in spans.METHODS]
    return mods + [c for c in classes if c is not None]


def test_tracer_install_and_uninstall_leave_no_wrapper():
    spans = _load_spans()
    spaces = _namespaces(spans)
    before = [dict(vars(space)) for space in spaces]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert hasattr(sys.modules["cohiggs.linalg"].rank, "__wrapped__")
    finally:
        tracer.uninstall()
    for space, names in zip(spaces, before):
        after = vars(space)
        assert after.keys() == names.keys(), space
        assert all(after[k] is v for k, v in names.items()), space
