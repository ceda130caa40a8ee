"""The benchmark's traced run wraps package attributes by name
(`perfbench/tracing.py`, `HOOKS`).  A renamed or deleted target would only
show up as a null metric in a manual traced run, so every name is checked
here.  The file is executed from its source, never imported or written."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_trace_hooks_resolve():
    hooks = runpy.run_path(str(TRACING))["HOOKS"]
    assert hooks
    for hook, (mod_name, attr) in hooks.items():
        module = importlib.import_module(f"cohomcsp.{mod_name}")
        assert callable(getattr(module, attr, None)), hook
