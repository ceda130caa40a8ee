"""The benchmark's traced run wraps package attributes by name
(`perfbench/tracing.py`, `HOOKS`).  A renamed or deleted target would only
show up as a null metric in a manual traced run, so every name is checked
here, and a traced smoke run checks that the engine still calls the hooked
names.  The file is executed from its source, never imported or written."""

import importlib
import runpy
from pathlib import Path

from cohomcsp import cohomology
from conftest import complete_structure, cycle_structure

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_trace_hooks_resolve():
    hooks = runpy.run_path(str(TRACING))["HOOKS"]
    assert hooks
    for hook, (mod_name, attr) in hooks.items():
        module = importlib.import_module(f"cohomcsp.{mod_name}")
        assert callable(getattr(module, attr, None)), hook


def test_traced_decisions_reach_every_layer():
    tracer = runpy.run_path(str(TRACING))["Tracer"]()
    tracer.install()
    try:
        c4 = cycle_structure(4)
        cohomology.run_decision(c4, complete_structure(2), 2, "cohomological", "csp")
        cohomology.run_decision(c4, c4, 2, "cohomological", "iso")
    finally:
        tracer.uninstall()
    metrics, reasons = tracer.metrics()
    assert not reasons
    assert all(m["value"] is not None for m in metrics.values())
    for name in ("presheaf.enumerate.calls", "presheaf.fixpoint.calls",
                 "presheaf.check.calls", "cohomology.sweep.calls"):
        assert metrics[name]["value"] > 0, name
