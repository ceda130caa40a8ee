"""Outside-in layer tracing for the benchmark's traced run.

The hooks replace, for the duration of one traced pass, the module attributes
that ``cohomcsp.cli``, ``cohomcsp.cohomology``, ``cohomcsp.presheaf`` and
``cohomcsp.structures`` resolve at call time.  Nothing under ``src/`` knows
about them.  Coarse layer calls become spans (name, start, end, parent,
instance); calls that happen tens of thousands of times per instance
(lattice tests, forth checks) are aggregated into counters and into their
parent span's covered time instead of being stored one by one.

A layer's self time is its duration minus the time its child spans cover.
Counter bookkeeping done by a hook after its span has ended is charged to no
layer: it is added to the parent's covered time, so it never inflates a
self time.

If a hooked name is missing (a later refactor renamed it), the metrics that
depend on it are reported as ``None`` with the reason; they are never 0.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# hook name -> (module suffix under cohomcsp, attribute)
HOOKS = {
    "cli.run_decision": ("cli", "run_decision"),
    "cohomology.enumerate_sections": ("cohomology", "enumerate_sections"),
    "cohomology.classical_fixpoint": ("cohomology", "classical_fixpoint"),
    "cohomology.wl_fixpoint": ("cohomology", "wl_fixpoint"),
    "cohomology._run_cohom_fixpoint": ("cohomology", "_run_cohom_fixpoint"),
    "cohomology._zext_sweep": ("cohomology", "_zext_sweep"),
    "cohomology.invert_section_set": ("cohomology", "invert_section_set"),
    "cohomology.SparseEchelon": ("cohomology", "SparseEchelon"),
    "cohomology.IntLattice": ("cohomology", "IntLattice"),
    "presheaf.forth_holds": ("presheaf", "forth_holds"),
    "presheaf.bij_forth_holds": ("presheaf", "bij_forth_holds"),
    "structures.brute_force_iso": ("structures", "brute_force_iso"),
    "structures._Budget": ("structures", "_Budget"),
}

_FIXPOINTS = ("cohomology.classical_fixpoint", "cohomology.wl_fixpoint")
_CHECKS = ("presheaf.forth_holds", "presheaf.bij_forth_holds")

# per-layer metric -> (unit, hooks it needs, how it is read off the tracer)
METRICS = {
    "cli.self_s": ("s", ("cli.run_decision",), ("self", "cli.compare")),
    "cohomology.run_decision.calls": ("count", ("cli.run_decision",),
                                      ("count", "cohomology.run_decision.calls")),
    "presheaf.enumerate.s": ("s", ("cohomology.enumerate_sections",),
                             ("time", "presheaf.enumerate")),
    "presheaf.enumerate.calls": ("count", ("cohomology.enumerate_sections",),
                                 ("count", "presheaf.enumerate.calls")),
    "presheaf.enumerate.sections": ("count", ("cohomology.enumerate_sections",),
                                    ("count", "presheaf.enumerate.sections")),
    "presheaf.fixpoint.s": ("s", _FIXPOINTS, ("time", "presheaf.fixpoint")),
    "presheaf.fixpoint.calls": ("count", _FIXPOINTS,
                                ("count", "presheaf.fixpoint.calls")),
    "presheaf.fixpoint.removed": ("count", _FIXPOINTS,
                                  ("count", "presheaf.fixpoint.removed")),
    "presheaf.check.calls": ("count", _CHECKS, ("count", "presheaf.check.calls")),
    "presheaf.check.fails": ("count", _CHECKS, ("count", "presheaf.check.fails")),
    "presheaf.check.fail_frac": ("ratio", _CHECKS,
                                 ("ratio", "presheaf.check.fails",
                                  "presheaf.check.calls")),
    "cohomology.sweep.s": ("s", ("cohomology._zext_sweep",),
                           ("time", "cohomology.sweep")),
    "cohomology.sweep.self_s": ("s", ("cohomology._zext_sweep",
                                      "cohomology.SparseEchelon",
                                      "cohomology.IntLattice"),
                                ("self", "cohomology.sweep")),
    "cohomology.sweep.calls": ("count", ("cohomology._zext_sweep",),
                               ("count", "cohomology.sweep.calls")),
    "cohomology.sweep.empty_pin_fails": ("count", ("cohomology._zext_sweep",),
                                         ("count", "cohomology.sweep.empty_pin_fails")),
    "cohomology.system.rows": ("count", ("cohomology.SparseEchelon",),
                               ("peak", "cohomology.system.rows")),
    "cohomology.system.cols": ("count", ("cohomology.SparseEchelon",),
                               ("peak", "cohomology.system.cols")),
    "cohomology.system.nnz": ("count", ("cohomology.SparseEchelon",),
                              ("peak", "cohomology.system.nnz")),
    "cohomology.invert.s": ("s", ("cohomology.invert_section_set",),
                            ("time", "cohomology.invert")),
    "cohomology.fixpoint.self_s": ("s", ("cohomology._run_cohom_fixpoint",
                                         "cohomology._zext_sweep",
                                         "cohomology.invert_section_set")
                                   + _FIXPOINTS,
                                   ("self", "cohomology.fixpoint")),
    "intlinalg.echelon.s": ("s", ("cohomology.SparseEchelon",),
                            ("time", "intlinalg.echelon")),
    "intlinalg.echelon.calls": ("count", ("cohomology.SparseEchelon",),
                                ("count", "intlinalg.echelon.calls")),
    "intlinalg.kernel.dim": ("count", ("cohomology.SparseEchelon",),
                             ("peak", "intlinalg.kernel.dim")),
    "intlinalg.kernel.nnz": ("count", ("cohomology.SparseEchelon",),
                             ("peak", "intlinalg.kernel.nnz")),
    "intlinalg.kernel.coeff_bits_max": ("bits", ("cohomology.SparseEchelon",),
                                        ("peak", "intlinalg.kernel.coeff_bits_max")),
    "intlinalg.lattice.s": ("s", ("cohomology.IntLattice",),
                            ("time", "intlinalg.lattice")),
    "intlinalg.lattice.adds": ("count", ("cohomology.IntLattice",),
                               ("count", "intlinalg.lattice.adds")),
    "intlinalg.lattice.tests": ("count", ("cohomology.IntLattice",),
                                ("count", "intlinalg.lattice.tests")),
    "intlinalg.lattice.rejects": ("count", ("cohomology.IntLattice",),
                                  ("count", "intlinalg.lattice.rejects")),
    "structures.oracle.s": ("s", ("structures.brute_force_iso",),
                            ("time", "structures.oracle")),
    "structures.oracle.nodes": ("count", ("structures.brute_force_iso",
                                          "structures._Budget"),
                                ("count", "structures.oracle.nodes")),
    "structures.oracle.found": ("count", ("structures.brute_force_iso",),
                                ("count", "structures.oracle.found")),
    "structures.oracle.none": ("count", ("structures.brute_force_iso",),
                               ("count", "structures.oracle.none")),
    "structures.oracle.budget_exceeded": ("count", ("structures.brute_force_iso",),
                                          ("count", "structures.oracle.budget_exceeded")),
}


class Tracer:
    """Span stack, per-layer totals and counters for one traced pass."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[dict] = []
        self.stack: list[list] = []   # [name, start, covered, span id, parent id]
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.instance: str | None = None
        self.instance_counters: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self.budgets: list = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self.stack[-1][3] if self.stack else None
        self.stack.append([name, perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def exit(self) -> float:
        end = perf_counter()
        name, start, covered, sid, parent = self.stack.pop()
        dur = end - start
        self.time[name] += dur
        self.self_time[name] += dur - covered
        if self.stack:
            self.stack[-1][2] += dur
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "instance": self.instance,
                           "start": start - self.t0, "end": end - self.t0,
                           "self": dur - covered})
        return end

    def leaf(self, name: str, dur: float) -> None:
        """Account a call too frequent to keep as a span of its own."""
        self.time[name] += dur
        self.self_time[name] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def exclude(self, since: float) -> None:
        """Charge the hook bookkeeping done since `since` to no layer."""
        if self.stack:
            self.stack[-1][2] += perf_counter() - since

    # -- counters -------------------------------------------------------------

    def bump(self, name: str, n: int = 1) -> None:
        self.count[name] += n
        self.instance_counters[name] = self.instance_counters.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value
        if value > self.instance_counters.get(name, 0):
            self.instance_counters[name] = value

    def begin_instance(self, iid: str) -> None:
        self.instance = iid
        self.instance_counters = {}
        self.budgets.clear()

    def end_instance(self) -> dict[str, int]:
        self.instance = None
        return dict(sorted(self.instance_counters.items()))

    # -- hooks ----------------------------------------------------------------

    def install(self) -> None:
        """Replace every hooked name that exists; record the ones that do not."""
        if not self._patches:
            factories = _factories(self)
            for hook, (mod_name, attr) in HOOKS.items():
                try:
                    module = importlib.import_module(f"cohomcsp.{mod_name}")
                except ImportError as e:
                    self.missing[hook] = f"cannot import cohomcsp.{mod_name}: {e}"
                    continue
                original = getattr(module, attr, None)
                if original is None or not callable(original):
                    self.missing[hook] = (f"cohomcsp.{mod_name} has no callable "
                                          f"{attr!r}")
                    continue
                self._patches.append((module, attr, original,
                                      factories[hook](original)))
        for module, attr, _, replacement in self._patches:
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> tuple[dict[str, dict], dict[str, str]]:
        """Per-layer metrics, and the reason for each one reported as None."""
        out: dict[str, dict] = {}
        reasons: dict[str, str] = {}
        for name, (unit, needs, (how, *keys)) in METRICS.items():
            gone = [h for h in needs if h in self.missing]
            if gone:
                out[name] = {"value": None, "unit": unit}
                reasons[name] = "; ".join(self.missing[h] for h in gone)
                continue
            if how == "time":
                value = self.time.get(keys[0], 0.0)
            elif how == "self":
                value = self.self_time.get(keys[0], 0.0)
            elif how == "peak":
                value = self.peaks.get(keys[0], 0)
            elif how == "ratio":
                den = self.count.get(keys[1], 0)
                value = self.count.get(keys[0], 0) / den if den else 0.0
            else:
                value = self.count.get(keys[0], 0)
            out[name] = {"value": value, "unit": unit}
        return out, reasons

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                f.write(json.dumps(span, sort_keys=True))
                f.write("\n")


def _span(tracer: Tracer, name: str, fn, after=None):
    """Wrap fn in a span; `after(args, result)` records counters off the clock."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tracer.exit()
        if after is not None:
            after(args, result)
            tracer.exclude(end)
        return result

    return wrapper


def _factories(tr: Tracer) -> dict:
    def run_decision(fn):
        return _span(tr, "cohomology.run_decision", fn,
                     lambda args, r: tr.bump("cohomology.run_decision.calls"))

    def enumerate_sections(fn):
        def after(args, result):
            tr.bump("presheaf.enumerate.calls")
            tr.bump("presheaf.enumerate.sections", result.total())
        return _span(tr, "presheaf.enumerate", fn, after)

    def fixpoint(fn):
        def after(args, result):
            tr.bump("presheaf.fixpoint.calls")
            tr.bump("presheaf.fixpoint.removed", args[0].total() - result.total())
        return _span(tr, "presheaf.fixpoint", fn, after)

    def cohom_fixpoint(fn):
        return _span(tr, "cohomology.fixpoint", fn)

    def sweep(fn):
        def after(args, result):
            tr.bump("cohomology.sweep.calls")
            if result is None:
                tr.bump("cohomology.sweep.empty_pin_fails")
        return _span(tr, "cohomology.sweep", fn, after)

    def invert(fn):
        return _span(tr, "cohomology.invert", fn)

    def check(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = fn(*args, **kwargs)
            tr.bump("presheaf.check.calls")
            if not ok:
                tr.bump("presheaf.check.fails")
            return ok
        return wrapper

    def echelon(cls):
        class TracedEchelon(cls):
            def __init__(self, n_cols, rows, *args, **kwargs):
                tr.enter("intlinalg.echelon")
                try:
                    super().__init__(n_cols, rows, *args, **kwargs)
                finally:
                    end = tr.exit()
                tr.bump("intlinalg.echelon.calls")
                tr.peak("cohomology.system.rows", len(rows))
                tr.peak("cohomology.system.cols", n_cols)
                tr.peak("cohomology.system.nnz", sum(len(r) for r in rows))
                tr.exclude(end)

            def kernel_basis(self):
                tr.enter("intlinalg.echelon")
                try:
                    basis = super().kernel_basis()
                finally:
                    end = tr.exit()
                tr.peak("intlinalg.kernel.dim", len(basis))
                tr.peak("intlinalg.kernel.nnz", sum(len(v) for v in basis))
                tr.peak("intlinalg.kernel.coeff_bits_max",
                        max((abs(x).bit_length() for v in basis
                             for x in v.values()), default=0))
                tr.exclude(end)
                return basis

        return TracedEchelon

    def lattice(cls):
        class TracedLattice(cls):
            def add(self, vec):
                t = perf_counter()
                try:
                    return super().add(vec)
                finally:
                    tr.leaf("intlinalg.lattice", perf_counter() - t)
                    tr.bump("intlinalg.lattice.adds")

            def contains(self, vec):
                t = perf_counter()
                ok = super().contains(vec)
                tr.leaf("intlinalg.lattice", perf_counter() - t)
                tr.bump("intlinalg.lattice.tests")
                if not ok:
                    tr.bump("intlinalg.lattice.rejects")
                return ok

        return TracedLattice

    def oracle(fn):
        def after(args, result):
            tr.bump(f"structures.oracle.{result.status}")
            tr.bump("structures.oracle.nodes",
                    sum(b.start - b.left for b in tr.budgets))
            tr.budgets.clear()
        return _span(tr, "structures.oracle", fn, after)

    def budget(cls):
        class CountingBudget(cls):
            def __init__(self, n):
                super().__init__(n)
                self.start = n
                tr.budgets.append(self)

        return CountingBudget

    return {
        "cli.run_decision": run_decision,
        "cohomology.enumerate_sections": enumerate_sections,
        "cohomology.classical_fixpoint": fixpoint,
        "cohomology.wl_fixpoint": fixpoint,
        "cohomology._run_cohom_fixpoint": cohom_fixpoint,
        "cohomology._zext_sweep": sweep,
        "cohomology.invert_section_set": invert,
        "cohomology.SparseEchelon": echelon,
        "cohomology.IntLattice": lattice,
        "presheaf.forth_holds": check,
        "presheaf.bij_forth_holds": check,
        "structures.brute_force_iso": oracle,
        "structures._Budget": budget,
    }
