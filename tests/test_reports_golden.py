"""Golden decision reports: every report the CLI writes, `ms` stripped, must
stay the same byte for byte across refactors of the deciders.

The cases cover single-method and `--compare` runs for csp and iso, the iso
size mismatch, the failing empty-section pin (Tseitin on K4, odd charge), Zext
removals followed by a further iteration, sweeps that end with no failures and
a classical reject.

Regenerate the golden file (only when a report change is intended) with
`PYTHONPATH=src python tests/test_reports_golden.py`.
"""

import json
from pathlib import Path

from cohomcsp import (affine_to_instance, cfi_structure, named_graph,
                      save_structure, tseitin_system, zero_twist)
from cohomcsp.cli import main
from conftest import complete_structure, cycle_structure, graph_structure

GOLDEN = Path(__file__).with_name("golden_reports.json")


def _digraph(n, edges):
    return graph_structure(n, edges, directed=True)


def _instances():
    tseitin = affine_to_instance(tseitin_system(named_graph("k4"), {0: 1}))
    k3 = named_graph("k3")
    cfi2 = [cfi_structure(zero_twist(k3, 2, t)) for t in (0, 1)]
    cfi3 = cfi_structure(zero_twist(k3, 3, 0))
    return {
        "c5-k2": (cycle_structure(5), complete_structure(2)),
        "c3-k2": (cycle_structure(3), complete_structure(2)),
        "c4-k2": (cycle_structure(4), complete_structure(2)),
        "c4-c4": (cycle_structure(4), cycle_structure(4)),
        "k3-k4": (complete_structure(3), complete_structure(4)),
        "tseitin-k4-odd": tseitin,
        # Zext removals then one more iteration; the second also forth-fails
        "zext-then-stable": (
            _digraph(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (3, 2)]),
            _digraph(4, [(0, 0), (0, 3), (1, 1), (1, 3), (2, 2)])),
        "zext-forth-closure": (
            _digraph(4, [(0, 1), (1, 0), (3, 0), (3, 1), (3, 2)]),
            _digraph(3, [(0, 2), (1, 0), (1, 1), (2, 0), (2, 1)])),
        "cfi2-k3-twins": tuple(cfi2),
        "cfi3-k3-self": (cfi3, cfi3),
    }


# (case name, instance, command, k, extra flags)
CASES = [
    ("c5-k2 csp compare", "c5-k2", "decide-csp", 2, ["--compare"]),
    ("c5-k2 csp classical", "c5-k2", "decide-csp", 2, ["--method", "classical"]),
    ("c5-k2 csp cohomological", "c5-k2", "decide-csp", 2, []),
    ("c3-k2 csp compare (classical reject)", "c3-k2", "decide-csp", 3,
     ["--compare"]),
    ("c3-k2 csp classical", "c3-k2", "decide-csp", 3, ["--method", "classical"]),
    ("c4-k2 csp compare (sweep without failures)", "c4-k2", "decide-csp", 2,
     ["--compare"]),
    ("tseitin-k4-odd csp compare (empty pin fails)", "tseitin-k4-odd",
     "decide-csp", 3, ["--compare"]),
    ("tseitin-k4-odd csp compare, classical exit code", "tseitin-k4-odd",
     "decide-csp", 3, ["--compare", "--method", "classical"]),
    ("zext-then-stable csp compare", "zext-then-stable", "decide-csp", 2,
     ["--compare"]),
    ("zext-forth-closure csp compare", "zext-forth-closure", "decide-csp", 2,
     ["--compare"]),
    ("k3-k4 iso compare (size)", "k3-k4", "decide-iso", 2, ["--compare"]),
    ("k3-k4 iso classical (size)", "k3-k4", "decide-iso", 2,
     ["--method", "classical"]),
    ("k3-k4 iso cohomological (size)", "k3-k4", "decide-iso", 2, []),
    ("c4-c4 iso classical", "c4-c4", "decide-iso", 2, ["--method", "classical"]),
    ("c4-c4 iso compare", "c4-c4", "decide-iso", 2, ["--compare"]),
    ("cfi2-k3-twins iso compare", "cfi2-k3-twins", "decide-iso", 2,
     ["--compare"]),
    ("cfi3-k3-self iso compare (Zext removal, then stable)", "cfi3-k3-self",
     "decide-iso", 2, ["--compare"]),
    ("cfi3-k3-self iso cohomological", "cfi3-k3-self", "decide-iso", 2, []),
]


def _strip_ms(doc):
    if isinstance(doc, dict):
        return {k: _strip_ms(v) for k, v in doc.items() if k != "ms"}
    if isinstance(doc, list):
        return [_strip_ms(v) for v in doc]
    return doc


def compute_reports(workdir: Path) -> dict:
    instances = _instances()
    out = {}
    for name, inst, command, k, flags in CASES:
        a, b = instances[inst]
        pa, pb, report = (workdir / f"{inst}-A.json", workdir / f"{inst}-B.json",
                          workdir / "report.json")
        save_structure(a, str(pa))
        save_structure(b, str(pb))
        code = main([command, str(pa), str(pb), "--k", str(k), "--out",
                     str(report)] + flags)
        doc = json.loads(report.read_text(encoding="utf-8"))
        out[name] = {"exit": code, "report": _strip_ms(doc)}
    return out


def test_reports_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_reports(tmp_path)
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = compute_reports(Path(tmp))
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
