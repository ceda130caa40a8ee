import json
import re

import jsonschema
import pytest

from cohomcsp import save_structure
from cohomcsp.cli import REPORT_SCHEMA, main
from conftest import MALFORMED_DOCS, complete_structure, cycle_structure


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_pair(tmp_path, a, b):
    pa, pb = tmp_path / "A.json", tmp_path / "B.json"
    save_structure(a, str(pa))
    save_structure(b, str(pb))
    return str(pa), str(pb)


def test_decide_csp_exit_codes_and_schema(tmp_path, capsys):
    pa, pb = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    code, out, _ = run(["decide-csp", pa, pb, "--k", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["verdict"] == "accept"

    pa, pb = write_pair(tmp_path, cycle_structure(3), complete_structure(2))
    code, out, _ = run(["decide-csp", pa, pb, "--k", "3"], capsys)
    assert code == 1
    jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_decide_missing_file(tmp_path, capsys):
    pa, _ = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    code, _, err = run(["decide-csp", pa, str(tmp_path / "nope.json"),
                        "--k", "2"], capsys)
    assert code == 2 and "error" in err


def test_decide_signature_mismatch(tmp_path, capsys):
    from cohomcsp import Signature, Structure
    other = Structure.make(Signature((("R", 1),)), 2, {"R": [(0,)]})
    pa, pb = write_pair(tmp_path, cycle_structure(3), other)
    code, _, err = run(["decide-csp", pa, pb, "--k", "2"], capsys)
    assert code == 2 and "signature mismatch" in err


def test_decide_iso_size_mismatch_rejects(tmp_path, capsys):
    pa, pb = write_pair(tmp_path, complete_structure(3), complete_structure(4))
    code, out, _ = run(["decide-iso", pa, pb, "--k", "2"], capsys)
    assert code == 1
    assert json.loads(out)["reason"] == "size"


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
def test_decide_malformed_structure_exits_2(tmp_path, capsys, name):
    _, pb = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    pa = tmp_path / "bad.json"
    pa.write_text(MALFORMED_DOCS[name])
    code, _, err = run(["decide-csp", str(pa), pb, "--k", "2"], capsys)
    assert code == 2 and "error" in err


def test_unexpected_exception_exits_2(tmp_path, capsys, monkeypatch):
    """A run that ends in an exception reached no verdict: exit 2, never 1."""
    def boom(*args):
        raise RuntimeError("boom")
    monkeypatch.setattr("cohomcsp.cli.run_decision", boom)
    pa, pb = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    for extra in ([], ["--compare"]):
        code, _, err = run(["decide-csp", pa, pb, "--k", "2"] + extra, capsys)
        assert code == 2 and "RuntimeError: boom" in err


def test_identical_files_accept(tmp_path, capsys):
    pa, pb = write_pair(tmp_path, cycle_structure(4), cycle_structure(4))
    code, out, _ = run(["decide-iso", pa, pb, "--k", "2",
                        "--method", "classical"], capsys)
    assert code == 0


def test_compare_reports_refinement(tmp_path, capsys):
    pa, pb = write_pair(tmp_path, cycle_structure(5), complete_structure(2))
    code, out, _ = run(["decide-csp", pa, pb, "--k", "2", "--compare"], capsys)
    doc = json.loads(out)
    assert doc["refinement_ok"] is True
    assert doc["classical"]["method"] == "classical-consistency"
    assert doc["cohomological"]["method"] == "cohom-consistency"


def test_reports_byte_identical_modulo_timing(tmp_path, capsys):
    pa, pb = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    _, out1, _ = run(["decide-csp", pa, pb, "--k", "2"], capsys)
    _, out2, _ = run(["decide-csp", pa, pb, "--k", "2"], capsys)
    strip = lambda s: re.sub(r'"ms": [0-9.]+', '"ms": 0', s)
    assert strip(out1) == strip(out2)


def test_gen_graph_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "g1.txt"
    out2 = tmp_path / "g2.txt"
    for out in (out1, out2):
        code, _, _ = run(["gen", "graph", "--regular", "3", "--n", "6",
                          "--seed", "9", "--out", str(out)], capsys)
        assert code == 0
    assert out1.read_text() == out2.read_text()


def test_gen_cfi_and_decide(tmp_path, capsys):
    g = tmp_path / "k3.txt"
    run(["gen", "graph", "--name", "k3", "--out", str(g)], capsys)
    code, _, _ = run(["gen", "cfi", "--q", "2", "--graph", str(g),
                      "--twist-total", "1",
                      "--out-prefix", str(tmp_path / "cfi")], capsys)
    assert code == 0
    a = str(tmp_path / "cfi_zero.json")
    b = str(tmp_path / "cfi_total1.json")
    code, out, _ = run(["decide-iso", a, b, "--k", "3",
                        "--method", "classical"], capsys)
    assert code == 1  # K3 base: classical 3-WL already distinguishes


def test_gen_tseitin_warns_on_width(tmp_path, capsys):
    g = tmp_path / "c4.txt"
    run(["gen", "graph", "--name", "c4", "--out", str(g)], capsys)
    code, _, err = run(["gen", "tseitin", "--graph", str(g), "--odd", "--k", "1",
                        "--out-prefix", str(tmp_path / "ts")], capsys)
    assert code == 0 and "width" in err


def test_gen_affine_deterministic(tmp_path, capsys):
    for prefix in ("x", "y"):
        code, _, _ = run(["gen", "affine", "--q", "4", "--vars", "8", "--eqs",
                          "10", "--seed", "7",
                          "--out-prefix", str(tmp_path / prefix)], capsys)
        assert code == 0
    assert (tmp_path / "x_A.json").read_text() == (tmp_path / "y_A.json").read_text()
    assert (tmp_path / "x_B.json").read_text() == (tmp_path / "y_B.json").read_text()


def test_bench_empty_manifest(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text('{"rows": []}')
    code, out, _ = run(["bench", "--manifest", str(m)], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("a,b,problem")


def test_bench_parallel_jobs(tmp_path, capsys):
    pa, pb = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    rows = [{"a": pa, "b": pb, "k": 2, "method": m, "problem": "csp"}
            for m in ("classical", "cohomological")] * 2
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": rows}))
    code, out, _ = run(["bench", "--manifest", str(m), "--jobs", "2",
                        "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    assert all(r["verdict"] == "accept" for r in doc["rows"])


def test_bench_jobs_capped_by_rows(tmp_path, capsys, monkeypatch):
    """A pool starts every worker it is allowed at the first submit, so
    --jobs asks for no more workers than the manifest has rows.  The pool is
    a recording fake: no process is started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, rows):
            return map(fn, rows)

    monkeypatch.setattr("cohomcsp.cli.ProcessPoolExecutor", RecordingPool)
    pa, pb = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    rows = [{"a": pa, "b": pb, "k": 2, "method": m, "problem": "csp"}
            for m in ("classical", "cohomological")]
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": rows}))
    code, out, _ = run(["bench", "--manifest", str(m), "--jobs", "8",
                        "--format", "json"], capsys)
    assert code == 0 and sizes == [2]
    assert [r["verdict"] for r in json.loads(out)["rows"]] == ["accept"] * 2


def test_bench_oracle_agreement_and_classical_false_positives(tmp_path, capsys):
    """Cohomological rows agree with the oracle on solvable and unsolvable
    Z_4 instances; classical rows accept the unsolvable flow family."""
    from cohomcsp import affine_to_instance, named_graph, save_structure
    from cohomcsp.generators import flow_system
    rows = []
    for i, total in enumerate([0, 1, 2, 3]):
        sys_ = flow_system(named_graph("k4"), 4, {0: total})
        a, b = affine_to_instance(sys_)
        pa, pb = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        save_structure(a, str(pa))
        save_structure(b, str(pb))
        for method in ("classical", "cohomological"):
            rows.append({"a": str(pa), "b": str(pb), "k": 3, "method": method,
                         "problem": "csp", "oracle": True, "total": total})
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": rows}))
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json",
                        "--budget", "2000000"], capsys)
    assert code == 0
    got = json.loads(out)["rows"]
    for spec_row, res in zip(rows, got):
        solvable = spec_row["total"] % 4 == 0
        assert res["oracle"] == ("found" if solvable else "none")
        if spec_row["method"] == "cohomological":
            assert res["agree"] == "true"
        elif not solvable:
            assert res["verdict"] == "accept"  # the classical blind spot
            assert res["agree"] == "false"


def test_bench_rows_and_error_row(tmp_path, capsys):
    pa, pb = write_pair(tmp_path, cycle_structure(3), complete_structure(2))
    rows = [
        {"a": pa, "b": pb, "k": 3, "method": "cohomological", "problem": "csp",
         "oracle": True},
        {"a": "missing.json", "b": pb, "k": 2, "method": "classical",
         "problem": "csp"},
    ]
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": rows}))
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["verdict"] == "reject"
    assert doc["rows"][0]["agree"] == "true"
    assert doc["rows"][1]["error"]


def test_bench_rows_refuse_coercion(tmp_path, capsys):
    """k and budget must be JSON ints and a/b path strings; a bad row gets an
    error and the other rows still run."""
    pa, pb = write_pair(tmp_path, cycle_structure(3), complete_structure(2))
    good = {"a": pa, "b": pb, "k": 2, "method": "classical", "problem": "csp"}
    bad = [{**good, "k": 2.9}, {**good, "k": True},
           {**good, "budget": 1e3, "oracle": True}, {**good, "a": 0}]
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": bad + [good]}))
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json"], capsys)
    assert code == 0
    got = json.loads(out)["rows"]
    assert [r["k"] for r in got] == [2.9, True, 2, 2, 2]
    for r in got[:-1]:
        assert r["error"] and r["verdict"] == "", r
    assert got[-1]["verdict"] == "accept" and got[-1]["error"] == ""


def test_bench_malformed_manifests(tmp_path, capsys):
    """A manifest must be an object with a "rows" list (else exit 2); a row
    that is not an object gets an error and the others run, with --budget as
    the oracle budget unless a row sets its own."""
    pa, pb = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    good = {"a": pa, "b": pb, "k": 2, "method": "classical", "problem": "csp",
            "oracle": True}
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": [1, good, {**good, "budget": 10**6}]}))
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json",
                        "--budget", "1"], capsys)
    assert code == 0
    got = json.loads(out)["rows"]
    assert got[0]["error"] and got[0]["verdict"] == ""
    assert [r["oracle"] for r in got[1:]] == ["budget_exceeded", "found"]
    assert all(r["verdict"] == "accept" and r["error"] == "" for r in got[1:])
    for doc in ({"rows": good}, [good]):
        m.write_text(json.dumps(doc))
        code, out, err = run(["bench", "--manifest", str(m)], capsys)
        assert code == 2 and out == "" and err.startswith("error:"), doc


@pytest.mark.parametrize("family", ["cfi", "tseitin"])
@pytest.mark.parametrize("bad_line", ["twist 5 7 3", "0 2 7"])
def test_gen_refuses_malformed_graph_line(tmp_path, capsys, family, bad_line):
    g = tmp_path / "g.txt"
    g.write_text(f"4\n0 1\n1 2\n2 3\n3 0\n{bad_line}\n")
    extra = ["--q", "2"] if family == "cfi" else []
    code, _, err = run(["gen", family, "--graph", str(g), *extra,
                        "--out-prefix", str(tmp_path / "out")], capsys)
    assert code == 2 and "error" in err
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]
