import json
import re
import time

import jsonschema
import pytest

from cohomcsp import Signature, Structure, save_structure
from cohomcsp.cli import REPORT_SCHEMA, build_parser, main
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


def test_cached_parser_matches_fresh_parser(tmp_path, capsys):
    """main parses with one parser per process; commands run back to back
    through it give the exit codes and output of a freshly built parser."""
    assert build_parser() is build_parser()
    pa, pb = write_pair(tmp_path, cycle_structure(5), complete_structure(2))
    strip = lambda s: re.sub(r'"ms": [0-9.]+', '"ms": 0', s)
    for argv in (["decide-csp", pa, pb, "--k", "2", "--compare"],
                 ["decide-csp", pa, pb, "--k", "2"],
                 ["gen", "graph", "--regular", "3", "--n", "6", "--seed", "9"]):
        code, out, err = run(argv, capsys)
        args = build_parser.__wrapped__().parse_args(argv)
        fresh_code = args.func(args)
        fresh = capsys.readouterr()
        assert (code, strip(out), err) == (fresh_code, strip(fresh.out),
                                           fresh.err)
        assert out


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
    # without --k, a base that is not 3-regular is warned about, not refused
    code, _, err = run(["gen", "tseitin", "--graph", str(g),
                        "--out-prefix", str(tmp_path / "ts")], capsys)
    assert (code, err) == (0, "warning: base graph is not 3-regular; "
                              "equation width is 2\n")


def test_gen_refuses_negative_and_empty_graphs(tmp_path, capsys):
    """A negative vertex count is refused when written and when loaded, so
    are a negative degree, an edge probability outside [0, 1], graph flags
    that exclude each other, an empty graph name, a cycle name below 3
    vertices or with a non-ASCII digit, a negative equation or
    variable count, no variables for some equations and a modulus below 2
    for affine and CFI pairs (without a traceback), Tseitin on a graph
    without vertices names the empty graph, and a count
    that is not an ASCII integer is named; none of them writes a file."""
    g = tmp_path / "g.txt"
    code, _, err = run(["gen", "graph", "--n", "-2", "--out", str(g)], capsys)
    assert code == 2 and "negative vertex count -2" in err
    assert not g.exists()
    # a bad degree, probability, count or modulus writes nothing
    for flags, message in ((["--n", "5", "--regular", "-2"], "d=-2"),
                           (["--n", "4", "--p", "7"], "p=7"),
                           (["--n", "4", "--p", "-3"], "p=-3"),
                           (["--n", "3", "--regular", "2", "--p", "9"],
                            "--regular cannot be combined with --p"),
                           (["--regular", "2", "--p", "0.5"],
                            "--regular cannot be combined with --p"),
                           (["--name", "k3", "--n", "9", "--regular", "4"],
                            "--name cannot be combined with --n, --regular"),
                           (["--name", "k3", "--p", "0.5"],
                            "--name cannot be combined with --p"),
                           (["--name", ""], "unknown graph name ''"),
                           (["--name", "c2"], "cycle graph c2 needs at least 3"),
                           (["--name", "c0"], "cycle graph c0 needs at least 3"),
                           (["--name", "c\u0663"], "unknown graph name 'c\u0663'")):
        code, _, err = run(["gen", "graph", "--out", str(g)] + flags, capsys)
        assert code == 2 and message in err and not g.exists(), flags
    for flags, message in ((["--q", "2", "--vars", "3", "--eqs", "-1"], "neqs=-1"),
                           (["--q", "1", "--vars", "3", "--eqs", "2"], "q=1"),
                           (["--q", "2", "--vars", "-1", "--eqs", "2"], "nvars=-1"),
                           (["--q", "2", "--vars", "0", "--eqs", "2"], "nvars=0")):
        code, _, err = run(["gen", "affine", "--seed", "1",
                            "--out-prefix", str(tmp_path / "af")] + flags, capsys)
        assert code == 2 and message in err, flags
    g.write_text("3\n0 1\n1 2\n0 2\n")
    for q in ("0", "1"):
        code, _, err = run(["gen", "cfi", "--graph", str(g), "--q", q,
                            "--out-prefix", str(tmp_path / "cfi")], capsys)
        assert code == 2 and "error: modulus must be at least 2" in err, q
        assert "Traceback" not in err, q
    for text, message in (("-3\n", "negative vertex count -3"),
                          ("0\n", "base graph has no vertices"),
                          ("1_0\n0 1\n", "'1_0'")):
        g.write_text(text)
        code, _, err = run(["gen", "tseitin", "--graph", str(g),
                            "--out-prefix", str(tmp_path / "ts")], capsys)
        assert code == 2 and message in err, text
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]


def empty_symbol_pair(tmp_path, arity):
    """Two 3-element structures with one empty symbol of the given arity."""
    sig = Signature((("R", arity),))
    return write_pair(tmp_path, Structure.make(sig, 3, {}),
                      Structure.make(sig, 3, {}))


def test_decide_iso_cost_ignores_declared_arity(tmp_path, capsys):
    """Partial isomorphisms are checked by counting B-tuples, not by listing
    position tuples, so an empty arity-64 symbol costs nothing."""
    pa, pb = empty_symbol_pair(tmp_path, 64)
    t0 = time.perf_counter()
    code, out, _ = run(["decide-iso", pa, pb, "--k", "2"], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "accept"
    assert time.perf_counter() - t0 < 1.0


def test_bench_oracle_row_ignores_declared_arity(tmp_path, capsys):
    """The iso oracle's degree profiles skip symbols without tuples, so an
    empty symbol of arity 10**9 allocates nothing per position."""
    pa, pb = empty_symbol_pair(tmp_path, 10**9)
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": [{"a": pa, "b": pb, "problem": "iso",
                                       "k": 2, "oracle": True}]}))
    t0 = time.perf_counter()
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json"],
                       capsys)
    row = json.loads(out)["rows"][0]
    assert code == 0 and row["error"] == ""
    assert row["oracle"] == "found" and row["agree"] == "true"
    assert time.perf_counter() - t0 < 1.0


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


def test_bench_four_row_manifest(tmp_path, capsys):
    """Every row of a four-row manifest runs, one after the other."""
    pa, pb = write_pair(tmp_path, cycle_structure(4), complete_structure(2))
    rows = [{"a": pa, "b": pb, "k": 2, "method": m, "problem": "csp"}
            for m in ("classical", "cohomological")] * 2
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": rows}))
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4
    assert all(r["verdict"] == "accept" for r in doc["rows"])


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


def test_bench_unknown_method_or_problem_is_a_row_error(tmp_path, capsys):
    """A row naming no decider gets the decider's error and the others run."""
    pa, pb = write_pair(tmp_path, cycle_structure(3), complete_structure(2))
    good = {"a": pa, "b": pb, "k": 2, "method": "classical", "problem": "csp"}
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": [{**good, "method": "magic"},
                                      {**good, "problem": "graph"}, good]}))
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json"], capsys)
    assert code == 0
    got = json.loads(out)["rows"]
    assert [r["error"] for r in got] == [
        "unknown method/problem combination 'magic'/'csp'",
        "unknown method/problem combination 'classical'/'graph'", ""]
    assert [r["verdict"] for r in got] == ["", "", "accept"]


def test_bench_oracle_must_be_a_boolean(tmp_path, capsys):
    """oracle must be a JSON boolean: any other value is a row error and the
    row runs nothing; a missing oracle is false."""
    pa, pb = write_pair(tmp_path, cycle_structure(3), complete_structure(2))
    good = {"a": pa, "b": pb, "k": 2, "method": "classical", "problem": "csp"}
    bad = [{**good, "oracle": v} for v in ("no", "true", 1, 0, None)]
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": bad + [good, {**good, "oracle": False}]}))
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json"], capsys)
    assert code == 0
    got = json.loads(out)["rows"]
    for r in got[:len(bad)]:
        assert r["error"].startswith("oracle must be true or false"), r
        assert r["verdict"] == "" and r["oracle"] == "", r
    for r in got[len(bad):]:
        assert r["verdict"] == "accept" and r["oracle"] == "" and r["error"] == ""


def test_bench_row_missing_path_key(tmp_path, capsys):
    """A row without a or b names the missing key in its error."""
    pa, pb = write_pair(tmp_path, cycle_structure(3), complete_structure(2))
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"rows": [{"a": pa, "k": 2}, {"b": pb, "k": 2}]}))
    code, out, _ = run(["bench", "--manifest", str(m), "--format", "json"], capsys)
    assert code == 0
    got = json.loads(out)["rows"]
    assert [r["error"] for r in got] == ["missing key 'b'", "missing key 'a'"]
    assert [r["verdict"] for r in got] == ["", ""]


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


MANIFEST_ERROR = 'error: the manifest must be {"rows": [...]}'
NO_FILE = "error: [Errno 2] No such file or directory: '<missing>'"
K_ERROR = "error: k must be >= 1"


@pytest.mark.parametrize("argv, expected", [
    (["decide-csp", "<A>", "<missing>", "--k", "2"], NO_FILE),
    (["decide-csp", "<bad>", "<A>", "--k", "2"], "error: invalid JSON: "
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["decide-csp", "<A>", "<other>", "--k", "2"],
     "error: signature mismatch between <A> and <other>"),
    (["decide-csp", "<negsize>", "<A>", "--k", "2"], "error: negative size -1"),
    (["bench", "--manifest", "<missing>"], NO_FILE),
    (["bench", "--manifest", "<bad>"], "error: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    (["bench", "--manifest", "<rows3>"], MANIFEST_ERROR),
    (["bench", "--manifest", "<list>"], MANIFEST_ERROR),
    (["decide-csp", "<A>", "<A>", "--k", "0"], K_ERROR),
    (["decide-csp", "<A>", "<A>", "--k", "-1"], K_ERROR),
    (["decide-iso", "<A>", "<A>", "--k", "0"], K_ERROR),
    (["decide-iso", "<A>", "<A>", "--k", "-1"], K_ERROR),
], ids=["decide-missing", "decide-bad-json", "decide-signature",
        "decide-negative-size", "bench-missing",
        "bench-bad-json", "bench-rows-3", "bench-bare-list", "csp-k-0",
        "csp-k-negative", "iso-k-0", "iso-k-negative"])
def test_cli_error_is_one_line_and_exit_2(tmp_path, capsys, argv, expected):
    """Load, manifest and k errors reach main's handler: exit 2, nothing on
    stdout and exactly one `error: ...` line on stderr, no traceback."""
    paths = {n: str(tmp_path / f"{n}.json")
             for n in ("A", "other", "bad", "rows3", "list", "negsize", "missing")}
    save_structure(cycle_structure(3), paths["A"])
    save_structure(Structure.make(Signature((("R", 1),)), 2, {"R": [(0,)]}),
                   paths["other"])
    for n, text in (("bad", "{not json"), ("rows3", '{"rows": 3}'),
                    ("list", "[]"), ("negsize", '{"signature": [], "size": -1, '
                                                '"relations": {}}')):
        (tmp_path / f"{n}.json").write_text(text)

    def fill(text):
        for n, path in paths.items():
            text = text.replace(f"<{n}>", path)
        return text
    code, out, err = run([fill(a) for a in argv], capsys)
    assert (code, out, err) == (2, "", fill(expected) + "\n")


@pytest.mark.parametrize("family", ["cfi", "tseitin"])
@pytest.mark.parametrize("bad_line", ["twist 5 7 3", "0 2 7", "0 0", "0 9"])
def test_gen_refuses_malformed_graph_line(tmp_path, capsys, family, bad_line):
    g = tmp_path / "g.txt"
    g.write_text(f"4\n0 1\n1 2\n2 3\n3 0\n{bad_line}\n")
    extra = ["--q", "2"] if family == "cfi" else []
    code, _, err = run(["gen", family, "--graph", str(g), *extra,
                        "--out-prefix", str(tmp_path / "out")], capsys)
    assert code == 2 and "error" in err
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]


@pytest.mark.parametrize("family", ["cfi", "tseitin"])
def test_gen_refuses_empty_graph_file(tmp_path, capsys, family):
    g = tmp_path / "g.txt"
    g.write_text("")
    extra = ["--q", "2"] if family == "cfi" else []
    code, _, err = run(["gen", family, "--graph", str(g), *extra,
                        "--out-prefix", str(tmp_path / "out")], capsys)
    assert (code, err) == (2, "error: empty graph file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]
