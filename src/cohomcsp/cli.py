"""Command-line front end: decide CSP/iso instances, generate experiment
families, and run benchmark manifests.

Exit codes for decide commands: 0 = accept, 1 = reject, 2 = error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .cohomology import run_decision
from .generators import (cfi_structure, affine_to_instance,
                         graph_from_text, graph_to_text, named_graph,
                         random_instances, tseitin_system, zero_twist)
from .structures import (StructureFormatError, _json_int, brute_force_hom,
                         brute_force_iso, load_structure, save_structure)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["verdict", "k", "method", "iterations", "removed",
                 "max_system", "ms"],
    "properties": {
        "verdict": {"enum": ["accept", "reject"]},
        "k": {"type": "integer", "minimum": 1},
        "method": {"enum": ["classical-consistency", "cohom-consistency",
                            "classical-wl", "cohom-wl"]},
        "iterations": {"type": "integer", "minimum": 0},
        "removed": {"type": "array", "items": {"type": "object"}},
        "max_system": {
            "type": "object",
            "required": ["rows", "cols"],
            "properties": {"rows": {"type": "integer"},
                           "cols": {"type": "integer"}},
        },
        "ms": {"type": "number"},
        "sections_remaining": {"type": "integer"},
        "sections_per_size": {"type": "object"},
        "reason": {"type": "string"},
    },
}

BENCH_COLUMNS = ["a", "b", "problem", "method", "k", "verdict", "iterations",
                 "max_rows", "max_cols", "ms", "oracle", "agree", "error"]


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")


def _load_pair(path_a: str, path_b: str):
    a = load_structure(path_a)
    b = load_structure(path_b)
    if a.signature != b.signature:
        raise StructureFormatError(
            f"signature mismatch between {path_a} and {path_b}")
    return a, b


def _compare_doc(a, b, k: int, problem: str) -> dict:
    classical, cohom = run_decision(a, b, k, "cohomological", problem)
    return {
        "classical": classical.to_dict(),
        "cohomological": cohom.to_dict(),
        "refinement_ok": (not cohom.accepted) or classical.accepted,
    }


def _cmd_decide(args, problem: str) -> int:
    try:
        a, b = _load_pair(args.a, args.b)
    except (OSError, StructureFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.compare:
        doc = _compare_doc(a, b, args.k, problem)
        _write_output(json.dumps(doc, sort_keys=True), args.out)
        verdict = doc["cohomological"]["verdict"] if args.method == "cohomological" \
            else doc["classical"]["verdict"]
        return 0 if verdict == "accept" else 1
    report = run_decision(a, b, args.k, args.method, problem)[-1]
    _write_output(report.to_json(), args.out)
    return 0 if report.accepted else 1


def _load_graph_file(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return graph_from_text(f.read())


def _cmd_gen(args) -> int:
    if args.family == "graph":
        if args.graph_name:
            g = named_graph(args.graph_name)
        elif args.regular is not None:
            g = next(random_instances(args.seed, "regular", count=1,
                                      n=args.n, d=args.regular))
        else:
            g = next(random_instances(args.seed, "gnp", count=1,
                                      n=args.n, p=args.p))
        _write_output(graph_to_text(g), args.out)
        return 0
    if args.family == "cfi":
        base = _load_graph_file(args.graph)
        spec0 = zero_twist(base, args.q, 0)
        spec1 = zero_twist(base, args.q, args.twist_total)
        save_structure(cfi_structure(spec0), f"{args.out_prefix}_zero.json")
        save_structure(cfi_structure(spec1),
                       f"{args.out_prefix}_total{args.twist_total}.json")
        return 0
    if args.family == "tseitin":
        base = _load_graph_file(args.graph)
        degrees = {base.degree(v) for v in range(base.n)}
        width = max(degrees)
        if args.k is not None and width > args.k:
            print(f"warning: equation width {width} exceeds k={args.k}",
                  file=sys.stderr)
        elif degrees != {3}:
            print(f"warning: base graph is not 3-regular; equation width is {width}",
                  file=sys.stderr)
        charge = {0: 1} if args.odd else {}
        sys_ = tseitin_system(base, charge)
        a, b = affine_to_instance(sys_)
        save_structure(a, f"{args.out_prefix}_A.json")
        save_structure(b, f"{args.out_prefix}_B.json")
        return 0
    if args.family == "affine":
        inst = next(random_instances(args.seed, "affine", count=1, q=args.q,
                                     nvars=args.vars, neqs=args.eqs,
                                     planted=args.planted or None))
        a, b = affine_to_instance(inst)
        save_structure(a, f"{args.out_prefix}_A.json")
        save_structure(b, f"{args.out_prefix}_B.json")
        return 0
    print(f"error: unknown family {args.family!r}", file=sys.stderr)
    return 2


def _bench_row(row: object, budget: int) -> dict:
    out = {c: "" for c in BENCH_COLUMNS}
    if not isinstance(row, dict):
        out["error"] = f"row must be an object, got {row!r}"
        return out
    out.update({"a": row.get("a", ""), "b": row.get("b", ""),
                "problem": row.get("problem", "csp"),
                "method": row.get("method", "cohomological"),
                "k": row.get("k", 3)})
    try:
        for key in ("a", "b"):
            if not isinstance(row[key], str):
                raise StructureFormatError(
                    f"{key} must be a path string, got {row[key]!r}")
        k = _json_int(row.get("k", 3), "k")
        budget = _json_int(row.get("budget", budget), "budget")
        a, b = _load_pair(row["a"], row["b"])
        report = run_decision(a, b, k, row.get("method", "cohomological"),
                              row.get("problem", "csp"))[-1]
        out.update({"verdict": report.verdict,
                    "iterations": report.iterations,
                    "max_rows": report.max_system["rows"],
                    "max_cols": report.max_system["cols"],
                    "ms": report.ms})
        if row.get("oracle"):
            search = (brute_force_hom if row.get("problem", "csp") == "csp"
                      else brute_force_iso)(a, b, budget)
            out["oracle"] = search.status
            if search.status in ("found", "none"):
                out["agree"] = str((search.status == "found") ==
                                   (report.verdict == "accept")).lower()
    except Exception as e:  # keep the run going; errors are per row
        out["error"] = str(e)
    return out


def _cmd_bench(args) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    rows = manifest.get("rows") if isinstance(manifest, dict) else None
    if not isinstance(rows, list):
        print('error: the manifest must be {"rows": [...]}', file=sys.stderr)
        return 2
    run_row = functools.partial(_bench_row, budget=args.budget)
    if args.jobs > 1 and rows:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(rows))) as pool:
            results = list(pool.map(run_row, rows))
    else:
        results = [run_row(r) for r in rows]
    if args.format == "json":
        _write_output(json.dumps({"rows": results}, sort_keys=True), args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(results)
        _write_output(buf.getvalue(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cohomcsp",
        description="classical and cohomological k-consistency / k-WL deciders, "
                    "instance generators, and a benchmark harness")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    for name, problem in (("decide-csp", "csp"), ("decide-iso", "iso")):
        d = sub.add_parser(name, help=f"decide one {problem} instance")
        d.add_argument("a", help="path to structure A (JSON)")
        d.add_argument("b", help="path to structure B (JSON)")
        d.add_argument("--k", type=int, required=True)
        d.add_argument("--method", choices=["classical", "cohomological"],
                       default="cohomological")
        d.add_argument("--compare", action="store_true",
                       help="run both methods and report both")
        d.add_argument("--out", default=None, help="report path (default stdout)")
        d.set_defaults(func=lambda a, pr=problem: _cmd_decide(a, pr))

    g = sub.add_parser("gen", help="generate instances")
    gsub = g.add_subparsers(dest="family", required=True)

    gg = gsub.add_parser("graph", help="write a graph file")
    gg.add_argument("--n", type=int, default=6)
    gg.add_argument("--p", type=float, default=0.5)
    gg.add_argument("--regular", type=int, default=None, metavar="D")
    gg.add_argument("--name", dest="graph_name", default=None,
                    help="named base graph (k3, k4, k33, prism, cN, p3)")
    gg.add_argument("--seed", type=int, default=0)
    gg.add_argument("--out", default=None)
    gg.set_defaults(func=_cmd_gen)

    gc = gsub.add_parser("cfi", help="CFI pair with zero and nonzero twist total")
    gc.add_argument("--q", type=int, required=True)
    gc.add_argument("--graph", required=True, help="graph file")
    gc.add_argument("--twist-total", type=int, default=1)
    gc.add_argument("--out-prefix", required=True)
    gc.set_defaults(func=_cmd_gen)

    gt = gsub.add_parser("tseitin", help="Tseitin instance pair over Z_2")
    gt.add_argument("--graph", required=True)
    gt.add_argument("--odd", action="store_true",
                    help="odd total charge (unsatisfiable)")
    gt.add_argument("--k", type=int, default=None,
                    help="intended k, for the equation-width warning")
    gt.add_argument("--out-prefix", required=True)
    gt.set_defaults(func=_cmd_gen)

    ga = gsub.add_parser("affine", help="random affine system as a structure pair")
    ga.add_argument("--q", type=int, required=True)
    ga.add_argument("--vars", type=int, required=True)
    ga.add_argument("--eqs", type=int, required=True)
    ga.add_argument("--seed", type=int, required=True)
    ga.add_argument("--planted", action="store_true",
                    help="plant a solution (guarantees satisfiability)")
    ga.add_argument("--out-prefix", required=True)
    ga.set_defaults(func=_cmd_gen)

    b = sub.add_parser("bench", help="run a manifest of instance pairs")
    b.add_argument("--manifest", required=True,
                   help='JSON: {"rows": [{"a":..., "b":..., "k":..., '
                        '"method":..., "problem":..., "oracle":true}, ...]}')
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--budget", type=int, default=10**6,
                   help="node budget for oracle brute-force searches")
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, StructureFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # no verdict: exit 2, since 1 would mean reject
        traceback.print_exc()
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
