"""Benchmark of the four deciders and the brute-force isomorphism oracle.

Usage, from the repository root:

    python3 perfbench/run.py --workload affine-pool --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one fresh process each

A workload run imports ``cohomcsp`` from ``src/`` of the tree this file sits
in, generates its seeded instances (set-up, repeated and timed), then decides
them back to back through the public entry points -- ``cohomcsp.cli.main``
with ``decide-* --compare`` for the deciders, ``brute_force_iso`` for the
oracle -- as one closed-loop client.  The timed phase is whole passes over
the instance list: another pass starts only while it would end within
``--seconds`` at the pace of the slowest pass so far, and there is at least
one.  Passes take 5 to 16 seconds on a 2-core box, so two to five fill a
30-second run (one, when a pass of tseitin-parity or oracle-iso runs past
15 seconds) and its medians span more of the machine's swings in speed
than one pass would.
Every verdict is checked against an answer known without the deciders.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` one pass decides every instance untraced and then traced, back
to back, and the last line carries the per-layer metrics and the tracing
overhead (traced minus untraced wall time).
Reports, counters, digests and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("affine-pool", "tseitin-parity", "cfi-iso", "oracle-iso")
SETUP_REPS = 5
END_TO_END = (("instance_s.p50", "s"), ("instance_s.p90", "s"),
              ("instances_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


class ProgramMissing(RuntimeError):
    pass


def _import_program():
    """Import cohomcsp from this tree's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cohomcsp" / "__init__.py").is_file():
        raise ProgramMissing(f"no cohomcsp package under {src}")
    sys.path.insert(0, str(src))
    import cohomcsp
    if Path(cohomcsp.__file__).resolve().parent != (src / "cohomcsp").resolve():
        raise ProgramMissing(f"cohomcsp was imported from {cohomcsp.__file__}")
    import cohomcsp.cli
    import cohomcsp.structures
    import workloads
    return cohomcsp.cli, cohomcsp.structures, workloads


# --- known-answer checks ------------------------------------------------------

def _is_isomorphism(mapping, a, b) -> bool:
    if sorted(mapping) != list(range(b.size)) or a.size != b.size:
        return False
    return all({tuple(mapping[e] for e in t) for t in a.relations[name]}
               == set(b.relations[name]) for name in a.signature.names)


def _check_compare(inst, rc: int, doc: dict) -> tuple[list[str], dict]:
    """Problems with one --compare report, and its deterministic counters."""
    cohom = doc["cohomological"]["verdict"] == "accept"
    classical = doc["classical"]["verdict"] == "accept"
    problems = []
    if rc != (0 if cohom else 1):
        problems.append(f"exit code {rc} for a cohomological "
                        f"{doc['cohomological']['verdict']}")
    if cohom != inst.expected:
        problems.append(f"cohomological verdict {cohom} but known answer "
                        f"{inst.expected}")
    if inst.expected and not classical:
        problems.append("classical reject on a satisfiable/isomorphic instance")
    if cohom and not classical:
        problems.append("refinement violation: cohomological accept, "
                        "classical reject")
    if doc["refinement_ok"] != (classical or not cohom):
        problems.append("refinement_ok field disagrees with the verdicts")
    counters = {}
    for method in ("classical", "cohomological"):
        rep = doc[method]
        counters[method] = {"iterations": rep["iterations"],
                            "max_system": rep["max_system"],
                            "sections_remaining": rep["sections_remaining"],
                            "sections_per_size": rep["sections_per_size"]}
    return problems, counters


def _check_oracle(inst, result) -> tuple[list[str], dict]:
    problems = []
    if result.status == "budget_exceeded":
        problems.append("oracle budget exceeded")
    elif (result.status == "found") != inst.expected:
        problems.append(f"oracle says {result.status} but known answer "
                        f"{inst.expected}")
    elif result.status == "found" and not _is_isomorphism(result.mapping,
                                                          *inst.pair):
        problems.append("oracle returned a map that is not an isomorphism")
    return problems, {"status": result.status}


def _strip_ms(doc: dict) -> dict:
    if isinstance(doc, dict):
        return {k: _strip_ms(v) for k, v in doc.items() if k != "ms"}
    return doc


# --- one workload in this process ------------------------------------------------

class Pass:
    """Timings, verdict checks and report digests of one pass."""

    def __init__(self):
        self.seconds: list[float] = []
        self.wall = 0.0
        self.problems: dict[str, list[str]] = {}
        self.digests: list[str] = []
        self.counters: list[dict] = []

    def decide(self, inst, cli, structures, budget: int, report: str,
               tracer=None) -> None:
        """Decide one instance through its entry point and check the answer."""
        if tracer is not None:
            tracer.begin_instance(inst.iid)
        digest, counters, problems = "", {}, []
        start = t = perf_counter()
        try:
            if inst.argv is not None:
                if os.path.exists(report):
                    os.remove(report)
                if tracer is not None:
                    tracer.enter("cli.compare")
                t = perf_counter()
                try:
                    rc = cli.main(inst.argv + ["--out", report])
                finally:
                    dt = perf_counter() - t
                    if tracer is not None:
                        tracer.exit()
                if rc not in (0, 1):
                    problems = [f"exit code {rc}"]
                else:
                    with open(report, encoding="utf-8") as f:
                        doc = json.load(f)
                    problems, counters = _check_compare(inst, rc, doc)
                    digest = json.dumps(_strip_ms(doc), sort_keys=True)
            else:
                t = perf_counter()
                result = structures.brute_force_iso(*inst.pair, budget)
                dt = perf_counter() - t
                problems, counters = _check_oracle(inst, result)
                digest = json.dumps([result.status, result.mapping])
        except Exception as e:  # one broken instance must not end the run
            dt = perf_counter() - t
            problems = [f"{type(e).__name__}: {e}"]
        if tracer is not None:
            counters["layers"] = tracer.end_instance()
        self.wall += perf_counter() - start
        self.seconds.append(dt)
        self.digests.append(hashlib.sha256(digest.encode()).hexdigest())
        self.counters.append(counters)
        if problems:
            self.problems[inst.iid] = problems


def _workload_digest(instances, p: Pass) -> str:
    h = hashlib.sha256()
    for inst, d in zip(instances, p.digests):
        h.update(f"{inst.iid} {d}\n".encode())
    return h.hexdigest()


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _setup(name: str, seed: int, workdir: Path):
    """Import the program, generate the instances and their known answers,
    and write the instance files; returns the seconds this took as well."""
    t = perf_counter()
    cli, structures, workloads = _import_program()
    workdir.mkdir(parents=True)
    instances = workloads.GENERATORS[name](random.Random(f"{name}:{seed}"),
                                           str(workdir))
    return cli, structures, workloads, instances, perf_counter() - t


def _setup_only(name: str, seed: int) -> int:
    """Time one set-up in this fresh process and print the seconds."""
    work = OUT / f"setup-{name}-{os.getpid()}"
    try:
        print(_setup(name, seed, work)[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    try:
        try:
            cli, structures, workloads, instances, setup_first = _setup(
                name, seed, work)
        except (ProgramMissing, ImportError) as e:
            print(f"error: cannot load the program: {e}", file=sys.stderr)
            return 2
        # the other set-ups run in fresh processes too, so imports count each time
        setup_times = [setup_first] + [
            float(subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--setup-only"],
                stdout=subprocess.PIPE, text=True, check=True).stdout.split()[-1])
            for _ in range(SETUP_REPS - 1)]
        setup_s = statistics.median(setup_times)
        args = (cli, structures, workloads.ORACLE_BUDGET, str(work / "report.json"))
        if trace:
            # untraced and traced back to back on each instance, so warm-up
            # and drift of the machine fall on both sides of the overhead
            import tracing
            tracer = tracing.Tracer()
            passes = [Pass(), Pass()]
            for inst in instances:
                passes[0].decide(inst, *args)
                tracer.install()
                try:
                    passes[1].decide(inst, *args, tracer)
                finally:
                    tracer.uninstall()
        else:
            passes = []
            while not passes or (sum(p.wall for p in passes)
                                 + max(p.wall for p in passes) <= seconds):
                passes.append(Pass())
                for inst in instances:
                    passes[-1].decide(inst, *args)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = passes[0]
    failed_ids: dict[str, list[str]] = {}
    for k, p in enumerate(passes):
        for iid, probs in p.problems.items():
            failed_ids.setdefault(f"pass{k}:{iid}", []).extend(probs)
        if k:
            for inst, d0, d in zip(instances, first.digests, p.digests):
                if d != d0:
                    failed_ids.setdefault(f"pass{k}:{inst.iid}", []).append(
                        "report differs from the first pass")
    attempted = len(instances) * len(passes)
    failed = len(failed_ids)
    samples = [s for p in passes for s in p.seconds]
    digest = _workload_digest(instances, first)

    doc = {"workload": name, "seed": seed, "trace": int(trace),
           "passes": len(passes), "report_digest": digest,
           "failures": failed_ids,
           "instances": [{"id": inst.iid, "expected": inst.expected,
                          "counters": c}
                         for inst, c in zip(instances, passes[-1].counters)],
           "seconds": {inst.iid: [p.seconds[i] for p in passes]
                       for i, inst in enumerate(instances)}}
    print(f"workload {name} seed {seed}: {len(instances)} instances x "
          f"{len(passes)} passes, report digest {digest[:16]}")
    if trace:
        traced, untraced = passes[1].wall, first.wall
        metrics, reasons = tracer.metrics()
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": (traced - untraced) / untraced,
                                          "unit": "ratio"}
        for metric, why in reasons.items():
            print(f"{metric} null: {why}")
        doc["null_reasons"] = reasons
        tracer.write_spans(OUT / f"trace-{name}-seed{seed}.jsonl")
    else:
        wall = sum(p.wall for p in passes)
        values = {"instance_s.p50": statistics.median(samples),
                  "instance_s.p90": _p90(samples),
                  "instances_per_s": attempted / wall,
                  "peak_rss_mb": peak_rss_mb,
                  "setup_s": setup_s}
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        print(f"samples {len(samples)}, timed phase {wall:.3f} s")
    for metric, m in metrics.items():
        print(f"{metric} {m['value']} {m['unit']}")
    print(f"failed_frac {failed / attempted} ratio ({failed}/{attempted})")
    for iid, probs in failed_ids.items():
        print(f"FAILED {iid}: {'; '.join(probs)}")
    doc["metrics"] = metrics
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# --- every workload, one fresh process each ----------------------------------

def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Run the workloads one after another, each in a process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = m
    if status:
        return status
    with open(OUT / f"results-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="one workload in this process (default: all, one "
                        "process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up of --workload and print the seconds")
    args = p.parse_args(argv)
    if args.setup_only:
        if args.workload is None:
            p.error("--setup-only needs --workload")
        return _setup_only(args.workload, args.seed)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
