#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the default smpmine pipeline.

    python3 e2ebench/run.py --workload t10-rules --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --describe

Run from the repository root. Each run:

1. builds the e2ebench CMake package (the library from src/, the smpmine
   CLI, the pipeline program and the independent checker) in .bench_build/;
2. untimed: writes the workload's database as an ASCII file from --seed,
   reads it once to warm the page cache and runs `smpmine --input <file>
   --metrics` once (option-drift guard: its options, per-iteration rows
   and output files must equal the pipeline's);
3. times the pipeline `load_ascii -> mine -> generate_rules_parallel ->
   save_frequent_itemsets / save_rules_csv` in a fresh process per
   repetition until --seconds have passed (with --trace 0 each is
   followed by LOADS_PER_REP load-only processes for setup_s), checks the
   outputs of the first repetition with e2e_checker (exact supports,
   negative border, rules) and every later repetition's digest against
   them;
4. prints every metric by name with its unit and the correctness verdict,
   then one JSON line {"correct", "attempted", "failed", "metrics"}:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1 (a run that alternates untraced and traced repetitions).

Exit codes: 0 on a correct run, 1 when an output is wrong (the JSON line
is still printed), 2 when the benchmark cannot run at all (build failure,
option drift, too few cores); no JSON line then.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".e2ebench_work"
PROCESS_TIMEOUT_S = 150
# Fresh load-only processes after each repetition of a --trace 0 run.
# setup_s is the median of their load_ascii times and the repetitions' own.
# A run has only 4-7 repetitions, and one load varies by up to 2x within a
# run; with the repetitions' own loads alone, setup_s spread up to 3.6
# times as much as wall_s over ten seeds (see README.md).
LOADS_PER_REP = 4
# Iteration-row fields the CLI's manifest and the pipeline must agree on.
# fanout follows leaf_threshold, an option that changes no output. Tree
# size and visit counts are left out: at P > 1 they depend on insertion
# order (a split leaf's over-full child stays a leaf until its next insert).
ITERATION_FIELDS = ("k", "candidates", "frequent", "fanout", "hits")

# Quest shapes; the generator seed is fixed (see e2ebench/README.md) and
# --seed relabels items and shuffles transactions.
T10_I4_D100K = {"transactions": 100000, "avg-len": 10, "pattern-len": 4,
                "patterns": 2000, "items": 1000}
WORKLOADS = {
    "t10-rules": {
        "quest": T10_I4_D100K, "support": 0.0025, "threads": 4,
        "rules": True},
    "deep-serial": {
        "quest": {"transactions": 200000, "avg-len": 12, "pattern-len": 6,
                  "patterns": 10, "items": 30},
        "support": 0.1, "threads": 1, "rules": False},
}

# name, unit, what it means.
END_TO_END = [
    ("wall_s", "s", "whole pipeline: load -> mine -> rules -> write"),
    ("setup_s", "s", "load_ascii of the workload's file"),
    ("itemsets_s", "s", "load + mine: until the frequent itemsets are in hand"),
    ("cpu_s", "s", "user + sys CPU of the pipeline process"),
    ("peak_rss_mb", "MB", "peak resident set of the pipeline process"),
    ("pass_rate", "ratio",
     "repetitions that exited 0 with verified output / attempted "
     "(1 - fail_rate)"),
]

# name, unit, better, layer metric -> (end-to-end metric, workloads) it
# should move, and what it is.
PER_LAYER = [
    ("data.load_s", "s", "lower", "setup_s on all", "load_ascii wall time"),
    ("data.load_mb_per_s", "MB/s", "higher", "setup_s on all",
     "input bytes / load_s"),
    ("core.mine_s", "s", "lower", "itemsets_s on all", "mine() wall time"),
    ("core.f1_s", "s", "lower", "itemsets_s on all", "F1 pass"),
    ("core.select_s", "s", "lower", "itemsets_s on all",
     "frequent-set selection, all k"),
    ("core.k2_s", "s", "lower", "itemsets_s on t10-rules",
     "iteration k=2, all phases"),
    ("core.k3plus_s", "s", "lower", "itemsets_s on deep-serial",
     "iterations k>=3, all phases"),
    ("core.candgen_s", "s", "lower", "itemsets_s on t10-rules",
     "candidate generation + shared-tree insertion, all k"),
    ("core.rules_s", "s", "lower", "wall_s on t10-rules",
     "generate_rules_parallel wall time"),
    ("core.write_s", "s", "lower", "wall_s on t10-rules",
     "save_frequent_itemsets + save_rules_csv wall time"),
    ("core.write_mb_per_s", "MB/s", "higher", "wall_s on t10-rules",
     "output bytes / write_s"),
    ("core.self_s", "s", "lower", "wall_s on all",
     "core's self time: mine - hashtree.self_s + rules + write"),
    ("core.candidates", "count", "lower", "itemsets_s on all",
     "candidates, all k>=2"),
    ("core.frequent", "count", "higher", "none (output size)",
     "frequent itemsets, all k"),
    ("core.frequent_per_candidate", "ratio", "higher",
     "itemsets_s on t10-rules",
     "frequent k>=2 itemsets / candidates: useful outcomes per attempt"),
    ("core.iterations", "count", "lower", "itemsets_s on deep-serial",
     "iterations k>=2"),
    ("core.rules", "count", "higher", "none (output size)", "rules emitted"),
    ("hashtree.count_s", "s", "lower",
     "itemsets_s on deep-serial, t10-rules", "support counting, all k"),
    ("hashtree.count_ns_per_txn", "ns", "lower",
     "itemsets_s on deep-serial, t10-rules",
     "count_s / (transactions x counting passes)"),
    ("hashtree.build_s", "s", "lower", "itemsets_s on t10-rules",
     "remap + freeze + vertbuild, all k"),
    ("hashtree.self_s", "s", "lower", "itemsets_s on all",
     "hashtree's self time: build_s + count_s"),
    ("hashtree.traversal_work", "count", "lower",
     "itemsets_s on deep-serial, t10-rules",
     "internal + leaf visits + containment checks"),
    ("hashtree.hits", "count", "higher", "none (work done)",
     "containment checks that matched"),
    ("hashtree.hits_per_check", "ratio", "higher",
     "itemsets_s on deep-serial, t10-rules",
     "hits / containment checks: useful outcomes per attempt"),
    ("alloc.tree_bytes_max", "bytes", "lower", "peak_rss_mb on t10-rules",
     "largest candidate hash tree over the iterations"),
    ("parallel.lock_wait_s", "s", "lower",
     "itemsets_s and cpu_s on t10-rules",
     "thread-seconds waiting on SpinLock/Mutex"),
    ("parallel.barrier_wait_s", "s", "lower", "itemsets_s on t10-rules",
     "thread-seconds waiting at barriers"),
    ("parallel.imbalance_loss", "ratio", "lower",
     "cpu_s and itemsets_s at P=4; 0 on deep-serial",
     "run_efficiency imbalance loss"),
    ("parallel.contention_loss", "ratio", "lower",
     "cpu_s and itemsets_s at P=4; 0 on deep-serial",
     "run_efficiency contention loss"),
    ("parallel.serial_loss", "ratio", "lower",
     "cpu_s and itemsets_s at P=4; 0 on deep-serial",
     "run_efficiency serial loss"),
    ("parallel.work_fraction", "ratio", "higher",
     "cpu_s and itemsets_s at P=4; 1 on deep-serial",
     "run_efficiency work fraction"),
    ("obs.span_overhead_pct", "%", "lower", "wall_s on all",
     "traced wall_s over untraced wall_s, minus 100"),
    ("obs.trace_events", "count", "lower", "wall_s on all (traced)",
     "library trace events recorded in a traced run"),
]


def spec_mismatch():
    """Where BENCHMARK.json's metrics and workloads differ from ours."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ours = {
        "workloads": sorted(WORKLOADS),
        "end_to_end": [(n, u) for n, u, _ in END_TO_END],
        "per_layer": [(n, u) for n, u, *_ in PER_LAYER],
    }
    theirs = {
        "workloads": sorted(w["name"] for w in spec["workloads"]),
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    return [key for key in ours if ours[key] != theirs[key]]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def build():
    """Configures and builds the package; False (with the log) on failure."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"error: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_process(args, err_path):
    """Runs one fresh process and reaps it with wait4, so the CPU time and
    peak RSS are that process's alone. Returns (exit code, stdout, cpu_s,
    peak_rss_mb); a process still running after PROCESS_TIMEOUT_S is
    killed."""
    with open(err_path, "w") as err:
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(Path(err_path).read_text()[-2000:])
    return (proc.returncode, out.decode(errors="replace"),
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def last_json(text):
    for line in reversed(text.strip().splitlines()):
        try:
            return json.loads(line)
        except ValueError:
            continue
    return None


def digest(paths):
    h = hashlib.blake2b(digest_size=16)
    for p in paths:
        with open(p, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


def host_stamp(threads):
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(affinity),
        "affinity": ",".join(map(str, affinity)),
        "loadavg_before": os.getloadavg()[0],
        "threads": threads,
    }


def option_drift(cli_manifest, rep):
    """Differences between the CLI manifest and a pipeline repetition: the
    options block, and each iteration's row (see ITERATION_FIELDS)."""
    run = cli_manifest.get("run", {})
    theirs = run.get("options", {})
    diffs = []
    for key in ("summary", "algorithm", "threads", "min_support"):
        if theirs.get(key) != rep["options"].get(key):
            diffs.append(f"{key}: cli={theirs.get(key)!r} "
                         f"pipeline={rep['options'].get(key)!r}")
    cli_its = run.get("iterations", [])
    if len(cli_its) != len(rep["iterations"]):
        diffs.append(f"iterations: cli={len(cli_its)} "
                     f"pipeline={len(rep['iterations'])}")
    for cli_it, it in zip(cli_its, rep["iterations"]):
        if cli_it.get("count_kernel_used") != it["kernel"]:
            diffs.append(f"k={it['k']} kernel: "
                         f"cli={cli_it.get('count_kernel_used')!r} "
                         f"pipeline={it['kernel']!r}")
        for key in ITERATION_FIELDS:
            if cli_it.get(key) != it[key]:
                diffs.append(f"k={it['k']} {key}: cli={cli_it.get(key)!r} "
                             f"pipeline={it[key]!r}")
    return diffs


def layer_metrics(rep):
    """Per-layer numbers of one traced repetition."""
    its = rep["iterations"]
    total = lambda field: sum(it[field] for it in its)  # noqa: E731
    candidates = total("candidates")
    checks = total("containment_checks")
    count_s = total("count_s")
    build_s = total("remap_s") + total("freeze_s") + total("vertbuild_s")
    passes = rep["transactions"] * max(1, len(its))
    ledger = rep["ledger"]
    return {
        "data.load_s": rep["load_s"],
        "data.load_mb_per_s": rep["input_bytes"] / 1e6 / rep["load_s"],
        "core.mine_s": rep["mine_s"],
        "core.f1_s": rep["f1_s"],
        "core.select_s": total("select_s"),
        "core.k2_s": sum(it["total_s"] for it in its if it["k"] == 2),
        "core.k3plus_s": sum(it["total_s"] for it in its if it["k"] >= 3),
        "core.candgen_s": total("candgen_s"),
        "core.rules_s": rep["rules_s"],
        "core.write_s": rep["write_s"],
        "core.write_mb_per_s": rep["output_bytes"] / 1e6 / rep["write_s"],
        "core.self_s": (rep["mine_s"] - build_s - count_s + rep["rules_s"]
                        + rep["write_s"]),
        "core.candidates": candidates,
        "core.frequent": rep["frequent"],
        "core.frequent_per_candidate":
            total("frequent") / candidates if candidates else 0.0,
        "core.iterations": len(its),
        "core.rules": rep["rules"],
        "hashtree.count_s": count_s,
        "hashtree.count_ns_per_txn": count_s * 1e9 / passes,
        "hashtree.build_s": build_s,
        "hashtree.self_s": build_s + count_s,
        "hashtree.traversal_work":
            total("internal_visits") + total("leaf_visits") + checks,
        "hashtree.hits": total("hits"),
        "hashtree.hits_per_check": total("hits") / checks if checks else 0.0,
        "alloc.tree_bytes_max": max((it["tree_bytes"] for it in its),
                                    default=0),
        "parallel.lock_wait_s": ledger["lock_wait_s"],
        "parallel.barrier_wait_s": ledger["barrier_wait_s"],
        "parallel.imbalance_loss": ledger["imbalance_loss"],
        "parallel.contention_loss": ledger["contention_loss"],
        "parallel.serial_loss": ledger["serial_loss"],
        "parallel.work_fraction": ledger["work_fraction"],
        "obs.trace_events": rep["trace_events"],
    }


def describe():
    print("end-to-end metrics (--trace 0; medians over the repetitions):")
    for name, unit, meaning in END_TO_END:
        print(f"  {name:<28} {unit:<6} {meaning}")
    print("per-layer metrics (--trace 1) -> end-to-end metric they move:")
    for name, unit, better, moves, meaning in PER_LAYER:
        print(f"  {name:<28} {unit:<6} {better:<6} -> {moves:<40} {meaning}")
    print("workloads:")
    for name, w in WORKLOADS.items():
        print(f"  {name:<14} support={w['support']} threads={w['threads']} "
              f"rules={w['rules']} quest={w['quest']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print every metric and workload, then exit")
    ap.add_argument("--corrupt", choices=("drop-itemset", "bump-support",
                                          "drop-rule"),
                    help="self-test: corrupt the checked output (drop-rule "
                         "on a rule workload); the run must then report "
                         "failures")
    args = ap.parse_args()
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    w = WORKLOADS[args.workload]
    if mismatch := spec_mismatch():
        log(f"error: BENCHMARK.json and run.py disagree on {mismatch}")
        return 2

    host = host_stamp(w["threads"])
    if w["threads"] > host["cpus_available"]:
        log(f"error: {args.workload} needs {w['threads']} cores, "
            f"{host['cpus_available']} available")
        return 2
    if not build():
        return 2

    work = WORK / args.workload
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    db = work / "db.txt"
    pipeline = str(BUILD / "e2e_pipeline")

    # --- untimed set-up ------------------------------------------------------
    gen = [pipeline, "--mode", "generate", "--out", str(db),
           "--seed", str(args.seed)]
    for key, value in w["quest"].items():
        gen += [f"--{key}", str(value)]
    code, out, _, _ = run_process(gen, work / "stderr.log")
    if code != 0:
        log("error: database generation failed")
        return 2
    db.read_bytes()  # warm-up read: same page-cache state on every commit
    txns = json.loads(out)["transactions"]
    min_count = max(1, math.ceil(w["support"] * txns))

    manifest = work / "cli_manifest.json"
    cli_outputs = [work / "cli_itemsets.txt"] + (
        [work / "cli_rules.csv"] if w["rules"] else [])
    cli = [str(BUILD / "smpmine"), "--input", str(db),
           "--support", str(w["support"]), "--threads", str(w["threads"]),
           "--save-itemsets", str(cli_outputs[0]), "--metrics", str(manifest)]
    cli += ["--save-rules", str(cli_outputs[1])] if w["rules"] else \
        ["--no-rules"]
    code, _, _, _ = run_process(cli, work / "stderr.log")
    if code != 0:
        log("error: the smpmine CLI failed on the workload")
        return 2
    cli_manifest = json.loads(manifest.read_text())

    base = [pipeline, "--mode", "run", "--input", str(db),
            "--support", str(w["support"]), "--threads", str(w["threads"]),
            "--out-dir", str(out_dir)] + (["--rules"] if w["rules"] else [])
    outputs = [out_dir / "itemsets.txt"] + (
        [out_dir / "rules.csv"] if w["rules"] else [])

    attempted = failed = 0
    load_s = []

    def time_loads():
        """load_ascii times of LOADS_PER_REP fresh load-only processes, or
        None if one of them fails."""
        times = []
        for _ in range(LOADS_PER_REP):
            code, out, _, _ = run_process(
                [pipeline, "--mode", "load", "--input", str(db)],
                work / "stderr.log")
            rep = last_json(out) if code == 0 else None
            if rep is None or rep["transactions"] != txns:
                return None
            times.append(rep["load_s"])
        return times

    # --- timed repetitions ---------------------------------------------------
    reps = {False: [], True: []}  # traced? -> repetition records
    reference = None
    verdict = None
    spans = []
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(reps[True]) < len(reps[False])
        code, out, cpu_s, rss_mb = run_process(
            base + (["--trace"] if traced else []), work / "stderr.log")
        attempted += 1
        rep = last_json(out) if code == 0 else None
        ok = rep is not None
        if rep is None:
            log(f"repetition {attempted}: exit code {code}")
        else:
            output_digest = digest(outputs)
            if reference is None:
                drift = option_drift(cli_manifest, rep)
                if drift:
                    log("error: option drift between the pipeline and the "
                        "CLI: " + "; ".join(drift))
                    return 2
                verdict = check(args, work, db, outputs, cli_outputs,
                                min_count, rep["options"]["min_confidence"])
                reference = output_digest
            ok = verdict["ok"] and output_digest == reference
            if output_digest != reference:
                log(f"repetition {attempted}: output differs from the "
                    "verified output")
            rep["cpu_s"], rep["peak_rss_mb"] = cpu_s, rss_mb
            reps[traced].append(rep)
            run_id = f"{args.workload}/{args.seed}/{attempted}"
            for span in rep.pop("spans"):
                spans.append(dict(span, run_id=run_id, traced=traced))
            if not traced:
                load_s.append(rep["load_s"])
        if args.trace == 0:
            loads = time_loads()
            if loads is None:
                ok = False
                log(f"repetition {attempted}: a load-only process failed")
            else:
                load_s += loads
        if not ok:
            failed += 1
        elapsed = time.perf_counter() - start
        done = reps[False] + reps[True]
        per_rep = elapsed / attempted
        enough = len(reps[False]) >= 3 and (
            args.trace == 0 or len(reps[True]) >= 3)
        broken = failed >= 3 and not done
        if (enough and elapsed + per_rep > args.seconds) or broken or \
                attempted >= 200:
            break

    host["loadavg_after"] = os.getloadavg()[0]
    plain = reps[False]
    if plain:
        host["build_type"] = plain[0]["host"]["build_type"]
        host["simd_backend"] = plain[0]["host"]["simd_backend"]
    correct = verdict is not None and verdict["ok"] and failed == 0

    if args.trace == 0:
        metrics = {
            "wall_s": median([r["pipeline_s"] for r in plain]),
            "setup_s": median(load_s),
            "itemsets_s": median([r["load_s"] + r["mine_s"] for r in plain]),
            "cpu_s": median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "pass_rate": (attempted - failed) / attempted,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        traced_reps = reps[True]
        per = [layer_metrics(r) for r in traced_reps]
        metrics = {k: median([p[k] for p in per]) for k in per[0]} if per \
            else {k: 0.0 for k, *_ in PER_LAYER}
        untraced_wall = median([r["pipeline_s"] for r in plain])
        traced_wall = median([r["pipeline_s"] for r in traced_reps])
        metrics["obs.span_overhead_pct"] = (
            (traced_wall / untraced_wall - 1.0) * 100.0
            if untraced_wall else 0.0)
        units = {name: unit for name, unit, *_ in PER_LAYER}
        metrics = {name: metrics[name] for name in units}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host, "verdict": verdict, "attempted": attempted,
        "failed": failed, "metrics": metrics, "setup_load_s": load_s,
        "repetitions": [dict(r, traced=t) for t in (False, True)
                        for r in reps[t]],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.report.json").write_text(json.dumps(report, indent=1))
    with open(WORK / f"{stem}.spans.jsonl", "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")

    print_report(args, host, verdict, attempted, failed, metrics, units,
                 reps[True] or plain)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


def check(args, work, db, outputs, cli_outputs, min_count, confidence):
    """Verifies the first repetition's outputs; the verdict dict."""
    for ours, cli in zip(outputs, cli_outputs):
        if digest([ours]) != digest([cli]):
            return {"ok": False, "errors": 1,
                    "first_errors": [f"pipeline {ours.name} differs from "
                                     "the CLI's"]}
    checked = list(outputs)
    if args.corrupt:
        checked = corrupt(args.corrupt, work, outputs)
    cmd = [str(BUILD / "e2e_checker"), "--db", str(db),
           "--itemsets", str(checked[0]), "--min-count", str(min_count)]
    if len(checked) > 1:
        cmd += ["--rules", str(checked[1]), "--confidence", str(confidence)]
    _, out, _, _ = run_process(cmd, work / "stderr.log")
    verdict = last_json(out)
    return verdict if verdict is not None else {
        "ok": False, "errors": 1, "first_errors": ["checker crashed"]}


def corrupt(kind, work, outputs):
    """Copies of the outputs with one deliberate error (self-test only)."""
    copies = []
    for p in outputs:
        lines = p.read_text().splitlines(keepends=True)
        if kind == "drop-itemset" and p.name == "itemsets.txt":
            del lines[len(lines) // 2]
        elif kind == "bump-support" and p.name == "itemsets.txt":
            fields = lines[-1].split()
            fields[-1] = str(int(fields[-1]) + 1)
            lines[-1] = " ".join(fields) + "\n"
        elif kind == "drop-rule" and p.name == "rules.csv":
            del lines[len(lines) // 2]
        copy = work / ("corrupt-" + p.name)
        copy.write_text("".join(lines))
        copies.append(copy)
    return copies


def print_report(args, host, verdict, attempted, failed, metrics, units,
                 sample):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(host))
    v = verdict or {}
    print(f"correctness: {'PASS' if v.get('ok') and not failed else 'FAIL'}"
          f"  checked itemsets={v.get('itemsets')} border={v.get('border')}"
          f" rules={v.get('rules')}  repetitions {attempted - failed}/"
          f"{attempted} verified")
    for e in v.get("first_errors", []):
        print(f"  checker: {e}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    if args.trace == 1 and sample:
        print("per-k phase rows (first traced repetition):")
        print("   k  kernel    candidates  frequent  candgen_s  build_s"
              "  count_s  select_s")
        for it in sample[0]["iterations"]:
            build_s = it["remap_s"] + it["freeze_s"] + it["vertbuild_s"]
            print(f"  {it['k']:2d}  {it['kernel']:<8} {it['candidates']:>11}"
                  f" {it['frequent']:>9} {it['candgen_s']:>10.4f}"
                  f" {build_s:>8.4f} {it['count_s']:>8.4f}"
                  f" {it['select_s']:>9.4f}")


if __name__ == "__main__":
    sys.exit(main())
