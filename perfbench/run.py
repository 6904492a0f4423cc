#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, or run and compare all.

One run (what BENCHMARK.json's command does):
    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Everything, every metric by name and unit plus the traced per-layer tables:
    python3 perfbench/run.py --all [--seeds 5] [--seconds 20] [--out FILE]

Compare two result sets written by --all (or by --record):
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

The benchmark builds the scheduler from this checkout's src/ and tools/
(perfbench/CMakeLists.txt) into .bench_build/perfbench, Release only. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build():
    """Configures (once) and builds the driver and sched_server; exits 2 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: {ROOT} holds no src/ tree to build the scheduler from")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
            "sched_server", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def run_once(spec, workload, seed, seconds, trace, record=None, quiet=False):
    """Runs the driver once; returns (stamp, result) or exits 1 on a broken run."""
    work = BUILD / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--server", str(BUILD / "sched_server"), "--work-dir", str(work)]
    env = dict(os.environ, BGL_GIT_DESCRIBE=git_describe())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=175)
    except subprocess.TimeoutExpired:
        log("perfbench: driver did not finish within 175 s")
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: driver exited with {proc.returncode}")
        sys.exit(1)
    stamp = None
    for line in lines[:-1]:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
        if not quiet:
            print(line, flush=True)
    result = json.loads(lines[-1])
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        log("perfbench: metric set differs from BENCHMARK.json: "
            f"missing {sorted(wanted - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - wanted)}")
        sys.exit(1)
    if record:
        with open(record, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                "seconds": seconds, "stamp": stamp,
                                "result": result}) + "\n")
    return stamp, result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def print_e2e_table(spec, records):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        if not runs:
            continue
        ok = all(r["result"]["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs (seeds "
              f"{','.join(str(r['seed']) for r in runs)}), all correct: {ok}")
        print(f"  {'metric':18} {'unit':9} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
        for name, unit in units.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:18} {unit:9} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


def check_layer_map(records):
    """Prints whether the traced runs confirm the documented layer map."""
    traced = {r["workload"]: r["result"]["metrics"] for r in records if r["trace"] == 1}

    def self_ranks(m):
        phases = [k for k in m if k.endswith(".self_ms")]
        return sorted(phases, key=lambda k: -m[k]["value"])

    print("\nlayer map (traced runs):")
    if "paper" in traced:
        top = self_ranks(traced["paper"])[0]
        print(f"  paper: largest self time is {top}"
              f" -> {'confirmed' if top == 'sched.migration.self_ms' else 'CONTRADICTED'}")
    if "full_machine" in traced:
        top2 = self_ranks(traced["full_machine"])[:2]
        print(f"  full_machine: two largest self times {top2}"
              f" -> {'confirmed' if 'sched.migration.self_ms' in top2 else 'CONTRADICTED'}")
    if "service" in traced:
        m = traced["service"]
        migr = m["sched.migration.count"]["value"]
        print(f"  service: sched.migration.count = {migr:.0f}"
              f" -> {'confirmed' if migr == 0 else 'CONTRADICTED'}")
        sent, spans = m["svc.events"]["value"], m["svc.event.count"]["value"]
        print(f"  service: svc.event.count {spans:.0f} vs events sent {sent:.0f}"
              f" -> {'confirmed' if sent == spans else 'CONTRADICTED'}")


def run_all(spec, seeds, seconds, out):
    out.parent.mkdir(parents=True, exist_ok=True)
    log(f"perfbench: recording results to {out}")
    records = []
    for w in spec["workloads"]:
        for seed in range(1, seeds + 1):
            log(f"perfbench: {w['name']} seed {seed} ...")
            stamp, result = run_once(spec, w["name"], seed, seconds, 0, out, quiet=True)
            records.append({"workload": w["name"], "seed": seed, "trace": 0,
                            "stamp": stamp, "result": result})
        log(f"perfbench: {w['name']} traced ...")
        stamp, result = run_once(spec, w["name"], 1, seconds, 1, out)
        records.append({"workload": w["name"], "seed": 1, "trace": 1,
                        "stamp": stamp, "result": result})
    print(f"\nstamp: {json.dumps(records[0]['stamp'])}")
    print_e2e_table(spec, records)
    check_layer_map(records)
    return 0 if all(r["result"]["correct"] for r in records) else 1


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(spec, base_path, new_path):
    """Medians and quartiles per metric and workload, flags and layer deltas."""
    base, new = read_records(base_path), read_records(new_path)
    for label, recs in (("base", base), ("new", new)):
        stamps = {json.dumps({k: v for k, v in (r["stamp"] or {}).items()
                              if k in ("cpu", "nproc", "compiler", "flags",
                                       "build_type", "git_describe")})
                  for r in recs}
        for s in stamps:
            print(f"{label} stamp: {s}")
    status = 0
    for w in [w["name"] for w in spec["workloads"]]:
        b = [r for r in base if r["workload"] == w and r["trace"] == 0]
        n = [r for r in new if r["workload"] == w and r["trace"] == 0]
        if not b or not n:
            continue
        print(f"\n{w}: base {len(b)} runs, new {len(n)} runs")
        print(f"  {'metric':18} {'base median [q1,q3]':>36} {'new median [q1,q3]':>36}"
              f" {'delta':>8}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            nv = [r["result"]["metrics"][name]["value"] for r in n]
            bq1, bmed, bq3 = quartiles(bv)
            nq1, nmed, nq3 = quartiles(nv)
            delta = (nmed - bmed) / bmed if bmed else 0.0
            worse = delta if m["better"] == "lower" else -delta
            verdict = ""
            if abs(nmed - bmed) > (bq3 - bq1):
                verdict = "outside base spread"
            if worse > m["bound"]:
                verdict = f"REGRESSION (bound {m['bound']:.0%})"
                status = 1
            print(f"  {name:18} {bmed:14.6g} [{bq1:9.4g},{bq3:9.4g}]"
                  f" {nmed:14.6g} [{nq1:9.4g},{nq3:9.4g}] {delta:+8.2%}  {verdict}")
        bt = [r for r in base if r["workload"] == w and r["trace"] == 1]
        nt = [r for r in new if r["workload"] == w and r["trace"] == 1]
        if bt and nt:
            print("  per-layer self time (traced runs, medians):")
            keys = [k for k in bt[0]["result"]["metrics"] if k.endswith(".self_ms")]
            rows = []
            for k in keys:
                bm = statistics.median(r["result"]["metrics"][k]["value"] for r in bt)
                nm = statistics.median(r["result"]["metrics"][k]["value"] for r in nt)
                rows.append((nm - bm, k, bm, nm))
            base_total = statistics.median(
                r["result"]["metrics"]["obs.profiled_total_ms"]["value"] for r in bt)
            for d, k, bm, nm in sorted(rows):
                if bm == 0 and nm == 0:
                    continue
                share = d / base_total if base_total else 0.0
                print(f"    {k:34} {bm:12.3f} -> {nm:12.3f} ms  {d:+12.3f} ms"
                      f" ({share:+.2%} of base profiled total {base_total:.1f} ms)")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the run's result to this JSONL file")
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seeds", type=int, default=5, help="seeds per workload (--all)")
    p.add_argument("--out", help="result file of --all")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    seconds = args.seconds or spec["run_seconds"]
    if args.all:
        build()
        out = Path(args.out) if args.out else (
            BUILD / f"results-{time.strftime('%Y%m%d-%H%M%S')}.jsonl")
        return run_all(spec, args.seeds, seconds, out)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        p.error("--workload must be one of "
                + ", ".join(w["name"] for w in spec["workloads"]))
    build()
    _, result = run_once(spec, args.workload, args.seed, seconds, args.trace,
                         args.record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
