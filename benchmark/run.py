#!/usr/bin/env python3
"""Cycle benchmark for the turbda real-time assimilation service.

Builds the program from source (benchmark/CMakeLists.txt into .bench_build/),
generates a seeded SQG workload, replays it through the public RealtimeRunner
API and reports the metrics named in BENCHMARK.json.

One pass of one workload (the form BENCHMARK.json's command takes; the last
stdout line is the result JSON):
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced pass then traced pass, with a summary table and a
results file (exit status 1 if any correctness check fails):
  python3 benchmark/run.py [--seed N] [--reps R] [--seconds S] [--out FILE]

Compare two results files against the BENCHMARK.json bounds:
  python3 benchmark/run.py --compare A.json B.json
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = BUILD_DIR / "work"
RESULTS_DIR = BUILD_DIR / "results"
BINARY = BUILD_DIR / "cycle_bench"
# A pass (generation + run) must finish well inside the 180 s a run may take.
PASS_BUDGET_S = 170.0
TRACE_SPANS = "sqg.forecast_batch,da.try_analyze,stream.produce,stream.collect,bench.period"


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def cpu_count():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then lets the build tool decide what is stale."""
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "build.ninja").exists() and not (BUILD_DIR / "Makefile").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--parallel", str(cpu_count())])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); full log in {log}")


def run_child(cmd, deadline):
    """Runs one benchmark process to completion (killed at the deadline)."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd[:2])} exceeded the {PASS_BUDGET_S:.0f} s pass budget")
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"{' '.join(cmd[:2])} exited with status {p.returncode}")
    return p.stdout


def trace_ok(path):
    checker = ROOT / "tools" / "check_trace.py"
    p = subprocess.run([sys.executable, str(checker), str(path), "--require", TRACE_SPANS,
                        "--min-threads", "2"], capture_output=True, text=True)
    if p.returncode != 0:
        print(p.stdout + p.stderr, file=sys.stderr)
    return p.returncode == 0


def one_pass(workload, seed, seconds, traced, threads):
    """Generates the workload's inputs, runs one pass, returns its report."""
    deadline = time.monotonic() + PASS_BUDGET_S
    tag = f"{workload}-s{seed}-t{seconds:g}"
    work = WORK_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds:g}",
              f"--dir={work}"]
    run_child([str(BINARY), "generate", *common, f"--cache={WORK_DIR / 'cache'}"], deadline)
    trace_path = work / "trace.json"
    out = run_child([str(BINARY), "run", *common, f"--threads={threads}",
                     f"--trace={int(traced)}", f"--trace-out={trace_path}"], deadline)
    report = json.loads(out.strip().splitlines()[-1])
    report["binary"] = hashlib.sha256(BINARY.read_bytes()).hexdigest()
    if traced and not trace_ok(trace_path):
        report["correct"] = False
        report["failed_checks"].append("trace failed tools/check_trace.py")
    shutil.rmtree(work, ignore_errors=True)

    # The probes must not change the numbers: the other pass of the same
    # inputs, when this checkout has run it, must end on the same ensemble.
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    mine = RESULTS_DIR / f"{tag}-{'traced' if traced else 'e2e'}.json"
    other = RESULTS_DIR / f"{tag}-{'e2e' if traced else 'traced'}.json"
    twin = json.loads(other.read_text(encoding="utf-8")) if other.exists() else None
    if twin and twin.get("binary") == report["binary"]:
        if twin["final_hash"] != report["final_hash"]:
            report["correct"] = False
            report["failed_checks"].append(
                f"final ensemble hash {report['final_hash']} differs from the other pass's "
                f"{twin['final_hash']}")
    mine.write_text(json.dumps(report), encoding="utf-8")
    return report


def select_metrics(report, specs, traced):
    values = report["layers" if traced else "e2e"]
    missing = [m["name"] for m in specs if values.get(m["name"]) is None]
    if missing:
        fail(f"the run reported no finite value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def single_pass(args, spec):
    traced = args.trace == 1
    report = one_pass(args.workload, args.seed, args.seconds, traced, args.threads)
    metrics = select_metrics(report, spec["per_layer" if traced else "end_to_end"], traced)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for c in report["failed_checks"]:
        print(f"CHECK FAILED: {c}")
    print(json.dumps({"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))


# --------------------------------------------------------------------------
# Full run: every workload, both passes, results file.
# --------------------------------------------------------------------------

def first_line(cmd):
    """First stdout line of a helper command, or "unknown" when it cannot run."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = p.stdout.splitlines()
    return lines[0].strip() if p.returncode == 0 and lines else "unknown"


def machine_context(threads, simd):
    compiler = "unknown"
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = first_line([line.split("=", 1)[1], "--version"])
    sha = first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {"nproc": cpu_count(), "threads": threads, "simd": simd, "compiler": compiler,
            "git_sha": sha}


def full_run(args, spec):
    results, simd, all_correct = {}, "unknown", True
    for name in (w["name"] for w in spec["workloads"]):
        entry = {"e2e": {}, "layers": {}, "budget": [], "hash_match": [], "failed_checks": [],
                 "attempted": 0, "failed": 0}
        for rep in range(args.reps):
            seed = args.seed + rep
            e2e = one_pass(name, seed, args.seconds, False, args.threads)
            trc = one_pass(name, seed, args.seconds, True, args.threads)
            simd = e2e["simd"]
            for k, v in e2e["e2e"].items():
                entry["e2e"].setdefault(k, []).append(v)
            for k, v in trc["layers"].items():
                entry["layers"].setdefault(k, []).append(v)
            entry["layers"].setdefault("telemetry.trace_overhead_pct", []).append(
                100.0 * (e2e["e2e"]["cycles_per_s"] / trc["e2e"]["cycles_per_s"] - 1.0))
            entry["layers"].setdefault("cycle_ms_p50", []).append(
                statistics.median(e2e["periods_ms"]))
            entry["budget"].append(trc["budget"])
            entry["hash_match"].append(e2e["final_hash"] == trc["final_hash"])
            entry["failed_checks"] += e2e["failed_checks"] + trc["failed_checks"]
            entry["attempted"] += e2e["attempted"]
            entry["failed"] += e2e["failed"]
            entry.update(schedule=e2e["schedule"], windows=e2e["windows"],
                         timed_intervals=e2e["timed_intervals"],
                         setup_samples=e2e["setup_samples"])
        entry["correct"] = not entry["failed_checks"] and all(entry["hash_match"])
        all_correct = all_correct and entry["correct"]
        results[name] = entry
        print_workload(name, entry, spec)

    out = {"context": machine_context(args.threads, simd), "seconds": args.seconds,
           "reps": args.reps, "first_seed": args.seed, "end_to_end": spec["end_to_end"],
           "workloads": results}
    Path(args.out).write_text(json.dumps(out, indent=1), encoding="utf-8")
    print(f"\nresults written to {args.out}")
    if not all_correct:
        fail("correctness checks failed (see above)")


def print_workload(name, entry, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"telemetry.trace_overhead_pct": "%", "cycle_ms_p50": "ms"})
    print(f"\n== {name}  ({entry['schedule']}, {entry['windows']} windows, "
          f"{entry['timed_intervals']} timed intervals, {entry['setup_samples']} set-ups, "
          f"{len(entry['hash_match'])} seed(s))")
    for k, v in entry["e2e"].items():
        print(f"  {k:34s} {statistics.median(v):12.5g} {units.get(k, '')}")
    for k, v in entry["layers"].items():
        print(f"  {k:34s} {statistics.median(v):12.5g} {units.get(k, '')}")
    b = entry["budget"][0]
    rows = b["forecast_ms"] + b["analysis_ms"] + b["produce_ms"] + b["collect_ms"] + b["other_ms"]
    p50 = entry["layers"]["cycle_ms_p50"][0]
    print(f"  cycle budget (traced, first seed): forecast {b['forecast_ms']:.1f} + analysis "
          f"{b['analysis_ms']:.1f} + produce {b['produce_ms']:.2f} + collect {b['collect_ms']:.3f} "
          f"+ other {b['other_ms']:.1f} = {rows:.1f} ms vs traced mean period "
          f"{b['period_mean_ms']:.1f} ms, untraced p50 {p50:.1f} ms")
    print(f"  attempted {entry['attempted']} windows, failed {entry['failed']}; "
          f"hashes equal across passes: {all(entry['hash_match'])}")
    for c in entry["failed_checks"]:
        print(f"  CHECK FAILED: {c}")


# --------------------------------------------------------------------------
# Compare two results files.
# --------------------------------------------------------------------------

def rel_spread(v):
    if len(v) < 4:
        return None
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)


def compare(path_a, path_b, spec):
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    print(f"{'workload':22s} {'metric':16s} {'A':>11s} {'B':>11s} {'change':>8s} "
          f"{'bound':>6s}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for m in spec["end_to_end"]:
            va = a["workloads"][name]["e2e"].get(m["name"])
            vb = b["workloads"][name]["e2e"].get(m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spreads = [s for s in (rel_spread(va), rel_spread(vb)) if s is not None]
            lower = m["better"] == "lower"
            better_all = max(vb) < min(va) if lower else min(vb) > max(va)
            worse_all = min(vb) > max(va) if lower else max(vb) < min(va)
            if len(spreads) < 2 or max(spreads) > m["bound"]:
                # Too noisy to call, unless the two sides do not overlap at all.
                verdict = "unresolved"
                if len(spreads) == 2 and better_all and worse < -m["bound"]:
                    verdict = "improved"
                elif len(spreads) == 2 and worse_all and worse > m["bound"]:
                    verdict = "regressed"
            elif worse > m["bound"]:
                verdict = "regressed"
            elif worse < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"{name:22s} {m['name']:16s} {ma:11.5g} {mb:11.5g} {-worse * 100:+7.1f}% "
                  f"{m['bound'] * 100:5.0f}%  {verdict}")
    print("(change: + is better; verdicts need >= 4 reps per side so the spread is known)")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run one pass of this workload")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
    ap.add_argument("--threads", type=int, default=cpu_count(),
                    help="forecast/analysis threads (default: all CPUs)")
    ap.add_argument("--reps", type=int, default=1, help="full run: seeds per workload")
    ap.add_argument("--out", default=str(BUILD_DIR / "benchmark_results.json"),
                    help="full run: results file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two results files")
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    build()
    if args.workload:
        single_pass(args, spec)
    else:
        full_run(args, spec)


if __name__ == "__main__":
    main()
