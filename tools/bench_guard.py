#!/usr/bin/env python3
"""Advisory perf-regression guard for the bench JSON outputs.

Compares a freshly measured bench JSON (e.g. `bench_sqg_step --smoke
--json=fresh.json`) against the baseline committed at the repo root and
prints a markdown table plus GitHub Actions `::warning::` annotations for
every configuration whose metric regressed by more than the threshold.
Purely advisory: always exits 0 — CI runners are noisy and the committed
baseline comes from a different machine, so a warning is a prompt to look,
not a gate.

Two row formats are understood, detected per file:
  - kernel benches (BENCH_sqg.json, BENCH_letkf.json): a "results" array
    keyed by (network, n, threads). bench_ablation_letkf records each row's
    observation network ("identity" or "stride<k>"); rows without the field
    (BENCH_sqg.json, older files) count as the identity network;
  - the streaming bench (BENCH_stream.json): a "scenarios" array keyed by
    (name, schedule, n, members) — use `--metric cycle_ms` against it, or
    `--metric ingest_catchup_ms` to track what the deep-overlap rows pay
    per cycle to absorb late (age > max_stale) observation batches.
    Rows without their own n / members (older files) inherit the file-level
    values, so a --smoke fresh run only ever compares against baseline rows
    recorded at the same resolution.

Rows whose thread count exceeds the hardware threads of *either* recording
machine are skipped: a `threads: 2` timing captured on a 1-core box is
oversubscription noise, not a baseline. Each row's hardware context comes
from its own `hw_threads` field when present (bench_sqg_step records it per
row), falling back to the file-level `hardware_threads`.

When the fresh file carries a top-level "phases" object (the LETKF per-phase
breakdown bench_stream_realtime exports), it is printed as a telemetry table
for the CI job summary.

Usage:
  tools/bench_guard.py --baseline BENCH_sqg.json --fresh fresh.json \
      [--metric rk4_step_ms] [--threshold 0.25]
  tools/bench_guard.py --baseline BENCH_stream.json --fresh fresh.json \
      --metric cycle_ms
"""

import argparse
import json
import sys


def load_results(path):
    """Returns (rows_by_key, key_fields, phases). `key_fields` names the
    tuple components of the row keys; `phases` is the optional LETKF
    per-phase breakdown object (fresh-file telemetry)."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level is {type(data).__name__}, expected object")
    if "scenarios" in data and "results" not in data:
        rows, key_fields = data.get("scenarios"), ("name", "schedule", "n", "members")
        inherited = ("n", "members")  # resolution context, file-level in older files
    else:
        rows, key_fields = data.get("results", []), ("network", "n", "threads")
        inherited = ()
    if not isinstance(rows, list):
        raise ValueError(f"{path}: rows are {type(rows).__name__}, expected array")
    file_hw = data.get("hardware_threads")
    out = {}
    for r in rows:
        if not isinstance(r, dict):
            continue
        r = dict(r)
        for k in inherited:
            if r.get(k) is None:
                r[k] = data.get(k)
        if "network" in key_fields and r.get("network") is None:
            r["network"] = "identity"
        if any(r.get(k) is None for k in key_fields):
            continue  # unkeyable row — nothing to compare it against
        if "hw_threads" not in r and file_hw is not None:
            r["hw_threads"] = file_hw
        out[tuple(r[k] for k in key_fields)] = r
    phases = data.get("phases")
    if not isinstance(phases, dict):
        phases = None
    return out, key_fields, phases


def numeric(value):
    """float(value) for int/float/numeric-string, else None (never raises)."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def oversubscribed(row):
    """True when the row's thread count exceeds its recording machine's
    hardware threads (unknown hardware context is trusted)."""
    hw = numeric(row.get("hw_threads"))
    threads = numeric(row.get("threads"))
    return hw is not None and threads is not None and threads > hw


PHASE_DELTA_FIELDS = ("gram_ms", "eigh_ms")


def print_phase_delta_table(pairs, key_fields):
    """Advisory per-phase delta table (LETKF Gram build / eigensolve) for
    every overlapping configuration that carries the phase fields. Purely
    informational: phase-level noise is higher than whole-analysis noise, so
    no warnings are emitted here."""
    rows = []
    for key, base, fr in pairs:
        cells = []
        have_any = False
        for ph in PHASE_DELTA_FIELDS:
            b, f = numeric(base.get(ph)), numeric(fr.get(ph))
            if b is None or f is None or b <= 0.0:
                cells.append("-")
                continue
            have_any = True
            cells.append(f"{b:.1f} -> {f:.1f} ({100 * (f / b - 1.0):+.1f}%)")
        occ = ""
        bc, sc = numeric(fr.get("batched_columns")), numeric(fr.get("scalar_columns"))
        if bc is not None and sc is not None and bc + sc > 0:
            occ = f"{100 * bc / (bc + sc):.1f}%"
        if have_any:
            rows.append((key, cells, occ))
    if not rows:
        return
    print("\n### Per-phase deltas (advisory): Gram build / eigensolve\n")
    names = " | ".join(ph[:-3] for ph in PHASE_DELTA_FIELDS)
    print(f"| {' | '.join(key_fields)} | {names} | lane occupancy |")
    print(f"| {' | '.join('---' for _ in key_fields)} | "
          f"{' | '.join('---' for _ in PHASE_DELTA_FIELDS)} | --- |")
    for key, cells, occ in rows:
        kcells = " | ".join(str(v) for v in key)
        print(f"| {kcells} | {' | '.join(cells)} | {occ or '-'} |")
    print("\n(lane occupancy = fresh run's share of columns solved in full SIMD "
          "lane batches; the remainder ran in padded partial batches or had no "
          "local observations.)")


def print_phase_table(phases):
    """Telemetry-derived LETKF phase breakdown for the CI job summary."""
    order = ["plan_ms", "select_ms", "gather_ms", "gram_ms", "eigh_ms",
             "weights_ms", "combine_ms"]
    total = numeric(phases.get("total_ms"))
    known = [(k, numeric(phases.get(k))) for k in order]
    known = [(k, v) for k, v in known if v is not None]
    if not known:
        return
    print("\n### LETKF phase breakdown (telemetry, fresh run)\n")
    print("| phase | time [ms] | share of analyze |")
    print("| --- | --- | --- |")
    for k, v in known:
        share = f"{100 * v / total:.1f}%" if total and total > 0 else "-"
        print(f"| {k[:-3]} | {v:.1f} | {share} |")
    if total is not None:
        analyses = phases.get("analyses")
        suffix = f" across {analyses} analyses" if analyses else ""
        print(f"\nTotal analyze time: {total:.1f} ms{suffix}.")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--fresh", required=True, help="freshly measured JSON")
    ap.add_argument("--metric", default="rk4_step_ms", help="result field to compare")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative regression that triggers a warning (0.25 = +25%%)")
    args = ap.parse_args()

    try:
        baseline, base_fields, _ = load_results(args.baseline)
        fresh, fresh_fields, fresh_phases = load_results(args.fresh)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"bench_guard: could not read inputs ({e}); skipping check")
        return 0
    if base_fields != fresh_fields:
        print(f"bench_guard: baseline rows are keyed by {base_fields} but fresh rows "
              f"by {fresh_fields}; skipping check")
        return 0
    key_fields = fresh_fields

    rows = []
    skipped = []
    pairs = []  # (key, baseline_row, fresh_row) for the per-phase table
    warnings = 0
    # Stringified sort key: components may mix types across hand-edited
    # files, and "3 < '4'" is a TypeError, not a warning.
    for key, fr in sorted(fresh.items(), key=lambda kv: tuple(map(str, kv[0]))):
        base = baseline.get(key)
        if base is None or args.metric not in base or args.metric not in fr:
            continue
        if oversubscribed(base) or oversubscribed(fr):
            skipped.append(key)
            continue
        b, f = numeric(base[args.metric]), numeric(fr[args.metric])
        if b is None or f is None or b <= 0.0:
            continue  # non-numeric or degenerate metric value — advisory skip
        ratio = f / b - 1.0
        flag = ratio > args.threshold
        warnings += flag
        rows.append((key, b, f, ratio, flag))
        pairs.append((key, base, fr))
        if flag:
            where = ", ".join(f"{k}={v}" for k, v in zip(key_fields, key))
            print(f"::warning::{args.metric} at {where} regressed "
                  f"{100 * ratio:+.1f}% vs committed baseline "
                  f"({b:.3f} ms -> {f:.3f} ms, threshold +{100 * args.threshold:.0f}%)")

    if not rows and not skipped:
        print(f"bench_guard: no overlapping {'/'.join(key_fields)} configurations with "
              f"metric '{args.metric}' between {args.baseline} and {args.fresh}")
        if fresh_phases:
            print_phase_table(fresh_phases)
        return 0

    print(f"\n### Perf guard: {args.metric} vs committed baseline (advisory, "
          f"threshold +{100 * args.threshold:.0f}%)\n")
    print(f"| {' | '.join(key_fields)} | baseline [ms] | fresh [ms] | delta | |")
    print(f"| {' | '.join('---' for _ in key_fields)} | --- | --- | --- | --- |")
    for key, b, f, ratio, flag in rows:
        mark = ":warning:" if flag else "ok"
        cells = " | ".join(str(v) for v in key)
        print(f"| {cells} | {b:.3f} | {f:.3f} | {100 * ratio:+.1f}% | {mark} |")
    if skipped:
        configs = ", ".join(
            "(" + ", ".join(f"{k}={v}" for k, v in zip(key_fields, key)) + ")"
            for key in skipped)
        print(f"\nSkipped {len(skipped)} oversubscribed configuration(s) — thread count "
              f"exceeds the recording machine's hardware threads: {configs}.")
    if warnings:
        print(f"\n{warnings} configuration(s) above threshold — advisory only; "
              "compare against the committed baseline's machine before acting.")
    print_phase_delta_table(pairs, key_fields)
    if fresh_phases:
        print_phase_table(fresh_phases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
