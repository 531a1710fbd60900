#!/usr/bin/env python3
"""Advisory perf-regression guard for the bench JSON outputs.

Compares a freshly measured bench JSON (e.g. `bench_sqg_step --smoke
--json=fresh.json`) against the baseline committed at the repo root and
prints a markdown table plus GitHub Actions `::warning::` annotations for
every configuration whose metric regressed by more than the threshold.
Purely advisory: always exits 0 — CI runners are noisy and the committed
baseline comes from a different machine, so a warning is a prompt to look,
not a gate.

Both files hold a "results" array keyed by (network, n, threads), as the
kernel benches write it (BENCH_sqg.json, BENCH_letkf.json).
bench_ablation_letkf records each row's observation network ("identity" or
"stride<k>"); rows without the field (BENCH_sqg.json, older files) count as
the identity network. The end-to-end cycle is measured by benchmark/run.py,
not by this guard.

Rows whose thread count exceeds the hardware threads of *either* recording
machine are skipped: a `threads: 2` timing captured on a 1-core box is
oversubscription noise, not a baseline. Each row's hardware context comes
from its own `hw_threads` field when present (bench_sqg_step records it per
row), falling back to the file-level `hardware_threads`.

Usage:
  tools/bench_guard.py --baseline BENCH_sqg.json --fresh fresh.json \
      [--metric rk4_step_ms] [--threshold 0.25]
  tools/bench_guard.py --baseline BENCH_letkf.json --fresh fresh.json \
      --metric analysis_ms
"""

import argparse
import json
import sys


KEY_FIELDS = ("network", "n", "threads")


def load_results(path):
    """Returns the file's "results" rows keyed by KEY_FIELDS."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level is {type(data).__name__}, expected object")
    rows = data.get("results", [])
    if not isinstance(rows, list):
        raise ValueError(f"{path}: rows are {type(rows).__name__}, expected array")
    file_hw = data.get("hardware_threads")
    out = {}
    for r in rows:
        if not isinstance(r, dict):
            continue
        r = dict(r)
        if r.get("network") is None:
            r["network"] = "identity"
        if any(r.get(k) is None for k in KEY_FIELDS):
            continue  # unkeyable row — nothing to compare it against
        if "hw_threads" not in r and file_hw is not None:
            r["hw_threads"] = file_hw
        out[tuple(r[k] for k in KEY_FIELDS)] = r
    return out


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


def print_phase_delta_table(pairs):
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
    print(f"| {' | '.join(KEY_FIELDS)} | {names} | lane occupancy |")
    print(f"| {' | '.join('---' for _ in KEY_FIELDS)} | "
          f"{' | '.join('---' for _ in PHASE_DELTA_FIELDS)} | --- |")
    for key, cells, occ in rows:
        kcells = " | ".join(str(v) for v in key)
        print(f"| {kcells} | {' | '.join(cells)} | {occ or '-'} |")
    print("\n(lane occupancy = fresh run's share of columns solved in full SIMD "
          "lane batches; the remainder ran in padded partial batches or had no "
          "local observations.)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--fresh", required=True, help="freshly measured JSON")
    ap.add_argument("--metric", default="rk4_step_ms", help="result field to compare")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative regression that triggers a warning (0.25 = +25%%)")
    args = ap.parse_args()

    try:
        baseline = load_results(args.baseline)
        fresh = load_results(args.fresh)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"bench_guard: could not read inputs ({e}); skipping check")
        return 0

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
            where = ", ".join(f"{k}={v}" for k, v in zip(KEY_FIELDS, key))
            print(f"::warning::{args.metric} at {where} regressed "
                  f"{100 * ratio:+.1f}% vs committed baseline "
                  f"({b:.3f} ms -> {f:.3f} ms, threshold +{100 * args.threshold:.0f}%)")

    if not rows and not skipped:
        print(f"bench_guard: no overlapping {'/'.join(KEY_FIELDS)} configurations with "
              f"metric '{args.metric}' between {args.baseline} and {args.fresh}")
        return 0

    print(f"\n### Perf guard: {args.metric} vs committed baseline (advisory, "
          f"threshold +{100 * args.threshold:.0f}%)\n")
    print(f"| {' | '.join(KEY_FIELDS)} | baseline [ms] | fresh [ms] | delta | |")
    print(f"| {' | '.join('---' for _ in KEY_FIELDS)} | --- | --- | --- | --- |")
    for key, b, f, ratio, flag in rows:
        mark = ":warning:" if flag else "ok"
        cells = " | ".join(str(v) for v in key)
        print(f"| {cells} | {b:.3f} | {f:.3f} | {100 * ratio:+.1f}% | {mark} |")
    if skipped:
        configs = ", ".join(
            "(" + ", ".join(f"{k}={v}" for k, v in zip(KEY_FIELDS, key)) + ")"
            for key in skipped)
        print(f"\nSkipped {len(skipped)} oversubscribed configuration(s) — thread count "
              f"exceeds the recording machine's hardware threads: {configs}.")
    if warnings:
        print(f"\n{warnings} configuration(s) above threshold — advisory only; "
              "compare against the committed baseline's machine before acting.")
    print_phase_delta_table(pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
