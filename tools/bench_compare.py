#!/usr/bin/env python3
"""Compare two bench_results/ directories and flag perf regressions.

Usage:
    tools/bench_compare.py CURRENT_DIR BASELINE_DIR [--threshold 0.25]
                           [--metric real_time] [--verbose]

Both directories hold the artifacts tools/bench_json.sh emits:

  * Google-Benchmark JSON ({"benchmarks": [...]}) — the timing record.
    Each benchmark present in BOTH files is compared on --metric
    (default real_time); a benchmark is a regression when
        current > baseline * (1 + threshold).
  * Table-bench JSON mirrors (arrays of row objects) — compared
    informationally (printed with --verbose) by default: their columns
    mix counts, rates, and identifiers, and the message-cost invariants
    they record are asserted by the benches themselves.

HARD ratio gates (--gate-table FILE:COLUMN:MIN, repeatable): some table
columns are hardware-independent ratios (abl14's batched-over-single
"xB/x1") and CAN be gated hard even on a noisy box. For each spec the maximum value of
COLUMN across FILE's rows must be >= MIN, and — when a baseline copy of
FILE exists — must not fall below the baseline maximum by more than
--threshold. With --gates-only the timing comparison is skipped
entirely and the exit status reflects the gates alone; tools/ci.sh runs
the timing compare SOFT and the gate invocation HARD.

Exit status: 0 when no timing regression exceeds the threshold (missing
baseline files or benchmarks are reported but not fatal — the trajectory
grows new points), 1 when at least one does, 2 on usage/IO errors.

The default threshold is deliberately loose (25%): CI machines are
noisy, and this check is wired into tools/ci.sh as a SOFT failure — a
tripwire that turns silent drift into a visible warning, not a merge
blocker. Tighten it when comparing runs from the same quiet machine.

Measured noise floor (single-core container, back-to-back identical
builds through tools/bench_json.sh): at --benchmark_min_time=0.05 the
micro suites swing up to +180% between runs (the 25% threshold is
useless); at 0.25 the worst same-build delta is ~±13%, giving the 25%
default about 2x margin. bench_json.sh therefore defaults min_time to
0.25 — do not lower it below that when the output feeds this compare.
"""

import argparse
import json
import os
import sys


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        return None


def benchmark_map(doc, metric):
    """name -> metric value for a Google-Benchmark JSON document."""
    out = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name")
        value = bench.get(metric)
        # Skip aggregate rows (mean/median/stddev) — compare raw runs.
        if bench.get("run_type") == "aggregate":
            continue
        if isinstance(name, str) and isinstance(value, (int, float)):
            out[name] = float(value)
    return out


def compare_google_benchmark(name, current, baseline, args):
    """Returns the list of regression description strings."""
    cur = benchmark_map(current, args.metric)
    base = benchmark_map(baseline, args.metric)
    regressions = []
    for bench, base_value in sorted(base.items()):
        if bench not in cur:
            print(f"  [gone]    {bench} (present only in baseline)")
            continue
        cur_value = cur[bench]
        if base_value <= 0:
            continue
        ratio = cur_value / base_value
        delta = 100.0 * (ratio - 1.0)
        tag = "ok"
        if ratio > 1.0 + args.threshold:
            tag = "REGRESSION"
            regressions.append(
                f"{name}: {bench}: {args.metric} {base_value:.1f} -> "
                f"{cur_value:.1f} ({delta:+.1f}%, threshold "
                f"{100.0 * args.threshold:.0f}%)"
            )
        elif ratio < 1.0 - args.threshold:
            tag = "improved"
        if args.verbose or tag != "ok":
            print(f"  [{tag}] {bench}: {base_value:.1f} -> {cur_value:.1f} "
                  f"({delta:+.1f}%)")
    for bench in sorted(set(cur) - set(base)):
        print(f"  [new]     {bench}")
    return regressions


def describe_rows(name, current, baseline, verbose):
    """Informational diff for list-of-row-objects table mirrors."""
    if not verbose:
        return
    n_cur = len(current) if isinstance(current, list) else 0
    n_base = len(baseline) if isinstance(baseline, list) else 0
    print(f"  table mirror: {n_base} -> {n_cur} rows (not gated)")


def parse_gate_spec(spec):
    """FILE:COLUMN:MIN -> (file, column, minimum); None on bad syntax."""
    parts = spec.rsplit(":", 1)
    if len(parts) != 2:
        return None
    head, min_text = parts
    parts = head.split(":", 1)
    if len(parts) != 2:
        return None
    fname, column = parts
    try:
        return fname, column, float(min_text)
    except ValueError:
        return None


def column_max(rows, column):
    """Maximum numeric value of `column` over a table mirror's rows."""
    best = None
    for row in rows if isinstance(rows, list) else []:
        value = row.get(column) if isinstance(row, dict) else None
        if isinstance(value, (int, float)):
            best = value if best is None else max(best, float(value))
    return best


def run_table_gates(args):
    """Evaluates --gate-table specs; returns the failure descriptions."""
    failures = []
    for spec in args.gate_table:
        parsed = parse_gate_spec(spec)
        if parsed is None:
            failures.append(f"bad --gate-table spec: {spec!r} "
                            "(want FILE:COLUMN:MIN)")
            continue
        fname, column, minimum = parsed
        doc = load_json(os.path.join(args.current, fname))
        if doc is None:
            failures.append(f"{fname}: gated artifact missing or unreadable")
            continue
        best = column_max(doc, column)
        if best is None:
            failures.append(
                f"{fname}: gated column {column!r} missing or non-numeric")
            continue
        if best < minimum:
            failures.append(f"{fname}: max {column!r} = {best:g} "
                            f"below the floor {minimum:g}")
        else:
            print(f"gate ok: {fname}: max {column!r} = {best:g} "
                  f">= {minimum:g}")
        base_path = os.path.join(args.baseline, fname)
        if os.path.exists(base_path):
            base_doc = load_json(base_path)
            base_best = column_max(base_doc, column) if base_doc else None
            if (base_best is not None and base_best > 0
                    and best < base_best * (1.0 - args.threshold)):
                failures.append(
                    f"{fname}: max {column!r} regressed {base_best:g} -> "
                    f"{best:g} (past {100.0 * args.threshold:.0f}%)")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="diff bench_results directories, exit 1 on regression")
    parser.add_argument("current", help="current bench_results directory")
    parser.add_argument("baseline", help="baseline bench_results directory")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative slowdown that counts as a "
                             "regression (default 0.25 = 25%%)")
    parser.add_argument("--metric", default="real_time",
                        help="Google-Benchmark field to compare "
                             "(default real_time)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every comparison, not just changes")
    parser.add_argument("--gate-table", action="append", default=[],
                        metavar="FILE:COLUMN:MIN",
                        help="HARD gate: max of COLUMN in table mirror "
                             "FILE must be >= MIN (and must not regress "
                             "past --threshold vs the baseline copy); "
                             "repeatable")
    parser.add_argument("--gates-only", action="store_true",
                        help="evaluate --gate-table specs only; skip the "
                             "timing comparison (baseline dir may be "
                             "missing)")
    args = parser.parse_args()

    if args.gates_only:
        if not args.gate_table:
            print("bench_compare: --gates-only without --gate-table",
                  file=sys.stderr)
            return 2
        if not os.path.isdir(args.current):
            print(f"bench_compare: not a directory: {args.current}",
                  file=sys.stderr)
            return 2
        failures = run_table_gates(args)
        if failures:
            print(f"\nbench_compare: {len(failures)} gate failure(s):")
            for f in failures:
                print(f"  {f}")
            return 1
        print("\nbench_compare: all table gates satisfied")
        return 0

    for d in (args.current, args.baseline):
        if not os.path.isdir(d):
            print(f"bench_compare: not a directory: {d}", file=sys.stderr)
            return 2

    current_files = sorted(
        f for f in os.listdir(args.current) if f.endswith(".json"))
    if not current_files:
        print(f"bench_compare: no .json artifacts in {args.current}",
              file=sys.stderr)
        return 2

    regressions = []
    compared = 0
    for fname in current_files:
        cur_path = os.path.join(args.current, fname)
        base_path = os.path.join(args.baseline, fname)
        if not os.path.exists(base_path):
            print(f"{fname}: no baseline (new artifact)")
            continue
        current = load_json(cur_path)
        baseline = load_json(base_path)
        if current is None or baseline is None:
            return 2
        print(f"{fname}:")
        if isinstance(current, dict) and "benchmarks" in current:
            regressions += compare_google_benchmark(
                fname, current, baseline, args)
            compared += 1
        else:
            describe_rows(fname, current, baseline, args.verbose)

    if args.gate_table:
        regressions += run_table_gates(args)
    if compared == 0 and not args.gate_table:
        print("bench_compare: no Google-Benchmark artifacts shared with "
              "the baseline; nothing gated")
        return 0
    if regressions:
        print(f"\nbench_compare: {len(regressions)} regression(s) past "
              f"{100.0 * args.threshold:.0f}%:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print("\nbench_compare: no regressions past threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
