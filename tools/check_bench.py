#!/usr/bin/env python3
"""Bench regression gate for CI.

Compares freshly generated BENCH_*.json artifacts against the committed
baselines and fails (exit 1) when:

  * a modeled-speedup metric regresses by more than --tolerance (default 15%);
  * an engagement/accuracy guard that was true in the baseline turns false
    (e.g. `speedup_1p2_on_at_least_two_circuits`, `bypass engaged` style
    booleans, `disabled_rerun_bit_identical`);
  * a metric falls below an absolute floor declared by the baseline's
    top-level `min_ratio` object: each entry maps a key substring to the
    minimum every matching numeric metric in the FRESH artifact must reach
    (e.g. `{"adaptive_over_fixed_ratio": 0.999}` gates "adaptive never loses
    to fixed on any deck" independently of the relative tolerance).

Only DETERMINISTIC modeled metrics are gated.  Wall-clock numbers
(`speedup`, `*_wall_seconds`, `*_seconds_per_pass`) vary with machine load
and are reported but never gated.

A per-metric delta table goes to stdout and, when $GITHUB_STEP_SUMMARY is
set, into the job summary as GitHub-flavored markdown.  --report also writes
a machine-readable bench_report.json (per-file rows + failures + exit code).

Exit codes: 0 all gates passed, 1 regression / guard flip / floor breach,
2 infrastructure problem (baseline or fresh artifact missing).  When both
kinds of failure occur, the regression exit code (1) wins — a missing file
next to a real regression should page as a regression.

Usage:
    check_bench.py --baseline-dir <committed> --current-dir <fresh> \
                   [--tolerance 0.15] [--report bench_report.json]
    check_bench.py --self-test
"""

import argparse
import json
import os
import sys
import tempfile

BENCH_FILES = ["BENCH_assembly.json", "BENCH_bypass.json",
               "BENCH_pipeline.json", "BENCH_resilience.json",
               "BENCH_reduction.json", "BENCH_batch.json"]

# Numeric metrics gated on regression.  A metric is gated when its key path
# matches one of these predicates; higher is better for all of them.
GATED_KEY_SUBSTRINGS = [
    "modeled_speedup",           # BENCH_pipeline: virtual-replay makespans
    "adaptive_over_fixed_ratio", # BENCH_pipeline: policy vs fixed scheduler
    "modeled_batch_speedup",     # BENCH_batch: shared-vs-cold sweep throughput
]

# Metrics that *look* like speedups but must never gate.
UNGATED_KEY_SUBSTRINGS = [
    "wall",              # anything wall-clock
    "seconds_per_pass",  # measured on a possibly loaded machine
]


def is_gated(path):
    if any(s in path for s in UNGATED_KEY_SUBSTRINGS):
        return False
    return any(s in path for s in GATED_KEY_SUBSTRINGS)


def flatten(node, prefix, out):
    """Flattens dicts/lists-of-named-dicts into {path: scalar}.

    Circuit arrays are keyed by each element's "name" so baselines and
    fresh runs line up even if the suite order changes.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{prefix}{key}." if prefix else f"{key}.", out)
        return
    if isinstance(node, list):
        for index, value in enumerate(node):
            tag = value.get("name", str(index)) if isinstance(value, dict) else str(index)
            flatten(value, f"{prefix}{tag}.", out)
        return
    out[prefix.rstrip(".")] = node


def compare_file(name, baseline, current, tolerance):
    """Returns (rows, failures) for one bench artifact."""
    base_flat, cur_flat = {}, {}
    flatten(baseline, "", base_flat)
    flatten(current, "", cur_flat)

    rows = []
    failures = []
    for path in sorted(base_flat):
        base_value = base_flat[path]
        if path not in cur_flat:
            failures.append(f"{name}: metric `{path}` missing from fresh run")
            rows.append((path, base_value, "(missing)", "", "FAIL"))
            continue
        cur_value = cur_flat[path]

        if isinstance(base_value, bool):
            if base_value and not cur_value:
                failures.append(f"{name}: guard `{path}` flipped true -> false")
                rows.append((path, base_value, cur_value, "", "FAIL"))
            elif base_value != cur_value:
                rows.append((path, base_value, cur_value, "", "improved"))
            continue

        if not isinstance(base_value, (int, float)) or not is_gated(path):
            continue
        delta = (cur_value - base_value) / base_value if base_value else 0.0
        status = "ok"
        if delta < -tolerance:
            status = "FAIL"
            failures.append(
                f"{name}: `{path}` regressed {-delta:.1%} "
                f"({base_value:.4g} -> {cur_value:.4g}), tolerance {tolerance:.0%}"
            )
        rows.append((path, f"{base_value:.4g}", f"{cur_value:.4g}",
                     f"{delta:+.1%}", status))

    # Absolute floors: the baseline's min_ratio block is a gate SPEC, not a
    # metric — each entry applies to every matching numeric in the fresh run.
    min_ratio = baseline.get("min_ratio", {})
    if isinstance(min_ratio, dict):
        for substring, floor in min_ratio.items():
            for path in sorted(cur_flat):
                if path.startswith("min_ratio."):
                    continue  # the spec itself, not a gated metric
                value = cur_flat[path]
                if substring not in path or not isinstance(value, (int, float)):
                    continue
                if isinstance(value, bool):
                    continue
                status = "ok"
                if value < floor:
                    status = "FAIL"
                    failures.append(
                        f"{name}: `{path}` = {value:.4g} below min_ratio "
                        f"floor {floor:.4g}"
                    )
                rows.append((path, f">= {floor:.4g}", f"{value:.4g}", "", status))
    return rows, failures


def render_table(name, rows):
    lines = [f"\n### {name}", "",
             "| metric | baseline | current | delta | status |",
             "|---|---:|---:|---:|---|"]
    for path, base_value, cur_value, delta, status in rows:
        lines.append(f"| `{path}` | {base_value} | {cur_value} | {delta} | {status} |")
    if len(rows) == 0:
        lines.append("| (no gated metrics) | | | | |")
    return "\n".join(lines) + "\n"


def run_gate(baseline_dir, current_dir, tolerance):
    """Runs every bench file through the gate.

    Returns (summary_text, report_dict, exit_code).  Regression failures
    (exit 1) take precedence over infrastructure failures (exit 2).
    """
    regression_failures = []
    missing_failures = []
    report = {"schema": "wavepipe.bench_report.v1", "tolerance": tolerance,
              "files": [], "failures": []}
    summary = ["## Bench regression gate",
               f"Tolerance: {tolerance:.0%} on modeled speedups; "
               "boolean guards must not flip true → false."]
    for name in BENCH_FILES:
        base_path = os.path.join(baseline_dir, name)
        cur_path = os.path.join(current_dir, name)
        if not os.path.exists(base_path):
            missing_failures.append(f"missing baseline {base_path}")
            report["files"].append({"name": name, "status": "missing-baseline"})
            continue
        if not os.path.exists(cur_path):
            missing_failures.append(f"missing fresh artifact {cur_path}")
            report["files"].append({"name": name, "status": "missing-fresh"})
            continue
        with open(base_path) as f:
            baseline = json.load(f)
        with open(cur_path) as f:
            current = json.load(f)
        rows, failures = compare_file(name, baseline, current, tolerance)
        regression_failures.extend(failures)
        summary.append(render_table(name, rows))
        report["files"].append({
            "name": name,
            "status": "fail" if failures else "ok",
            "rows": [{"metric": path, "baseline": str(base_value),
                      "current": str(cur_value), "delta": delta,
                      "status": status}
                     for path, base_value, cur_value, delta, status in rows],
        })

    all_failures = regression_failures + missing_failures
    if all_failures:
        summary.append("\n### Failures\n")
        summary.extend(f"- {failure}" for failure in all_failures)
    else:
        summary.append("\nAll gates passed.")
    report["failures"] = all_failures

    exit_code = 0
    if missing_failures:
        exit_code = 2
    if regression_failures:
        exit_code = 1  # regressions win over infrastructure problems
    report["exit_code"] = exit_code
    return "\n".join(summary), report, exit_code


def self_test():
    """Self-contained checks of the gate logic (no pytest dependency)."""
    failures = []

    def expect(ok, what):
        print(f"  {what:<62} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(what)

    # flatten: nested dicts and name-keyed lists.
    flat = {}
    flatten({"a": {"b": 1.5}, "runs": [{"name": "x", "v": 2}]}, "", flat)
    expect(flat == {"a.b": 1.5, "runs.x.name": "x", "runs.x.v": 2},
           "flatten keys nested paths by name")

    # is_gated: gated substrings minus the ungated overrides.
    expect(is_gated("decks.mesh.modeled_batch_speedup"),
           "modeled_batch_speedup is gated")
    expect(not is_gated("decks.mesh.wall_seconds_shared"), "wall clock never gated")

    # compare_file: regression beyond tolerance fails, within passes.
    _, fails = compare_file("t", {"modeled_speedup": 2.0},
                            {"modeled_speedup": 1.0}, 0.15)
    expect(len(fails) == 1, "50% regression fails at 15% tolerance")
    _, fails = compare_file("t", {"modeled_speedup": 2.0},
                            {"modeled_speedup": 1.9}, 0.15)
    expect(not fails, "5% regression passes at 15% tolerance")

    # Boolean guard: true -> false fails, false -> true improves.
    _, fails = compare_file("t", {"bit_identical": True},
                            {"bit_identical": False}, 0.15)
    expect(len(fails) == 1, "guard flip true -> false fails")
    _, fails = compare_file("t", {"bit_identical": False},
                            {"bit_identical": True}, 0.15)
    expect(not fails, "guard flip false -> true passes")

    # min_ratio floor: applies to every matching numeric in the FRESH run.
    # Real artifacts carry the spec in both docs, so mirror that here.
    spec = {"min_ratio": {"modeled_batch_speedup": 2.0}}
    _, fails = compare_file("t", spec,
                            dict(spec, a={"modeled_batch_speedup": 1.5}), 0.15)
    expect(len(fails) == 1, "min_ratio floor breach fails")
    _, fails = compare_file("t", spec,
                            dict(spec, a={"modeled_batch_speedup": 2.5}), 0.15)
    expect(not fails, "min_ratio floor met passes")

    # Exit codes: 2 for missing files, 1 for regressions, 1 when both.
    with tempfile.TemporaryDirectory() as base, \
         tempfile.TemporaryDirectory() as cur:
        _, _, code = run_gate(base, cur, 0.15)
        expect(code == 2, "all baselines missing -> exit 2")
        for name in BENCH_FILES[:-1]:
            for where in (base, cur):
                with open(os.path.join(where, name), "w") as f:
                    json.dump({"modeled_speedup": 2.0}, f)
        _, _, code = run_gate(base, cur, 0.15)
        expect(code == 2, "one baseline missing -> exit 2")
        with open(os.path.join(base, BENCH_FILES[-1]), "w") as f:
            json.dump({"modeled_batch_speedup": 2.0}, f)
        with open(os.path.join(cur, BENCH_FILES[-1]), "w") as f:
            json.dump({"modeled_batch_speedup": 0.5}, f)
        _, _, code = run_gate(base, cur, 0.15)
        expect(code == 1, "regression -> exit 1")
        os.remove(os.path.join(cur, BENCH_FILES[0]))
        _, _, code = run_gate(base, cur, 0.15)
        expect(code == 1, "regression + missing file -> exit 1 (regression wins)")

    if failures:
        print(f"check_bench --self-test: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("check_bench --self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir",
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--current-dir",
                        help="directory holding the freshly generated BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max allowed fractional regression (default 0.15)")
    parser.add_argument("--report",
                        help="write a machine-readable bench_report.json here")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate logic's built-in checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline_dir or not args.current_dir:
        parser.error("--baseline-dir and --current-dir are required "
                     "(or use --self-test)")

    text, report, exit_code = run_gate(args.baseline_dir, args.current_dir,
                                       args.tolerance)
    print(text)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a") as f:
            f.write(text + "\n")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2)
        print(f"\ncheck_bench: report written to {args.report}")

    if exit_code:
        print(f"\ncheck_bench: {len(report['failures'])} failure(s)",
              file=sys.stderr)
        return exit_code
    print("\ncheck_bench: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
