#!/usr/bin/env python3
"""WavePipe benchmark: serial vs WavePipe wall clock with an accuracy oracle.

    python3 perfbench/run.py --workload powergrid --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3
    python3 perfbench/run.py --self-test [--smoke]

Run from the root of a source checkout.  The script builds the `wpbench`
harness from source (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build), writes the workload's SPICE deck from the seed, computes the
reference waveform (untimed, cached per deck), and lets the harness time the
three configurations for --seconds seconds.  --trace 1 runs the traced
harness mode instead and reports the per-layer metrics.  The last line of
stdout is the JSON result; see README.md for every metric.
"""

import argparse
import array
import bisect
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing next to the sources

import decks  # noqa: E402

CONFIGS = ("serial", "bwp", "combined")
# A run must end within 180 s of the build; the harness calls share this.
RUN_BUDGET_S = 170

# Accuracy bounds.  A WavePipe configuration fails when its error exceeds
# ERR_RATIO x serial's own error against the reference (the paper's promise:
# pipelining does not change the answer).  The serial engine itself must stay
# within SERIAL_MAX_ERR of the reference, or the run is not correct: 2% of
# swing for waveforms, a quarter period of phase for the oscillator.
ERR_RATIO = 10.0
SERIAL_MAX_ERR = {"waveform": 0.02, "phase": 0.25}
RMS_GRID_POINTS = 8000
# Reported as a configuration's error when its waveform cannot be scored (no
# waveform written, or an oscillator with no rising edge); such runs fail.
MISSING_ERR = 1000.0


# ---- statistics helpers --------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---- waveforms and the accuracy oracle -------------------------------------------

def read_wave(path):
    """Returns (times, [probe values...]) from a harness wave file."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"WPW1":
        raise ValueError(f"{path}: not a wave file")
    header = array.array("I")
    header.frombytes(data[4:12])
    if sys.byteorder != "little":
        header.byteswap()
    n, p = header
    values = array.array("d")
    values.frombytes(data[12:12 + 8 * n * (p + 1)])
    if sys.byteorder != "little":
        values.byteswap()
    times = list(values[:n])
    probes = [list(values[n + k::p]) for k in range(p)] if p else []
    return times, probes


def interpolate(times, values, t):
    """Linear interpolation, clamped to the sampled range."""
    i = bisect.bisect_left(times, t)
    if i <= 0:
        return values[0]
    if i >= len(times):
        return values[-1]
    t0, t1 = times[i - 1], times[i]
    if t1 == t0:
        return values[i]
    w = (t - t0) / (t1 - t0)
    return values[i - 1] + w * (values[i] - values[i - 1])


def rms_error(run, ref, points=RMS_GRID_POINTS):
    """RMS difference over the whole waveform on a uniform time grid spanning
    the reference, divided by the reference's swing.  `run` and `ref` are
    (times, values) pairs."""
    rt, rv = ref
    t0, t1 = rt[0], rt[-1]
    swing = max(rv) - min(rv)
    total = 0.0
    for k in range(points + 1):
        t = t0 + (t1 - t0) * k / points
        d = interpolate(run[0], run[1], t) - interpolate(rt, rv, t)
        total += d * d
    return math.sqrt(total / (points + 1)) / swing


def rising_crossings(times, values, level):
    out = []
    for i in range(1, len(times)):
        a, b = values[i - 1], values[i]
        if a < level <= b:
            out.append(times[i - 1] + (level - a) / (b - a) * (times[i] - times[i - 1]))
    return out


def phase_error(run, ref):
    """RMS crossing-time error of the rising mid-rail crossings, divided by
    the reference period.  Returns (error, run edges, reference edges); the
    k-th edges are paired over the shorter of the two edge lists.  The error
    is None when there is nothing to pair."""
    level = 0.5 * (max(ref[1]) + min(ref[1]))
    ref_edges = rising_crossings(ref[0], ref[1], level)
    run_edges = rising_crossings(run[0], run[1], level)
    if len(ref_edges) < 2 or not run_edges:
        return None, len(run_edges), len(ref_edges)
    period = median([b - a for a, b in zip(ref_edges, ref_edges[1:])])
    pairs = list(zip(run_edges, ref_edges))
    rms = math.sqrt(sum((a - b) ** 2 for a, b in pairs) / len(pairs))
    return rms / period, len(run_edges), len(ref_edges)


def score(workload, run_wave, ref_wave):
    """(error, run edges, reference edges) of one waveform; edges are None
    except on the oscillator.  Multi-probe decks score the quadratic mean of
    their probes' errors."""
    rt, rprobes = ref_wave
    t, probes = run_wave
    if workload == "ringosc":
        return phase_error((t, probes[0]), (rt, rprobes[0]))
    errs = [rms_error((t, p), (rt, r)) for p, r in zip(probes, rprobes)]
    return math.sqrt(sum(e * e for e in errs) / len(errs)), None, None


# ---- build and harness -------------------------------------------------------------

def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "transient.hpp")):
        fail("simulator sources not found: run from the root of a source checkout")
    out = os.path.join(build_dir(), "perfbench")
    tmp = os.path.join(build_dir(), "tmp")  # keeps compiler scratch in the checkout
    os.makedirs(tmp, exist_ok=True)
    log = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    os.makedirs(out, exist_ok=True)
    with open(log, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=dict(os.environ, TMPDIR=tmp)).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return os.path.join(out, "wpbench")


def harness(exe, *args, deadline=None):
    """Runs the harness; returns its JSON lines as dicts."""
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run([exe, *map(str, args)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        fail(f"wpbench {args[0]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def reference(exe, deck_path, deck_text, deadline):
    """Reference waveform for a deck, computed once and cached by deck hash."""
    cache = os.path.join(build_dir(), "perfbench-ref")
    os.makedirs(cache, exist_ok=True)
    digest = hashlib.sha256(deck_text.encode())
    with open(exe, "rb") as f:
        digest.update(f.read())
    key = digest.hexdigest()[:24]
    path = os.path.join(cache, key + ".wave")
    if not os.path.isfile(path):
        harness(exe, "reference", deck_path, path + ".tmp", deadline=deadline)
        os.replace(path + ".tmp", path)
    return read_wave(path)


# ---- one benchmark run ---------------------------------------------------------------

def account(workload, runs, ref_wave):
    """Scores every run against the reference and counts failures.

    A run fails when it did not complete, when its waveform hash differs from
    the first run of its configuration, when it left no waveform to score or
    (on the oscillator) no rising edge, or when its error exceeds ERR_RATIO
    times serial's error (on the oscillator also when its rising-edge count
    differs from the reference's).  A configuration whose first run cannot be
    scored reports MISSING_ERR as its error.  Returns (per-config summary,
    correct)."""
    scored = {}  # (config, hash) -> (err or None, edges, ref_edges)
    for r in runs:
        key = (r["config"], r["hash"])
        if key not in scored and r["wave"]:
            scored[key] = score(workload, read_wave(r["wave"]), ref_wave)
    unscored = (None, None, None)
    summary = {}
    for config in CONFIGS:
        mine = [r for r in runs if r["config"] == config]
        err, edges, ref_edges = scored.get((config, mine[0]["hash"]), unscored)
        summary[config] = {"runs": mine, "err": MISSING_ERR if err is None else err,
                           "edges": edges, "ref_edges": ref_edges}
    bound = ERR_RATIO * summary["serial"]["err"]
    for config in CONFIGS:
        s = summary[config]
        reasons = []
        for r in s["runs"]:
            err, edges, ref_edges = scored.get((config, r["hash"]), unscored)
            why = []
            if not r["completed"]:
                why.append("incomplete: " + r["abort_reason"])
            if r["hash"] != s["runs"][0]["hash"]:
                why.append("waveform hash differs from the first run")
            if err is None:
                why.append("no waveform to score" if edges is None else "no rising edges")
            elif config != "serial" and err > bound:
                why.append(f"err {err:.4g} > {ERR_RATIO:g} x serial.err")
            if edges is not None and edges != ref_edges:
                why.append(f"{edges} rising edges vs reference {ref_edges}")
            reasons.append(why)
        s["failed"] = sum(1 for why in reasons if why)
        s["reasons"] = sorted({w for why in reasons for w in why})
    kind = "phase" if workload == "ringosc" else "waveform"
    correct = summary["serial"]["failed"] == 0 and summary["serial"]["err"] <= SERIAL_MAX_ERR[kind]
    return summary, correct


def layer_metrics(lines):
    """Per-layer metrics of a traced run (see README.md for each)."""
    samples = {l["name"]: l["seconds"] for l in lines if l["kind"] == "layer_samples"}
    counts = next(l for l in lines if l["kind"] == "layer_counts")
    spans = next(l for l in lines if l["kind"] == "self")
    runs = [l for l in lines if l["kind"] == "run"]

    def runs_of(config, traced):
        return [r for r in runs if r["config"] == config and r["traced"] == traced]

    serial_runs = runs_of("serial", False)
    serial_s = min(r["wall_s"] for r in serial_runs)
    serial_traced_s = min(r["wall_s"] for r in runs_of("serial", True))
    st = serial_runs[0]
    m = {}
    for name in ("netlist.parse_s", "netlist.elaborate_s", "engine.mna_s", "engine.dcop_s",
                 "sparse.order_s", "sparse.factor_s", "reduce.s"):
        m[name] = (median(samples[name]), "s")
    m["engine.steps"] = (st["steps"], "count")
    m["engine.rejected_lte"] = (st["rejected_lte"], "count")
    m["engine.rejected_newton"] = (st["rejected_newton"], "count")
    m["engine.newton_iters"] = (st["newton_iters"], "count")
    eval_s = median(samples["devices.eval_s"])
    refactor_s = median(samples["sparse.refactor_s"])
    solve_s = median(samples["sparse.solve_s"])
    m["devices.eval_us"] = (eval_s * 1e6, "us")
    devices_share = eval_s * st["newton_iters"] / serial_s
    m["devices.share"] = (devices_share, "fraction")
    m["sparse.refactor_us"] = (refactor_s * 1e6, "us")
    m["sparse.solve_us"] = (solve_s * 1e6, "us")
    m["sparse.nnz_lu"] = (counts["sparse.nnz_lu"], "count")
    m["sparse.refactor_flops"] = (counts["sparse.refactor_flops"], "count")
    m["sparse.refactors"] = (st["lu_refactors"], "count")
    m["sparse.gflops"] = (counts["sparse.refactor_flops"] / refactor_s / 1e9, "Gflop/s")
    sparse_share = (st["lu_refactors"] * refactor_s + st["lu_full_factors"]
                    * median(samples["sparse.factor_s"]) + st["newton_iters"] * solve_s) / serial_s
    m["sparse.share"] = (sparse_share, "fraction")
    m["engine.control_share"] = (1.0 - devices_share - sparse_share, "fraction")
    for config in CONFIGS[1:]:
        mine = runs_of(config, True)
        r = mine[0]
        wall = min(x["wall_s"] for x in mine)
        speedup = serial_s / wall
        modeled = st["newton_iters"] / r["modeled_makespan_iters"]
        m[f"{config}.rounds"] = (r["rounds"], "count")
        m[f"{config}.lead_steps"] = (r["steps"], "count")
        m[f"{config}.newton_ratio"] = (r["newton_iters"] / st["newton_iters"], "ratio")
        m[f"{config}.spec_accept"] = (
            r["spec_accepted"] / r["spec_solves"] if r["spec_solves"] else 0.0, "fraction")
        m[f"{config}.spec_discarded"] = (r["spec_discarded"], "count")
        m[f"{config}.repair_solves"] = (r["repair_solves"], "count")
        m[f"{config}.round_us"] = (wall / r["rounds"] * 1e6, "us")
        m[f"{config}.cpu_util"] = (median([x["cpu_s"] / x["wall_s"] for x in mine]), "ratio")
        m[f"{config}.speedup"] = (speedup, "ratio")
        m[f"{config}.modeled_speedup"] = (modeled, "ratio")
        m[f"{config}.model_error"] = (modeled / speedup, "ratio")
    m["reduce.kept_frac"] = (counts["reduce.kept_frac"], "fraction")
    m["trace.overhead_frac"] = (serial_traced_s / serial_s - 1.0, "fraction")
    for layer in ("netlist", "engine", "devices", "sparse", "wavepipe", "reduce"):
        m[f"{layer}.self_s"] = (spans.get(layer, 0.0), "s")
    return m


def run(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns the result object."""
    exe = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work_root = os.path.join(build_dir(), "perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        deck_text = decks.generate(workload, seed, smoke)
        deck_path = os.path.join(work, f"{workload}.sp")
        with open(deck_path, "w") as f:
            f.write(deck_text)
        ref_wave = reference(exe, deck_path, deck_text, deadline)
        lines = harness(exe, "layers" if trace else "measure", seconds, work, deck_path,
                        deadline=deadline)
        runs = [l for l in lines if l["kind"] == "run"]
        summary, correct = account(workload, runs, ref_wave)
        for config in CONFIGS:
            s = summary[config]
            walls = [r["wall_s"] for r in s["runs"]]
            q1, q3 = quartiles(walls)
            edges = ("" if s["edges"] is None else
                     f", rising edges {s['edges']} (reference {s['ref_edges']})")
            print(f"{workload} {config}: attempted {len(s['runs'])}, failed {s['failed']}, "
                  f"wall min {min(walls):.4g} s, median {median(walls):.4g} s "
                  f"(quartiles {q1:.4g}, {q3:.4g}), "
                  f"err {s['err']:.6g}{edges}"
                  + ("; " + "; ".join(s["reasons"]) if s["reasons"] else ""))
        if trace:
            metrics = layer_metrics(lines)
        else:
            # Timings report the fastest sample: contention from the rest of
            # the machine only ever adds time, and the fastest sample is the
            # one it touched least.
            setup = next(l for l in lines if l["kind"] == "setup")["seconds"]
            metrics = {"setup_s": (min(setup), "s")}
            for config in CONFIGS:
                walls = [r["wall_s"] for r in summary[config]["runs"]]
                metrics[f"{config}.tran_s"] = (min(walls), "s")
            for config in CONFIGS:
                metrics[f"{config}.err"] = (summary[config]["err"], "fraction")
            rss = next(l for l in lines if l["kind"] == "rss")["peak_rss_mb"]
            metrics["peak_rss_mb"] = (rss, "MB")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    return {
        "correct": bool(correct),
        "attempted": sum(len(summary[c]["runs"]) for c in CONFIGS),
        "failed": sum(summary[c]["failed"] for c in CONFIGS),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# ---- self-test ---------------------------------------------------------------------------

def self_test(smoke):
    """Checks the benchmark's own code; exits non-zero on the first failure."""
    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            sys.exit(1)

    # Median and quartile helpers against hand-computed values.
    check(median([3, 1, 2]) == 2 and median([4, 1, 3, 2]) == 2.5, "median")
    check(quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 8.25)
          and quartiles([7]) == (7, 7), "quartiles")

    # Oracle on synthetic waveforms with known answers.
    n = 2001
    ts = [k * 1e-3 / (n - 1) for k in range(n)]
    wave = [-math.cos(2 * math.pi * 1e4 * t) for t in ts]
    shifted = [v + 0.01 for v in wave]
    check(rms_error((ts, wave), (ts, wave)) == 0.0, "rms error of identical waveforms is 0")
    check(abs(rms_error((ts, shifted), (ts, wave)) - 0.005) < 1e-9,
          "rms error of a 0.01 offset on a swing of 2 is 0.005")
    lag = 2e-6  # 2% of the 100 us period
    late = [-math.cos(2 * math.pi * 1e4 * (t - lag)) for t in ts]
    err, edges, ref_edges = phase_error((ts, late), (ts, wave))
    check(abs(err - 0.02) < 1e-4 and edges == ref_edges, "phase error of a 2% lag is 0.02")
    err, edges, _ = phase_error((ts, [0.0] * n), (ts, wave))
    check(err is None and edges == 0, "a waveform with no rising edge has no phase error")

    # Failure accounting: runs that left no waveform fail, and are not scored.
    runs = [{"config": c, "hash": "0", "wave": "", "completed": True, "abort_reason": ""}
            for c in CONFIGS for _ in range(2)]
    summary, correct = account("ringosc", runs, (ts, [wave]))
    check(not correct and all(summary[c]["failed"] == 2 and summary[c]["err"] == MISSING_ERR
                              for c in CONFIGS), "runs without a waveform count as failed")

    # RC low-pass against its exact exponential.
    exe = build()
    tau = 1e3 * 1e-9
    deck = ("rc lowpass\nvin in 0 DC 0 PULSE(0 1 0 1p 1p 1 2)\n"
            f"r1 in out 1k\nc1 out 0 1n\n.tran {tau / 100:g} {5 * tau:g}\n.print v(out)\n.end\n")
    with tempfile.TemporaryDirectory(dir=os.path.dirname(exe)) as work:
        path = os.path.join(work, "rc.sp")
        with open(path, "w") as f:
            f.write(deck)
        lines = harness(exe, "measure", 0, work, path)
        exact_t = [5 * tau * k / 4000 for k in range(4001)]
        exact = (exact_t, [1 - math.exp(-t / tau) for t in exact_t])
        for r in (l for l in lines if l["kind"] == "run" and l["wave"]):
            t, probes = read_wave(r["wave"])
            err = rms_error((t, probes[0]), exact)
            check(0 < err < 2e-3, f"{r['config']} RC low-pass err {err:.3g} vs the exact exponential")

        # Deck generators: seed 1 matches the circuits::Make* unknown counts.
        for workload in decks.WORKLOADS:
            path = os.path.join(work, workload + ".sp")
            with open(path, "w") as f:
                f.write(decks.generate(workload, 1))
            u = harness(exe, "unknowns", path, workload)[0]
            check(u["deck"] == u["generator"],
                  f"{workload} deck has {u['deck']} unknowns, generator {u['generator']}")
            check(decks.generate(workload, 5) == decks.generate(workload, 5)
                  and decks.generate(workload, 5) != decks.generate(workload, 6),
                  f"{workload} deck is a function of the seed")

    if smoke:
        for workload in decks.WORKLOADS:
            for trace in (0, 1):
                result = run(workload, 1, 0, trace, smoke=True)
                check(result["attempted"] >= 3 and all(
                    math.isfinite(m["value"]) for m in result["metrics"].values()),
                    f"smoke {workload} trace={trace}: {len(result['metrics'])} metrics")
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*decks.WORKLOADS, "all"],
                        help="'all' runs every workload in turn, one result line each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="test the benchmark itself")
    parser.add_argument("--smoke", action="store_true",
                        help="with --self-test: run every workload and configuration at tiny size")
    args = parser.parse_args()
    if args.self_test:
        self_test(args.smoke)
        return
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        for workload in decks.WORKLOADS:
            result = run(workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"workload": workload, **result}))
        return
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
