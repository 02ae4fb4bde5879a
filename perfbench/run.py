#!/usr/bin/env python3
"""Campaign benchmark of the AMuLeT reproduction (see README.md).

One workload, as BENCHMARK.json's command runs it; the last stdout line
is the result object:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Every workload, repetitions interleaved round-robin, with a table of
every metric and an optional second set to check the bounds:

    python3 perfbench/run.py [--seed N] [--reps 5] [--sets 1|2]
                             [--smoke] [--out DIR]

The program is built from this checkout into $CARGO_TARGET_DIR
(default .bench_build) on first use.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_SEED = 7
SETUP_SAMPLES = 10
MIN_REPS = 3
WARMUP_FRACTION = 0.25
# A repetition takes a few seconds; one that takes this long is hung.
CHILD_TIMEOUT_S = 60
# A shared host's speed can drift by a third over minutes. Every timing
# is paired with a fixed probe kernel run beside it (amulet_bench.cc,
# probeHostSeconds) and rescaled to a host on which the probe takes
# this long; perfbench/README.md shows the drift this removes.
PROBE_REF_S = 0.04


class BenchError(Exception):
    """The benchmark could not run or its outputs were wrong."""


def load_json(path):
    with open(path) as f:
        return json.load(f)


SPEC = load_json(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build ---------------------------------------------------------------

def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure and build the driver; returns its path."""
    bdir = os.path.join(target_dir(), "perfbench")
    tmp = os.path.join(target_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", bdir, "-j", jobs]]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "amulet_bench")


def host_facts(bench_bin):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    cache = os.path.join(os.path.dirname(bench_bin), "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    sha = "unknown"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass  # not a git checkout
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "machine": platform.machine(),
            "build_type": build_type, "git_sha": sha}


# --- Children -------------------------------------------------------------

class Runner:
    """Runs amulet_bench children, each in a fresh scratch directory."""

    def __init__(self, bench_bin, trace_dir=None):
        self.bin = bench_bin
        self.scratch = os.path.join(target_dir(), "runs", str(os.getpid()))
        self.trace_dir = trace_dir
        self.count = 0

    def child(self, args):
        # Its own process group, so a hung child is killed together with
        # the sim worker it may have spawned.
        proc = subprocess.Popen([self.bin] + args, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("amulet_bench timed out: " + " ".join(args))
        if proc.returncode != 0:
            sys.stderr.write(err[-4000:])
            raise BenchError("amulet_bench failed: " + " ".join(args))
        return json.loads(out.strip().splitlines()[-1])

    def setup(self, workload):
        """Set-up samples, each rescaled by the probe run just before."""
        r = self.child(["--workload", workload, "--setup",
                        str(SETUP_SAMPLES)])
        return [s * PROBE_REF_S / p
                for s, p in zip(r["setup_s"], r["probe_s"])]

    def campaign(self, workload, seed, fraction, traced=False):
        self.count += 1
        d = os.path.join(self.scratch, str(self.count))
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        try:
            args = ["--workload", workload, "--seed", str(seed), "--dir", d,
                    "--fraction", repr(fraction)]
            r = self.child(args + (["--traced"] if traced else []))
            export = os.path.join(d, "export.jsonl")
            if os.path.exists(export):
                with open(export, "rb") as f:
                    r["outcome"]["export_sha256"] = \
                        hashlib.sha256(f.read()).hexdigest()
            trace = os.path.join(d, "trace_%s.json" % workload)
            if traced and self.trace_dir:
                os.makedirs(self.trace_dir, exist_ok=True)
                shutil.move(trace, os.path.join(self.trace_dir,
                                                os.path.basename(trace)))
            return r
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


# --- Correctness ----------------------------------------------------------

def check_outcomes(workload, seed, fraction, outcomes):
    """Errors found in the outcomes of one (workload, seed, fraction)."""
    errors = []
    first = outcomes[0]
    for i, o in enumerate(outcomes[1:], 1):
        if o != first:
            diff = sorted(k for k in first if first.get(k) != o.get(k))
            errors.append("%s: run %d differs from run 0 in %s"
                          % (workload, i, ", ".join(diff)))
    if first["quarantined"]:
        errors.append("%s: %d programs quarantined"
                      % (workload, first["quarantined"]))
    if first["sim_input_runs"] + first["filtered"] != first["tests"]:
        errors.append("%s: sim runs + filtered != tests" % workload)
    if sum(first["signatures"].values()) != first["confirmed"]:
        errors.append("%s: signature counts do not sum to confirmed"
                      % workload)
    if seed == GOLDEN_SEED and fraction == 1.0:
        golden = load_json(os.path.join(HERE, "golden.json"))
        for field, value in golden["workloads"][workload].items():
            if first.get(field) != value:
                errors.append("%s: %s is %r, golden %r"
                              % (workload, field, first.get(field), value))
    return errors


# --- Statistics -------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def median(values):
    return statistics.median(values)


def tests_per_s(campaign):
    """A repetition's throughput, rescaled by the probes around it."""
    return campaign["tests_per_s"] * median(campaign["probe_s"]) / PROBE_REF_S


# --- One workload (BENCHMARK.json's command) -------------------------------

def run_workload(runner, workload, seed, seconds, trace):
    """Measure one workload for about @p seconds; returns (metrics,
    attempted, failed, errors)."""
    deadline = time.monotonic() + seconds
    untraced, traced, setup = [], [], []
    # A short untimed campaign first warms the host (CPU clocks, page
    # cache); it is a different campaign, so it is checked on its own.
    warmup = runner.campaign(workload, seed, WARMUP_FRACTION)
    errors = check_outcomes(workload, seed, WARMUP_FRACTION,
                            [warmup["outcome"]])
    if not trace:
        setup += runner.setup(workload)
    # Trace runs alternate untraced and traced passes of one campaign.
    min_reps = 1 if trace else MIN_REPS
    while (time.monotonic() < deadline or len(untraced) < min_reps
           or (trace and not traced)):
        if trace and len(traced) < len(untraced):
            traced.append(runner.campaign(workload, seed, 1.0, traced=True))
        else:
            untraced.append(runner.campaign(workload, seed, 1.0))
    if not trace:
        setup += runner.setup(workload)

    outcomes = [c["outcome"] for c in untraced + traced]
    errors += check_outcomes(workload, seed, 1.0, outcomes)
    outcomes.append(warmup["outcome"])
    attempted = sum(o["programs"] for o in outcomes)
    failed = sum(o["quarantined"] for o in outcomes)
    if trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = {
            "tests_per_s": median([tests_per_s(c) for c in untraced]),
            "setup_s": median(setup),
        }
        # The unscaled numbers, for the record.
        print(json.dumps({"unscaled": {
            "tests_per_s": median([c["tests_per_s"] for c in untraced]),
            "probe_s": median([p for c in untraced for p in c["probe_s"]]),
            "repetitions": len(untraced)}}), flush=True)
    return metrics, attempted, failed, errors


def layer_metrics(untraced, traced):
    """Per-layer metrics: medians over the traced passes, plus what
    needs the untraced repetitions of the same run."""
    names = traced[0]["metrics"].keys()
    m = {n: median([t["metrics"][n] for t in traced]) for n in names}
    wall = median([c["wall_s"] for c in untraced])
    m["trace.overhead_pct"] = 100.0 * (m["trace.wall_s"] / wall - 1.0)
    m["runtime.other_s"] = median([c["other_s"] for c in untraced])
    m["runtime.peak_rss_mb"] = median([c["peak_rss_mb"] for c in untraced])
    return m


def driver_main(args):
    bench_bin = build()
    print(json.dumps({"host": host_facts(bench_bin)}), flush=True)
    runner = Runner(bench_bin, os.path.join(target_dir(), "traces"))
    try:
        metrics, attempted, failed, errors = run_workload(
            runner, args.workload, args.seed, args.seconds, args.trace)
    finally:
        runner.close()
    wanted = [m["name"] for m in
              SPEC["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        errors.append("metrics not measured: " + ", ".join(missing))
    for e in errors:
        log("INCORRECT: " + e)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]}
                    for n in wanted if n in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


# --- Every workload, interleaved --------------------------------------------

def run_set(runner, seed, reps, fraction):
    """One interleaved set: per workload, every untraced repetition's
    e2e metrics, the traced pass's layer metrics, and the outcomes."""
    res = {w: {"tests_per_s": [], "setup_s": [], "outcomes": [],
               "untraced": []} for w in WORKLOADS}
    runner.campaign(WORKLOADS[0], seed, fraction * WARMUP_FRACTION)
    for w in WORKLOADS:
        res[w]["setup_s"] += runner.setup(w)
    # Round-robin, so host drift hits every workload alike.
    for _ in range(reps):
        for w in WORKLOADS:
            c = runner.campaign(w, seed, fraction)
            res[w]["tests_per_s"].append(tests_per_s(c))
            res[w]["untraced"].append(c)
            res[w]["outcomes"].append(c["outcome"])
    for w in WORKLOADS:
        t = runner.campaign(w, seed, fraction, traced=True)
        res[w]["outcomes"].append(t["outcome"])
        res[w]["layers"] = layer_metrics(res[w].pop("untraced"), [t])
    return res


def print_e2e(sets):
    print("%-16s %-18s %-8s %12s %12s %12s %4s"
          % ("metric", "workload", "unit", "median", "q1", "q3", "n"))
    for m in SPEC["end_to_end"]:
        for w in WORKLOADS:
            values = [v for s in sets for v in s[w][m["name"]]]
            q1, med, q3 = quartiles(values)
            print("%-16s %-18s %-8s %12.6g %12.6g %12.6g %4d"
                  % (m["name"], w, m["unit"], med, q1, q3, len(values)))


def print_layers(sets):
    print("\n%-30s %-8s " % ("layer metric", "unit")
          + " ".join("%14s" % w[:14] for w in WORKLOADS))
    for m in SPEC["per_layer"]:
        row = [sets[-1][w]["layers"].get(m["name"]) for w in WORKLOADS]
        print("%-30s %-8s " % (m["name"], m["unit"])
              + " ".join("%14.6g" % v if v is not None else "%14s" % "-"
                         for v in row))


def print_set_diff(sets):
    """Set-to-set median difference beside each metric's bound: how the
    bounds in BENCHMARK.json are justified."""
    print("\n%-16s %-18s %10s %10s %8s %6s"
          % ("metric", "workload", "set 1", "set 2", "diff", "bound"))
    for m in SPEC["end_to_end"]:
        for w in WORKLOADS:
            a = median(sets[0][w][m["name"]])
            b = median(sets[1][w][m["name"]])
            diff = abs(b - a) / a
            print("%-16s %-18s %10.6g %10.6g %7.1f%% %5.0f%%%s"
                  % (m["name"], w, a, b, 100 * diff, 100 * m["bound"],
                     "" if diff <= m["bound"] else "  EXCEEDS"))


def suite_main(args):
    fraction = 0.05 if args.smoke else 1.0
    reps = 1 if args.smoke else args.reps
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    started = time.monotonic()
    bench_bin = build()
    host = host_facts(bench_bin)
    print(json.dumps({"host": host}), flush=True)
    runner = Runner(bench_bin, out)
    try:
        sets = [run_set(runner, args.seed, reps, fraction)
                for _ in range(args.sets)]
    finally:
        runner.close()
    errors = []
    for w in WORKLOADS:
        errors += check_outcomes(w, args.seed, fraction,
                                 [o for s in sets for o in s[w]["outcomes"]])
        for s in sets:
            missing = [m["name"] for m in SPEC["per_layer"]
                       if m["name"] not in s[w]["layers"]]
            if missing:
                errors.append("%s: layer metrics not measured: %s"
                              % (w, ", ".join(missing)))
            if min(s[w]["tests_per_s"] + s[w]["setup_s"]) <= 0:
                errors.append("%s: a non-positive e2e value" % w)
    print_e2e(sets)
    print_layers(sets)
    if len(sets) == 2:
        print_set_diff(sets)
    total = time.monotonic() - started
    with open(os.path.join(out, "results.json"), "w") as f:
        json.dump({"host": host, "seed": args.seed, "reps": reps,
                   "fraction": fraction, "total_s": total,
                   "sets": [{w: {k: v for k, v in s[w].items()
                                 if k != "outcomes"}
                             for w in WORKLOADS} for s in sets],
                   "outcomes": {w: sets[0][w]["outcomes"][0]
                                for w in WORKLOADS}}, f, indent=1)
    print("\ntotal %.0f s; results in %s" % (total, out))
    for e in errors:
        print("INCORRECT: " + e)
    return 0 if not errors else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (the BENCHMARK.json command)")
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5,
                    help="repetitions per workload and set")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--smoke", action="store_true",
                    help="1/20 size, one repetition and a traced pass")
    ap.add_argument("--out", default=os.path.join(target_dir(), "results"))
    args = ap.parse_args()
    try:
        return driver_main(args) if args.workload else suite_main(args)
    except BenchError as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
