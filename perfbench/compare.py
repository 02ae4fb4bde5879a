#!/usr/bin/env python3
"""Compare a parent and a change measured with the same benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results.json that `run.py --out DIR` wrote
(run both sides with the same --seed, --reps and --sets). For every
(end-to-end metric, workload): each side's median and quartiles, the
paired win rate and a verdict against the bound in BENCHMARK.json.
Then an exact diff of the work counters, one row per workload and
counter. Exits 1 when a metric regressed or a work counter changed.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
from run import SPEC, WORKLOADS, quartiles  # noqa: E402

# Layer metrics that count simulated or generated work: a pure function
# of (workload, seed, program), so they must match exactly on any host.
EXACT_COUNTERS = (
    "uarch.sim_runs", "uarch.cycles", "uarch.committed_insts",
    "uarch.squashes", "uarch.cycle_cap_hits", "uarch.skipped_cycles",
    "contracts.memo_hits", "contracts.full_runs", "contracts.replay_steps",
    "pipeline.filtered_inputs", "pipeline.validation_runs",
    "executor.batches", "executor.reply_bytes", "corpus.appends",
    "corpus.checkpoints",
)


def load(path):
    with open(os.path.join(path, "results.json")) as f:
        return json.load(f)


def samples(result, workload, metric):
    return [v for s in result["sets"] for v in s[workload][metric]]


def verdict(parent, change, better, bound):
    """Verdict and paired win rate of @p change against @p parent."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_rate = wins / len(pairs)
    if win_rate >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", win_rate
    if sign * (pm - cm) / pm > bound:
        return "regressed", win_rate
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", win_rate
    return "unchanged", win_rate


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    for key in ("seed", "reps", "fraction"):
        if parent[key] != change[key]:
            sys.exit("the two sides ran with different --%s" % key)
    failed = False

    print("%-12s %-17s %30s %30s %5s  %s" % (
        "metric", "workload", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for m in SPEC["end_to_end"]:
        for w in WORKLOADS:
            p = samples(parent, w, m["name"])
            c = samples(change, w, m["name"])
            v, win_rate = verdict(p, c, m["better"], m["bound"])
            failed |= v == "regressed"
            cols = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                cols.append("%.5g [%.5g, %.5g]" % (med, q1, q3))
            print("%-12s %-17s %30s %30s %4.0f%%  %s (bound %g%%)" % (
                m["name"], w, cols[0], cols[1], 100 * win_rate, v,
                100 * m["bound"]))

    print("\n%-17s %-26s %16s %16s %s" % (
        "workload", "work counter", "parent", "change", ""))
    for w in WORKLOADS:
        for name in EXACT_COUNTERS:
            a = parent["sets"][0][w]["layers"][name]
            b = change["sets"][0][w]["layers"][name]
            failed |= a != b
            print("%-17s %-26s %16.0f %16.0f %s" % (
                w, name, a, b, "" if a == b else "CHANGED"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
