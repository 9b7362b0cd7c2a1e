#!/usr/bin/env python3
"""Steadiness and comparison tool for the engine benchmark.

collect: run every workload repeatedly (seed = --seed-base + round) and save
each run's full end-to-end record, then print each metric's median and
quartiles. With two checkouts the rounds alternate which one runs first, so
slow drift on the host reaches both sides alike.

    python3 enginebench/compare.py collect --runs 10 --out parent.json [--checkout DIR ...]

compare: pair two result sets run by run (same seed) and give one verdict
per workload x metric, following the rule for claiming a gain (at least
nine tenths of the pairs won and a median difference larger than the
parent's own quartile spread) and for ruling out a regression (the change's
median no worse than the bound BENCHMARK.json fixes; unresolved when the
parent's spread is wider than that bound). There is no combined score.

    python3 enginebench/compare.py compare parent.json change.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PREFIX = "enginebench-record "

# End-to-end metrics BENCHMARK.json does not list, with their direction and
# the bound by which a change may worsen them: the churn-only ones (every
# listed metric must be reported, nonzero, by every workload) and the
# wall-clock ones, whose run-to-run spread on a shared host can exceed any
# bound the benchmark may set (see README.md).
EXTRA_METRICS = {
    "ingest_tps": ("higher", 0.25),
    "result_latency_p50_ms": ("lower", 0.25),
    "result_latency_p99_ms": ("lower", 0.25),
    "send_lag_p99_ms": ("lower", 0.25),
    "churn_op_p50_us": ("lower", 0.25),
    "churn_op_p90_us": ("lower", 0.25),
    "checkpoint_ms": ("lower", 0.25),
    "restore_ms": ("lower", 0.25),
}


# Workloads the benchmark runs that BENCHMARK.json does not gate: their
# run-to-run throughput spread on a shared 4-core host exceeds the largest
# bound it may fix (25%); see README.md.
UNGATED_WORKLOADS = ["churn_checkpoint", "zipf_fanout_sharded"]


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_rules(bench):
    """name -> (better, bound) for every end-to-end metric compare judges."""
    rules = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    rules.update(EXTRA_METRICS)
    return rules


def parse_record(stdout):
    """The run's full metric record and its final result object."""
    record = None
    for line in stdout.splitlines():
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return record, result


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "enginebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=600)
    record, result = parse_record(proc.stdout)
    if proc.returncode != 0 or record is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d in %s" %
                         (workload, seed, checkout))
    values = {name: m["value"] for name, m in record.items()}
    values["failed_ops_frac"] = result["failed"] / result["attempted"]
    units = {name: m["unit"] for name, m in record.items()}
    units["failed_ops_frac"] = "fraction"
    return values, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results, rules):
    """Prints median, quartiles and relative spread per workload x metric."""
    for workload, runs in results["workloads"].items():
        print("%s (%d runs)" % (workload, len(runs)))
        for name in sorted(runs[0]):
            if name not in rules and name != "failed_ops_frac":
                continue
            values = [r[name] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-24s %-9s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.3f" % (name, results["units"].get(name, ""), med,
                                   q1, q3, spread))


def cmd_collect(args):
    checkouts = [os.path.abspath(c) for c in (args.checkout or [ROOT])]
    bench = load_benchmark(checkouts[0])
    workloads = args.workloads or (
        [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS)
    seconds = args.seconds or bench["run_seconds"]
    sets = [{"checkout": c, "seconds": seconds, "units": {},
             "workloads": {}} for c in checkouts]
    for r in range(args.runs):
        order = list(range(len(checkouts)))
        if r % 2 == 1:
            order.reverse()
        for workload in workloads:
            for i in order:
                values, units = run_once(checkouts[i], workload,
                                         args.seed_base + r, seconds)
                sets[i]["workloads"].setdefault(workload, []).append(values)
                sets[i]["units"].update(units)
                print("round %d %s %s: done" % (r, workload, checkouts[i]),
                      file=sys.stderr)
    outs = [args.out] if len(checkouts) == 1 else [
        "%s.%d.json" % (args.out.rsplit(".json", 1)[0], i)
        for i in range(len(checkouts))]
    for out, data in zip(outs, sets):
        with open(out, "w") as f:
            json.dump(data, f, indent=1)
        print("== %s -> %s" % (data["checkout"], out))
        summarize(data, metric_rules(bench))
    return 0


def verdict(parent, change, better, bound):
    """better / worse / unresolved / within-bound for paired samples."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = min(len(parent), len(change))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    diff = sign * (c_med - p_med)
    if wins >= 0.9 * pairs and diff > p_q3 - p_q1:
        return "better", wins, losses
    if p_med == 0:
        worse = c_med * sign < 0
        return ("worse" if worse else "within-bound"), wins, losses
    if -diff / abs(p_med) > bound:
        return "worse", wins, losses
    if (p_q3 - p_q1) / abs(p_med) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better", wins, losses
        return "unresolved", wins, losses
    return "within-bound", wins, losses


def cmd_compare(args):
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    rules = metric_rules(load_benchmark(ROOT))
    rules["failed_ops_frac"] = ("lower", 0.0)
    print("%-20s %-24s %12s %12s %6s %s" %
          ("workload", "metric", "parent_med", "change_med", "wins",
           "verdict"))
    for workload, p_runs in parent["workloads"].items():
        c_runs = change["workloads"].get(workload)
        if not c_runs:
            print("%-20s missing from %s" % (workload, args.change))
            continue
        for name in sorted(p_runs[0]):
            if name not in rules:
                continue
            better, bound = rules[name]
            p = [r[name] for r in p_runs]
            c = [r[name] for r in c_runs]
            v, wins, losses = verdict(p, c, better, bound)
            print("%-20s %-24s %12.6g %12.6g %3d/%-2d %s" %
                  (workload, name, statistics.median(p),
                   statistics.median(c), wins, min(len(p), len(c)), v))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    collect = sub.add_parser("collect")
    collect.add_argument("--runs", type=int, default=10)
    collect.add_argument("--seed-base", type=int, default=1)
    collect.add_argument("--seconds", type=float)
    collect.add_argument("--workloads", nargs="*")
    collect.add_argument("--checkout", action="append",
                         help="checkout to run (repeat for two)")
    collect.add_argument("--out", required=True)
    compare = sub.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args()
    return cmd_collect(args) if args.cmd == "collect" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
