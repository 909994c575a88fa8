#!/usr/bin/env python3
"""Compare bench_e2e runs of a parent and a change commit.

usage:
  compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
  compare.py --spread DIR [--benchmark BENCHMARK.json]

Each DIR holds one file per run, named <workload>.seed<N>.json (untraced)
or <workload>.seed<N>.trace.json (traced), whose last line is bench_e2e's
JSON result; `run.sh --repeat N` writes them. Runs of the two commits are
paired by workload and seed.

For every (workload, end-to-end metric) the comparison prints each side's
median and quartiles, the share of pairs the change won (ties count for
neither) and a verdict, by the rules of the choosing-metrics method:

  better      the change won >= 90% of the pairs and the medians differ
              by more than the parent's own quartile spread;
  unresolved  the run-to-run spread (quartile distance over median) of
              either side is wider than the metric's bound;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Two metrics have rules of their own. error_rate (failed / attempted over
all runs of a side) may not rise at all. plan_rho_mean, from traced runs,
is deterministic for a seed, so any pair differing by more than 1e-9
relative reads "changed". Other per-layer metrics are shown as medians.
"""

import argparse
import json
import os
import statistics
import sys

WIN_SHARE = 0.9
RHO_TOLERANCE = 1e-9


def last_json_line(path):
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty result file")
    return json.loads(lines[-1])


def load_runs(directory):
    """{(workload, seed, traced): result} for every result file in DIR."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        parts = name.split(".")
        if parts[-1] != "json" or len(parts) < 3 or not parts[1].startswith("seed"):
            continue
        traced = parts[2] == "trace"
        key = (parts[0], int(parts[1][len("seed"):]), traced)
        runs[key] = last_json_line(os.path.join(directory, name))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(pairs, better, bound):
    """Verdict for one metric over (parent, change) value pairs."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = won / len(pairs)
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    if share >= WIN_SHARE and abs(c_median - p_median) > p_q3 - p_q1:
        return "better", share
    if max(relative_spread(parent), relative_spread(change)) > bound:
        return "unresolved", share
    worse_by = -sign * (c_median - p_median) / abs(p_median) if p_median else 0.0
    if worse_by > bound:
        return "worse", share
    return "unchanged", share


def error_verdict(parent_runs, change_runs):
    """error_rate may not rise at all: compare failed / attempted totals."""

    def rate(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    parent, change = rate(parent_runs), rate(change_runs)
    if change > parent:
        return "worse", parent, change
    if change < parent:
        return "better", parent, change
    return "unchanged", parent, change


def rho_verdict(pairs):
    """plan_rho_mean is exact for a seed: any difference is a change."""
    for parent, change in pairs:
        if abs(change - parent) > RHO_TOLERANCE * max(abs(parent), abs(change)):
            return "changed"
    return "unchanged"


def fmt(value):
    return f"{value:.6g}"


def compare(parent_dir, change_dir, benchmark):
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    shared = sorted(set(parent_runs) & set(change_runs))
    if not shared:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<16} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>5}  verdict")
    regressions = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        untraced = [k for k in shared if k[0] == workload and not k[2]]
        traced = [k for k in shared if k[0] == workload and k[2]]
        for metric in benchmark["end_to_end"] if untraced else []:
            name = metric["name"]
            pairs = [(parent_runs[k]["metrics"][name]["value"],
                      change_runs[k]["metrics"][name]["value"]) for k in untraced]
            result, share = verdict(pairs, metric["better"], metric["bound"])
            regressions += result == "worse"
            sides = []
            for values in ([p for p, _ in pairs], [c for _, c in pairs]):
                q1, median, q3 = quartiles(values)
                sides.append(f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]")
            print(f"{workload:<12} {name:<16} {sides[0]:<34} {sides[1]:<34} "
                  f"{share:>5.0%}  {result}")
        keys = untraced or traced
        if keys:
            result, parent, change = error_verdict(
                [parent_runs[k] for k in keys], [change_runs[k] for k in keys])
            regressions += result == "worse"
            print(f"{workload:<12} {'error_rate':<16} {fmt(parent):<34} "
                  f"{fmt(change):<34} {'':>5}  {result}")
        if traced:
            pairs = [(parent_runs[k]["metrics"]["plan_rho_mean"]["value"],
                      change_runs[k]["metrics"]["plan_rho_mean"]["value"])
                     for k in traced]
            print(f"{workload:<12} {'plan_rho_mean':<16} "
                  f"{'(traced, per seed)':<34} {'':<34} {'':>5}  {rho_verdict(pairs)}")
            for metric in benchmark["per_layer"]:
                name = metric["name"]
                if name == "plan_rho_mean":
                    continue
                parent = statistics.median(parent_runs[k]["metrics"][name]["value"]
                                           for k in traced)
                change = statistics.median(change_runs[k]["metrics"][name]["value"]
                                           for k in traced)
                print(f"{workload:<12}   {name:<36} {fmt(parent):>12} -> "
                      f"{fmt(change):<12} {metric['unit']}")
    return 1 if regressions else 0


def spread(directory, benchmark):
    runs = load_runs(directory)
    print(f"{'workload':<12} {'metric':<16} {'n':>3} {'median':>12} "
          f"{'iqr/median':>11} {'range/median':>13} {'bound':>6}")
    wide = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        keys = [k for k in sorted(runs) if k[0] == workload and not k[2]]
        if not keys:
            continue
        for metric in benchmark["end_to_end"]:
            values = [runs[k]["metrics"][metric["name"]]["value"] for k in keys]
            median = statistics.median(values)
            iqr = relative_spread(values)
            span = (max(values) - min(values)) / abs(median) if median else 0.0
            flag = ""
            if iqr >= metric["bound"] / 3:
                flag = "  wider than bound/3"
                wide += 1
            print(f"{workload:<12} {metric['name']:<16} {len(values):>3} "
                  f"{fmt(median):>12} {iqr:>11.4f} {span:>13.4f} "
                  f"{metric['bound']:>6}{flag}")
        failed = sum(runs[k]["failed"] for k in keys)
        print(f"{workload:<12} {'failed':<16} {len(keys):>3} {failed:>12}")
    return 1 if wide else 0


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", help="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--spread", metavar="DIR",
                        help="print each metric's run-to-run spread in DIR")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    if args.spread:
        return spread(args.spread, benchmark)
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --spread DIR")
    return compare(args.dirs[0], args.dirs[1], benchmark)


if __name__ == "__main__":
    sys.exit(main())
