#!/usr/bin/env python3
"""Compares nbbench runs of a parent commit and a change.

  python3 bench/nbbench/compare.py --parent p1.json ... p10.json \\
      --change c1.json ... c10.json [--claim trial_ms_min@e1_rewind_correlated]

Each file is a plain (--trace 0) report written by `run.py --out`.  A pair
is the parent's and the change's report of one seed; taken in the order
they ran, the pairs must alternate which side ran first.  For every
end-to-end metric and workload it prints each side's median and quartiles
and a verdict:

  ok          the change's median is not worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  regressed   it is;
  unresolved  the parent's own spread (interquartile range over median) is
              wider than the bound, and not every change run beats every
              parent run.

A claimed metric@workload is met only when the change wins at least 9 of
every 10 pairs (ties count for neither side) and the medians differ, in the
better direction, by more than the parent's interquartile range.  The two
runs of a seed must print identical fingerprints, and the change may fail
no more trials than the parent.  Exit code 0 means: fingerprints
identical, no extra failures, nothing regressed, and the claim (if any)
met.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MIN_PAIRS = 10


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        defs = {d["name"]: d for d in json.load(f)["end_to_end"]}
    parent = {}
    change = {}
    for paths, side in ((args.parent, parent), (args.change, change)):
        for path in paths:
            with open(path) as f:
                report = json.load(f)
            if report["seed"] in side:
                sys.exit("two reports of seed %d on one side" % report["seed"])
            side[report["seed"]] = report
    problems = []
    if set(parent) != set(change) or len(parent) < MIN_PAIRS:
        problems.append("need >= %d seeds, each run once on both sides; got "
                        "parent seeds %s and change seeds %s" %
                        (MIN_PAIRS, sorted(parent), sorted(change)))
    pairs = sorted(((parent[s], change[s]) for s in set(parent) & set(change)),
                   key=lambda pc: min(pc[0]["started"], pc[1]["started"]))
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    firsts = [p["started"] < c["started"] for p, c in pairs]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        problems.append("pairs do not alternate which side ran first")
    if any(p["trace"] or c["trace"] for p, c in pairs):
        problems.append("compare plain runs (--trace 0), not traced ones")

    workloads = sorted(set.intersection(
        *(set(r["workloads"]) for r in parent + change)))
    for p, c in pairs:
        for w in workloads:
            if p["workloads"][w]["fingerprints"] != \
                    c["workloads"][w]["fingerprints"]:
                problems.append("%s seed %d: fingerprints differ" %
                                (w, p["seed"]))
    for w in workloads:
        extra = (sum(c["workloads"][w]["failed"] for c in change) -
                 sum(p["workloads"][w]["failed"] for p in parent))
        if extra > 0:
            problems.append("%s: the change failed %d more trials" %
                            (w, extra))

    claims = set(args.claim)
    print("%-24s %-14s %-32s %-32s %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3",
        "verdict"))
    for w in workloads:
        for name, d in defs.items():
            pv = [p["workloads"][w]["metrics"][name]["value"] for p in parent]
            cv = [c["workloads"][w]["metrics"][name]["value"] for c in change]
            (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(pv), quartiles(cv)
            direction = d["better"]
            worse_by = (pm - cm if direction == "higher" else cm - pm) / pm
            if (pq3 - pq1) / pm > d["bound"] and not all(
                    better(c, p, direction) for c in cv for p in pv):
                verdict = "unresolved"
            elif worse_by > d["bound"]:
                verdict = "regressed"
                problems.append("%s@%s regressed by %.1f%% (bound %.0f%%)" % (
                    name, w, 100 * worse_by, 100 * d["bound"]))
            else:
                verdict = "ok"
            claim = name + "@" + w
            if claim in claims:
                claims.discard(claim)
                wins = sum(better(c, p, direction) for p, c in zip(pv, cv))
                met = (wins >= 0.9 * len(pairs) and better(cm, pm, direction)
                       and abs(cm - pm) > pq3 - pq1)
                verdict += "; claim %s (%d/%d pair wins, gap %.4g vs parent " \
                           "IQR %.4g)" % ("met" if met else "NOT met", wins,
                                          len(pairs), abs(cm - pm), pq3 - pq1)
                if not met:
                    problems.append("claim %s not met" % claim)
            print("%-24s %-14s %-32s %-32s %s" % (
                w, name, "%.4g/%.4g/%.4g" % (pq1, pm, pq3),
                "%.4g/%.4g/%.4g" % (cq1, cm, cq3), verdict))
    for claim in sorted(claims):
        problems.append("claim %s names no measured metric@workload" % claim)
    for problem in problems:
        print("problem: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
