#!/usr/bin/env python3
"""nbbench: the end-to-end benchmark of noisybeeps.

Run from the repository root:

  python3 bench/nbbench/run.py --seed 1                  # measured workloads
  python3 bench/nbbench/run.py --workload e2_repetition --seed 4 --seconds 36
  python3 bench/nbbench/run.py --seed 1 --trace 1 --out traced.json
  python3 bench/nbbench/run.py --smoke                   # the self-test

The first run builds the nbbench binary and the libraries it links from
source into .bench_build/, as part of the repository's own CMake project
(see project_hook.cmake).  Without --workload a run measures the
workloads BENCHMARK.json lists; nbbench.json defines them and two more
that run only when named.  A run measures each workload for
--seconds, split over `passes` child processes that run one at a time; with
several workloads the passes interleave (pass 0 of every workload, then
pass 1, ...) so load spikes spread evenly.  --trace 1 runs traced
children, which also replay the layer functions and time the tracing's own
cost, and reports the per-layer metrics instead of the end-to-end ones.

Every metric is printed as `workload metric value unit`; the last line of
standard output is one JSON object {correct, attempted, failed, metrics}.
The exit code is 0 only when every trial passed its judge and every
fingerprint matched: the RunJob recomputation always, and the pins in
nbbench.json when --seed is the pinned seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
PHASES = ("owner-finding", "chunk-sim", "verify-flags", "audit", "repetition")


def load_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark_json = json.load(f)
    with open(os.path.join(HERE, "nbbench.json")) as f:
        record = json.load(f)
    return benchmark_json, record


def build():
    """Configures once, then brings the nbbench binary up to date."""
    build_dir = os.path.join(ROOT, ".bench_build")
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ROOT, "-B", build_dir,
                        "-DCMAKE_PROJECT_INCLUDE=" +
                        os.path.join(HERE, "project_hook.cmake"),
                        "-DNB_BUILD_TESTS=OFF", "-DNB_BUILD_BENCH=OFF",
                        "-DNB_BUILD_EXAMPLES=OFF"],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "nbbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "nbbench")


def run_child(binary, workload, spec, seed, pass_index, seconds, trace):
    """One nbbench process; returns its JSON records, the result last."""
    command = [binary, "--workload=" + workload, "--spec=" + spec,
               "--seed=%d" % seed, "--pass=%d" % pass_index,
               "--seconds=%r" % seconds]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=seconds + 150)
    if done.returncode != 0:
        raise RuntimeError("%s pass %d failed (exit %d): %s" % (
            workload, pass_index, done.returncode, done.stderr.strip()))
    return [json.loads(line) for line in done.stdout.splitlines()]


def measure(binary, workloads, record, seed, seconds, trace):
    """Runs the passes interleaved across workloads; returns raw records."""
    passes = record["passes"]
    results = {w: [] for w in workloads}
    spans = {w: [] for w in workloads}
    layers = {w: [] for w in workloads}
    for pass_index in range(passes):
        for w in workloads:
            records = run_child(binary, w, record["workloads"][w]["spec"],
                                seed, pass_index, seconds / passes, trace)
            results[w].append(records[-1])
            for r in records[:-1]:
                if r["kind"] == "span":
                    spans[w].append(dict(r, **{"pass": pass_index}))
                else:
                    layers[w].append(r)
    return results, spans, layers


# Printed with every plain run but not bounded: on a shared machine they
# measure mostly the other tenants (README.md, "Why the fastest trial").
UNBOUNDED = (("trials_per_s", "trials/s"), ("trial_ms_p50", "ms"),
             ("trial_ms_p90", "ms"))


def end_to_end_metrics(results):
    # Other tenants only ever slow a trial, by up to 1.9x, on one CPU or on
    # all of them, for seconds to minutes.  The child takes the CPUs in
    # turn, one per trial, so the fastest trial of the run is one that met
    # a free core.
    trial_ms = [ms for r in results for ms in r["trial_ms"]]
    deciles = statistics.quantiles(trial_ms, n=10)
    return {
        "trial_ms_min": min(trial_ms),
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_p90": deciles[8],
        "trials_per_s": (sum(r["trials"] for r in results) /
                         sum(r["loop_s"] for r in results)),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def per_layer_metrics(results, layers):
    trials = sum(r["trials"] for r in results)

    def total(key):
        return sum(r[key] for r in results)

    metrics = {
        "protocol.choose_beep_calls": total("choose_beep_calls") / trials,
        "protocol.choose_beep_ms": total("choose_beep_ns") / trials / 1e6,
        "channel.calls": total("channel_calls") / trials,
        "channel.ms": total("channel_ns") / trials / 1e6,
        "coding.self_ms": (total("simulate_ns") - total("channel_ns") -
                           total("choose_beep_ns")) / trials / 1e6,
        "coding.blowup": total("blowup") / trials,
        "coding.commit_ratio": (total("chunks_needed") /
                                total("chunks_attempted")
                                if total("chunks_attempted") else 0.0),
        "harness.overhead_ms": (total("loop_s") * 1e9 - total("trial_ns")) /
                               trials / 1e6,
        "trace.overhead_pct": 100.0 * (statistics.median(
            ratio for r in results for ratio in r["overhead_ratios"]) - 1),
    }
    for phase in PHASES:
        metrics["coding.rounds." + phase] = sum(
            r["phase_rounds"].get(phase, 0) for r in results) / trials
    # Each pass replays the layers once; the fastest pass counts, as the
    # fastest trial does in the end-to-end metrics.
    for name in layers[0]:
        if name != "kind":
            metrics[name] = min(replay[name] for replay in layers)
    return metrics


def evaluate(results, pins, seed, pinned_seed):
    """Counts failed trials; a fingerprint mismatch fails the workload.

    A pass's fingerprint is RunJob's results fingerprint of its first
    trials, then the digest of their transcripts: "0x<results>/0x<digest>".
    """
    attempted = sum(r["trials"] for r in results)
    failed = sum(r["failed"] for r in results)
    fingerprints = [r["fingerprint"] + "/" + r["transcript_digest"]
                    for r in results]
    mismatch = any(r["fingerprint"] != r["runjob_fingerprint"]
                   for r in results)
    if seed == pinned_seed and fingerprints != pins:
        mismatch = True
    if mismatch:
        failed = attempted
    return {"attempted": attempted, "failed": failed,
            "fail_rate": failed / attempted, "fingerprints": fingerprints,
            "fingerprint_mismatch": mismatch}


def benchmark(binary, workloads, seed, seconds, trace, benchmark_json, record,
              pins=None):
    """Measures and checks; returns the report run.py prints and saves."""
    report = {"seed": seed, "seconds": seconds, "trace": int(trace),
              "started": time.time(), "workloads": {}}
    results, spans, layers = measure(binary, workloads, record, seed,
                                     seconds, trace)
    defs = benchmark_json["per_layer" if trace else "end_to_end"]
    for w in workloads:
        entry = evaluate(results[w],
                         (pins or {}).get(w, record["workloads"][w]["pins"]),
                         seed, record["pinned_seed"])
        values = (per_layer_metrics(results[w], layers[w]) if trace
                  else end_to_end_metrics(results[w]))
        entry["metrics"] = {d["name"]: {"value": values[d["name"]],
                                        "unit": d["unit"]} for d in defs}
        if trace:
            entry["spans"] = spans[w]
        else:
            entry["unbounded"] = {name: {"value": values[name], "unit": unit}
                                  for name, unit in UNBOUNDED}
        report["workloads"][w] = entry
    return report


def summarize(report):
    """Prints every metric, then the JSON result line; returns exit code."""
    single = len(report["workloads"]) == 1
    attempted = failed = 0
    metrics = {}
    for w, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            print("%s %s %r %s" % (w, name, m["value"], m["unit"]))
            metrics[name if single else name + "@" + w] = m
        for name, m in entry.get("unbounded", {}).items():
            print("%s %s %r %s" % (w, name, m["value"], m["unit"]))
        print("%s fail_rate %r fraction" % (w, entry["fail_rate"]))
        print("%s trials %d count" % (w, entry["attempted"]))
        print("%s fingerprints %s" % (w, " ".join(entry["fingerprints"])))
        attempted += entry["attempted"]
        failed += entry["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def smoke(binary, benchmark_json, record):
    """Every workload at 3 trials per pass, plain and traced."""
    workloads = list(record["workloads"])
    assert all(w["name"] in workloads for w in benchmark_json["workloads"]), \
        "BENCHMARK.json names a workload nbbench.json does not define"
    seed = record["pinned_seed"]
    plain = benchmark(binary, workloads, seed, 0, False, benchmark_json, record)
    traced = benchmark(binary, workloads, seed, 0, True, benchmark_json, record)
    for w in workloads:
        p, t = plain["workloads"][w], traced["workloads"][w]
        # evaluate() already compared each pass with RunJob and the pins.
        assert not p["fingerprint_mismatch"], (w, p["fingerprints"])
        assert t["fingerprints"] == p["fingerprints"], (w, "traced differs")
        for report, kind in ((plain, "end_to_end"), (traced, "per_layer")):
            printed = report["workloads"][w]["metrics"]
            for d in benchmark_json[kind]:
                assert printed[d["name"]]["unit"] == d["unit"], (w, d)
    wrong = {w: ["0x%016x/0x%016x" % (0, 0)] * record["passes"]
             for w in workloads}
    broken = benchmark(binary, workloads[:1], seed, 0, False, benchmark_json,
                       record, pins=wrong)
    assert broken["workloads"][workloads[0]]["fail_rate"] == 1.0
    assert summarize(broken) != 0
    print("nbbench smoke: ok (%d workloads)" % len(workloads))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    benchmark_json, record = load_definitions()
    binary = build()
    if args.smoke:
        return smoke(binary, benchmark_json, record)

    if args.workload is not None and args.workload not in record["workloads"]:
        parser.error("unknown workload %r (have: %s)" %
                     (args.workload, ", ".join(record["workloads"])))
    # Without --workload, the workloads BENCHMARK.json measures.
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in benchmark_json["workloads"]])
    seed = record["pinned_seed"] if args.seed is None else args.seed
    seconds = (benchmark_json["run_seconds"] if args.seconds is None
               else args.seconds)
    report = benchmark(binary, workloads, seed, seconds, bool(args.trace),
                       benchmark_json, record)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return summarize(report)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError,
            ValueError, KeyError) as error:
        print("nbbench: %s" % error, file=sys.stderr)
        sys.exit(1)
