#!/usr/bin/env python3
"""Paired benchmark of two source trees, written as one BENCH_*.json record.

    python3 scripts/bench.py --base DIR --out BENCH_N.json [--first-seed S]

DIR is a checkout of the commit to compare against (for example made with
`git archive <commit> | tar -x -C DIR`); the other tree is the one holding
this script.  For each workload of BENCHMARK.json the script runs
perfbench/run.py --trace 0 for BENCHMARK.json's run_seconds in both trees,
ten pairs, with seed S + i in pair i (S is 1 unless --first-seed sets it;
a repeat of a claim takes seeds not used while the change was built) and
the first side alternating between pairs, so that slow drift of the
machine's speed falls on both sides alike.  It records every run and, per
side and metric, the median and the quartiles, and per metric the number
of pairs in which this tree's run read lower.  Then it makes one --trace 1
run per side and workload and records its per-layer metrics and, under
op_s, the time of each op of the traced round, read from the trace file
that run.py names on standard error.
Runs are sequential, one process at a time.

Each workload's entry also holds a verdict per end-to-end metric, all of
which are lower-is-better: "lower" when this tree's run read lower in at
least nine of ten pairs and the medians differ by more than the base's
interquartile range; "worse" when this tree's median exceeds the base's
by more than the metric's relative bound in BENCHMARK.json; "unresolved"
otherwise.  The verdicts are also printed as a table on standard error.

Each tree's runs write and read their bytecode under their own fresh
PYTHONPYCACHEPREFIX in a temporary directory, with bytecode writing on, so
neither side's setup_s depends on a stale __pycache__ left in its tree.  One
discarded one-second run per tree and workload fills that cache first, so
no recorded run pays for compiling.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # the fewest pairs that can carry a claimed gain


def side_env(cache_dir):
    """The environment of one tree's runs: bytecode on, cached in cache_dir."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache_dir)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run(side, tree, workload, seed, seconds, trace, env):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        info = json.loads(proc.stderr.strip().splitlines()[-1])
        with open(info["trace_file"]) as fh:
            doc["op_s"] = json.load(fh)["op_s"]
    print("%s %s seed %d trace %d: %s" % (
        side, workload, seed, trace,
        {k: round(v["value"], 4) for k, v in doc["metrics"].items()
         if not trace}), file=sys.stderr)
    return doc


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def verdict(base, head, lower_pairs, bound):
    """lower, worse or unresolved, from the two sides' summaries of one
    lower-is-better metric and the pairs in which head read lower."""
    if (lower_pairs >= 0.9 * PAIRS
            and base["median"] - head["median"] > base["q3"] - base["q1"]):
        return "lower"
    if head["median"] > base["median"] * (1 + bound):
        return "worse"
    return "unresolved"


def print_verdicts(record, file):
    row = "%-20s %-14s %12s %12s %6s  %s"
    print(row % ("workload", "metric", "base median", "head median",
                 "lower", "verdict"), file=file)
    for workload, entry in record["workloads"].items():
        for name, word in entry["verdict"].items():
            print(row % (workload, name, "%.4g" % entry["base"][name]["median"],
                         "%.4g" % entry["head"][name]["median"],
                         "%d/%d" % (entry["head_lower_pairs"][name], PAIRS),
                         word), file=file)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    sides = {"base": os.path.abspath(args.base), "head": ROOT}
    record = {
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "pairs": PAIRS, "seconds": seconds, "first_seed": args.first_seed,
        "workloads": {},
        "traced": {}}
    with tempfile.TemporaryDirectory() as tmp:
        envs = {side: side_env(os.path.join(tmp, side)) for side in sides}
        for workload in (w["name"] for w in spec["workloads"]):
            docs = {side: [] for side in sides}
            for side, tree in sides.items():
                run(side, tree, workload, args.first_seed, 1, 0, envs[side])
            for i in range(PAIRS):
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                for side in order:
                    docs[side].append(run(side, sides[side], workload,
                                          args.first_seed + i, seconds, 0,
                                          envs[side]))
            entry = {}
            for side, runs in docs.items():
                entry[side] = {name: summary([d["metrics"][name]["value"] for d in runs])
                               for name in runs[0]["metrics"]}
                entry[side]["correct"] = all(d["correct"] for d in runs)
                entry[side]["failed"] = sum(d["failed"] for d in runs)
                entry[side]["attempted"] = sum(d["attempted"] for d in runs)
            entry["head_lower_pairs"] = {
                name: sum(1 for b, h in zip(entry["base"][name]["runs"],
                                            entry["head"][name]["runs"]) if h < b)
                for name in docs["head"][0]["metrics"]}
            entry["verdict"] = {
                m["name"]: verdict(entry["base"][m["name"]],
                                   entry["head"][m["name"]],
                                   entry["head_lower_pairs"][m["name"]],
                                   m["bound"])
                for m in spec["end_to_end"]}
            record["workloads"][workload] = entry
            record["traced"][workload] = {}
            for side, tree in sides.items():
                doc = run(side, tree, workload, args.first_seed, seconds, 1,
                          envs[side])
                record["traced"][workload][side] = dict(
                    {k: v["value"] for k, v in doc["metrics"].items()},
                    op_s=doc["op_s"])
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_verdicts(record, sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
