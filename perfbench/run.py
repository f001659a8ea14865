#!/usr/bin/env python3
"""Benchmark of gradedca: one workload per run, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds src/gradedca and corpus/.
The load is a closed loop with one caller: each op starts when the previous
one has ended, in one process, with no threads.  A run repeats whole rounds
(the workload's fixed set of ops, see workloads.py) until S seconds have
passed, and always finishes at least one round.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json:

    setup_s       median over SETUP_PROBES fresh interpreters of the time to
                  import gradedca, read and validate the inputs and build
                  the job and module objects
    wall_s        median over rounds of the round's summed op time
    peak_rss_mib  peak resident memory of this process

The median op time over every op of the run goes to standard error as
op_p50_s; see perfbench/README.md for why it is not a gated metric.

With --trace 1 the run makes one untraced pass over the ops that serve as
the overhead reference, then one traced round, and prints the per-layer
metrics; the spans go to perfbench/out/trace-<workload>-<seed>.json.

Every op's result is checked against values computed apart from the
program (oracles.py).  An op that raises counts as failed.  The exit code
is 0 when the run completed, even with failed ops or wrong results, which
the JSON reports; it is 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5

_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
wl = workloads.WORKLOADS[sys.argv[3]]
t0 = time.perf_counter()
wl.setup(int(sys.argv[4]))
print(time.perf_counter() - t0)
"""

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")]

# per-layer metric -> (what, tracer key).  "calls": calls of a wrapped
# function; "s": its time, outermost calls only; "count": calls of a
# counted function; "self": a layer's self time; "setup_s": a wrapped
# function's time during the traced set-up; the rest are the tracer's own
# tallies and the run's traced wall, self and overhead times.
PER_LAYER = [
    ("poly.mul_calls", "calls", "poly.Poly.__mul__"),
    ("poly.mul_s", "s", "poly.Poly.__mul__"),
    ("poly.grevlex_key_calls", "count", "poly.grevlex_key"),
    ("poly.self_s", "self", "poly"),
    ("modules.self_s", "self", "modules"),
    ("gb.reduce_vector_calls", "calls", "gb.reduce_vector"),
    ("gb.reduce_vector_s", "s", "gb.reduce_vector"),
    ("gb.buchberger_calls", "calls", "gb.buchberger"),
    ("gb.buchberger_s", "s", "gb.buchberger"),
    ("gb.kernel_of_map_calls", "calls", "gb.kernel_of_map"),
    ("gb.kernel_of_map_s", "s", "gb.kernel_of_map"),
    ("gb.minimal_free_resolution_s", "s", "gb.minimal_free_resolution"),
    ("gb.self_s", "self", "gb"),
    ("hilbert.coefficients_calls", "calls", "hilbert.hilbert_coefficients"),
    ("hilbert.coefficients_repeat_calls", "repeats", None),
    ("hilbert.coefficients_s", "s", "hilbert.hilbert_coefficients"),
    ("hilbert.hs_value_calls", "calls", "hilbert._hs_value"),
    ("hilbert.hs_value_s", "s", "hilbert._hs_value"),
    ("hilbert.module_length_calls", "calls", "hilbert.module_length"),
    ("hilbert.module_length_s", "s", "hilbert.module_length"),
    ("hilbert.self_s", "self", "hilbert"),
    ("koszul.homology_calls", "calls", "koszul.koszul_homology"),
    ("koszul.homology_s", "s", "koszul.koszul_homology"),
    ("koszul.self_s", "self", "koszul"),
    ("homology.ext_module_calls", "calls", "homology.ext_module"),
    ("homology.ext_module_s", "s", "homology.ext_module"),
    ("homology.unmixed_component_s", "s", "homology.unmixed_component"),
    ("homology.self_s", "self", "homology"),
    ("invariants.hdeg_calls", "calls", "invariants.hdeg"),
    ("invariants.hdeg_s", "s", "invariants.hdeg"),
    ("invariants.self_s", "self", "invariants"),
    ("brim.br_value_calls", "calls", "brim.br_value"),
    ("brim.br_value_s", "s", "brim.br_value"),
    ("brim.coefficients_s", "s", "brim.br_coefficients"),
    ("brim.self_s", "self", "brim"),
    ("sampler.draws", "draws", None),
    ("sampler.rejected_draws", "rejected", None),
    ("sampler.self_s", "self", "sampler"),
    ("checks.instance_s", "s", "checks.check_instance"),
    ("checks.self_s", "self", "checks"),
    ("jobio.build_job_s", "setup_s", "jobio.build_job"),
    ("jobio.self_s", "self", "jobio"),
    ("bench.self_s", "bench_self", None),
    ("bench.traced_wall_s", "traced_wall", None),
    ("bench.trace_overhead_s", "overhead", None),
]


def _unit(name):
    return "s" if name.endswith("_s") else "count"


def _setup_probe(workload, seed):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, HERE, SRC, workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class _Tally:
    """Ops attempted and failed, and the errors the oracles found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, op):
        """Time op.run(); returns (seconds, result, ok)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            dt = time.perf_counter() - t0
            self.failed += 1
            print("op %s failed:\n%s" % (op.name, traceback.format_exc()),
                  file=sys.stderr)
            return dt, None, False
        return time.perf_counter() - t0, result, True

    def check(self, op, result):
        for err in op.check(result):
            self.errors.append("%s: %s" % (op.name, err))


def _prepare_oracles():
    import sympy  # noqa: F401  imported here so no op pays for it


def measure(wl, seed, seconds):
    setup = [_setup_probe(wl.name, seed) for _ in range(SETUP_PROBES)]
    state = wl.setup(seed)
    _prepare_oracles()
    tally = _Tally()
    walls, op_times = [], []
    start = time.perf_counter()
    k = 0
    while True:
        wall = 0.0
        for op in wl.round(state, k):
            dt, result, ok = tally.run(op)
            wall += dt
            op_times.append(dt)
            if ok:
                tally.check(op, result)
        walls.append(wall)
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(walls),
               "peak_rss_mib": rss}
    return tally, metrics, {"rounds": k, "op_p50_s": statistics.median(op_times)}


def trace(wl, seed):
    from tracing import Tracer
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        state = wl.setup(seed)
    finally:
        setup_tracer.uninstall()
    _prepare_oracles()
    tally = _Tally()

    reference = {}
    for op in wl.overhead_ops(wl.round(state, 0)):
        dt, result, ok = tally.run(op)
        reference[op.name] = dt
        if ok:
            tally.check(op, result)

    ops = wl.round(state, 0)
    tracer = Tracer()
    tracer.install()
    done = []
    try:
        for op in ops:
            done.append((op,) + tally.run(op))
    finally:
        tracer.uninstall()
    for op, _, result, ok in done:
        if ok:
            tally.check(op, result)

    traced_wall = sum(dt for _, dt, _, _ in done)
    overhead = sum(dt - reference[op.name] for op, dt, _, _ in done
                   if op.name in reference)
    layers = tracer.layer_self()
    bench_self = traced_wall - tracer.root_time()
    covered = sum(layers.values()) + bench_self
    if abs(covered - traced_wall) > 1e-6 * max(1.0, traced_wall):
        tally.errors.append("layer self times add up to %r, traced wall is %r"
                            % (covered, traced_wall))
    if bench_self < 0:
        tally.errors.append("spans cover more than the traced wall")

    def value(kind, key):
        if kind == "calls":
            return tracer.calls(key)
        if kind == "s":
            return tracer.inclusive(key)
        if kind == "count":
            return tracer.count(key)
        if kind == "self":
            return layers[key]
        if kind == "repeats":
            return tracer.repeat_coefficients
        if kind == "draws":
            return tracer.draws
        if kind == "rejected":
            return tracer.rejected_draws()
        if kind == "setup_s":
            return setup_tracer.inclusive(key)
        return {"bench_self": bench_self, "traced_wall": traced_wall,
                "overhead": overhead}[kind]

    metrics = {name: value(kind, key) for name, kind, key in PER_LAYER}
    absent = sorted(set(tracer.absent) | set(setup_tracer.absent))
    for key in absent:
        print("traced function absent from gradedca: %s" % key, file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    doc = {"workload": wl.name, "seed": seed, "metrics": metrics,
           "layer_self_s": layers, "overhead_reference_ops": sorted(reference),
           "op_s": {op.name: dt for op, dt, _, _ in done},
           "setup": setup_tracer.dump(), "round": tracer.dump()}
    path = os.path.join(OUT, "trace-%s-%d.json" % (wl.name, seed))
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return tally, metrics, {"absent": absent, "trace_file": path}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gradedca", "__init__.py")):
        print("gradedca sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "corpus")):
        print("corpus/ not found under %s" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.trace:
        tally, values, info = trace(wl, args.seed)
        units = {name: _unit(name) for name, _, _ in PER_LAYER}
    else:
        tally, values, info = measure(wl, args.seed, args.seconds)
        units = dict(END_TO_END)
    for err in tally.errors:
        print("wrong result: %s" % err, file=sys.stderr)
    print(json.dumps({"workload": wl.name, "seed": args.seed, **info},
                     sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
