"""Helpers shared by the benchmark scripts: the spec, result files, statistics."""

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(WORK, "results")


# End-to-end metrics the report prints and compare.py compares but
# BENCHMARK.json does not gate: (name, unit, better). The single-problem
# driver times move with the host's speed: on a shared 4-vCPU host a 32x32
# solve ran 1.5-1.8 ms for minutes, then 2.2-2.4 ms, so ten runs that straddle
# a change spread by up to 0.34; threaded_ms also waits for all four threads
# at every step and swung by 50-200% when a neighbour contended for the
# cores. spmd_ms and max_rps exist on one workload only; error_frac is zero on
# a healthy build and is enforced through the correct and failed counts.
REPORT_ONLY = [("onesided_ms", "ms", "lower"), ("threaded_ms", "ms", "lower"),
               ("block_ms", "ms", "lower"), ("spmd_ms", "ms", "lower"),
               ("max_rps", "req/s", "higher"), ("error_frac", "ratio", "lower")]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds(spec):
    """name -> (bound, better) for every end-to-end metric."""
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def load_results(path):
    """Result files under `path` (a file or a directory), untraced runs only."""
    files = [path] if os.path.isfile(path) else [
        os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
    out = []
    for name in files:
        with open(name) as f:
            r = json.load(f)
        if not r.get("trace"):
            out.append(r)
    return out
