#!/usr/bin/env python3
"""Runs one treesvd benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload solve-tall --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds and installs the library from
the checkout into .perfbench/, builds the benchmark program (perfbench/) against
it, runs the workload, checks every output, writes a result file with
provenance to .perfbench/results/ and prints a report. The last line of the
report is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. A traced run also writes a Chrome trace-event file next to the
result file (Perfetto and chrome://tracing open it offline).

Exits nonzero when the build fails, the program fails, or any output check
fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import results  # noqa: E402

BUILD = os.path.join(results.WORK, "build")
PREFIX = os.path.join(results.WORK, "prefix")
LIB_BUILD = os.path.join(BUILD, "treesvd")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BENCH_BUILD, "perfbench")
PROGRAM_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(env, log_path):
    """Configures (once) and builds the library and the program; incremental."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", results.ROOT, "-B", LIB_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                      "-DTREESVD_BUILD_TESTS=OFF", "-DTREESVD_BUILD_BENCH=OFF",
                      "-DTREESVD_BUILD_EXAMPLES=OFF", "-DTREESVD_BUILD_TOOLS=OFF",
                      "-DCMAKE_INSTALL_PREFIX=" + PREFIX])
    steps.append(["cmake", "--build", LIB_BUILD, "-j", jobs])
    steps.append(["cmake", "--install", LIB_BUILD])
    if not os.path.exists(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", results.HERE, "-B", BENCH_BUILD, "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PREFIX_PATH=" + PREFIX])
    steps.append(["cmake", "--build", BENCH_BUILD, "-j", jobs])
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT, env=env) != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build step failed: " + " ".join(cmd))


def cmake_cache(path):
    out = {}
    try:
        with open(path) as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith(("#", "//")):
                    key, _, value = line.rstrip("\n").partition("=")
                    out[key.split(":")[0]] = value
    except OSError:
        pass
    return out


def command_output(cmd, env):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=results.ROOT,
                              timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(env, info):
    cache = cmake_cache(os.path.join(LIB_BUILD, "CMakeCache.txt"))
    build_type = cache.get("CMAKE_BUILD_TYPE") or "Release"
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = command_output([compiler, "--version"], env) if compiler else None
    # Stop git at the checkout: a checkout without .git has no sha.
    genv = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(results.ROOT))
    sha = command_output(["git", "rev-parse", "HEAD"], genv)
    status = command_output(["git", "status", "--porcelain"], genv) if sha else None
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "compiler": compiler,
        "compiler_version": version.splitlines()[0] if version else None,
        "build_type": build_type,
        "cxx_flags": " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                          cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                              if f),
        "cpu_model": info.get("cpu_model"),
        "l2_bytes": int(float(info.get("l2_bytes", 0))),
        "l3_bytes": int(float(info.get("l3_bytes", 0))),
        "nproc": int(float(info.get("nproc", 0))),
        "isa_tier": info.get("isa_tier"),
        "threads_max": int(float(info.get("threads_max", 0))),
        "rank_processes": int(float(info.get("rank_processes", 0))),
    }


def parse_records(path):
    metrics, info, failures, spans = {}, {}, [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "metric":
                name, unit, value, samples = rest.split(" ")
                metrics[name] = {"value": float(value), "unit": unit, "samples": int(samples)}
            elif kind == "info":
                key, _, value = rest.partition(" ")
                info[key] = value
            elif kind == "check":
                failures.append(rest.partition(" ")[2])
            elif kind == "span":
                sid, parent, t0, t1, name = rest.split(" ")
                spans.append((int(sid), int(parent), int(t0), int(t1), name))
    return metrics, info, failures, spans


def self_times(spans):
    """Per span name: calls, total ms and self ms (total minus child spans)."""
    child = {}
    for sid, parent, t0, t1, _ in spans:
        child[parent] = child.get(parent, 0) + (t1 - t0)
    out = {}
    for sid, _, t0, t1, name in spans:
        row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (t1 - t0) * 1e-6
        row["self_ms"] += (t1 - t0 - child.get(sid, 0)) * 1e-6
    return out


def write_chrome_trace(path, spans, meta):
    t_min = min((s[2] for s in spans), default=0)
    events = [{"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
               "ts": (t0 - t_min) / 1000.0, "dur": (t1 - t0) / 1000.0,
               "args": {"id": sid, "parent": parent}}
              for sid, parent, t0, t1, name in spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, f)


def fmt(value):
    return "%.6g" % value


def report(args, metrics, names, prov, failures, layers):
    print("perfbench %s seed=%d seconds=%g trace=%d  isa=%s cpu=%s compiler=%s flags=%s" % (
        args.workload, args.seed, args.seconds, args.trace, prov["isa_tier"], prov["cpu_model"],
        prov["compiler_version"], prov["cxx_flags"] or "-"))
    print("%-32s %-8s %14s %8s" % ("metric", "unit", "value", "samples"))
    for name, unit in names:
        m = metrics.get(name)
        if m is None or m["samples"] == 0:
            print("%-32s %-8s %14s %8d" % (name, unit, "n/a", 0))
        else:
            print("%-32s %-8s %14s %8d" % (name, m["unit"], fmt(m["value"]), m["samples"]))
    if layers:
        print("layer reconciliation (traced mean end-to-end time = layer sum + unexplained):")
        for e2e, layer, key in (("onesided_ms", "svd", "onesided_ms"),
                                ("threaded_ms", "threaded", "threaded_ms"),
                                ("block_ms", "block", "block_ms"),
                                ("spmd_ms", "spmd", "latency_p50_ms")):
            if layer + ".layer_sum_ms" not in metrics:
                continue
            print("  %-12s %10s ms = %10s ms + %10s ms" % (
                e2e, fmt(float(layers["info"]["traced_mean." + key])),
                fmt(metrics[layer + ".layer_sum_ms"]["value"]),
                fmt(metrics[layer + ".unexplained_ms"]["value"])))
        print("tracing overhead on the headline latency: %s %% (traced vs untraced slices); "
              "one span costs %s ns" % (fmt(metrics["trace.overhead_pct"]["value"]),
                                        fmt(float(layers["info"]["trace.span_ns"]))))
        print("self time by span (ms):")
        for name, row in sorted(layers["self"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print("  %-34s %8d calls %12s total %12s self" % (
                name, row["count"], fmt(row["total_ms"]), fmt(row["self_ms"])))
        print("trace file: " + layers["trace_file"])
    for f in failures:
        print("FAILED CHECK: " + f)


def run_workload(args, spec):
    run_dir = os.path.join(results.WORK, "run", str(os.getpid()))
    os.makedirs(os.path.join(run_dir, "tmp"), exist_ok=True)
    os.makedirs(results.RESULTS, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(run_dir, "tmp"))
    try:
        build(env, os.path.join(BUILD, "build.log"))
        records = os.path.join(run_dir, "records.txt")
        # Relative socket directory: UNIX socket paths are limited to ~100 bytes.
        sock_dir = os.path.relpath(os.path.join(run_dir, "s"), results.ROOT)
        cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds, "--trace=%d" % args.trace, "--out=" + records,
               "--sock-dir=" + sock_dir]
        try:
            code = subprocess.run(cmd, cwd=results.ROOT, env=env,
                                  timeout=PROGRAM_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            die("benchmark program timed out after %d s" % PROGRAM_TIMEOUT_S)
        if not os.path.exists(records):
            die("benchmark program exited with %d and wrote no records" % code)
        metrics, info, failures, spans = parse_records(records)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    prov = provenance(env, info)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [(m["name"], m["unit"]) for m in wanted]
    if not args.trace:
        names += [(name, unit) for name, unit, _ in results.REPORT_ONLY]
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None and not args.trace:
            failures.append("end-to-end metric %s was not measured" % m["name"])
            continue
        if got is not None and got["unit"] != m["unit"]:
            failures.append("metric %s has unit %s, expected %s" % (m["name"], got["unit"], m["unit"]))
        # A layer the workload does not exercise reports 0 from 0 samples.
        out[m["name"]] = {"value": got["value"] if got else 0.0, "unit": m["unit"]}
    attempted = int(float(info.get("attempted", 0)))
    failed = int(float(info.get("failed", 0)))
    correct = code == 0 and failed == 0 and not failures and attempted > 0

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    layers = None
    if args.trace:
        trace_file = os.path.join(results.RESULTS, stem + ".trace.json")
        write_chrome_trace(trace_file, spans, {"workload": args.workload, "seed": args.seed,
                                               "provenance": prov})
        layers = {"self": self_times(spans), "info": info,
                  "trace_file": os.path.relpath(trace_file, results.ROOT)}
    result = {
        "schema": "treesvd-perfbench-v1", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "correct": correct,
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": metrics, "provenance": prov,
        "info": info,
        "layer_self_ms": layers["self"] if layers else None,
        "trace_file": layers["trace_file"] if layers else None,
    }
    with open(os.path.join(results.RESULTS, stem + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    report(args, metrics, names, prov, failures, layers)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(results.ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(results.ROOT, "src"))):
        die("no treesvd sources next to perfbench/; run from the root of a checkout")
    spec = results.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        die("unknown workload " + args.workload)
    if not args.seconds > 0:
        die("--seconds must be positive")
    if args.workload != "all":
        return run_workload(args, spec)
    code = 0
    for name in names:
        code = max(code, run_workload(argparse.Namespace(**dict(vars(args), workload=name)), spec))
    return code


if __name__ == "__main__":
    sys.exit(main())
