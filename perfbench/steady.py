#!/usr/bin/env python3
"""Steadiness check: runs each workload k times on this commit, each run with
another seed, and reports every end-to-end metric's spread against its bound.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads a,b] [--seconds S]

The spread is the distance between the first and third quartile of the k
values (statistics.quantiles(n=4)) as a share of their median. A metric is
"steady" below a third of its bound, "within" up to the bound and "UNSTEADY"
beyond it; setup_s is reported but not judged, as the acceptance rule exempts
it. With --sets 2 the k runs are repeated; the second set's spreads are
judged the same way ("UNSTEADY-2") and each second median must not be worse
than the first by more than the bound ("DRIFT"). Raw values
go to .perfbench/steady.json. Exits 1 on any unsteady, drifting or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import results  # noqa: E402


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(results.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=results.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def main():
    spec = results.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = results.bounds(spec)
    values = {}  # (set, workload, metric) -> [values]
    bad = []
    for s in range(args.sets):
        for w in args.workloads.split(","):
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                out = run_once(w, seed, args.seconds)
                if out is None or not out["correct"]:
                    bad.append("%s seed %d: run failed" % (w, seed))
                    continue
                for name, m in out["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                print("set %d %s seed %d done" % (s + 1, w, seed), file=sys.stderr)

    print("%-12s %-16s %12s %8s %7s %s" % ("workload", "metric", "median", "spread", "bound",
                                          "verdict"))
    summary = []
    for w in args.workloads.split(","):
        for name, (bound, better) in bounds.items():
            v = values.get((0, w, name))
            if not v:
                continue
            sp = results.spread(v)
            med = results.quartiles(v)[1]
            if name == "setup_s":
                verdict = "reported"
            elif sp <= bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "within"
            else:
                verdict = "UNSTEADY"
                bad.append("%s %s spread %.3f > bound %.3f" % (w, name, sp, bound))
            v2 = values.get((1, w, name))
            if v2:
                sp2 = results.spread(v2)
                if name != "setup_s" and sp2 > bound:
                    verdict += " UNSTEADY-2"
                    bad.append("%s %s second-set spread %.3f > bound %.3f" % (w, name, sp2, bound))
                med2 = results.quartiles(v2)[1]
                worse = (med2 - med) / med if better == "lower" else (med - med2) / med
                if worse > bound:
                    verdict += " DRIFT"
                    bad.append("%s %s second median worse by %.3f" % (w, name, worse))
            print("%-12s %-16s %12.6g %8.4f %7.3f %s" % (w, name, med, sp, bound, verdict))
            summary.append({"workload": w, "metric": name, "values": v, "values_set2": v2,
                            "median": med, "spread": sp, "bound": bound, "verdict": verdict})
    os.makedirs(results.WORK, exist_ok=True)
    with open(os.path.join(results.WORK, "steady.json"), "w") as f:
        json.dump(summary, f, indent=1)
    for b in bad:
        print("NOT STEADY: " + b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
