#!/usr/bin/env python3
"""bench_compare: compares the benchmark results of two commits.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files, or directories of them, as perfbench/run.py
writes them to .perfbench/results/ (move that directory aside between the two
commits). Runs are paired by seed. For each workload and each end-to-end
metric (those BENCHMARK.json gates, and the report-only ones of results.py
against the largest bound) it applies the rule of section 8 of the
choosing-metrics guide:

  better      the new commit wins at least nine tenths of the pairs (ties count
              for neither) and the medians differ by more than the base runs'
              own spread, the distance between their quartiles;
  worse       the new median is worse than the base median by more than the
              metric's bound, and the spread does not hide it;
  unresolved  either side spreads wider than the bound, unless every new run
              reads better (or every one worse) than every base run;
  unchanged   otherwise.

A new commit with more failed operations than the base is worse whatever its
timings. Prints one row per workload, then each verdict's medians, quartiles
and share of pairs won. Exits 1 when anything is worse.
"""

import argparse
import sys

sys.dont_write_bytecode = True
import results  # noqa: E402


def verdict(base, new, pairs, bound, better):
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) < 0 is a gain
    bq1, bmed, bq3 = results.quartiles(base)
    nq1, nmed, nq3 = results.quartiles(new)
    won = sum(1 for b, n in pairs if sign * (n - b) < 0)
    share = won / len(pairs) if pairs else 0.0
    gain = sign * (bmed - nmed)
    worse_by = -gain / bmed if bmed else 0.0
    all_better = all(sign * (n - b) < 0 for b in base for n in new)
    all_worse = all(sign * (n - b) > 0 for b in base for n in new)
    wide = max(results.spread(base), results.spread(new)) > bound
    if share >= 0.9 and gain > bq3 - bq1:
        v = "better"
    elif worse_by > bound and (all_worse or not wide):
        v = "worse"
    elif wide and not (all_better or all_worse):
        v = "unresolved"
    else:
        v = "unchanged"
    detail = "base %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  won %d/%d  change %+.1f%%" % (
        bmed, bq1, bq3, nmed, nq1, nq3, won, len(pairs),
        100.0 * (nmed - bmed) / bmed if bmed else 0.0)
    return v, detail


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    spec = results.load_spec()
    # Report-only metrics are compared against the largest bound.
    widest = max(m["bound"] for m in spec["end_to_end"])
    metrics = [(m["name"], m["bound"], m["better"]) for m in spec["end_to_end"]]
    metrics += [(name, widest, better) for name, _, better in results.REPORT_ONLY
                if name != "error_frac"]
    base = by_workload(results.load_results(args.base))
    new = by_workload(results.load_results(args.new))

    rows, details, any_worse = [], [], False
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in base or w not in new:
            continue
        b_runs, n_runs = base[w], new[w]
        common = sorted(set(b_runs) & set(n_runs))
        if common:
            b_list = [b_runs[s] for s in common]
            n_list = [n_runs[s] for s in common]
        else:  # no shared seeds: pair in seed order
            b_list = [b_runs[s] for s in sorted(b_runs)]
            n_list = [n_runs[s] for s in sorted(n_runs)]
        row = [w]
        b_failed = sum(r["failed"] for r in b_runs.values())
        n_failed = sum(r["failed"] for r in n_runs.values())
        if n_failed > b_failed:
            any_worse = True
            details.append("%s failed operations: base %d, new %d -> worse" % (w, b_failed, n_failed))
        for name, bound, better in metrics:
            bv = [r["metrics"][name]["value"] for r in b_runs.values() if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs.values() if name in r["metrics"]]
            if not bv or not nv:
                row.append("-")
                continue
            pairs = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                     for b, n in zip(b_list, n_list)
                     if name in b["metrics"] and name in n["metrics"]]
            v, detail = verdict(bv, nv, pairs, bound, better)
            any_worse = any_worse or v == "worse"
            row.append(v)
            details.append("%s %s: %s -> %s" % (w, name, detail, v))
        rows.append(row)

    header = ["workload"] + [m[0] for m in metrics]
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(wd) for c, wd in zip(r, widths)))
    print()
    for d in details:
        print(d)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
