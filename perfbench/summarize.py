#!/usr/bin/env python3
"""Summarize benchmark results: per workload and metric, the median, the
quartiles and the spread (distance between the quartiles as a share of the
median) over the runs in the results directory; the same for each
strategy's call time (from the `calls` the runs record); and the tracing
overhead (traced runs' `trace.call_ms` minus untraced runs' round wall
time).

    python3 perfbench/summarize.py                     # print a table
    python3 perfbench/summarize.py --append perfbench/trajectory.jsonl

`--append` adds one JSON line per workload (medians, quartiles, run count,
seeds and environment) to a trajectory file.
"""
import argparse
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402


def load(results_dir):
    runs = []
    for path in sorted(glob.glob(os.path.join(results_dir, "*-trace[01].json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def strategy_ms(run):
    """{strategy: summed over queries of its median call time} for one run."""
    per = {}
    for key, xs in run["env"]["calls"].items():
        strategy = key.split(" ")[1]
        per[strategy] = per.get(strategy, 0.0) + statistics.median(xs)
    return per


def summarize(runs):
    """{(workload, trace): {metric: (q1, median, q3, n)}}; untraced groups
    also get one `calls.<strategy>_ms` entry per strategy.
    """
    groups = {}
    for r in runs:
        key = (r["env"]["workload"], bool(r["env"]["trace"]))
        values = {n: m["value"] for n, m in r["result"]["metrics"].items()}
        if not r["env"]["trace"]:
            values.update({"calls.%s_ms" % s: v for s, v in strategy_ms(r).items()})
        for name, v in values.items():
            groups.setdefault(key, {}).setdefault(name, []).append(v)
    return {k: {n: quartiles(v) + (len(v),) for n, v in ms.items()} for k, ms in groups.items()}


def overhead(runs, workload):
    traced = [r["result"]["metrics"]["trace.call_ms"]["value"] for r in runs
              if r["env"]["workload"] == workload and r["env"]["trace"]]
    plain = [statistics.median(r["env"]["round_ms"]) for r in runs
             if r["env"]["workload"] == workload and not r["env"]["trace"]]
    if not traced or not plain:
        return None
    return statistics.median(traced) - statistics.median(plain), statistics.median(plain)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--results", default=os.path.join(build.BUILD_DIR, "results"))
    ap.add_argument("--append", help="trajectory file to append one line per workload to")
    args = ap.parse_args()
    runs = load(args.results)
    summary = summarize(runs)
    for (workload, trace), metrics in sorted(summary.items()):
        print("== %s (%s)" % (workload, "traced" if trace else "untraced"))
        for name, (q1, med, q3, n) in metrics.items():
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-34s n=%-3d median %-14.6g q1 %-14.6g q3 %-14.6g spread %.3f"
                  % (name, n, med, q1, q3, spread))
        if not trace:
            o = overhead(runs, workload)
            if o:
                print("  tracing overhead: %+.1f ms on a %.1f ms round (%+.1f%%)"
                      % (o[0], o[1], 100 * o[0] / o[1]))
    if args.append:
        with open(args.append, "a") as f:
            for (workload, trace), metrics in sorted(summary.items()):
                env = next(r["env"] for r in runs
                           if r["env"]["workload"] == workload and bool(r["env"]["trace"]) == trace)
                seeds = sorted(r["env"]["seed"] for r in runs
                               if r["env"]["workload"] == workload and bool(r["env"]["trace"]) == trace)
                line = {
                    "rev": env["rev"], "workload": workload, "trace": trace, "seeds": seeds,
                    "env": {k: env[k] for k in ("nproc", "driver_heap_mb", "spark_version",
                                                "master", "shuffle_partitions", "seconds", "queries")},
                    "metrics": {n: {"median": med, "q1": q1, "q3": q3, "runs": cnt}
                                for n, (q1, med, q3, cnt) in metrics.items()},
                }
                o = overhead(runs, workload) if not trace else None
                if o:
                    line["tracing_overhead_ms"] = o[0]
                f.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    main()
