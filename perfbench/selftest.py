#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark, runs the Scala self-tests (bag checksum, exact
reference, span self time), and checks that the metric names and units the
benchmark prints are exactly those BENCHMARK.json lists.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402


def java(main, *args):
    cmd = ["java", "-Xmx512m"] + build.java_env_opts() + ["-cp", build.classpath(), main] + list(args)
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)


def metric_names_match():
    printed = json.loads(java("perfbench.Main", "--list-metrics").stdout.strip().split("\n")[-1])
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for block in ("end_to_end", "per_layer"):
        got = [(m["name"], m["unit"]) for m in printed[block]]
        want = [(m["name"], m["unit"]) for m in bench[block]]
        if got != want:
            ok = False
            print("FAIL %s metrics: printed-only %s, BENCHMARK.json-only %s"
                  % (block, sorted(set(got) - set(want)), sorted(set(want) - set(got))))
    if ok:
        print("ok   printed metric names and units equal BENCHMARK.json")
    return ok


def main():
    try:
        build.build()
    except build.BuildError as e:
        print("build failed: %s" % e)
        return 2
    scala = java("perfbench.SelfTest")
    print(scala.stdout, end="")
    names = metric_names_match()
    return 0 if scala.returncode == 0 and names else 1


if __name__ == "__main__":
    sys.exit(main())
