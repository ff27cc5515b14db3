#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload synth-dense --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run compiles the system and the
benchmark (see build.py). The JVM prints progress lines starting with '#'
and, as its last line, the result object; this script checks that the
result carries exactly the metrics BENCHMARK.json lists for the mode
(end-to-end with --trace 0, per-layer with --trace 1) and prints it as the
last line. Every file the run writes stays under .bench_build/.

Exit codes: 0 all checks passed; 1 a result check failed (the result is
still printed); 2 build or run failure; 3 malformed result.
"""
import argparse
import json
import os
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

TIMEOUT_S = 170
HEAP = "2g"
# Client compiler only. With the server compiler, compiling Spark's driver
# code takes more than a run's minute: the CPU time of consecutive rounds
# kept falling (26 s to 12 s over six rounds), and the round a run timed
# measured how far compilation had got. The client compiler settles during
# the warm-up, so the timed rounds measure the program.
JIT = "-XX:TieredStopAtLevel=1"
# What spark-submit adds for Spark on Java 17.
MODULE_OPTS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def git_rev():
    if not os.path.isdir(os.path.join(build.ROOT, ".git")):
        return "unknown"
    res = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return res.stdout.strip() or "unknown"


def jvm_command(main_args):
    local = os.path.join(build.BUILD_DIR, "spark-local")
    os.makedirs(local, exist_ok=True)
    return (["java", "-Xmx" + HEAP, JIT] + build.java_env_opts() + MODULE_OPTS + [
        "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties"),
        "-Dspark.local.dir=" + local,
        "-Dspark.sql.warehouse.dir=" + os.path.join(build.BUILD_DIR, "warehouse"),
        "-Dspark.driver.host=127.0.0.1", "-Dspark.driver.bindAddress=127.0.0.1",
        "-cp", build.classpath(), "perfbench.Main"] + main_args)


def jvm_env():
    env = dict(os.environ)
    env["SPARK_LOCAL_DIRS"] = os.path.join(build.BUILD_DIR, "spark-local")
    return env


def expected_metrics(trace):
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with a result object, as a list of messages."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys %s" % sorted(result)]
    want = expected_metrics(trace)
    got = result["metrics"]
    problems = []
    if set(got) != set(want):
        problems.append("metric names differ from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append("%s: unit %r, BENCHMARK.json says %r" % (name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append("%s: value %r is not a number" % (name, m.get("value")))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted %r" % result["attempted"])
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.time()
    try:
        build.build()
    except build.BuildError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    out = os.path.join(build.BUILD_DIR, "results")
    cmd = jvm_command(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--out", out, "--rev", git_rev()])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=jvm_env(), cwd=build.ROOT)
    timer = threading.Timer(max(1, TIMEOUT_S - (time.time() - start)), proc.kill)
    timer.start()
    last = ""
    try:
        # Pass progress through as it comes; hold back the line that may be
        # the result.
        for line in proc.stdout:
            if last:
                print(last, flush=True)
            last = line.rstrip("\n")
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if time.time() - start >= TIMEOUT_S:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 2
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        print("perfbench: no result (JVM exit code %d)" % proc.returncode, file=sys.stderr)
        return 2
    problems = validate(result, args.trace == 1)
    if problems:
        print("perfbench: malformed result: " + "; ".join(problems), file=sys.stderr)
        return 3
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
