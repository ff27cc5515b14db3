"""Build the benchmark: compile the system's main sources (src/main/scala)
together with the benchmark's own sources (perfbench/src) into
.bench_build/perfbench/classes, with the Scala compiler that ships in the
Spark distribution ($SPARK_HOME, or the one whose spark-submit is on PATH).
A stamp over the sources skips unchanged rebuilds.

    python3 perfbench/build.py        # from the repository root
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(BUILD_DIR, "classes")


def spark_home():
    """$SPARK_HOME, or the first Spark distribution with a spark-submit on
    PATH that ships the Scala compiler.
    """
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        home = os.path.dirname(d)
        if (os.path.exists(os.path.join(d, "spark-submit")) and
                glob.glob(os.path.join(home, "jars", "scala-compiler-*.jar"))):
            return home
    return ""


SPARK_JARS = os.path.join(spark_home(), "jars")


class BuildError(Exception):
    pass


def sources():
    system = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not system:
        raise BuildError("no system sources under src/main/scala: run from a full checkout")
    own = sorted(glob.glob(os.path.join(BENCH_DIR, "src", "**", "*.scala"), recursive=True))
    return system + own


def scala_jars():
    jars = []
    for name in ("scala-compiler", "scala-library", "scala-reflect"):
        found = sorted(glob.glob(os.path.join(SPARK_JARS, name + "-2.13.*.jar")))
        if not found:
            raise BuildError("missing %s jar in %s" % (name, SPARK_JARS))
        jars.append(found[-1])
    return jars


def classpath():
    """Runtime classpath of the built benchmark."""
    return CLASSES + os.pathsep + os.path.join(SPARK_JARS, "*")


def java_env_opts():
    """JVM options that keep temporary files inside the checkout."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return ["-Djava.io.tmpdir=" + tmp, "-XX:-UsePerfData"]


def build():
    srcs = sources()
    jars = scala_jars()
    h = hashlib.sha256()
    for path in srcs + jars:
        h.update(os.path.relpath(path, ROOT).encode() if path.startswith(ROOT) else path.encode())
        if path.endswith(".scala"):
            with open(path, "rb") as f:
                h.update(f.read())
    stamp = h.hexdigest()
    stamp_file = os.path.join(CLASSES, ".stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return
    staging = CLASSES + ".new"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = (["java", "-Xss8m", "-Xmx1g"] + java_env_opts() +
           ["-cp", os.pathsep.join(jars), "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
            "-classpath", os.path.join(SPARK_JARS, "*"), "-d", staging] + srcs)
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        raise BuildError("scalac failed:\n" + res.stdout[-4000:])
    with open(os.path.join(staging, ".stamp"), "w") as f:
        f.write(stamp)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(staging, CLASSES)


if __name__ == "__main__":
    try:
        build()
    except BuildError as e:
        print("build failed: %s" % e, file=sys.stderr)
        sys.exit(2)
    print("built %s" % CLASSES)
