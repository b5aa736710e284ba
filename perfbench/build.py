"""Build file of the benchmark.

Compiles the system's sources (src/main/scala) together with the
benchmark's (perfbench/src) with the Scala compiler that ships in the Spark
distribution, against the Spark jars. No sbt and no dependency resolution:
the only inputs are the sources and $SPARK_HOME/jars. The classes go to
.bench_build/classes and are rebuilt when a source file or a flag changes.

    python3 perfbench/build.py        # build, print the classes directory
"""
import fcntl
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD_DIR, "classes")
STAMP = os.path.join(BUILD_DIR, "classes.sha256")
SCALAC_FLAGS = ["-feature"]
COMPILER_JARS = ["scala-compiler", "scala-library", "scala-reflect"]


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise SystemExit("perfbench: SPARK_HOME must point at a Spark distribution")
    return sorted(glob.glob(os.path.join(home, "jars", "*.jar")))


def sources():
    main = glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True)
    own = glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True)
    return sorted(main) + sorted(own)


def source_digest():
    h = hashlib.sha256(" ".join(SCALAC_FLAGS).encode())
    for path in sources() + [os.path.join(HERE, "log4j2.properties")]:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def classpath():
    return os.pathsep.join([CLASSES] + spark_jars())


def build():
    """Compile if the sources changed; return the classes directory."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one compiler at a time per checkout
        return _build()


def _build():
    digest = source_digest()
    if os.path.isdir(CLASSES) and os.path.exists(STAMP) and open(STAMP).read() == digest:
        return CLASSES
    jars = spark_jars()
    compiler = [j for j in jars if any(os.path.basename(j).startswith(n + "-") for n in COMPILER_JARS)]
    if len(compiler) != len(COMPILER_JARS):
        raise SystemExit("perfbench: the Spark distribution has no Scala compiler jars")
    staging = CLASSES + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = (["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
            "-d", staging, "-classpath", os.pathsep.join(jars)] + SCALAC_FLAGS + sources())
    print("perfbench: compiling %d sources" % len(sources()), file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: compilation failed")
    shutil.copy(os.path.join(HERE, "log4j2.properties"), staging)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(staging, CLASSES)
    with open(STAMP, "w") as f:
        f.write(digest)
    return CLASSES


if __name__ == "__main__":
    print(build())
