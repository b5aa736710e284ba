#!/usr/bin/env python3
"""Benchmark of the curve advisor: choose a curve, cluster by it, measure it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --determinism [--seed N]

Builds the system and the benchmark from source (see build.py), runs one
workload in one JVM and prints a report: the environment, every metric by
name with its unit, the correctness gate, and as the last line one JSON
object with `correct`, `attempted`, `failed` and the metrics BENCHMARK.json
names (end-to-end ones untraced, per-layer ones with --trace 1). The full
result, with spans and per-layer self times when traced, is written to
.bench_build/results/. The exit code is 0 only if every check passed.

--determinism runs the workload twice at the seed and fails unless the exact
outputs (chosen curves, block and file counts) are identical.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # the checkout stays as git left it
import build  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(build.BUILD_DIR, "results")
WORK = os.path.join(build.BUILD_DIR, "work")
HEAP = "2g"
RUN_TIMEOUT_S = 150
# Spark's own launcher passes these to Java 17.
ADD_OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
             "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
             "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
             "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
             "java.base/sun.util.calendar"]


def load(path):
    with open(path) as f:
        return json.load(f)


def applies(entry, workload):
    return entry["workloads"] == "all" or workload in entry["workloads"]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() or "none"


def run_jvm(workload, seed, seconds, trace):
    """Run one workload in a fresh JVM; return (exit code, result dict or None)."""
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    work = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    if os.path.exists(out):
        os.remove(out)
    os.makedirs(os.path.join(work, "tmp"))
    cmd = (["java", "-Xmx" + HEAP, "-XX:+UseG1GC", "-XX:-UsePerfData",
            "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
            "-Dperfbench.git=" + git_sha(), "-Dperfbench.source=" + build.source_digest()]
           + ["--add-opens=%s=ALL-UNNAMED" % m for m in ADD_OPENS]
           + ["-cp", build.classpath(), "repro.perfbench.Main", "--workload", workload,
              "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
              "--out", out, "--work", work])
    # The session keeps its scratch files under `work`; an inherited
    # SPARK_LOCAL_DIRS would override that.
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        code = 124
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, (load(out) if os.path.exists(out) else None)


def report(result, catalogue, bench, trace):
    """Print the report; return (missing metric names, last-line metrics)."""
    workload = result["workload"]
    print("== perfbench %s ==" % workload)
    for k, v in sorted(result.get("env", {}).items()):
        print("env.%s = %s" % (k, v))
    values = dict(result.get("metrics", {}))
    values["error_rate"] = result["error_rate"]
    sections = [("end_to_end", values)]
    if trace:
        sections.append(("per_layer", result.get("per_layer", {})))
    missing = []
    for section, vals in sections:
        print("-- %s --" % section.replace("_", "-"))
        for name, entry in catalogue[section].items():
            if not applies(entry, workload):
                continue
            if name not in vals:
                missing.append(name)
                continue
            print("%-38s %18.6g %s" % (name, vals[name], entry["unit"]))
    print("-- gate: %d attempted, %d failed --" % (result["attempted"], result["failed"]))
    for f in result.get("failures", []):
        print("FAILED " + f)
    for k, v in sorted((result.get("exact") or {}).items()):
        print("exact.%s = %s" % (k, v))
    for k, vs in sorted(result.get("varied_within_run", {}).items()):
        print("varied within the run (repeats across runs): %s = %s" % (k, ", ".join(vs)))
    section, vals = sections[-1]
    line = {m["name"]: {"value": vals[m["name"]], "unit": m["unit"]}
            for m in bench[section] if m["name"] in vals}
    missing += [m["name"] for m in bench[section] if m["name"] not in vals]
    return sorted(set(missing)), line


def determinism(workload, seed, seconds):
    runs = [run_jvm(workload, seed, seconds, 0) for _ in range(2)]
    if any(code != 0 or r is None for code, r in runs):
        print("perfbench: a determinism run failed", file=sys.stderr)
        return 1
    a, b = (r["exact"] for _, r in runs)
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    for k in sorted(a):
        print("%s %s = %s" % ("DIFFERS" if k in diff else "same   ", k, a[k]))
    print("determinism %s: %d exact outputs, %d differ" % (workload, len(a), len(diff)))
    return 1 if diff else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        print("perfbench: no system sources under src/main/scala; run from a full checkout",
              file=sys.stderr)
        return 2
    catalogue = load(os.path.join(HERE, "metrics.json"))
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in catalogue["workloads"]:
        print("perfbench: unknown workload %s; known: %s"
              % (args.workload, ", ".join(catalogue["workloads"])), file=sys.stderr)
        return 2
    build.build()
    if args.determinism:
        return determinism(args.workload, args.seed, args.seconds)

    code, result = run_jvm(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        print("perfbench: the run wrote no result (exit code %d)" % code, file=sys.stderr)
        return code or 1
    missing, line = report(result, catalogue, bench, args.trace)
    failed = result["failed"] + len(missing)
    for name in missing:
        print("FAILED metric %s was not reported" % name)
    correct = code == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"] + len(missing),
                      "failed": failed, "metrics": line}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
