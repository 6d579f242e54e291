#!/usr/bin/env python3
"""Runs the ExactSim query benchmark from the root of a checkout.

    python3 perfbench/run.py --workload gq-coarse --seed 1 --seconds 20 --trace 0

The first run in a checkout builds the program and the benchmark from source
with sbt (perfbench/build.sbt); later runs start the JVM directly. The last
line of standard output is the result object; with --trace 1 the lines
before it also carry one JSON row per traced query, which are copied to
.bench_build/perfbench/rows-<workload>-<seed>.jsonl.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
MAIN = "repro.perfbench.QueryBench"
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

# Spark 4 on JDK 17 needs these module opens (as in the root build).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/sun.nio.ch",
    "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources_digest():
    """Digest of every file the build compiles, so an edit forces a rebuild."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "main").rglob("*")) + sorted((BENCH / "src" / "main").rglob("*"))
    files += [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = pathlib.Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def classpath():
    """Builds if the sources changed since the last build; returns the classpath."""
    digest = sources_digest()
    stamp, cp_file = BUILD / "digest", BENCH / "target" / "classpath.txt"
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == digest:
        return cp_file.read_text()
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.log", "w") as log:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
            cwd=BENCH, env=sbt_env(), stdout=log, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not cp_file.is_file():
        fail(f"build failed; see {BUILD / 'build.log'}")
    stamp.write_text(digest)
    return cp_file.read_text()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    # The benchmark measures the program in this checkout; without it there is nothing to run.
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro" / "core").is_dir():
        fail("run from the root of a checkout of the program (no src/main/scala/repro/core here)")

    cp = classpath()
    BUILD.mkdir(parents=True, exist_ok=True)
    rows = BUILD / f"rows-{a.workload}-{a.seed}.jsonl"
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
            "-Dspark.driver.host=127.0.0.1"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, MAIN,
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--rows", str(rows)])
    env = dict(os.environ)
    env["SPARK_LOCAL_DIRS"] = str(BUILD / "spark-local")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {proc.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
