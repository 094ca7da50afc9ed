#!/usr/bin/env python3
"""Run one benchmark measurement from the root of a source checkout.

    python3 perfbench/run.py --workload cliques --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark from source with sbt on first use (the
build is reused while no source file is newer), then runs the benchmark's
JVM with a time limit. The JVM prints human-readable lines and, last, one
JSON object; this script passes its stdout through and exits non-zero when
the run fails or prints no result. Everything it writes stays inside the
checkout: sbt's `target/` directories and `.bench_build/`.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_build")
LAUNCHER = os.path.join(HERE, "target", "launcher.txt")
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840
WORKLOADS = ("cliques", "fsm")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def newest_source_mtime():
    newest = 0.0
    tops = ["build.sbt", "project", "src/main", "jobs",
            os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project"), os.path.join(HERE, "src")]
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            newest = max(newest, os.path.getmtime(path))
        for d, dirs, files in os.walk(path):
            dirs[:] = [x for x in dirs if x != "target"]
            for f in files:
                newest = max(newest, os.path.getmtime(os.path.join(d, f)))
    return newest


def run_limited(cmd, limit, **kw):
    """Run `cmd` in its own process group; kill the group after `limit` seconds."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc, proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return proc, None


def build():
    if os.path.exists(LAUNCHER) and os.path.getmtime(LAUNCHER) >= newest_source_mtime():
        return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    # sbt's global settings directory goes to the checkout too.
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true"
                       f" -Dsbt.global.base={os.path.join(WORK, 'sbt-global')}").strip()
    t0 = time.time()
    _, code = run_limited(["sbt", "--batch", "-Dsbt.log.noformat=true", "launcher"], BUILD_LIMIT_S,
                          cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(LAUNCHER):
        fail("build failed", 1)
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The program under test is the repository around the benchmark.
    for need in ("build.sbt", os.path.join("src", "main", "scala", "repro")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} in {ROOT}: run from the root of a source checkout")
    build()

    with open(LAUNCHER) as f:
        lines = f.read().splitlines()
    jvm_opts, classpath = lines[:-2], lines[-1]
    for d in ("tmp", "spark-local"):
        shutil.rmtree(os.path.join(WORK, d), ignore_errors=True)
        os.makedirs(os.path.join(WORK, d))
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, "-Xmx3g", *jvm_opts,
           f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
           f"-Dspark.local.dir={os.path.join(WORK, 'spark-local')}",
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out_path = os.path.join(WORK, "tmp", "stdout.txt")
    with open(out_path, "w") as out:
        _, code = run_limited(cmd, RUN_LIMIT_S, cwd=ROOT, stdout=out, stdin=subprocess.DEVNULL)
    with open(out_path) as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    for d in ("tmp", "spark-local"):
        shutil.rmtree(os.path.join(WORK, d), ignore_errors=True)
    if code is None or code != 0 or not lines:
        sys.stderr.write("".join(l + "\n" for l in lines))
    if code is None:
        fail(f"run exceeded {RUN_LIMIT_S} s", 1)
    if code != 0 or not lines:
        fail(f"benchmark JVM exited with {code}", 1)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail("the benchmark printed no result line", 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
