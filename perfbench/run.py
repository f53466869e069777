#!/usr/bin/env python3
"""ssRec serving benchmark launcher.

Builds the benchmark (and the program it measures) with sbt on first use,
then runs one workload in a fresh JVM and relays its output. The last line
of standard output is the run's JSON summary.

    python3 perfbench/run.py --workload query-frozen --seed 42 --seconds 15 --trace 0

Workloads: query-frozen, update-batch, stream-mixed (see perfbench/README.md).
With --trace 1 the spans are written to perfbench/out/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "target", "launch")
WORKLOADS = ("query-frozen", "update-batch", "stream-mixed")
# Sources whose change forces a rebuild.
SOURCES = ("src/main", "jobs", "build.sbt", "project/build.properties",
           "perfbench/src/main", "perfbench/build.sbt", "perfbench/project/build.properties")


def source_stamp():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    opts = env.get("SBT_OPTS", "")
    for flag in ("-Dsbt.offline=true", "-Dsbt.override.build.repos=true"):
        if flag not in opts:
            opts += " " + flag
    env["SBT_OPTS"] = opts.strip()
    return env


def build():
    """Compile with sbt and record the classpath and JVM flags to launch with."""
    stamp = source_stamp()
    stamp_file = os.path.join(BUILD, "stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return
    out = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "perfbench/compile",
         "export perfbench/Runtime/fullClasspath", "show perfbench/benchJavaOptions"],
        cwd=HERE, env=sbt_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=700)
    lines = out.stdout.splitlines()
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-4000:])
        raise SystemExit("benchmark build failed")
    classpath = next(l for l in lines if not l.startswith("[") and l.count(os.pathsep) > 10)
    jvm = [l.split("* ", 1)[1] for l in lines if l.startswith("[info] * ")]
    jvm = [o for o in jvm if not o.startswith("-Xmx")]
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "launch.json"), "w") as fh:
        json.dump({"classpath": classpath, "jvm": jvm}, fh)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main")):
        raise SystemExit("program sources not found next to perfbench/")
    build()
    with open(os.path.join(BUILD, "launch.json")) as fh:
        launch = json.load(fh)
    cmd = (["java", "-Xmx2g", "-Xms2g"] + launch["jvm"] +
           ["-cp", launch["classpath"], "ssrecbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-dir", os.path.join(HERE, "out")])
    # Spark's log goes to a file; the benchmark's report to stdout.
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "jvm-stderr.log"), "w") as err:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=err, text=True, timeout=175)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited with {proc.returncode}")
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("malformed result line")


if __name__ == "__main__":
    main()
