#!/usr/bin/env python3
"""Build and run the viewcap benchmark.

    python3 perfbench/run.py --workload <fleet_stream|cold_deep|daemon_warm> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a package of its own
that depends on the repository's crates by path) into `$CARGO_TARGET_DIR`,
default `.bench_build`, runs it, adds the peak resident memory of the run
(`peak_rss_mb`) to the end-to-end metrics and host details to the report
line, and prints the result object as the last line of stdout. Exits
non-zero, printing no result, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")


def run(exe, args):
    """Run the benchmark binary; return its stdout and peak RSS in MB."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        # wait4 reaps the child and reports its own resource usage, so the
        # peak RSS is the benchmark's and not the compiler's.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    return out, usage.ru_maxrss / 1024.0


def source_digest():
    """SHA-256 over the program's sources, naming the code measured when
    the checkout carries no commit."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("src", "crates"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths += [os.path.join(base, f) for f in files
                      if f.endswith(".rs") or f == "Cargo.toml"]
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def filesystem():
    """Type of the filesystem the benchmark's pile lives on."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) > 2 and ROOT.startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["fleet_stream", "cold_deep", "daemon_warm"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    started = time.time()
    build(env)
    build_s = time.time() - started
    out, peak_rss_mb = run(os.path.join(target, "release", "viewcap-perfbench"), args)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        report = json.loads(lines[-2].removeprefix("report "))
    except (IndexError, ValueError):
        fail("benchmark printed no result")
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    report.update({
        "commit": commit(),
        "source_sha256": source_digest(),
        "pile_filesystem": filesystem(),
        "build_s": round(build_s, 3),
    })
    print("report " + json.dumps(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
