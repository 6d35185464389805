#!/usr/bin/env python3
"""Builds the hbct library and the benchmark program from source, then runs one
benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <stream-mixed|stream-wide|offline-check>
                             --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; its log stays there and only the program's output reaches stdout,
whose last line is the JSON result. The exit code is the program's: 0 when
every output was correct, 1 when one was wrong or the build failed.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream-mixed", "stream-wide", "offline-check")
SETTLE_SECONDS = 30


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures and builds the benchmark program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no hbct sources next to perfbench/", file=sys.stderr)
        return None
    os.makedirs(build_dir, exist_ok=True)
    started = time.time()
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    # A configured tree re-runs CMake by itself when a CMakeLists changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                print(f"perfbench: build failed, see {log_path}",
                      file=sys.stderr)
                return None
    binary = os.path.join(build_dir, "hbct_perfbench")
    if os.path.getmtime(binary) > started:
        # Fresh build: flush its output and let the machine settle. Left to
        # the kernel's lazy writeback, the flush lands in the first minute
        # of measurement and doubled stream-mixed fire latency there on the
        # reference guest.
        os.sync()
        time.sleep(SETTLE_SECONDS)
    return binary


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    binary = build(build_dir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_revision()]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, "traces", f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
