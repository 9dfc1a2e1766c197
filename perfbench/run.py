#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload admit_churn --seed 1 --seconds 30 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr.  The binary's own
stdout is passed through, so the last line is the result JSON.  Extra flags
(--fabric tiny) are forwarded to the binary.  Exits non-zero without a
result when the repository sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no repository sources next to perfbench/ (missing %s)" %
                 needed)
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(cpu_count())])
    for step in steps:
        # Build chatter goes to stderr so stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    command = [binary] + sys.argv[1:] + ["--git-sha", git_sha()]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
