#!/usr/bin/env python3
"""Build ftb and the perfbench harness from source, then run one workload.

Run from the root of an ftb checkout:

    python3 perfbench/run.py --workload exhaustive_cold --seed 1 --seconds 5 --trace 0

The build goes to .bench_build (release profile). The harness prints every
metric by name and unit and ends its standard output with one JSON line.
"""
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGETS = ["./bin/ftb_cli.exe", "./perfbench/harness/perfbench.exe"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
SETTLE_S = 45


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def stop_group(pgid):
    """Kill what is left of the harness's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv):
    for path in ("dune-project", "bin/ftb_cli.ml", "lib"):
        if not os.path.exists(path):
            return fail(f"{path} not found: run from the root of an ftb checkout", 2)
    harness = os.path.join(BUILD_DIR, "default", "perfbench", "harness", "perfbench.exe")
    before = os.path.getmtime(harness) if os.path.exists(harness) else None
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", *TARGETS],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "bin", "ftb_cli.exe")
    if os.path.getmtime(harness) != before:
        # A build rewrites and deletes many files; on a volume mounted with
        # discard that slows file writes for a while afterwards. Let it
        # settle before the run measures anything.
        subprocess.run(["sync"])
        time.sleep(SETTLE_S)
    proc = subprocess.Popen([harness, "--exe", exe, *argv], start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = fail(f"no result within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
