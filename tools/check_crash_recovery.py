#!/usr/bin/env python3
"""Crash-safety gate: runs the checkpoint + crash-recovery ctest suites.

Thin wrapper so tools/run_checks.py (and CI mirrors of it) can invoke the
crash-injection tests the same way as the static-analysis gates:

  * CheckpointTest.*     -- envelope validation, rotation, corruption
                            rejection, atomic-write failure paths
  * CrashRecoveryTest.*  -- fork/exec the real CLI, SIGKILL at checkpoint
                            boundaries, resume, byte-compare exports
  * CampaignTest.*       -- the same cancel/resume cycle in process,
                            through eval::run_campaign

Needs a configured build tree (default: build/, override with --build-dir)
whose test binaries are current.  Without one -- or without ctest on PATH --
the check degrades to a skip with a notice, exactly like the compiler-backed
halves of the other checks; --require-build turns that into a failure (CI
semantics).

Exit codes: 0 = suites passed (or skipped without --require-build),
1 = failures, 2 = usage/environment error under --require-build.
"""
from __future__ import annotations

import argparse
import pathlib
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SUITE_REGEX = "CheckpointTest|CrashRecoveryTest|CampaignTest"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build tree holding the test binaries "
                         "(default: build)")
    ap.add_argument("--require-build", action="store_true",
                    help="fail instead of skipping when the build tree or "
                         "ctest is missing (CI semantics)")
    args = ap.parse_args()

    build = (REPO / args.build_dir).resolve()
    ctest = shutil.which("ctest")
    missing = None
    if ctest is None:
        missing = "ctest not found on PATH"
    elif not (build / "CTestTestfile.cmake").exists():
        missing = f"no configured build tree at {build}"
    if missing is not None:
        if args.require_build:
            print(f"check_crash_recovery: {missing}", file=sys.stderr)
            return 2
        print(f"check_crash_recovery: {missing}; skipping the crash-recovery "
              "suite (configure + build first, or pass --build-dir)")
        return 0

    # Test binaries may be stale or missing after a fresh configure; build
    # just the two suites (and the CLI the crash tests exec) first.
    built = subprocess.run(
        ["cmake", "--build", str(build), "--target",
         "checkpoint_test", "crash_recovery_test"],
        cwd=REPO, capture_output=True, text=True)
    if built.returncode != 0:
        sys.stderr.write(built.stdout + built.stderr)
        print("check_crash_recovery: building the suites failed",
              file=sys.stderr)
        return 1

    proc = subprocess.run(
        [ctest, "-R", SUITE_REGEX, "--output-on-failure"],
        cwd=build, text=True)
    if proc.returncode != 0:
        print("check_crash_recovery: FAILED", file=sys.stderr)
        return 1
    print("check_crash_recovery: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
