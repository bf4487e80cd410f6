#!/usr/bin/env python3
"""One-shot local runner for every static-analysis gate CI enforces.

Runs, in order:

  lint            tools/lint.py (rules R1-R20 over the whole tree)
  lint-selftest   tests/lint_selftest.py (golden lint fixtures)
  trace-diff      tests/trace_diff_selftest.py (golden trace fixtures for
                  tools/trace_diff.py)
  export-identity tests/check_export_identity_selftest.py (stand-in CLIs for
                  tools/check_export_identity.py)
  replay-selftest tests/check_replay_selftest.py (stand-in compilers for
                  tools/check_replay.py)
  regression-selftest
                  tests/check_regression_selftest.py (error paths and
                  verdicts of tools/check_regression.py)
  compile-replay  tools/check_replay.py (thread-safety, numeric and lifetime
                  warning replays of the compile database + clang-tidy
                  lifetime checks)
  crash-recovery  tools/check_crash_recovery.py (checkpoint envelope +
                  crash-injection ctest suites; needs a build tree)

and prints one pass/fail/skip line per check plus a summary table.  Each
check degrades the same way it does in CI: compiler-backed passes skip with
a notice on machines without clang, so the runner is useful on any box.

With --strict every check runs with its strict flag (--strict /
--require-build), turning missing tooling into failures -- this is exactly
what the CI lanes enforce.

Exit codes: 0 = every check passed (or skipped its optional half),
1 = at least one check failed.

Usage:
  tools/run_checks.py                # run everything, tolerate missing clang
  tools/run_checks.py --strict       # CI semantics
  tools/run_checks.py --only lint --only compile-replay
"""
from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent

# name -> (argv, flag appended under --strict).
CHECKS: list[tuple[str, list[str], str | None]] = [
    ("lint", ["tools/lint.py"], None),
    ("lint-selftest", ["tests/lint_selftest.py"], None),
    ("trace-diff", ["tests/trace_diff_selftest.py"], None),
    ("export-identity", ["tests/check_export_identity_selftest.py"], None),
    ("replay-selftest", ["tests/check_replay_selftest.py"], None),
    ("regression-selftest", ["tests/check_regression_selftest.py"], None),
    ("compile-replay", ["tools/check_replay.py"], "--strict"),
    ("crash-recovery", ["tools/check_crash_recovery.py"], "--require-build"),
]


def run_check(name: str, argv: list[str], strict_flag: str | None,
              strict: bool, verbose: bool) -> tuple[str, float]:
    cmd = [sys.executable] + argv
    if strict and strict_flag:
        cmd.append(strict_flag)
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    out = (proc.stdout + proc.stderr).strip()
    skipped = "skipping" in out
    if proc.returncode == 0:
        status = "PASS*" if skipped else "PASS"
    elif proc.returncode == 2:
        status = "ERROR"
    else:
        status = "FAIL"
    if verbose or proc.returncode != 0:
        for line in out.splitlines():
            print(f"  {line}")
    return status, elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--strict", action="store_true",
                    help="CI semantics: missing clang/compile-DB fails the "
                         "check instead of skipping its compiler half")
    ap.add_argument("--only", action="append", default=[],
                    metavar="CHECK", choices=[c[0] for c in CHECKS],
                    help="run only the named check (repeatable)")
    ap.add_argument("--verbose", action="store_true",
                    help="show each check's full output even on success")
    args = ap.parse_args()

    selected = [c for c in CHECKS if not args.only or c[0] in args.only]
    results: list[tuple[str, str, float]] = []
    for name, argv, strict_flag in selected:
        print(f"run_checks: {name} ...", flush=True)
        status, elapsed = run_check(name, argv, strict_flag,
                                    args.strict, args.verbose)
        print(f"run_checks: {name}: {status} ({elapsed:.1f}s)")
        results.append((name, status, elapsed))

    width = max(len(n) for n, _, _ in results)
    print()
    print(f"{'check'.ljust(width)}  status  time")
    print(f"{'-' * width}  ------  ------")
    for name, status, elapsed in results:
        print(f"{name.ljust(width)}  {status.ljust(6)}  {elapsed:6.1f}s")
    if any(s == "PASS*" for _, s, _ in results):
        print("\n* = compiler-backed half skipped (no clang/compile DB); "
              "run with --strict for CI semantics")

    failed = [n for n, s, _ in results if s not in ("PASS", "PASS*")]
    if failed:
        print(f"\nrun_checks: FAILED: {', '.join(failed)}")
        return 1
    print("\nrun_checks: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
