#!/usr/bin/env python3
"""Compile-database replay harness for the compiler-backed safety layers.

Replays the TUs of BUILD_DIR/compile_commands.json once per profile with
that profile's extra warnings (and clang-tidy checks), parses the
diagnostics, applies the justified suppressions in
tools/replay_suppressions.json, and fails on whatever is left:

  thread-safety  every TU; clang++ adds -Wthread-safety (no g++ fallback);
                 any -Wthread-safety* diagnostic, wherever it lands, is a
                 finding
  numeric        src/ TUs; clang++ adds -Wconversion -Wsign-conversion
                 -Wdouble-promotion -Wfloat-equal
                 -Wimplicit-int-float-conversion, g++ the same set without
                 the last flag; any unsuppressed diagnostic in src/ is a
                 finding
  lifetime       src/ TUs; clang++ adds -Wdangling -Wdangling-gsl
                 -Wdangling-field -Wreturn-stack-address, g++
                 -Wdangling-pointer=2 -Wreturn-local-addr, then clang-tidy
                 runs bugprone-dangling-handle and bugprone-use-after-move;
                 any unsuppressed diagnostic in src/ is a finding

clang++ replays run -fsyntax-only.  g++ replays of the lifetime profile
compile to /dev/null instead, because -Wdangling-pointer is a middle-end
warning that -fsyntax-only never reaches.  A replay or clang-tidy run that
exits non-zero without a counted diagnostic (a TU that no longer compiles)
is itself a finding.  Thread-safety diagnostics cannot be suppressed.

Suppression entries match a repo-relative `file` (exact path or directory
prefix), an optional `warning` (flag or tidy check name, default `*`) and an
optional `contains` message substring, and must carry a `justification`;
an unjustified entry is a configuration error.  Unused entries are reported.

clang++ and clang-tidy are looked up by those names first, then as the
highest-numbered clang++-N / clang-tidy-N on PATH.

Without --strict, a missing compile database, clang++ or clang-tidy skips
what needs it with a "skipping" notice (numeric and lifetime fall back to
g++).  With --strict each of them is an error.

Exit codes: 0 = clean (or skipped), 1 = findings, 2 = environment or
configuration error.

Usage:
  tools/check_replay.py                          # skip what is missing
  tools/check_replay.py --build-dir build-threadsafety --strict
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SUPPRESSIONS_PATH = REPO / "tools" / "replay_suppressions.json"

WORKERS = min(8, os.cpu_count() or 1)

DIAG_RE = re.compile(
    r"^(?P<file>[^:\s][^:]*):(?P<line>\d+):(?:\d+:)?\s*"
    r"(?:warning|error):\s*(?P<msg>.*?)\s*\[(?P<flag>[-\w.,=]+)\]\s*$")
# Flags of the database's own command that would stop a replay at the first
# diagnostic, write an object file or colour the output.
DROP = {"-c", "-Werror"}
DROP_PREFIX = ("-Werror=", "-fdiagnostics-color")


class Profile(NamedTuple):
    name: str
    src_only: bool              # replay and count src/ only
    clang_flags: tuple[str, ...]
    gcc_flags: tuple[str, ...] | None  # None = needs clang++
    gcc_codegen: bool           # g++ must compile, not just parse
    counts: re.Pattern          # which diagnostic tags are findings
    suppressible: bool
    tidy_checks: str | None = None


NUMERIC_GCC = ("-Wconversion", "-Wsign-conversion", "-Wdouble-promotion",
               "-Wfloat-equal")
PROFILES = [
    Profile("thread-safety", False, ("-Wthread-safety",), None, False,
            re.compile(r"(?:^|,)-Wthread-safety"), False),
    Profile("numeric", True,
            NUMERIC_GCC + ("-Wimplicit-int-float-conversion",), NUMERIC_GCC,
            False, re.compile(""), True),
    Profile("lifetime", True,
            ("-Wdangling", "-Wdangling-gsl", "-Wdangling-field",
             "-Wreturn-stack-address"),
            ("-Wdangling-pointer=2", "-Wreturn-local-addr"), True,
            re.compile(""), True,
            "-*,bugprone-dangling-handle,bugprone-use-after-move"),
]


def log(msg: str) -> None:
    print(f"check_replay: {msg}", file=sys.stderr)


def which_first(name: str) -> str | None:
    """`name` on PATH, else the highest-numbered `name-N` on PATH."""
    versioned = re.compile(re.escape(name) + r"-(\d+)")
    versions: set[int] = set()
    for d in os.environ.get("PATH", "").split(os.pathsep):
        try:
            versions.update(int(m[1]) for f in os.listdir(d or ".")
                            if (m := versioned.fullmatch(f)))
        except OSError:
            continue
    for candidate in [name] + [f"{name}-{v}"
                               for v in sorted(versions, reverse=True)]:
        path = shutil.which(candidate)
        if path:
            return path
    return None


def load_suppressions() -> list[dict] | None:
    """The validated suppression list, or None on a configuration error
    (already reported)."""
    try:
        data = json.loads(SUPPRESSIONS_PATH.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        log(f"{SUPPRESSIONS_PATH}: {e}")
        return None
    entries = data.get("suppressions", [])
    ok = True
    for i, entry in enumerate(entries):
        if not entry.get("file"):
            log(f"suppression #{i} has no \"file\"")
            ok = False
        if not str(entry.get("justification", "")).strip():
            log(f"suppression #{i} ({entry.get('file', '?')}) has no "
                f"justification: every entry must say why the diagnostic "
                f"is sound")
            ok = False
        entry["matched"] = False
    return entries if ok else None


def suppressed(entries: list[dict], rel: str, flag: str, msg: str) -> bool:
    for entry in entries:
        prefix = entry["file"].rstrip("/") + "/"
        if rel != entry["file"] and not rel.startswith(prefix):
            continue
        if entry.get("warning", "*") not in ("*", flag):
            continue
        if entry.get("contains") and entry["contains"] not in msg:
            continue
        entry["matched"] = True
        return True
    return False


def repo_rel(directory: str, file: str) -> str:
    """`file` (relative to `directory`) as a repo-relative path, or as an
    absolute one outside the repo."""
    path = pathlib.Path(directory, file).resolve()
    return (path.relative_to(REPO).as_posix()
            if path.is_relative_to(REPO) else str(path))


def replay_argv(entry: dict, compiler: str, profile: Profile,
                is_clang: bool) -> list[str]:
    argv = shlex.split(entry["command"])
    args, skip_next = [compiler], False
    for a in argv[1:]:
        if skip_next:
            skip_next = False
        elif a == "-o":
            skip_next = True
        elif a not in DROP and not a.startswith(DROP_PREFIX):
            args.append(a)
    if is_clang or not profile.gcc_codegen:
        args.append("-fsyntax-only")
    else:
        args += ["-c", "-o", os.devnull]
    return args + ["-Wno-error"] + list(
        profile.clang_flags if is_clang else profile.gcc_flags)


def scan(output: str, directory: str, profile: Profile,
         seen: set, suppressions: list[dict]) -> tuple[list[str], int]:
    """(findings, number of diagnostics the profile counts) in one run's
    output.  Findings are de-duplicated across the profile's runs."""
    findings, counted = [], 0
    for line in output.splitlines():
        m = DIAG_RE.match(line)
        if m is None or not profile.counts.search(m["flag"]):
            continue
        rel = repo_rel(directory, m["file"])
        if profile.src_only and not rel.startswith("src/"):
            continue
        counted += 1
        key = (rel, m["line"], m["flag"], m["msg"])
        if key in seen:
            continue
        seen.add(key)
        if profile.suppressible and suppressed(suppressions, rel, m["flag"],
                                               m["msg"]):
            continue
        findings.append(f"{rel}:{m['line']}: {m['msg']} [{m['flag']}]")
    return findings, counted


def run_all(jobs: list[tuple[dict, list[str]]], what: str, profile: Profile,
            suppressions: list[dict], tidy: bool) -> list[str]:
    """Runs every (entry, argv) job and collects the profile's findings."""
    def run(job: tuple[dict, list[str]]) -> subprocess.CompletedProcess:
        entry, argv = job
        return subprocess.run(argv, cwd=entry["directory"],
                              capture_output=True, text=True)

    findings: list[str] = []
    seen: set = set()
    with ThreadPoolExecutor(WORKERS) as pool:
        for (entry, _), proc in zip(jobs, pool.map(run, jobs)):
            # clang-tidy prints findings on stdout, tool noise on stderr.
            found, counted = scan(proc.stdout if tidy else proc.stderr,
                                  entry["directory"], profile, seen,
                                  suppressions)
            findings += found
            if proc.returncode != 0 and counted == 0:
                first = next((ln.strip() for ln in
                              (proc.stderr + proc.stdout).splitlines()
                              if ln.strip()), "no output")
                rel = repo_rel(entry["directory"], entry["file"])
                findings.append(f"{rel}: {what} exited {proc.returncode}: "
                                f"{first}")
    log(f"{profile.name}: {what} checked {len(jobs)} TU(s)")
    return findings


def check_profile(profile: Profile, db: list[dict], build_dir: pathlib.Path,
                  suppressions: list[dict], clang: str | None,
                  gxx: str | None, tidy: str | None) -> list[str]:
    entries = [e for e in db if not profile.src_only or
               repo_rel(e["directory"], e["file"]).startswith("src/")]
    findings: list[str] = []
    compiler = clang or (gxx if profile.gcc_flags is not None else None)
    if compiler is None:
        needs = "clang++" if profile.gcc_flags is None else "clang++ or g++"
        log(f"{profile.name}: no {needs} on PATH; skipping the replay")
    else:
        jobs = [(e, replay_argv(e, compiler, profile, compiler == clang))
                for e in entries]
        findings += run_all(jobs, pathlib.Path(compiler).name, profile,
                            suppressions, tidy=False)
    if profile.tidy_checks and tidy is None:
        log(f"{profile.name}: no clang-tidy on PATH; skipping the tidy pass")
    elif profile.tidy_checks:
        jobs = [(e, [tidy, f"--checks={profile.tidy_checks}", "--quiet",
                     "-p", str(build_dir), e["file"]]) for e in entries]
        findings += run_all(jobs, "clang-tidy", profile, suppressions,
                            tidy=True)
    return findings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build-threadsafety",
                    help="directory holding compile_commands.json "
                         "(default: %(default)s)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 2 instead of skipping when the compile "
                         "database, clang++ or clang-tidy is missing")
    args = ap.parse_args()

    suppressions = load_suppressions()
    if suppressions is None:
        return 2
    build_dir = pathlib.Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = REPO / build_dir
    db_path = build_dir / "compile_commands.json"
    clang, tidy = which_first("clang++"), which_first("clang-tidy")
    missing = [msg for msg, absent in (
        (f"{db_path}: compile database not found", not db_path.exists()),
        ("no clang++ on PATH", clang is None),
        ("no clang-tidy on PATH", tidy is None)) if absent]
    if args.strict and missing:
        for msg in missing:
            log(f"{msg} (--strict)")
        return 2
    if not db_path.exists():
        log(f"{missing[0]}; skipping every profile")
        return 0

    db = json.loads(db_path.read_text(encoding="utf-8"))
    findings: list[str] = []
    for profile in PROFILES:
        findings += check_profile(profile, db, build_dir, suppressions,
                                  clang, shutil.which("g++"), tidy)
    for entry in suppressions:
        if not entry["matched"]:
            log(f"note: unused suppression for {entry['file']} "
                f"({entry.get('warning', '*')})")
    for f in findings:
        log(f)
    if findings:
        log(f"{len(findings)} finding(s)")
        return 1
    print("check_replay: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
