#!/usr/bin/env python3
"""Self-test for tools/check_replay.py.

Each case builds a throwaway repo in a temp dir -- a copy of the harness,
a suppression list, src/ and tests/ TUs and a synthetic
compile_commands.json -- and runs the harness with stand-in clang++ /
clang-tidy / g++ scripts as the only tools on PATH.  A stand-in prints the
diagnostic of every fixture line tagged `// emit <trigger>: <diagnostic>`
when <trigger> (a warning flag or tidy check) is on its command line, and
fails like a real compiler on an `-include` of a missing file.

The last case uses the real g++ on a fixture TU (skipped without g++): a
lifetime replay must report -Wdangling-pointer, which g++ only emits when
it compiles rather than parses.

Registered in ctest as `check_replay_selftest` (see tests/CMakeLists.txt).
"""
from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
HARNESS = REPO / "tools" / "check_replay.py"

STANDIN = f"""#!{sys.executable}
import os, sys
args = sys.argv[1:]
src = next(a for a in args if a.endswith(".cpp"))
for flag, path in zip(args, args[1:]):
    if flag == "-include" and not os.path.exists(path):
        print(f"{{src}}:1:10: fatal error: {{path}}: "
              "No such file or directory", file=sys.stderr)
        sys.exit(1)
tidy = os.path.basename(sys.argv[0]) == "clang-tidy"
for n, line in enumerate(open(src), 1):
    trigger, sep, diag = line.partition("// emit ")[2].partition(": ")
    if sep and any(trigger in a for a in args):
        print(f"{{src}}:{{n}}:3: {{diag.strip()}}",
              file=sys.stdout if tidy else sys.stderr)
"""

NUMERIC = ("-Wconversion: warning: implicit conversion turns floating-point "
           "number into integer: 'double' to 'int' [-Wconversion]")
THREAD = ("-Wthread-safety: warning: writing variable 'n_' requires holding "
          "mutex 'mu_' exclusively [-Wthread-safety-analysis]")
TIDY = ("bugprone-use-after-move: warning: 'v' used after it was moved "
        "[bugprone-use-after-move]")
JUSTIFIED = "the stand-in diagnostic is sound by construction"

# Tool sets: which stand-ins are on PATH.
FULL = ("clang++", "clang-tidy")
NO_TIDY = ("clang++",)
GXX = ("g++",)

# (name, TUs {path: emitted diagnostic or None} -- None = no database,
#  suppressions, tools, extra compile flags, harness args, exit, output)
CASES = [
    ("unsuppressed finding", {"src/a.cpp": NUMERIC}, [], FULL, "", [],
     1, "src/a.cpp:2: implicit conversion"),
    ("suppressed finding, unused suppression noted", {"src/a.cpp": NUMERIC},
     [{"file": "src/a.cpp", "warning": "-Wconversion",
       "justification": JUSTIFIED},
      {"file": "src/unused/", "justification": JUSTIFIED}], FULL, "", [],
     0, "unused suppression for src/unused/"),
    ("unjustified suppression", {"src/a.cpp": None},
     [{"file": "src/a.cpp", "justification": " "}], FULL, "", [],
     2, "has no justification"),
    ("missing database skips", None, [], FULL, "", [], 0, "skipping"),
    ("missing database --strict", None, [], FULL, "", ["--strict"],
     2, "compile database not found"),
    ("missing clang-tidy --strict", {"src/a.cpp": None}, [], NO_TIDY, "",
     ["--strict"], 2, "no clang-tidy"),
    ("g++ fallback without clang", {"src/a.cpp": NUMERIC}, [], GXX, "", [],
     1, "src/a.cpp:2: implicit conversion"),
    ("g++ only --strict", {"src/a.cpp": None}, [], GXX, "", ["--strict"],
     2, "no clang++"),
    ("numeric diagnostic in tests/ ignored", {"tests/t.cpp": NUMERIC}, [],
     FULL, "", [], 0, "OK"),
    ("thread-safety diagnostic in tests/ counts", {"tests/t.cpp": THREAD}, [],
     FULL, "", [], 1, "tests/t.cpp:2: writing variable"),
    ("thread-safety is unsuppressible", {"src/a.cpp": THREAD},
     [{"file": "src/", "justification": JUSTIFIED}], FULL, "", [],
     1, "[-Wthread-safety-analysis]"),
    ("clang-tidy finding", {"src/a.cpp": TIDY}, [], FULL, "", [],
     1, "[bugprone-use-after-move]"),
    ("TU that fails to compile", {"src/a.cpp": None}, [], FULL,
     "-include /nonexistent/missing.hpp", [], 1,
     "src/a.cpp: clang++ exited 1: src/a.cpp:1:10: fatal error"),
    ("only a versioned clang++ newer than any fixed list",
     {"src/a.cpp": THREAD}, [], ("clang++-21",), "", [], 1,
     "thread-safety: clang++-21 checked 1 TU(s)"),
    ("highest-numbered versioned clang++ wins",
     {"src/a.cpp": THREAD}, [], ("clang++-9", "clang++-21"), "", [], 1,
     "thread-safety: clang++-21 checked 1 TU(s)"),
]


def make_repo(root: pathlib.Path, tus: dict[str, str | None] | None,
              suppressions: list[dict], extra: str) -> None:
    (root / "tools").mkdir(parents=True)
    (root / "build").mkdir()
    shutil.copy(HARNESS, root / "tools")
    (root / "tools" / "replay_suppressions.json").write_text(
        json.dumps({"suppressions": suppressions}), encoding="utf-8")
    if tus is None:
        return
    db = []
    for rel, diag in tus.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        emit = f"  // emit {diag}" if diag else ""
        path.write_text("// fixture TU\n"
                        f"int f(double d) {{ return d; }}{emit}\n",
                        encoding="utf-8")
        db.append({"directory": str(root),
                   "file": str(path),
                   "command": f"c++ -std=c++20 {extra} -o {rel}.o -c {rel}"})
    (root / "build" / "compile_commands.json").write_text(
        json.dumps(db), encoding="utf-8")


def tool_dir(root: pathlib.Path, tools: tuple[str, ...]) -> pathlib.Path:
    bin_dir = root / "bin"
    bin_dir.mkdir()
    for name in tools:
        (bin_dir / name).write_text(STANDIN, encoding="utf-8")
        (bin_dir / name).chmod(0o755)
    return bin_dir


def run_harness(root: pathlib.Path, bin_dir: pathlib.Path,
                args: list[str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "check_replay.py"),
         "--build-dir", "build", *args],
        env={**os.environ, "PATH": str(bin_dir)},
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def real_gxx_case(tmp: pathlib.Path) -> str | None:
    """A dangling pointer only `g++ -c` reports: the lifetime profile's g++
    replay must compile, not just parse.  Returns a failure or None."""
    gxx, as_ = shutil.which("g++"), shutil.which("as")
    if gxx is None or as_ is None:
        print("check_replay_selftest: no g++ on PATH; skipping the real "
              "-Wdangling-pointer case")
        return None
    root = tmp / "real-gxx"
    make_repo(root, {}, [], "")
    (root / "src").mkdir()
    (root / "src" / "dangle.cpp").write_text(
        "int* g;\nvoid f() { int x; g = &x; }\n", encoding="utf-8")
    (root / "build" / "compile_commands.json").write_text(json.dumps([{
        "directory": str(root), "file": str(root / "src" / "dangle.cpp"),
        "command": "g++ -std=c++20 -o dangle.o -c src/dangle.cpp"}]),
        encoding="utf-8")
    bin_dir = root / "bin"
    bin_dir.mkdir()
    (bin_dir / "g++").symlink_to(gxx)
    (bin_dir / "as").symlink_to(as_)
    rc, out = run_harness(root, bin_dir, [])
    if rc != 1 or "src/dangle.cpp:2:" not in out \
            or "[-Wdangling-pointer=]" not in out:
        return f"real g++ -Wdangling-pointer: exit {rc}, want 1\n{out}"
    return None


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = pathlib.Path(tmp_name)
        for i, (name, tus, sups, tools, extra, args, want_rc,
                want_text) in enumerate(CASES):
            root = tmp / f"case{i}"
            make_repo(root, tus, sups, extra)
            rc, out = run_harness(root, tool_dir(root, tools), args)
            if rc != want_rc or want_text not in out:
                failures.append(f"{name}: exit {rc} (want {want_rc}), "
                                f"output lacks {want_text!r}:\n{out}")
        failure = real_gxx_case(tmp)
        if failure:
            failures.append(failure)

    for f in failures:
        print(f"check_replay_selftest: FAIL: {f}", file=sys.stderr)
    if failures:
        print(f"check_replay_selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print(f"check_replay_selftest: OK ({len(CASES) + 1} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
