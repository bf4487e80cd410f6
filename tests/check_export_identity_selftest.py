#!/usr/bin/env python3
"""Self-test for tools/check_export_identity.py against stand-in CLIs.

Each stand-in is a small script taking metascritic_cli's arguments: it
writes the three per-metro CSVs under `--out` and prints a summary, with
content derived from its arguments so the default, flaky and paper runs
differ from each other.  Checks that identical binaries pass, that a
changed export (in the flaky run or in the paper run alone), a changed
stdout or a missing export file fails naming the run and file, that a
crashing binary fails, and that a missing binary is a usage error (exit 2).

Registered in ctest as `check_export_identity_selftest` and run by
tools/run_checks.py.
"""
from __future__ import annotations

import pathlib
import stat
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_export_identity.py"

# {mutation} is spliced in per stand-in; `flaky` is true under
# --fault-profile flaky and `paper` under --scale paper, so a mutation can
# hit one run only.
STAND_IN = """#!{python}
import pathlib, sys
args = sys.argv[1:]
out = pathlib.Path(args[args.index("--out") + 1])
out.mkdir(parents=True, exist_ok=True)
flaky = "--fault-profile" in args
paper = "--scale" in args
files = {{
    "Metro_links.csv": "a,b\\n1,2\\n" + ("5,6\\n" if paper else ""),
    "Metro_ratings.csv": "a,b,r\\n1,2,%s\\n" % ("0.5" if flaky else "0.9"),
    "Metro_measurements.csv": "i,j\\n3,4\\n",
}}
stdout = "summary " + " ".join(args) + "\\n"
{mutation}
for name, text in files.items():
    (out / name).write_text(text)
sys.stdout.write(stdout)
"""

MUTATIONS = {
    "same": "",
    "ratings_flaky": "if flaky: files['Metro_ratings.csv'] += '9,9,0.1\\n'",
    "links_paper": "if paper: files['Metro_links.csv'] += '7,8\\n'",
    "stdout_default": "if not flaky: stdout += 'extra line\\n'",
    "no_links": "del files['Metro_links.csv']",
    "crash": "sys.exit(3)",
}


def make_stand_ins(tmp: pathlib.Path) -> dict[str, pathlib.Path]:
    paths = {}
    for name, mutation in MUTATIONS.items():
        path = tmp / f"cli_{name}"
        path.write_text(STAND_IN.format(python=sys.executable, mutation=mutation))
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        paths[name] = path
    return paths


def run(*args: object) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    failures: list[str] = []

    def check(cond: bool, msg: str) -> None:
        if not cond:
            failures.append(msg)

    with tempfile.TemporaryDirectory(prefix="export_identity_selftest_") as d:
        cli = make_stand_ins(pathlib.Path(d))

        rc, out, err = run(cli["same"], cli["same"])
        check(rc == 0, f"identical binaries: exit {rc}, want 0 ({err.strip()})")
        check(all(f"{name}: identical" in out
                  for name in ("default", "flaky", "paper")),
              f"identical binaries: report {out!r}")

        rc, out, err = run(cli["same"], cli["ratings_flaky"])
        check(rc == 1, f"changed flaky export: exit {rc}, want 1")
        check("default: identical" in out,
              f"changed flaky export: default run should match: {out!r}")
        check("flaky: Metro_ratings.csv differs" in err,
              f"changed flaky export: diagnostic {err!r}")

        rc, out, err = run(cli["same"], cli["links_paper"])
        check(rc == 1, f"changed paper export: exit {rc}, want 1")
        check("default: identical" in out and "flaky: identical" in out,
              f"changed paper export: other runs should match: {out!r}")
        check("paper: Metro_links.csv differs" in err,
              f"changed paper export: diagnostic {err!r}")

        rc, _, err = run(cli["same"], cli["stdout_default"])
        check(rc == 1 and "default: stdout differs" in err,
              f"changed stdout: exit {rc}, diagnostic {err!r}")

        rc, _, err = run(cli["same"], cli["no_links"])
        check(rc == 1 and "export file sets differ" in err,
              f"missing export: exit {rc}, diagnostic {err!r}")

        rc, _, err = run(cli["crash"], cli["same"])
        check(rc == 1 and "exited 3" in err,
              f"crashing binary: exit {rc}, diagnostic {err!r}")

        rc, _, _ = run(pathlib.Path(d) / "no_such_cli", cli["same"])
        check(rc == 2, f"missing binary: exit {rc}, want 2")

    if failures:
        for f in failures:
            print(f"check_export_identity_selftest: FAIL: {f}", file=sys.stderr)
        print(f"check_export_identity_selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("check_export_identity_selftest: OK (identity, changed flaky and "
          "paper exports, changed stdout, missing export, crash, missing "
          "binary)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
