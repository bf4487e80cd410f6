#!/usr/bin/env python3
"""Export-identity check: two metascritic_cli builds must export the same bytes.

  python3 tools/check_export_identity.py CLI_A CLI_B

Runs both binaries on the canonical seed-42 all-metros campaign, at the
default scale, with `--fault-profile flaky` and at `--scale paper` (whose
fits reach ranks the default run does not), and compares the three CSV
exports of every metro (`<metro>_links.csv`, `_ratings.csv`,
`_measurements.csv`) byte for byte.  Each run writes into its own temporary
directory under the same relative `--out` name, so stdout is compared too.

Use it to show that a change meant to keep results (a refactor or a
speedup) moved no number: CLI_A is built at the merge-base, CLI_B at the
change.

Exit codes: 0 = identical, 1 = a difference or a failed run, 2 = usage.
"""
from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys
import tempfile

RUNS = {
    "default": ["--seed", "42", "--all-metros"],
    "flaky": ["--seed", "42", "--all-metros", "--fault-profile", "flaky"],
    "paper": ["--seed", "42", "--all-metros", "--scale", "paper"],
}
EXPORT_SUFFIXES = ("_links.csv", "_ratings.csv", "_measurements.csv")


def run_cli(cli: pathlib.Path, args: list[str], cwd: pathlib.Path) -> bytes:
    proc = subprocess.run([str(cli), *args, "--out", "out"], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{cli} {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout


def exports(out: pathlib.Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name.endswith(EXPORT_SUFFIXES)}


def compare(name: str, cli_a: pathlib.Path, cli_b: pathlib.Path,
            args: list[str], workdir: pathlib.Path) -> list[str]:
    results = []
    for tag, cli in (("a", cli_a), ("b", cli_b)):
        cwd = workdir / name / tag
        cwd.mkdir(parents=True)
        stdout = run_cli(cli, args, cwd)
        results.append((stdout, exports(cwd / "out")))
    (out_a, files_a), (out_b, files_b) = results
    problems = []
    if not files_a:
        problems.append(f"{name}: no CSV exports written")
    if sorted(files_a) != sorted(files_b):
        problems.append(f"{name}: export file sets differ: "
                        f"{sorted(files_a)} vs {sorted(files_b)}")
    for fname in sorted(set(files_a) & set(files_b)):
        if files_a[fname] != files_b[fname]:
            problems.append(f"{name}: {fname} differs")
    if out_a != out_b:
        problems.append(f"{name}: stdout differs")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cli_a", type=pathlib.Path, help="reference metascritic_cli")
    ap.add_argument("cli_b", type=pathlib.Path, help="candidate metascritic_cli")
    args = ap.parse_args()
    for cli in (args.cli_a, args.cli_b):
        if not cli.is_file():
            print(f"check_export_identity: no binary at {cli}", file=sys.stderr)
            return 2
    cli_a, cli_b = args.cli_a.resolve(), args.cli_b.resolve()

    problems = []
    with tempfile.TemporaryDirectory(prefix="export_identity_") as tmp:
        for name, run_args in RUNS.items():
            try:
                found = compare(name, cli_a, cli_b, run_args, pathlib.Path(tmp))
            except RuntimeError as err:
                found = [f"{name}: {err}"]
            print(f"{name}: {'identical' if not found else 'DIFFERENT'}")
            problems += found
    for p in problems:
        print(f"check_export_identity: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
