#!/usr/bin/env python3
"""metAScritic campaign benchmark: build, run one workload, check, report.

Usage, from the root of a checkout:

  python3 campaign_bench/run.py --workload canonical-paper --seed 1 \\
      --seconds 25 --trace 0

Workloads: canonical-paper, flaky-small, posthoc-random (README.md says
why each was chosen).  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.  The program is built from
the checkout's sources into $CARGO_TARGET_DIR/campaign_bench (default
.bench_build/campaign_bench) with CMake, Release.

Output checks, on top of the ones the runner makes inside one process
(every campaign repeats the first one's exports, deterministic metrics and
registry counters exactly; a traced campaign reproduces the untraced one):

  * canonical-paper: the exports are byte-identical to metascritic_cli's
    for the same seed and scale (the CLI's output is kept per binary);
  * --trace 1: the trace loads in tools/trace_diff.py, drops no events, and
    the top-level benchmark spans cover at least 95% of the traced time;
  * every run: the deterministic metrics equal those of the first run of
    the workload on the same sources in this build directory.

A mismatched metro run counts as failed.  The last line of standard output
is the JSON result; the exit status is 0 only when every check passed.
Every workload runs the canonical seed-42 world (README.md says why).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("canonical-paper", "flaky-small", "posthoc-random")
TOP_LEVEL_SPANS = ("bench.setup.topology", "bench.setup.public_archives",
                   "bench.setup.public_view", "bench.metro", "bench.export")
MIN_SPAN_COVERAGE = 0.95
# Everything after the build must end within this many seconds.
RUN_DEADLINE_S = 170.0
# The world every workload runs, and the seed metascritic_cli is given.
WORLD_SEED = 42


def fail(msg: str, code: int = 2) -> None:
    print(f"campaign_bench: {msg}", file=sys.stderr)
    raise SystemExit(code)


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "campaign_bench"


def build(bdir: Path) -> None:
    """Configures once, then rebuilds the runner and the CLI incrementally."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                  "campaign_bench", "metascritic_cli"])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")


def source_version() -> tuple[str, str]:
    """Git commit ("no-git" without one) and a hash of the benchmarked sources."""
    commit = "no-git"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [ROOT / "tools" / "metascritic_cli.cpp", HERE / "campaign_bench.cpp"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def compare_exports(ours: Path, reference: Path) -> dict[str, str]:
    """Metro -> reason, for every metro whose CSVs are not byte-identical."""
    names = {p.name for p in ours.glob("*.csv")} | {
        p.name for p in reference.glob("*.csv")}
    bad: dict[str, str] = {}
    for name in sorted(names):
        metro, _, kind = name[:-len(".csv")].rpartition("_")
        a, b = ours / name, reference / name
        if not a.exists() or not b.exists():
            bad.setdefault(metro, f"{kind} export missing on one side")
        elif a.read_bytes() != b.read_bytes():
            bad.setdefault(metro, f"{kind} export differs from metascritic_cli")
    return bad


def cli_reference(bdir: Path, deadline: float) -> tuple[Path, str]:
    """metascritic_cli's exports for the canonical-paper run, and an error.

    The CLI is deterministic, so its output is kept per binary (by content
    hash), and rerun only when the binary changes.
    """
    cli = bdir / "metascritic_cli"
    digest = hashlib.sha256(cli.read_bytes()).hexdigest()[:16]
    ref = bdir / "cli-reference" / digest
    if ref.is_dir():
        return ref, ""
    tmp = ref.with_name(ref.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        got = subprocess.run(
            [str(cli), "--seed", str(WORLD_SEED), "--all-metros", "--scale",
             "paper", "--out", str(tmp), "--quiet"], capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return ref, "metascritic_cli did not finish in time"
    if got.returncode != 0:
        return ref, f"metascritic_cli exited with status {got.returncode}"
    tmp.rename(ref)
    return ref, ""


def deterministic_part(report: dict) -> dict:
    """The numbers of a report that must repeat exactly from run to run."""
    metros = [{k: v for k, v in m.items() if k != "core.pipeline_s"}
              for m in report["metros"]]
    return {"metros": metros, **report["deterministic"]}


def compare_deterministic(expected: dict, got: dict) -> dict[str, str]:
    """Metro -> reason, for every metro whose deterministic numbers moved."""
    bad: dict[str, str] = {}
    for want, have in zip(expected["metros"], got["metros"]):
        if want != have:
            bad[have["metro"]] = "deterministic metrics differ from an earlier run"
    if len(expected["metros"]) != len(got["metros"]) or any(
            expected[k] != got[k] for k in expected if k != "metros"):
        for m in got["metros"]:
            bad.setdefault(m["metro"], "totals or registry counters differ "
                                       "from an earlier run")
    return bad


def verdict(report: dict, bad: dict[str, str],
            problems: list[str]) -> tuple[bool, int, dict[str, str]]:
    """(correct, failed metro runs, newly failed metros) of one run.

    `bad` holds metros of the first campaign that the checks made here found
    wrong; those the runner already counted as failed are not counted twice.
    """
    already = {m["metro"] for m in report["metros"] if m["failure"]}
    new_bad = {m: why for m, why in bad.items() if m not in already}
    failed = report["failed"] + len(new_bad)
    return failed == 0 and not problems, failed, new_bad


def check_trace(trace: Path, metrics: dict, deadline: float) -> list[str]:
    problems = []
    got = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "trace_diff.py"), str(trace),
         "--json"], capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if got.returncode != 0:
        return [f"tools/trace_diff.py cannot load the trace: {got.stderr.strip()}"]
    stats = json.loads(got.stdout)
    missing = [s for s in TOP_LEVEL_SPANS if s not in stats["spans"]]
    if missing:
        problems.append(f"trace lacks top-level spans {missing}")
    if stats["dropped_events"] or stats["unmatched_begin"] or stats["unmatched_end"]:
        problems.append("trace dropped or unmatched events")
    coverage = metrics.get("trace.span_coverage", {}).get("value", 0.0)
    if coverage < MIN_SPAN_COVERAGE:
        problems.append(f"top-level spans cover {coverage:.3f} of the traced "
                        f"time (< {MIN_SPAN_COVERAGE})")
    return problems


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "CMakeLists.txt",
                   ROOT / "tools" / "metascritic_cli.cpp",
                   ROOT / "tools" / "trace_diff.py"):
        if not needed.exists():
            fail(f"{needed.relative_to(ROOT)} is missing: run from a full checkout")

    bdir = build_dir()
    build(bdir)
    deadline = time.monotonic() + RUN_DEADLINE_S

    commit, src_hash = source_version()
    out = bdir / "runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(bdir / "campaign_bench"), "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--commit", f"{commit} src-sha256:{src_hash}"]
    try:
        got = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail(f"the runner did not finish within {RUN_DEADLINE_S:.0f} s", 1)
    sys.stdout.write(got.stdout)
    sys.stderr.write(got.stderr)
    if got.returncode not in (0, 1) or not (out / "report.json").exists():
        fail(f"the runner exited with status {got.returncode} and no report", 1)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    metrics = report["metrics"]

    bad: dict[str, str] = {}
    problems: list[str] = []

    if args.workload == "canonical-paper":
        cli_out, why = cli_reference(bdir, deadline)
        if why:
            problems.append(why)
        else:
            bad.update(compare_exports(out / "exports", cli_out))

    if args.trace:
        problems += check_trace(out / "trace.json", metrics, deadline)

    expected_file = (bdir / "expected" /
                     f"{args.workload}-{src_hash}.json")
    determ = deterministic_part(report)
    if expected_file.exists():
        expected = json.loads(expected_file.read_text(encoding="utf-8"))
        for metro, why in compare_deterministic(expected, determ).items():
            bad.setdefault(metro, why)
    elif not report["failures"] and not bad:
        expected_file.parent.mkdir(parents=True, exist_ok=True)
        expected_file.write_text(json.dumps(determ, indent=1, sort_keys=True))

    declared = declared_metrics(bool(args.trace))
    for name, unit in declared.items():
        if metrics.get(name, {}).get("unit") != unit:
            problems.append(f"metric {name} ({unit}) missing from the report")
    metrics = {k: v for k, v in metrics.items() if k in declared}

    correct, failed, new_bad = verdict(report, bad, problems)
    attempted = report["attempted"]
    for metro, why in sorted(new_bad.items()):
        print(f"  FAILED untraced campaign 1, {metro}: {why}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"output check: {'passed' if correct else 'FAILED'}; fail_frac "
          f"{failed / attempted if attempted else 1.0:.4f} "
          f"({failed} of {attempted} metro runs)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
