#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

Usage, from the root of a checkout (takes about two minutes after the build):

  python3 campaign_bench/selftest.py

It checks that
  1. an untraced and a traced run each print a last line that parses, with
     exactly the four keys of the result line and every metric BENCHMARK.json
     names for that mode, in its unit;
  2. the traced run's Chrome trace loads in tools/trace_diff.py;
  3. canonical-paper's exports pass the metascritic_cli comparison, and a
     copy with one corrupted byte fails it, which makes the run's verdict
     fail;
  4. a deterministic number that moved between two runs fails the
     run-to-run comparison.
Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's own module, found through HERE)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, seconds: int = 1) -> tuple[int, dict]:
    got = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = got.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} trace {trace}: no output; "
                             f"stderr: {got.stderr[-2000:]}")
    return got.returncode, json.loads(lines[-1])


def check_result(workload: str, trace: int, spec: dict) -> None:
    code, res = bench(workload, trace)
    assert set(res) == RESULT_KEYS, f"result keys {sorted(res)}"
    assert code == 0 and res["correct"] and res["failed"] == 0, res
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, f"metrics differ from BENCHMARK.json: {got} vs {want}"
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} is not a number"
    print(f"ok: {workload} --trace {trace} reports every declared metric")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_result("posthoc-random", 0, spec)
    check_result("posthoc-random", 1, spec)

    runs = run.build_dir() / "runs"
    trace = runs / "posthoc-random-trace1" / "trace.json"
    problems = run.check_trace(trace, {"trace.span_coverage": {"value": 1.0}},
                               deadline=time.monotonic() + 120)
    assert not problems, problems
    print("ok: the trace loads in tools/trace_diff.py")

    code, res = bench("canonical-paper", 0)
    assert code == 0 and res["correct"], res
    out = runs / "canonical-paper-trace0"
    cli, why = run.cli_reference(run.build_dir(), time.monotonic() + 120)
    assert not why and not run.compare_exports(out / "exports", cli), why
    corrupt = out / "corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(out / "exports", corrupt)
    victim = sorted(corrupt.glob("*_links.csv"))[0]
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x01
    victim.write_bytes(bytes(data))
    bad = run.compare_exports(corrupt, cli)
    metro = victim.name[:-len("_links.csv")]
    assert list(bad) == [metro], f"corrupted {victim.name}, check found {bad}"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    correct, failed, _ = run.verdict(report, bad, [])
    assert not correct and failed == 1, (correct, failed)
    print(f"ok: a corrupted {victim.name} fails the metascritic_cli comparison "
          f"and the run")

    determ = run.deterministic_part(report)
    assert not run.compare_deterministic(determ, determ)
    moved = json.loads(json.dumps(determ))
    moved["metros"][0]["auprc"] += 1e-12
    assert list(run.compare_deterministic(determ, moved)) == [
        determ["metros"][0]["metro"]]
    moved = json.loads(json.dumps(determ))
    moved["traceroutes"] += 1
    assert len(run.compare_deterministic(determ, moved)) == len(determ["metros"])
    print("ok: a moved deterministic metric fails the run-to-run comparison")
    return 0


if __name__ == "__main__":
    sys.exit(main())
