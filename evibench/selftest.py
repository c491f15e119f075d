#!/usr/bin/env python3
"""Fast self-test of the benchmark at a tiny input size (about half a minute).

Run from the root of a checkout:

    python3 evibench/selftest.py

It runs every workload once untraced and once traced at ``workloads.TINY``
and checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics the code prints,
  with the same units, and every run prints all of them;
* every traced function of every layer, and every CLI command, is reached
  by at least one workload;
* no command exits non-zero, traced outputs are byte-identical to the
  untraced repeat of the same run, and every re-generated cohort matches;
* without ``./src`` the benchmark exits non-zero and prints no result.

The acceptance thresholds are not checked here: they are calibrated for the
full size, and one decoder epoch does not meet them.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins BLAS before numpy loads
from workloads import CLI_COMMANDS, LAYERS, TINY, WORKLOADS, per_layer_metrics

HERE = Path(__file__).resolve().parent


def check_benchmark_json(root: Path, problems: list[str]) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != {run.END_TO_END_UNITS}")
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if layer != per_layer_metrics():
        problems.append("BENCHMARK.json per_layer differs from workloads.per_layer_metrics()")


def check_result(record: dict, units: dict[str, str], problems: list[str]) -> None:
    label = f"{record['workload']} trace={int(record['trace'])}"
    result = record["result"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        problems.append(f"{label}: nothing attempted")
    for name, unit in units.items():
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != unit or not math.isfinite(metric["value"]):
            problems.append(f"{label}: metric {name} missing, not finite or not in {unit}")
    for failure in record["failures"]:
        if not failure.startswith("gate:"):  # thresholds hold only at the full size
            problems.append(f"{label}: {failure}")


def check_refuses_without_src(root: Path, problems: list[str]) -> None:
    bare = root / run.WORK_DIR / "selftest-no-src"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rft", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without ./src the benchmark did not refuse to run")


def main() -> int:
    root = Path.cwd()
    problems: list[str] = []
    check_benchmark_json(root, problems)
    reached: set[str] = set()
    for workload in WORKLOADS:
        for trace in (False, True):
            record = run.run(root, workload, seed=0, seconds=0, trace=trace, size=TINY)
            units = dict(per_layer_metrics()) if trace else run.END_TO_END_UNITS
            check_result(record, units, problems)
            if trace:
                reached |= {n for n, m in record["result"]["metrics"].items() if m["value"] > 0}
            print(f"ran {workload} trace={int(trace)}: attempted "
                  f"{record['result']['attempted']}, failed {record['result']['failed']}")
    traced = [f"{m}.{name}.calls" for m, names in LAYERS.items() for name in names]
    traced += [f"cli.{command}.self_s" for command in CLI_COMMANDS]
    for name in traced:
        if name not in reached:
            problems.append(f"{name} is zero on every workload")
    check_refuses_without_src(root, problems)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
