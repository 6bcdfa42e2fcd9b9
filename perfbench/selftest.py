"""Smoke self-test of the benchmark.

Run from the root of a robustpulse checkout:

    python3 perfbench/selftest.py

Runs every workload at a seconds-long size, untraced and traced, and
checks that each result line has exactly the contract's keys, that every
output check passed, and that every metric named in BENCHMARK.json is
reported with its unit and has a direction.  It also checks that the
benchmark refuses to run outside a checkout.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads


def _result(args: list, cwd: Path) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []

    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.NAMES):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.NAMES)}")
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    emitted = {0: run.END_TO_END, 1: tracer.PER_LAYER}
    for trace, metrics in declared.items():
        for m in metrics:
            if m["better"] not in ("lower", "higher"):
                problems.append(f"{m['name']}: direction {m['better']!r}")
            spec_m = emitted[trace].get(m["name"])
            if spec_m is None or spec_m[:2] != (m["unit"], m["better"]):
                problems.append(f"{m['name']}: BENCHMARK.json has {m['unit']}/{m['better']}, "
                                f"the benchmark {spec_m and spec_m[:2]}")
        if {m["name"] for m in metrics} != set(emitted[trace]):
            problems.append(f"trace {trace}: BENCHMARK.json and the benchmark list different metrics")

    for name in workloads.NAMES:
        for trace in (0, 1):
            code, lines, err = _result(["--workload", name, "--seed", "1", "--seconds", "1",
                                        "--trace", str(trace), "--smoke"], root)
            where = f"{name} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}: {err[-500:]}")
                continue
            res = json.loads(lines[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
                continue
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                report = json.loads(lines[-2])["report"]
                problems.append(f"{where}: checks failed: {report['problems']}")
            for m in declared[trace]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} reported as {got}")
                elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
                    problems.append(f"{where}: {m['name']} = {got['value']}")
            extra = set(res["metrics"]) - {m["name"] for m in declared[trace]}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            print(f"ok  {where}", flush=True)

    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = _result(["--workload", workloads.NAMES[0], "--seed", "1",
                                  "--seconds", "1", "--trace", "0"], bare)
        if code == 0 or lines:
            problems.append(f"outside a checkout: exit {code}, output {lines[-1:]}")
        else:
            print("ok  refuses to run outside a checkout", flush=True)
    finally:
        shutil.rmtree(bare)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
