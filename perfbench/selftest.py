"""Reduced-size self-test of the benchmark.

Runs every workload of BENCHMARK.json once untraced and once traced for one
second each, and checks that the last line of each run is the result object
with every named metric in its unit, that every op passed its check, and that
the benchmark refuses to run (non-zero exit, no result) in a directory that
holds only BENCHMARK.json and the benchmark's own files.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"
SEED = "7"


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, metrics):
    """Problems with one run's output, as a list of strings."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"correct is {result['correct']}: {proc.stderr[-500:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted is {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed is {result['failed']!r}")
    got = result["metrics"]
    if set(got) != set(metrics):
        problems.append(f"metrics missing {sorted(set(metrics) - set(got))}, "
                        f"extra {sorted(set(got) - set(metrics))}")
    for name, m in got.items():
        value = m.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name} = {value!r}")
        if name in metrics and m.get("unit") != metrics[name]:
            problems.append(f"{name} unit {m.get('unit')!r}, expected {metrics[name]!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {t: {m["name"]: m["unit"] for m in spec[key]}
             for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), kinds[trace])
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"without the program: {'refused' if refused else 'FAIL: ran'}")
    shutil.rmtree(bare)
    failures += not refused
    print("self-test", "passed" if not failures else f"failed ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
