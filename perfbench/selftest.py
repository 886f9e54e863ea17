#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at tiny scale.

    python3 perfbench/selftest.py

Runs ``run.py --smoke`` for each workload with ``--trace 0`` and
``--trace 1`` and checks that the last line is the result object, that
every metric ``BENCHMARK.json`` declares is there with its unit, that
the workload's named metrics are printed with a unit, and that nothing
failed. Exits 1 on the first workload that does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Named metrics each workload must print (name -> unit).
NAMED = {
    "http_jobs": {"jobs_per_s": "1/s", "job_latency_p50_s": "s",
                  "job_latency_p99_s": "s", "failed_frac": "ratio"},
    "pipeline_batch": {"queries_per_s": "1/s", "failed_frac": "ratio"},
    "qaoa_solve": {"qaoa_solves_per_s": "1/s", "failed_frac": "ratio"},
    "qml_train": {"train_samples_per_s": "1/s", "failed_frac": "ratio"},
}


def check(workload: str, trace: int, declared: dict) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", "1", "--seconds", "1", "--trace",
               str(trace), "--smoke"]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=180)
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of "
                        f"{result['attempted']}: {done.stderr[-500:]}")
    if set(result["metrics"]) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(declared) ^ set(result['metrics']))}")
    for name, metric in result["metrics"].items():
        if name in declared and metric["unit"] != declared[name]:
            problems.append(f"{name} unit {metric['unit']} != "
                            f"{declared[name]}")
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    for name, unit in NAMED[workload].items():
        if printed.get(name) != unit:
            problems.append(f"{name} not printed with unit {unit}")
    fractions = [float(line.split()[1]) for line in lines[:-1]
                 if line.split()[:1] == ["failed_frac"]]
    if not fractions or any(fractions):
        problems.append(f"failed_frac is not 0: {fractions}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tables = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check(workload, trace, tables[trace])
            verdict = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {verdict}")
            for problem in problems:
                print(f"  {problem}")
            status = status or bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
