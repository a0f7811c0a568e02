#!/usr/bin/env python3
"""Smoke test: a one-second run of every workload, untraced and traced, must
pass its exactly-once check and report every metric BENCHMARK.json names,
with its unit.

    python3 perfbench/tests/test_smoke.py     (from the repository root)
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
            else:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append("exactly-once check failed")
                for metric in spec[group]:
                    got = result["metrics"].get(metric["name"])
                    if got is None or got["unit"] != metric["unit"]:
                        problems.append(f"{metric['name']}: {got}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
