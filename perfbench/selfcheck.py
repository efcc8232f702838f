"""Self-check of the benchmark: every workload once, at reduced size.

    python3 perfbench/selfcheck.py

Run from the repository root. For each workload in BENCHMARK.json it runs
run.py --reduced untraced and traced, and fails unless every end-to-end
and per-layer metric named in BENCHMARK.json appears with its unit, no
operation failed, the result is marked correct and no wrapped name is
absent. Takes about ten seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, wanted: dict) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--reduced"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    for name, unit in wanted.items():
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} missing or not in {unit}: {got}")
    extra = set(result["metrics"]) - set(wanted)
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    if "absent (not traced)" in proc.stdout:
        problems.append(f"{where}: some wrapped names are absent")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            found = check_run(workload, trace, wanted)
            print(f"{workload:12s} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
