"""Freeze the reference outputs the benchmark checks against.

    python3 benchmark/freeze.py

Runs every item of every workload once at seed 0 and writes its inputs and
output values to ``benchmark/reference/<workload>.json``.  Run it only when a
deliberate change of the outputs is accepted, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = ROOT / ".bench_work" / "freeze"
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            frozen = {}
            for item in workloads.build(workload, 0, workdir):
                values, problems = item.check(item.run())
                if problems:
                    print(f"{item.key}: {problems}", file=sys.stderr)
                    return 1
                frozen[item.key] = {"inputs": item.inputs, "values": values}
            payload = {
                "seed": 0,
                "rtol": workloads.RTOL,
                "atol": workloads.ATOL,
                "items": frozen,
            }
            path = workloads.REFERENCE_DIR / f"{workload}.json"
            path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)} ({len(frozen)} items)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
