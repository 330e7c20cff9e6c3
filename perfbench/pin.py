"""Pin the seed-independent outputs of every workload in expected.json.

    PYTHONPATH=src python3 perfbench/pin.py

Runs each pinned job at 1 and at 2 workers and refuses to pin unless both
give the same exit code, JSON fields and emitted-file digests.  Run it only
when an output is meant to change; the benchmark fails any job whose output
differs from these pins.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from worker import execute, sha256
from workloads import EXPECTED_PATH, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def pin_plan(plan: dict) -> dict:
    """Exit code, pinned JSON fields and file digests of each pinned job."""
    work = Path(plan["workdir"])
    pins = {}
    for step in plan["steps"]:
        if step.get("pin") is None:
            continue
        code, stdout = execute(step["argv"])
        payload = json.loads(stdout.splitlines()[0])
        pins[step["id"]] = {
            "exit": code,
            "json": {key: payload[key] for key in step["pin"]},
            "files": {name: sha256(work / name) for name in step["emits"]},
        }
    return pins


def pin_at_both_worker_counts(name: str, build, base: Path) -> dict:
    runs = []
    for threads in (1, 2):
        work = base / f"{name}-{threads}"
        work.mkdir(parents=True)
        try:
            runs.append(pin_plan(build(0, work, threads)))
        finally:
            shutil.rmtree(work)
    if runs[0] != runs[1]:
        raise ValueError(f"{name}: outputs differ between 1 and 2 workers")
    return runs[0]


def main() -> int:
    base = ROOT / ".perfbench" / "pin"
    expected = {}
    for name, build in WORKLOADS.items():
        expected.update(pin_at_both_worker_counts(name, build, base))
        print(f"pinned {name}", file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
