"""Fold the run records under .perfbench/results/ into one trajectory point.

    python3 perfbench/trajectory.py LABEL

Writes perfbench/trajectory/LABEL.json: per workload, the run count, seeds,
median and quartiles of every end-to-end metric over the untraced runs, and
the per-layer metrics of the latest traced run.  Records from other commits
than the newest record's are ignored.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench" / "results"


def summarize(records: list[dict]) -> dict:
    """`records` in the order they were written, so the last traced one wins."""
    out: dict = {}
    for rec in records:
        entry = out.setdefault(rec["workload"], {"runs": 0, "seeds": [], "end_to_end": {},
                                                 "per_layer": {}})
        if rec["trace"]:
            entry["per_layer"] = rec["metrics"]
            continue
        entry["runs"] += 1
        entry["seeds"].append(rec["seed"])
        for name, metric in rec["metrics"].items():
            entry["end_to_end"].setdefault(name, {"unit": metric["unit"], "values": []})
            entry["end_to_end"][name]["values"].append(metric["value"])
    for entry in out.values():
        entry["seeds"].sort()
        for metric in entry["end_to_end"].values():
            values = metric.pop("values")
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metric.update(median=median, q1=q1, q3=q3, spread=(q3 - q1) / median)
    return out


def main(argv: list[str]) -> int:
    paths = sorted(RESULTS.glob("*.json"), key=lambda p: p.stat().st_mtime)
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    if not records:
        print(f"no records in {RESULTS}", file=sys.stderr)
        return 2
    commit = records[-1]["commit"]
    records = [r for r in records if r["commit"] == commit]
    point = {
        "commit": commit,
        "environment": {key: records[-1][key] for key in ("nproc", "workers", "python", "numpy")},
        "workloads": summarize(records),
    }
    target = HERE / "trajectory" / f"{argv[0]}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
