"""paforge benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload frac_search --seed 1 --seconds 20 --trace 0

Run from anywhere inside a paforge source checkout; the program is imported
from the checkout's `src`.  Workloads (see workloads.py): `frac_search`,
`frac_verify`, `groups`.  Every job is one `paforge.cli.main(argv)` call
at 2 workers, and a pass over a workload's jobs runs in a fresh process.
Each workload is sized so that one pass takes about `--seconds` on a 2-core
machine.

`--trace 0` runs one pass and prints the end-to-end metrics: `setup_s`
(median over fresh processes, half before and half after the pass, of
importing `paforge.cli` and building its parser), and the pass's `wall_s`,
`cpu_s` and `peak_rss_mb`.  `--trace 1` runs one untraced and one traced
pass and prints the per-layer metrics of BENCHMARK.json; the traced pass
must emit the same files.

The last stdout line is the JSON result; a human-readable table and the
failure ratio come before it.  A full record of the run is written under
`.perfbench/results/`.  The exit code is 0 only when every job's exit code
and output matched its expectation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import THREADS, WORKLOADS, load_expected, resolve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_PROBES = 16
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import paforge.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)
# Every run ends well inside the 180 s a run is allowed.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PA_FORGE_THREADS"] = str(THREADS)
    return env


def setup_seconds() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def failed_pass(plan: dict, why: str) -> dict:
    jobs = [{"id": s["id"], "errors": [why], "digests": {}}
            for s in plan["steps"] if "argv" in s]
    return {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "jobs": jobs,
            "numpy": None, "trace": {"spans": {}, "counts": {}}, "speedups": {}}


def run_pass(workload: str, seed: int, work: Path, expected: dict, trace: bool,
             deadline: float) -> dict:
    """One pass over the workload's jobs in a fresh worker process."""
    work.mkdir(parents=True)
    plan = resolve(WORKLOADS[workload](seed, work), expected)
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return failed_pass(plan, "worker timed out")
    # stdout is kept for the result line alone.
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0 or not result_path.exists():
        return failed_pass(plan, f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(work)
    return result


def end_to_end(args, expected: dict, work: Path, deadline: float) -> tuple[dict, list]:
    # Probes on both sides of the pass, so a short slow spell of the host
    # moves fewer of them.
    setup = [setup_seconds() for _ in range(SETUP_PROBES // 2)]
    result = run_pass(args.workload, args.seed, work / "pass", expected, False, deadline)
    setup += [setup_seconds() for _ in range(SETUP_PROBES - len(setup))]
    result["setup_probes_s"] = setup
    metrics = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = result[key]
    return metrics, [result]


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    spans, counts = traced["trace"]["spans"], traced["trace"]["counts"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        """Time in the layer minus the spans nested in it."""
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    exact_scan_s = sum(total(f"groups.min_degree_{t}trans") for t in range(3))
    return {
        "field.tables_s": total("field.tables"),
        "sfp.best_count_s": own("sfp.best_count"),
        "sfp.enumerate_fast_s": own("sfp.enumerate_fast"),
        "sfp.cells": counts.get("sfp.cells", 0),
        "sfp.members": counts.get("sfp.members", 0),
        "sfp.members_per_s": ratio(counts.get("sfp.members", 0), own("sfp.enumerate_fast")),
        "sfp.ext_field_s": total("sfp.ext_field"),
        "pam.build_pa_s": own("pam.build_pa"),
        "pam.rows": counts.get("pam.rows", 0),
        "pa.write_pa_s": total("pa.write_pa"),
        "pa.bytes_written": counts.get("pa.bytes_written", 0),
        "pa.read_pa_s": total("pa.read_pa"),
        "pa.bytes_read": counts.get("pa.bytes_read", 0),
        "pa.min_distance_full_s": total("pa.min_distance_full"),
        "pa.pairs_checked": counts.get("pa.pairs_checked", 0),
        "pa.pairs_per_s": ratio(counts.get("pa.pairs_checked", 0), total("pa.min_distance_full")),
        "pa.min_distance_fail_s": total("pa.min_distance_fail"),
        "pa.fail_pairs_ratio": ratio(counts.get("pa.fail_pairs_checked", 0),
                                     counts.get("pa.fail_pairs_total", 0)),
        "pa.min_distance_sampled_s": total("pa.min_distance_sampled"),
        "groups.chain_s": total("groups.chain"),
        "groups.chain_levels": counts.get("groups.chain_levels", 0),
        "groups.min_degree_2trans_s": total("groups.min_degree_2trans"),
        "groups.min_degree_1trans_s": total("groups.min_degree_1trans"),
        "groups.min_degree_sampled_s": total("groups.min_degree_sampled"),
        "groups.elements_per_s": ratio(counts.get("groups.elements_scanned", 0), exact_scan_s),
        "groups.group_to_pa_s": total("groups.group_to_pa"),
        "parallel.verify_speedup": traced["speedups"].get("verify", 0.0),
        "parallel.search_speedup": traced["speedups"].get("search", 0.0),
        "cli.self_s": own("cli"),
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
    }


def per_layer(args, expected: dict, work: Path, deadline: float) -> tuple[dict, list]:
    plain = run_pass(args.workload, args.seed, work / "plain", expected, False, deadline)
    traced = run_pass(args.workload, args.seed, work / "traced", expected, True, deadline)
    for a, b in zip(plain["jobs"], traced["jobs"]):
        if a["digests"] != b["digests"]:
            b["errors"].append("traced output files differ from the untraced run's")
    return layer_metrics(traced, plain["wall_s"]), [plain, traced]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout itself is not a git
    repository; a repository in a directory above it is not consulted."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "paforge" / "cli.py").is_file():
        print(f"no paforge sources in {ROOT / 'src'}: run inside a paforge checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + RUN_LIMIT_S
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    measure = per_layer if args.trace else end_to_end
    try:
        values, passes = measure(args, load_expected(), work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    jobs = [job for p in passes for job in p["jobs"]]
    failed = [job for job in jobs if job["errors"]]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "nproc": os.cpu_count(),
        "workers": THREADS, "python": platform.python_version(),
        "numpy": passes[0]["numpy"], "passes": len(passes),
        "attempted": len(jobs), "failed": len(failed),
        "fail_ratio": len(failed) / len(jobs),
        "failures": {job["id"]: job["errors"] for job in failed},
        "job_wall_s": [{job["id"]: job.get("wall_s") for job in p["jobs"]} for p in passes],
        "setup_probes_s": passes[0].get("setup_probes_s"),
        "metrics": metrics,
    }
    if args.trace:
        record["trace"] = passes[1]["trace"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':30s} {record['fail_ratio']:.6g} ({len(failed)} of {len(jobs)} jobs"
          f" in {len(passes)} passes)")
    print(f"record: {record_path}")
    print(json.dumps({"correct": not failed, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
