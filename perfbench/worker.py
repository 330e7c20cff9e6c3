"""One pass of a workload plan, in a fresh process.

    python3 perfbench/worker.py PLAN.json RESULT.json [--trace]

Each job is one `paforge.cli.main(argv)` call with stdout captured,
followed by the checks of its output; with `--trace` the call runs inside
`traced.tracing`.  `wall_s` and `cpu_s`
add up job and check intervals only: the benchmark's own input generation
between jobs is not counted.  `paforge` is imported from the `PYTHONPATH`
the caller sets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import numpy as np

from paforge import cli

from inputs import MAKERS, first_violation
from spans import Recorder
from traced import parallel_speedup, tracing


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def execute(argv: list[str], recorder: Optional[Recorder] = None) -> tuple[object, str]:
    """Exit code and captured stdout of one command, traced into `recorder`
    when one is given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if recorder is not None:
            stack.enter_context(tracing(recorder))
            stack.enter_context(recorder.span("cli"))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check(step: dict, code: object, stdout: str, work: Path, made: dict) -> tuple[list, dict]:
    """Differences from the job's expectation, and digests of its files."""
    expect = step["expect"]
    errors = []
    if code != expect["exit"]:
        errors.append(f"exit code {code!r}, expected {expect['exit']}")
    exact = dict(expect.get("json", {}))
    if "witness_of" in expect:
        name = expect["witness_of"]
        witness, distance = first_violation(work / name, made[name]["replaced_row"])
        exact.update(witness=list(witness), min_observed=distance)
    at_least = expect.get("json_at_least", {})
    if exact or at_least:
        try:
            payload = json.loads(stdout.splitlines()[0])
        except (IndexError, ValueError):
            payload = {}
            errors.append("no JSON object on stdout")
        for key, want in exact.items():
            if payload.get(key) != want:
                errors.append(f"{key} = {payload.get(key)!r}, expected {want!r}")
        for key, low in at_least.items():
            got = payload.get(key)
            if not isinstance(got, (int, float)) or got < low:
                errors.append(f"{key} = {got!r}, expected at least {low}")
    digests = {}
    for name in step["emits"]:
        path = work / name
        digests[name] = sha256(path) if path.exists() else None
    for name, want in expect.get("files", {}).items():
        if digests.get(name) != want:
            errors.append(f"sha256 of {name} is {digests.get(name)}, expected {want}")
    return errors, digests


def run_plan(plan: dict, recorder: Optional[Recorder] = None) -> dict:
    work = Path(plan["workdir"])
    made: dict = {}
    jobs = []
    wall = cpu = 0.0
    for step in plan["steps"]:
        if "make" in step:
            try:
                made[step["dst"]] = MAKERS[step["make"]](
                    work / step["src"], work / step["dst"], step["seed"]
                )
            except (OSError, ValueError):
                # The job reading this file then fails its checks.
                traceback.print_exc()
            continue
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            code, stdout = execute(step["argv"], recorder)
            errors, digests = check(step, code, stdout, work, made)
        except Exception:  # a crashed job is a failed job; keep running
            errors, digests = [traceback.format_exc()], {}
        wall1, cpu1 = time.perf_counter(), cpu_seconds()
        wall += wall1 - wall0
        cpu += cpu1 - cpu0
        for line in errors:
            print(f"FAILED {step['id']}: {line}", file=sys.stderr)
        jobs.append({"id": step["id"], "wall_s": wall1 - wall0, "errors": errors,
                     "digests": digests})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0,
            "jobs": jobs, "numpy": np.__version__}


def main(argv: list[str]) -> int:
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    if "--trace" in argv[2:]:
        recorder = Recorder()
        result = run_plan(plan, recorder)
        result["trace"] = recorder.summary()
        result["speedups"] = {
            spec["kind"]: parallel_speedup(spec, Path(plan["workdir"]))
            for spec in plan["speedups"]
        }
    else:
        result = run_plan(plan)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
