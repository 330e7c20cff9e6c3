"""Tests of the benchmark itself, on tiny inputs (q = 7 and sym(5))."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
import worker
import workloads
from inputs import corrupt, first_violation, read_rows, relabel
from pin import pin_at_both_worker_counts
from spans import Recorder
from traced import parallel_speedup, transitivity

from paforge import cli, pam
from paforge.field import Field
from paforge.groups import StabilizerChain, make_named

Q7 = "sfp-q7-k2-q+1.txt"


def tiny(seed: int, work: Path, threads: int = 2) -> dict:
    """A miniature of all three workloads."""
    steps = [
        workloads._sfp(work, 7, 2, "q+1", threads),
        workloads._verify(work, Q7, "full", threads),
        workloads._make("relabel", Q7, "relabeled.txt", seed),
        workloads._verify(work, "relabeled.txt", "full", threads, expect={
            "exit": 0, "json": {"pass": True},
            "same_as": {"min_observed": f"verify full {Q7}"}}),
        workloads._make("corrupt", Q7, "corrupted.txt", seed),
        workloads._verify(work, "corrupted.txt", "full", threads, expect={
            "exit": 1, "json": {"pass": False}, "witness_of": "corrupted.txt"}),
        workloads._group(work, "sym", ["--m", "5"], emit=True, job_id="group sym m=5"),
    ]
    return {"workdir": str(work), "steps": steps,
            "speedups": [{"kind": "verify", "file": Q7},
                         {"kind": "search", "q": 7, "k": 2, "variant": "q+1"}]}


@pytest.fixture(scope="module")
def pins(tmp_path_factory):
    return pin_at_both_worker_counts("tiny", tiny, tmp_path_factory.mktemp("pin"))


def tiny_plan(tmp_path: Path, pins: dict, seed: int = 1) -> dict:
    work = tmp_path / f"work{seed}"
    work.mkdir()
    return workloads.resolve(tiny(seed, work), json.loads(json.dumps(pins)))


def errors_of(result: dict) -> dict:
    return {job["id"]: job["errors"] for job in result["jobs"] if job["errors"]}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tiny_workload_passes_its_checks(tmp_path, pins, seed):
    assert errors_of(worker.run_plan(tiny_plan(tmp_path, pins, seed))) == {}


def test_wrong_pinned_digest_fails_the_job_and_the_run(tmp_path, pins, monkeypatch, capsys):
    bad = json.loads(json.dumps(pins))
    bad["sfp q=7 k=2 variant=q+1"]["files"][Q7] = "0" * 64
    result = worker.run_plan(tiny_plan(tmp_path, bad))
    assert list(errors_of(result)) == ["sfp q=7 k=2 variant=q+1"]

    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(bench, "load_expected", lambda: bad)
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")
    code = bench.main(["--workload", "tiny", "--seed", "1", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] >= 1


def test_wrong_witness_fails_the_job(tmp_path, pins, monkeypatch):
    def shifted(path, replaced):
        (i, j), d = first_violation(path, replaced)
        return (i, j + 1), d

    monkeypatch.setattr(worker, "first_violation", shifted)
    assert list(errors_of(worker.run_plan(tiny_plan(tmp_path, pins)))) == [
        "verify full corrupted.txt"
    ]


def _emit_q7(tmp_path: Path) -> Path:
    path = tmp_path / Q7
    code, _ = worker.execute(["sfp", "--q", "7", "--k", "2", "--variant", "q+1",
                              "--emit", str(path)])
    assert code == 0
    return path


def _min_distance(rows: np.ndarray) -> int:
    dist = (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    return int(dist[np.triu_indices(len(rows), 1)].min())


@pytest.mark.parametrize("make", [relabel, corrupt])
def test_generator_is_deterministic_per_seed(tmp_path, make):
    src = _emit_q7(tmp_path)
    texts = []
    for seed in (5, 5, 6):
        dst = tmp_path / f"out-{len(texts)}.txt"
        make(src, dst, seed)
        texts.append(dst.read_bytes())
    assert texts[0] == texts[1] != texts[2]


def test_relabeled_array_keeps_its_minimum_distance(tmp_path):
    src = _emit_q7(tmp_path)
    relabel(src, tmp_path / "relabeled.txt", 9)
    _, before = read_rows(src)
    _, after = read_rows(tmp_path / "relabeled.txt")
    assert set(map(tuple, before.tolist())) != set(map(tuple, after.tolist()))
    assert _min_distance(before) == _min_distance(after)


def test_traced_pass_matches_untraced_and_covers_every_layer(tmp_path, pins):
    plain = worker.run_plan(tiny_plan(tmp_path, pins))
    recorder = Recorder()
    plan = tiny_plan(tmp_path, pins, seed=2)
    traced = worker.run_plan(plan, recorder)
    assert errors_of(traced) == {}
    assert [j["digests"] for j in traced["jobs"]] == [j["digests"] for j in plain["jobs"]]
    traced["trace"] = recorder.summary()
    work = Path(plan["workdir"])
    traced["speedups"] = {s["kind"]: parallel_speedup(s, work) for s in plan["speedups"]}
    metrics = bench.layer_metrics(traced, plain["wall_s"])
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for name in ("sfp.best_count_s", "sfp.enumerate_fast_s", "pam.build_pa_s",
                 "pa.min_distance_full_s", "pa.min_distance_fail_s", "groups.chain_s",
                 "groups.min_degree_2trans_s", "groups.group_to_pa_s", "cli.self_s",
                 "parallel.verify_speedup", "parallel.search_speedup"):
        assert metrics[name] > 0, name
    assert 0 < metrics["pa.fail_pairs_ratio"] < 1
    # The real commands ran, and every wrapper was taken out again.
    assert recorder.summary()["spans"]["cli"]["calls"] == len(traced["jobs"])
    assert cli.build_pa.__module__ == "paforge.pam"
    assert pam.enumerate_fast.__module__ == "paforge.sfp"
    assert Field.tables.__module__ == "paforge.field"


def test_transitivity_from_chain_orbits():
    def t(name, **params):
        group = make_named(name, **params)
        return transitivity(StabilizerChain(group.degree, group.generators))

    assert t("sym", m=5) == 4
    assert t("sym_pairs", m=5) == 1
    assert t("mathieu22") == 3


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groups", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
