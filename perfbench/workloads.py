"""The benchmark's workloads: job lists built from a seed, with the output
each job must produce.

A job is one `paforge` command line.  Outputs that do not depend on the seed
(emitted files, counts, exact distances, group facts) are pinned in
`expected.json` by `pin.py`; the rest is checked by rule here.  Between them
the three workloads cover all nine published rows.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
THREADS = 2

# FULL verification gives 14 for both q=19 k=5 arrays, so a sampled minimum,
# an upper bound on the true one, can never read lower.
FRACTION_K5_DISTANCE = 14
# The exact minimal degree of M24 (Dixon & Mortimer, Permutation Groups);
# a sampled scan reports an upper bound on it.
M24_MINIMAL_DEGREE = 16

# JSON keys of each command's output that are pinned when the job is.
PIN_KEYS = {
    "sfp": ("count", "argmax"),
    "verify": ("mode", "min_observed", "pass"),
    "group": ("order", "minimal_degree", "scan"),
}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _job(job_id: str, argv: list, expect: dict, emits=(), pin=None) -> dict:
    """`pin` lists the output keys pinned from a reference run (None: the
    job's output depends on the seed and is checked by `expect` alone)."""
    return {"id": job_id, "argv": argv, "expect": expect, "emits": list(emits), "pin": pin}


def _sfp(work: Path, q: int, k: int, variant: str, threads: int) -> dict:
    name = f"sfp-q{q}-k{k}-{variant}.txt"
    argv = ["sfp", "--q", str(q), "--k", str(k), "--variant", variant,
            "--emit", str(work / name), "--threads", str(threads)]
    return _job(f"sfp q={q} k={k} variant={variant}", argv, {"exit": 0}, [name], PIN_KEYS["sfp"])


def _verify(work: Path, name: str, mode: str, threads: int, seed=None, expect=None) -> dict:
    argv = ["verify", "--in", str(work / name), "--mode", mode, "--threads", str(threads)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    pin = PIN_KEYS["verify"] if expect is None else None
    return _job(f"verify {mode} {name}", argv, expect or {"exit": 0}, pin=pin)


def _group(work: Path, name: str, extra=(), emit=False, pin=PIN_KEYS["group"],
           expect=None, job_id=None) -> dict:
    argv = ["group", "--name", name, *extra]
    emits = []
    if emit:
        emits = [f"group-{name}.txt"]
        argv += ["--emit", str(work / emits[0])]
    return _job(job_id or f"group {name}", argv, expect or {"exit": 0}, emits, pin)


def _make(kind: str, src: str, dst: str, seed: int) -> dict:
    return {"make": kind, "src": src, "dst": dst, "seed": seed}


def frac_search(seed: int, work: Path, threads: int = THREADS) -> dict:
    """The two largest fraction rows: search, enumeration, completion and
    file output dominate; verification is sampled and cheap."""
    rng = random.Random(f"frac_search:{seed}")
    rows = [(19, 5, "q"), (19, 5, "q+1")]
    steps = [_sfp(work, q, k, v, threads) for q, k, v in rows]
    sampled = {
        "exit": 0,
        "json": {"mode": "SAMPLED", "pass": True},
        "json_at_least": {"min_observed": FRACTION_K5_DISTANCE},
    }
    for step in list(steps):
        steps.append(_verify(work, step["emits"][0], "sample", threads,
                             seed=rng.randrange(2**31), expect=sampled))
    return {"workdir": str(work), "steps": steps,
            "speedups": [{"kind": "search", "q": 19, "k": 5, "variant": "q+1"}]}


def frac_verify(seed: int, work: Path, threads: int = THREADS) -> dict:
    """FULL verification of four published rows plus the only extension-field
    row (q=25, table-lookup kernels), then two seeded files: a relabeled
    array that must pass and a corrupted one that must fail with the exact
    first-violation witness, which exercises early exit and witness replay."""
    rng = random.Random(f"frac_verify:{seed}")
    rows = [(19, 3, "q"), (19, 4, "q"), (17, 3, "q+1"), (23, 3, "q+1"), (25, 3, "q+1")]
    steps = []
    for q, k, v in rows:
        sfp = _sfp(work, q, k, v, threads)
        steps += [sfp, _verify(work, sfp["emits"][0], "full", threads)]
    q17, q23 = "sfp-q17-k3-q+1.txt", "sfp-q23-k3-q+1.txt"
    steps.append(_make("relabel", q17, "relabeled-q17.txt", rng.randrange(2**31)))
    steps.append(_verify(work, "relabeled-q17.txt", "full", threads, expect={
        "exit": 0,
        "json": {"mode": "FULL", "pass": True},
        "same_as": {"min_observed": f"verify full {q17}"},
    }))
    steps.append(_make("corrupt", q23, "corrupted-q23.txt", rng.randrange(2**31)))
    steps.append(_verify(work, "corrupted-q23.txt", "full", threads, expect={
        "exit": 1,
        "json": {"mode": "FULL", "pass": False},
        "witness_of": "corrupted-q23.txt",
    }))
    return {"workdir": str(work), "steps": steps,
            "speedups": [{"kind": "verify", "file": q23}]}


def groups(seed: int, work: Path, threads: int = THREADS) -> dict:
    """M22 closure and emission dominate.  M23 (4-transitive) and sym_pairs(10)
    (transitive, not 2-transitive) are exact minimal-degree scans; M24 is
    sampled from the seed."""
    rng = random.Random(f"groups:{seed}")
    m24 = {"exit": 0, "json": {"scan": "sampled"},
           "json_at_least": {"minimal_degree": M24_MINIMAL_DEGREE}}
    steps = [
        _group(work, "mathieu22", emit=True),
        _group(work, "mathieu23"),
        _group(work, "mathieu24", ["--seed", str(rng.randrange(2**31))],
               pin=("order",), expect=m24),
        _group(work, "sym_pairs", ["--m", "10"], job_id="group sym_pairs m=10"),
    ]
    return {"workdir": str(work), "steps": steps, "speedups": []}


WORKLOADS = {"frac_search": frac_search, "frac_verify": frac_verify, "groups": groups}


def resolve(plan: dict, expected: dict) -> dict:
    """Merge the pinned expectations into each job and turn `same_as`
    references into values; a pinned job with no pin is an error."""
    for step in plan["steps"]:
        if "argv" not in step:
            continue
        expect = step["expect"]
        if step["pin"] is not None:
            pinned = expected[step["id"]]
            expect["exit"] = pinned["exit"]
            expect.setdefault("json", {}).update(pinned["json"])
            expect["files"] = pinned["files"]
        for key, job_id in expect.pop("same_as", {}).items():
            expect.setdefault("json", {})[key] = expected[job_id]["json"][key]
    return plan
