"""Command-line behaviors: manifests, emission, verification exit codes,
reproduction table, determinism across thread counts."""

import ast
import csv
import hashlib
import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from paforge import cli, groups, pam, parallel, sfp
from paforge import pa as pa_module
from paforge.cli import main
from paforge.groups import PermGroup, StabilizerChain, group_to_pa, make_named
from paforge.pa import MAX_DEGREE, read_pa, write_pa
from reference import enumerate_oracle, format_pa, is_sharply_k_transitive


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout and the exit code."""
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_sfp_best_count_manifest():
    code, out, _ = run_cli("sfp", "--q", "7", "--k", "1")
    assert code == 0
    manifest = json.loads(out)
    assert manifest["count"] == 42
    assert manifest["argmax"] == {"s": 1, "t": 0, "a": 0, "b": 0}


def test_sfp_explicit_cell_and_emit(tmp_path):
    path = tmp_path / "pa.txt"
    code, out, _ = run_cli("sfp", "--q", "5", "--s", "1", "--t", "0", "--emit", str(path))
    assert code == 0
    assert json.loads(out)["count"] == 20
    header = path.read_text().splitlines()[0]
    assert header.startswith("PA n=5 M=20 d=4 ")
    pa = read_pa(path)
    assert pa.M == 20


@pytest.mark.parametrize("a, b", [(1, 1), (0, 1), (1, 0)])
def test_sfp_explicit_offsets_outside_the_grid_choices(a, b):
    # SfpQuery admits q+1 offsets that the --k grid never tries; the count
    # of such a cell must rank on its own and equal the oracle's.
    argv = ["sfp", "--q", "7", "--variant", "q+1", "--s", "1", "--t", "1"]
    code, out, err = run_cli(*argv, "--a", str(a), "--b", str(b))
    assert code == 0, err
    query = sfp.SfpQuery(sfp.field_for_order(7), sfp.Variant.Q_PLUS_1, 1, 1, a, b)
    manifest = json.loads(out)
    assert manifest["count"] == enumerate_oracle(query).count
    assert (manifest["a"], manifest["b"], manifest["argmax"]) == (a, b, None)


def test_sfp_emit_scans_each_block_once(tmp_path, monkeypatch):
    # The emit reuses the block tables that the count scanned, and writes
    # the array that a scan of its own would give.  Outside a command each
    # scan is its own, so no table outlives a command.
    scanned, scan_block = [], sfp._scan_block

    def counted(field, s2, t2, *args):
        scanned.append((s2, t2))
        return scan_block(field, s2, t2, *args)

    monkeypatch.setattr(sfp, "_scan_block", counted)
    argv = ("sfp", "--q", "7", "--k", "2", "--variant", "q+1", "--emit")
    for run in range(2):
        scanned.clear()
        code, out, _ = run_cli(*argv, str(tmp_path / f"{run}.txt"))
        assert code == 0
        assert scanned and sorted(scanned) == sorted(set(scanned))
    query = sfp.best_count(7, 2, sfp.Variant.Q_PLUS_1).query
    scanned.clear()
    pa = pam.build_pa(query)
    once = list(scanned)
    sfp.enumerate_fast(query)
    assert once and scanned == once * 2
    assert (tmp_path / "1.txt").read_text() == format_pa(pa)
    assert pa.M == json.loads(out)["count"]


def test_sfp_usage_errors():
    assert run_cli("sfp", "--q", "7")[0] == 2  # neither --k nor --s/--t
    assert run_cli("sfp", "--q", "7", "--k", "1", "--s", "1", "--t", "0")[0] == 2
    assert run_cli("sfp", "--q", "7", "--s", "1")[0] == 2
    assert run_cli("sfp", "--q", "12", "--k", "1")[0] == 2  # not a prime power
    assert run_cli("sfp", "--q", "7", "--k", "9")[0] == 2  # k too large
    assert run_cli("sfp", "--q", "7", "--k", "-1")[0] == 2  # k negative
    # The --k grid picks its own offsets, so --a/--b with --k are refused.
    for offset in (("--a", "1", "--b", "-1"), ("--a", "1"), ("--b", "1")):
        code, out, err = run_cli("sfp", "--q", "7", "--k", "2", "--variant", "q+1", *offset)
        assert (code, out) == (2, "") and "--a/--b need --s/--t" in err


def test_sfp_supported_field_orders():
    # 32749 is the largest prime the int16 kernels hold; 32768 = 2**15 is
    # the first order past them.
    code, out, _ = run_cli("sfp", "--q", "32749", "--s", "0", "--t", "0")
    assert code == 0 and json.loads(out)["count"] == 0
    for q in ("32768", "32771"):
        code, out, err = run_cli("sfp", "--q", q, "--s", "1", "--t", "0")
        assert code == 2 and out == ""
        assert "exceeds the supported maximum 32767" in err
    # Extension fields stop at 1024, checked by the query before any scan.
    for argv in (("--s", "1", "--t", "0"), ("--k", "1")):
        code, out, err = run_cli("sfp", "--q", "2048", *argv)
        assert code == 2 and out == ""
        assert err == (
            "error: extension field order 2048 exceeds the supported maximum 1024\n"
        )


def test_sfp_range_checked_before_the_field_is_built(monkeypatch):
    import paforge.cli
    import paforge.sfp

    def no_field(q):
        raise AssertionError(f"field of order {q} was built")

    monkeypatch.setattr(paforge.cli, "field_for_order", no_field)
    monkeypatch.setattr(paforge.sfp, "field_for_order", no_field)
    for argv, err in [
        (("--q", "59049", "--k", "1"),
         "error: field order 59049 exceeds the supported maximum 32767\n"),
        (("--q", "2048", "--s", "1", "--t", "1"),
         "error: extension field order 2048 exceeds the supported maximum 1024\n"),
        (("--q", "2048", "--k", "1", "--variant", "q+1"),
         "error: extension field order 2048 exceeds the supported maximum 1024\n"),
    ]:
        assert run_cli("sfp", *argv) == (2, "", err)


def test_sfp_range_checked_before_q_is_factored(monkeypatch):
    # A prime near 10^14 past MAX_Q is refused before any trial division.
    import paforge.field
    import paforge.sfp

    def no_factoring(q):
        raise AssertionError(f"{q} was factored")

    for module in (paforge.field, paforge.sfp, cli):
        monkeypatch.setattr(module, "prime_power", no_factoring, raising=False)
    for argv in (("--k", "1"), ("--s", "1", "--t", "0")):
        code, out, err = run_cli("sfp", "--q", "100000000000031", *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: field order 100000000000031 exceeds the supported maximum 32767\n"
        )


def test_verify_pass_and_fail(tmp_path):
    good = tmp_path / "good.txt"
    run_cli("sfp", "--q", "7", "--s", "1", "--t", "0", "--emit", str(good))
    code, out, _ = run_cli("verify", "--in", str(good), "--mode", "full")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["min_observed"] == 6

    # Corrupt one row so a pair gets too close.
    lines = good.read_text().splitlines()
    row = lines[1].split()
    row[0], row[1] = row[1], row[0]
    corrupted = lines[:1] + [" ".join(row)] + lines[1:-1]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(corrupted) + "\n")
    code, out, _ = run_cli("verify", "--in", str(bad), "--mode", "full")
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    assert len(report["witness"]) == 2

    malformed = tmp_path / "ugly.txt"
    malformed.write_text("PA n=3 M=1 d=1 inf=none provenance=x\n0 1\n")
    assert run_cli("verify", "--in", str(malformed))[0] == 2
    assert run_cli("verify", "--in", str(tmp_path / "missing.txt"))[0] == 2


HEAD3 = "PA n=3 M={m} d=2 inf=none provenance=x\n"


@pytest.mark.parametrize(
    "text",
    [
        HEAD3.format(m=2) + "0 1 2\n",  # fewer rows than the header's M
        HEAD3.format(m=1) + "0 1 2\n1 2 0\n",  # more rows than M
        HEAD3.format(m=10**15) + "0 1 2\n1 2 0\n",  # an M the body cannot hold
        HEAD3.format(m=2) + "0 1 2 3\n1 2 0 3\n",  # every row longer than n
        HEAD3.format(m=2) + "0 1 2\n1 2\n",  # ragged rows
        HEAD3.format(m=2) + "0 1 2\n1 x 0\n",  # non-integer token
        HEAD3.format(m=2) + "0 1 2\n1 2.0 0\n",
        HEAD3.format(m=1) + "0 1 99999999999999999999\n",  # past int64
        HEAD3.format(m=0),  # no rows at all
        HEAD3.format(m=2) + "\n   \n",  # blank lines only
        "PA n=3 M=1 d=2 inf=none\n0 1 2\n",  # header without provenance
        "PA n=3 M=2 d=2.5 inf=none provenance=x\n0 1 2\n1 2 0\n",  # non-integer d
    ],
)
@pytest.mark.filterwarnings("error")
def test_verify_rejects_malformed_text(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli("verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("malformed input:")


@pytest.mark.parametrize(
    "text",
    [
        "PA n=3 M=2 d=3 inf=none provenance=x\n256 1 2\n1 2 0\n",  # wraps to 0
        "PA n=3 M=2 d=3 inf=none provenance=x\n0 1 2\n-1 2 0\n",
        "PA n=257 M=2 d=2 inf=none provenance=x\n"
        + " ".join(map(str, range(257)))
        + "\n"
        + " ".join(map(str, range(1, 258)))
        + "\n",
    ],
)
def test_verify_rejects_points_out_of_range(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli("verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("malformed input: points must be integers in [0, ")


CYCLIC3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize(
    "payload",
    [
        {"n": 3, "M": 2, "d": 3, "rows": [[256, 1, 2], [1, 2, 0]]},
        {"n": 3, "M": 2, "d": 3, "rows": [[0.0, 1.0, 2.0], [1.0, 2.0, 0.0]]},
        {"n": 3, "M": 2, "d": 3, "rows": [[0, 1, 2], [1, 2]]},
        {"n": 3, "M": 3, "d": 3, "rows": [[0, 1, 2], [1, 2, 0]]},
        {"n": 3, "M": 2, "d": "x", "rows": [[0, 1, 2], [1, 2, 0]]},
        {"n": 3, "M": 2, "d": 3},
        {"n": 3, "M": 2, "d": 3, "inf": 0, "rows": [[0, 1, 2], [1, 2, 0]]},
        {"n": 3, "M": 2, "d": 2.5, "rows": [[0, 1, 2], [1, 2, 0]]},
        {"n": 3, "M": 2, "d": True, "rows": [[0, 1, 2], [1, 2, 0]]},
        {"n": 3, "M": 2.0, "d": 2, "rows": [[0, 1, 2], [1, 2, 0]]},
        {"n": 3.0, "M": 2, "d": 2, "rows": [[0, 1, 2], [1, 2, 0]]},
        # A provenance that is not a string, and an infinity point that is
        # not an integer or null (a bool is not an integer here), each with
        # rows that would pass the distance check.
        {"n": 3, "M": 3, "d": 2, "provenance": 5, "rows": CYCLIC3},
        {"n": 3, "M": 3, "d": 2, "provenance": None, "rows": CYCLIC3},
        {"n": 3, "M": 3, "d": 2, "provenance": ["sfp:q=3"], "rows": CYCLIC3},
        {"n": 3, "M": 3, "d": 2, "inf": "2", "rows": CYCLIC3},
        {"n": 3, "M": 3, "d": 2, "inf": 2.0, "rows": CYCLIC3},
        {"n": 2, "M": 2, "d": 2, "inf": True, "rows": [[0, 1], [1, 0]]},
    ],
)
def test_verify_rejects_malformed_json(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli("verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("malformed input:")


ROW_FAULT = "each row must be a list of 3 integers"


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 3, "M": 2, "d": 3}, "missing key 'rows'"),
        ({"M": 2, "d": 3, "rows": [[0, 1, 2], [1, 2, 0]]}, "missing key 'n'"),
        ({"n": 3, "d": 3, "rows": [[0, 1, 2], [1, 2, 0]]}, "missing key 'M'"),
        ({"n": 3, "M": 2, "rows": [[0, 1, 2], [1, 2, 0]]}, "missing key 'd'"),
        ({"n": 3, "M": 2, "d": 3, "rows": [[0, 1, 2], [1, 2]]}, ROW_FAULT),
        ({"n": 3, "M": 2, "d": 3, "rows": [[0, 1, 2, 0], [1, 2, 0, 1]]}, ROW_FAULT),
        ({"n": 3, "M": 2, "d": 3, "rows": [[0, 1, [2]], [1, 2, 0]]}, ROW_FAULT),
        ({"n": 3, "M": 2, "d": 3, "rows": [[[0], [1], [2]], [[1], [2], [0]]]}, ROW_FAULT),
        ({"n": 3, "M": 2, "d": 3, "rows": [0, 1]}, ROW_FAULT),
        # numpy reads true as 1 among ints, so a bool is refused by type.
        ({"n": 2, "M": 2, "d": 2, "rows": [[0, True], [True, 0]]}, ROW_FAULT.replace("3", "2")),
        ({"n": 2, "M": 2, "d": 2, "rows": [[False, True], [True, False]]}, ROW_FAULT.replace("3", "2")),
    ],
)
def test_verify_names_the_fault_in_a_json_mirror(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli("verify", "--in", str(path))
    assert (code, out, err) == (2, "", f"malformed input: {message}\n")


def test_bool_literals_outside_the_rows_refuse_nothing(tmp_path):
    # A bool literal anywhere in the document makes the reader check every
    # point's type; integer rows still pass.
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({"n": 3, "M": 3, "d": 2, "provenance": "true", "rows": CYCLIC3, "x": False}))
    code, out, _ = run_cli("verify", "--in", str(path))
    assert code == 0 and json.loads(out)["min_observed"] == 3


@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_emitted_empty_array_round_trips(tmp_path, suffix):
    path = tmp_path / f"empty{suffix}"
    code, out, _ = run_cli("sfp", "--q", "7", "--s", "0", "--t", "0", "--emit", str(path))
    assert code == 0 and json.loads(out)["count"] == 0
    pa = read_pa(path)
    assert (pa.n, pa.M) == (7, 0)
    code, out, err = run_cli("verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err == "malformed input: 0 rows, a distance needs at least two\n"


def test_verify_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text(HEAD3.format(m=3) + "\n0 1 2\n  \n1 2 0\n\n2 0 1\n\n")
    code, out, _ = run_cli("verify", "--in", str(path))
    assert code == 0
    assert json.loads(out)["min_observed"] == 3
    assert read_pa(path).rows.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_verify_reads_a_pipe(tmp_path):
    # A pipe has no size until its end, so it is read whole before the
    # header's M is checked against it; the JSON mirror and text with \r
    # and \r\n line ends read from a pipe as they read from the file.
    text = HEAD3.format(m=3) + "\n0 1 2\n1 2 0\n2 0 1\n"
    mirror = json.dumps({
        "n": 3, "M": 3, "d": 2, "inf": None, "provenance": "x",
        "rows": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    })
    mixed = HEAD3.format(m=3).replace("\n", "\r\n") + "0 1 2\r1 2 0\r\n\r2 0 1\r"
    for name, body in (("a.txt", text), ("a.json", mirror), ("b.txt", mixed)):
        path = tmp_path / name
        path.write_bytes(body.encode())
        code, from_file, err = run_cli("verify", "--in", str(path))
        assert code == 0, err
        proc = subprocess.run(
            [sys.executable, "-m", "paforge.cli", "verify", "--in", "/dev/stdin"],
            input=body.encode(), capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == from_file
        assert json.loads(from_file)["min_observed"] == 3


@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_verify_refuses_a_file_over_the_cell_cap(tmp_path, monkeypatch, suffix):
    # The cap that bounds emits bounds reads: an emit of 24 rows of 4
    # points at a cap of 96 cells reads back, and is refused below it.
    path = tmp_path / f"s4{suffix}"
    monkeypatch.setattr(groups, "EMIT_CELL_CAP", 96)
    monkeypatch.setattr(pa_module, "EMIT_CELL_CAP", 96)
    code, _, err = run_cli("group", "--name", "sym", "--m", "4", "--emit", str(path))
    assert code == 0, err
    assert run_cli("verify", "--in", str(path))[0] == 0
    monkeypatch.setattr(pa_module, "EMIT_CELL_CAP", 95)
    code, out, err = run_cli("verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == "malformed input: 24 rows of 4 points exceed the cell cap 95\n"


def test_verify_sampled_mode(tmp_path):
    path = tmp_path / "pa.txt"
    run_cli("sfp", "--q", "7", "--s", "1", "--t", "1", "--emit", str(path))
    code, out, _ = run_cli(
        "verify", "--in", str(path), "--mode", "sample", "--samples", "500",
        "--seed", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "SAMPLED" and report["pairs_checked"] == 500


@pytest.mark.parametrize(
    "argv,missing",
    [
        (("--name", "agl1"), "agl1 needs the parameter q"),
        (("--name", "pgl2"), "pgl2 needs the parameter q"),
        (("--name", "agl", "--d", "2"), "agl needs the parameter q"),
        (("--name", "agl", "--q", "4"), "agl needs the parameter d"),
        (("--name", "sym"), "sym needs the parameter m"),
        (("--name", "sym_pairs"), "sym_pairs needs the parameter m"),
    ],
    ids=["agl1", "pgl2", "agl-q", "agl-d", "sym", "sym_pairs"],
)
def test_group_names_a_missing_parameter(argv, missing):
    assert run_cli("group", *argv) == (2, "", f"cannot build group: {missing}\n")


@pytest.mark.parametrize("m", ["1", "0", "-2"])
def test_group_sym_refuses_fewer_than_two_points(m):
    code, out, err = run_cli("group", "--name", "sym", "--m", m)
    assert (code, out, err) == (2, "", "cannot build group: symmetric group needs m >= 2\n")


def test_group_command(tmp_path):
    code, out, _ = run_cli("group", "--name", "pgl2", "--q", "5")
    assert code == 0
    info = json.loads(out)
    assert info["pa"] == [6, 120, 4]
    assert info["sharply_k_transitive"] == 3

    path = tmp_path / "m22like.txt"
    code, out, _ = run_cli("group", "--name", "agl1", "--q", "8", "--emit", str(path))
    assert code == 0
    pa = read_pa(path)
    assert (pa.n, pa.M, pa.claimed_distance) == (8, 56, 7)

    assert run_cli("group", "--name", "unknown")[0] == 2
    assert run_cli("group", "--name", "agl1")[0] == 2  # missing parameter
    code, out, err = run_cli("group", "--name", "agl", "--d", "0", "--q", "2")
    assert (code, out) == (2, "") and "cannot build group" in err
    code, out, err = run_cli(
        "group", "--name", "sym", "--m", "5", "--scan", "sampled", "--trials", "0"
    )
    assert code == 2 and out == "" and "trials" in err


def test_oversized_group_exits_before_listing_points(monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("points were listed")

    monkeypatch.setattr(groups.itertools, "product", no_points)
    monkeypatch.setattr(groups.itertools, "combinations", no_points)
    code, out, err = run_cli("group", "--name", "agl", "--d", "200", "--q", "2")
    assert (code, out) == (2, "") and f"more than {MAX_DEGREE} points" in err


def test_degree_limit_on_array_files(tmp_path):
    # Two rows, the identity and one swap: distance 2 at any degree.
    for n in (MAX_DEGREE, MAX_DEGREE + 1):
        ident = " ".join(map(str, range(n)))
        swapped = " ".join(map(str, [1, 0, *range(2, n)]))
        path = tmp_path / f"n{n}.txt"
        path.write_text(
            f"PA n={n} M=2 d=2 inf=none provenance=test\n{ident}\n{swapped}\n"
        )
        code, out, err = run_cli("verify", "--in", str(path))
        if n == MAX_DEGREE:
            assert code == 0 and json.loads(out)["min_observed"] == 2
        else:
            assert (code, out) == (2, "")
            assert f"degree {n} exceeds the limit {MAX_DEGREE}" in err


def test_worker_count_bounded(tmp_path, monkeypatch):
    with pytest.raises(ValueError, match="worker count"):
        parallel.resolve_workers(10**5)
    assert parallel.resolve_workers(parallel.MAX_WORKERS) == parallel.MAX_WORKERS
    monkeypatch.setenv("PA_FORGE_THREADS", str(10**5))
    with pytest.raises(ValueError, match="PA_FORGE_THREADS"):
        parallel.resolve_workers()
    path = tmp_path / "agl5.txt"
    write_pa(group_to_pa(make_named("agl1", q=5)), path)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    code, out, err = run_cli("verify", "--in", str(path))
    assert (code, out) == (2, "") and "PA_FORGE_THREADS" in err
    monkeypatch.delenv("PA_FORGE_THREADS")
    for argv in (
        ("verify", "--in", str(path)),
        ("sfp", "--q", "7", "--k", "2"),
        ("bounds", "--reproduce"),
    ):
        code, out, err = run_cli(*argv, "--threads", str(10**5))
        assert (code, out) == (2, "") and "worker count" in err, argv
    # The sampled check runs no worker, and it checks the count all the same.
    for threads in ("0", str(10**5)):
        code, out, err = run_cli(
            "verify", "--in", str(path), "--mode", "sample", "--threads", threads
        )
        assert (code, out) == (2, "") and "worker count" in err, threads


def test_group_mathieu22_facts():
    code, out, _ = run_cli("group", "--name", "mathieu22")
    assert code == 0
    info = json.loads(out)
    assert info["pa"] == [22, 443520, 16]
    assert info["scan"] == "exact"


def test_group_sampled_scan_flag():
    code, out, _ = run_cli(
        "group", "--name", "mathieu24", "--scan", "sampled",
        "--trials", "2000", "--seed", "5",
    )
    assert code == 0
    info = json.loads(out)
    assert info["order"] == 244823040
    assert info["scan"] == "sampled"
    assert info["minimal_degree"] >= 16


def test_group_exact_scan_mathieu24(tmp_path):
    code, out, _ = run_cli("group", "--name", "mathieu24", "--scan", "exact")
    assert code == 0
    info = json.loads(out)
    assert (info["minimal_degree"], info["scan"]) == (16, "exact")
    # Emission is refused before any row is built.
    code, _, err = run_cli(
        "group", "--name", "mathieu24", "--emit", str(tmp_path / "m24.txt")
    )
    assert code == 2 and "row cap" in err


def test_group_emit_over_row_cap_refused_before_any_scan(tmp_path, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("minimal degree was scanned")

    monkeypatch.setattr(cli, "minimal_degree", no_scan)
    path = tmp_path / "s11.txt"
    code, out, err = run_cli("group", "--name", "sym", "--m", "11", "--emit", str(path))
    assert (code, out) == (2, "")
    assert "39916800 rows exceed the row cap 16777216" in err
    assert not path.exists()


def test_group_emit_builds_one_chain(tmp_path, monkeypatch):
    built = []
    init = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    path = tmp_path / "m22.txt"
    code, out, err = run_cli("group", "--name", "mathieu22", "--emit", str(path))
    assert code == 0 and json.loads(out)["pa"] == [22, 443520, 16]
    assert "wrote 443520 rows" in err
    assert built == [22]


def _faulted(rows, fault):
    """sym(4)'s 24 ordered rows with one fault at row 10, inside a block of
    4 rows, or at row 12, the first of its block."""
    rows = rows.copy()
    kind, at = fault
    if kind == "not a permutation":
        rows[at] = 0
    elif kind == "repeated":
        rows[at] = rows[at - 1]
    elif kind == "out of order":
        rows[[at - 1, at]] = rows[[at, at - 1]]
    elif kind == "one row short":
        rows = rows[:-1]
    else:
        rows = np.concatenate([rows, rows[-1:]])
    return rows


@pytest.mark.parametrize(
    "fault, message",
    [
        (("not a permutation", 10), "some row is not a permutation"),
        (("not a permutation", 12), "some row is not a permutation"),
        (("repeated", 10), "rows must be pairwise distinct"),
        (("repeated", 12), "rows must be pairwise distinct"),
        (("out of order", 10), "rows out of lexicographic order"),
        (("out of order", 12), "rows out of lexicographic order"),
        (("one row short", 24), "23 rows, header says 24"),
        (("one row over", 24), "a row past the header's M=24"),
    ],
)
@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_streamed_group_emit_refuses_a_bad_block_unwritten(
    tmp_path, monkeypatch, fault, message, suffix
):
    # The producer is replaced by one that lists a faulted copy of the rows
    # in blocks of 4.  The command exits 2 with the check's message, and
    # the file it created is removed; read at its removal, the file holds
    # the blocks before the bad one and nothing after.
    grp = make_named("sym", m=4)
    good = group_to_pa(grp)
    rows = _faulted(good.rows, fault)
    monkeypatch.setattr(
        groups, "_lex_blocks", lambda chain: (rows[lo : lo + 4] for lo in range(0, len(rows), 4))
    )
    left = {}
    remove = os.remove

    def kept(path):
        left[str(path)] = open(path, "rb").read()
        remove(path)

    monkeypatch.setattr(pa_module.os, "remove", kept)
    path = tmp_path / f"s4{suffix}"
    code, out, err = run_cli("group", "--name", "sym", "--m", "4", "--emit", str(path))
    assert code == 2 and json.loads(out)["order"] == 24
    assert err == f"error: {message}\n"
    assert not path.exists() and list(left) == [str(path)]
    whole = tmp_path / f"good{suffix}"
    write_pa(good, whole)
    expected = whole.read_bytes()
    header = expected[: 1 + expected.index(b"\n" if suffix == ".txt" else b"[")]
    body = left[str(path)][len(header) :]
    written = rows[: min(fault[1] // 4 * 4, len(rows))].tolist()
    assert left[str(path)].startswith(header)
    if suffix == ".txt":
        assert [list(map(int, line.split())) for line in body.splitlines()] == written
    else:
        assert json.loads(b"[" + body + b"]") == written


SFP_CELL = ("--q", "7", "--variant", "q+1", "--s", "2", "--t", "1", "--a", "1", "--b", "-1")


@pytest.mark.parametrize(
    "fault, message",
    [
        ("a repeated point", "some row is not a permutation"),
        ("a point past n", "points must be integers in [0, 8)"),
        ("an earlier block's row", "rows must be pairwise distinct"),
    ],
)
@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_streamed_sfp_emit_refuses_a_bad_block_unwritten(
    tmp_path, monkeypatch, fault, message, suffix
):
    # The 336 rows of 8 points of one q7 q+1 cell, completed in blocks of 40
    # rows, with row 100 (the third block's) faulted by `_complete_block`
    # whenever it is made.  A repeated row is found with every row's hash
    # alike.  The command exits 2 with the check's message, and the file it
    # created is removed; read at its removal, the file holds the blocks
    # before the bad one, or every row when only the distinctness check
    # after the last block refuses.
    query = sfp.SfpQuery(sfp.field_for_order(7), sfp.Variant.Q_PLUS_1, 2, 1, 1, -1)
    good, result = pam.build_pa(query).rows, sfp.enumerate_fast(query)
    bad, first = result.gather(100, 101), result.gather(0, 1)
    whole = tmp_path / f"good{suffix}"
    assert run_cli("sfp", *SFP_CELL, "--emit", str(whole))[0] == 0
    complete_block = pam._complete_block

    def faulted(q, n, vals):
        images = complete_block(q, n, vals)
        hit = (vals == bad).all(axis=1)
        if fault == "a repeated point":
            images[hit, 1] = images[hit, 0]
        elif fault == "a point past n":
            images[hit, 0] = n
        else:
            images[hit] = complete_block(q, n, first)
        return images

    monkeypatch.setattr(parallel, "TILE_CELLS", 7 * 40)
    monkeypatch.setattr(pam, "_complete_block", faulted)
    if fault == "an earlier block's row":
        monkeypatch.setattr(pa_module, "_hash_weights", lambda n: np.ones(n, np.uint64))
    left = {}
    remove = os.remove

    def kept(path):
        left[str(path)] = open(path, "rb").read()
        remove(path)

    monkeypatch.setattr(pa_module.os, "remove", kept)
    path = tmp_path / f"q7{suffix}"
    code, out, err = run_cli("sfp", *SFP_CELL, "--emit", str(path))
    assert code == 2 and json.loads(out)["count"] == 336
    assert err == f"error: {message}\n"
    assert not path.exists() and list(left) == [str(path)]
    expected = whole.read_bytes()
    header = expected[: 1 + expected.index(b"\n" if suffix == ".txt" else b"[")]
    body = left[str(path)][len(header) :]
    written = good[:80].tolist()
    if fault == "an earlier block's row":
        written = good.tolist()
        written[100] = written[0]
    assert left[str(path)].startswith(header)
    if suffix == ".txt":
        assert [list(map(int, line.split())) for line in body.splitlines()] == written
    else:
        assert json.loads(b"[" + body + b"]") == written


def test_group_sharp_k_matches_array_predicate(monkeypatch):
    # The command reads sharp k-transitivity off the chain; the array
    # predicate is the reference.  Random generator sets of degree 2-6, an
    # intransitive group whose order 6 = 6!/5! suggests k = 1, and two
    # sharply transitive groups of order above 10,000: agl1(101) (10,100,
    # k = 2) and pgl2(23) (12,144, k = 3).
    rng = random.Random(7)
    groups = [PermGroup(6, ((1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5)))]
    while len(groups) < 60:
        n = rng.randint(2, 6)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))]
        if any(g != tuple(range(n)) for g in gens):  # the trivial group exits 2
            groups.append(PermGroup(n, tuple(gens)))
    groups += [make_named("agl1", q=101), make_named("pgl2", q=23)]
    seen = set()
    for group in groups:
        monkeypatch.setattr(cli, "make_named", lambda name, **params: group)
        code, out, _ = run_cli("group", "--name", "random")
        assert code == 0
        info = json.loads(out)
        k = cli._sharp_k_for(group.degree, info["order"])
        if k is None:
            assert "sharply_k_transitive" not in info
            continue
        sharp = is_sharply_k_transitive(group_to_pa(group), k)
        assert info["sharply_k_transitive"] == (k if sharp else None), group
        seen.add(sharp)
    assert seen == {True, False}
    assert (info["order"], info["sharply_k_transitive"]) == (12144, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ("sfp", "--q", "5", "--s", "1", "--t", "0", "--emit"),
        ("group", "--name", "sym", "--m", "3", "--emit"),
        ("bounds", "--reproduce", "--out"),
    ],
)
def test_unwritable_emit_path_exits_2(tmp_path, monkeypatch, argv):
    # The output path is opened before any search, scan or verification.
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("best_count", "enumerate_fast", "minimal_degree", "reproduce_bounds"):
        monkeypatch.setattr(cli, name, unreachable)
    path = tmp_path / "missing" / "pa.txt"
    code, out, err = run_cli(*argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing" in err
    assert not path.exists()


@pytest.mark.parametrize("cell", [("--k", "1"), ("--s", "1", "--t", "0")])
def test_sfp_emit_over_the_row_cap_exits_2_before_any_expansion(tmp_path, monkeypatch, cell):
    # The count comes from orbit sizes; a cell of more rows than
    # `check_row_cap` allows is refused before an orbit is expanded and
    # before the manifest is printed.
    def unreachable(*args, **kwargs):
        raise AssertionError("orbits were expanded")

    for owner in (cli, pam, sfp):
        monkeypatch.setattr(owner, "enumerate_fast", unreachable)
    monkeypatch.setattr(cli, "build_pa", unreachable)
    path = tmp_path / "pa.txt"
    code, out, err = run_cli("sfp", "--q", "8191", *cell, "--emit", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 67084290 rows exceed the row cap 16777216\n"
    assert not path.exists()


def test_sfp_emit_over_the_cell_cap_exits_2_before_any_expansion(tmp_path, monkeypatch):
    # 16,748,556 rows pass the row cap, but their rows of 4093 points would
    # hold 128 GiB of values: refused by cells, before any orbit is expanded.
    def unreachable(*args, **kwargs):
        raise AssertionError("orbits were expanded")

    for owner in (cli, pam, sfp):
        monkeypatch.setattr(owner, "enumerate_fast", unreachable)
    monkeypatch.setattr(cli, "build_pa", unreachable)
    path = tmp_path / "pa.txt"
    code, out, err = run_cli("sfp", "--q", "4093", "--k", "1", "--emit", str(path))
    assert (code, out) == (2, "")
    assert err == "error: 16748556 rows of 4093 points exceed the cell cap 268435456\n"
    assert not path.exists()


def test_verify_full_refuses_rows_without_symmetry_past_the_pair_cap(tmp_path, monkeypatch):
    rng = random.Random(4)
    rows = sorted({tuple(rng.sample(range(8), 8)) for _ in range(40)})
    path = tmp_path / "random.txt"
    path.write_text(f"PA n=8 M={len(rows)} d=2 inf=none provenance=x\n"
                    + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    monkeypatch.setattr(pa_module, "FULL_PAIR_CAP", 10)
    code, out, err = run_cli("verify", "--in", str(path), "--mode", "full")
    assert (code, out) == (2, "")
    pairs = len(rows) * (len(rows) - 1) // 2
    assert err == f"error: {pairs} pairs exceed the full-verification cap 10\n"


def test_verify_full_proves_the_m22_file_past_the_pair_cap(tmp_path):
    # 443,520 rows hold 9.8e10 pairs, past FULL_PAIR_CAP, but right
    # composition with its own rows proves the group file from one orbit.
    path = tmp_path / "m22.txt"
    assert run_cli("group", "--name", "mathieu22", "--emit", str(path))[0] == 0
    code, out, _ = run_cli("verify", "--in", str(path), "--mode", "full", "--threads", "2")
    assert code == 0
    report = json.loads(out)
    assert (report["mode"], report["min_observed"], report["pass"]) == ("FULL", 16, True)
    assert report["pairs_checked"] == 443520 * 443519 // 2


def test_verify_full_proves_a_relabeled_m22_file(tmp_path):
    # Permuted columns, renamed symbols and shuffled rows: no row map or
    # field map permutes the rows, and 9.8e10 pairs are over the cap.  The
    # maps that carry row 0 onto later rows, the conjugated group, leave one
    # orbit, so the lex-first closest pair is row 0's first partner at 16.
    rows = group_to_pa(make_named("mathieu22")).rows
    rng = np.random.default_rng(22)
    symbols = rng.permutation(22).astype(rows.dtype)
    rows = symbols[rows[rng.permutation(len(rows))][:, rng.permutation(22)]]
    path = tmp_path / "m22.txt"
    write_pa(pa_module.PermArray(rows, 16), path)
    code, out, _ = run_cli("verify", "--in", str(path), "--mode", "full", "--threads", "2")
    assert code == 0
    partner = int(np.flatnonzero((rows != rows[0]).sum(axis=1) == 16)[0])
    assert json.loads(out) == {
        "mode": "FULL", "pairs_checked": 443520 * 443519 // 2, "min_observed": 16,
        "witness": [0, partner], "pass": True, "claimed_distance": 16,
    }


def test_output_probe_keeps_existing_files_and_leaves_no_new_one(tmp_path, monkeypatch):
    # A refusal after the probe leaves no file behind, and the probe does
    # not truncate an existing file.
    path = tmp_path / "pa.txt"
    code, _, err = run_cli("group", "--name", "sym", "--m", "12", "--emit", str(path))
    assert code == 2 and "row cap" in err and not path.exists()
    path.write_text("keep\n")
    seen = []

    def reproduce(workers=None):
        seen.append(path.read_text())
        return [], True

    monkeypatch.setattr(cli, "reproduce_bounds", reproduce)
    assert run_cli("bounds", "--reproduce", "--out", str(path))[0] == 0
    assert seen == ["keep\n"]


def test_bare_bounds_is_a_usage_error(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("bounds ran without --reproduce")

    monkeypatch.setattr(cli, "reproduce_bounds", unreachable)
    code, out, err = run_cli("bounds")
    assert (code, out) == (2, "") and "--reproduce" in err


def test_emitted_file_reparses_byte_exact(tmp_path):
    path = tmp_path / "pa.txt"
    run_cli("sfp", "--q", "7", "--s", "1", "--t", "1", "--emit", str(path))
    text = path.read_text()
    assert format_pa(read_pa(path)) == text


def test_published_rows_emit_pinned_bytes(tmp_path):
    # Emitted arrays are byte-identical across releases; the first three
    # digests are the ones perfbench/expected.json pins for the same rows.
    # In the last three, p divides both degrees of some scanned block, so
    # up to q survivors share one orbit there.
    for q, k, variant, digest in (
        ("19", "3", "q", "155dc0b81654842c90482be42b79d7a092a74f2e1a6498acc745eddd6ae94667"),
        ("17", "3", "q+1", "7d94af0272f769790c2ba3d538986ea22a101c96fb6e86564ceab650eb9b0856"),
        ("25", "3", "q+1", "499c9cc31b672e75ee347993b4626c9d7f743cf6e8699992b821941f61b1dc31"),
        ("16", "4", "q", "2298c7aee7a22cf995a716d90278b36ca0eeed4c6631d456a40853b3a2ceea0a"),
        ("27", "4", "q+1", "cb52241b8ed76776b115d4d8a71e94b435b15e0a73e753b32f20e288848d98fa"),
        ("32", "3", "q+1", "42c2531e57d5d9dcadbf179952b66992989426f3abc2424bf5da5dd35a41775d"),
    ):
        path = tmp_path / f"sfp-q{q}-k{k}-{variant}.txt"
        code, _, _ = run_cli(
            "sfp", "--q", q, "--k", k, "--variant", variant, "--emit", str(path)
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name


def test_every_block_constant_small_changes_no_output(tmp_path, monkeypatch):
    # Blocks of a few rows, cells or bytes in every blocked kernel at once:
    # the row checks and formatter, the reader, the FULL scan's tiles, the
    # sfp scan and completion, and the sampled walk's segments (two and
    # four steps here).  Stdout, elapsed_ms aside, and every file stay the same.
    runs = [
        ("sfp", "--q", "13", "--k", "3", "--emit", "q.txt"),
        ("sfp", "--q", "13", "--k", "3", "--variant", "q+1", "--emit", "q1.txt"),
        ("group", "--name", "pgl2", "--q", "9", "--emit", "g.txt"),
        ("group", "--name", "pgl2", "--q", "9", "--emit", "g.json"),
        ("group", "--name", "mathieu24", "--scan", "sampled", "--trials", "3000", "--seed", "5"),
        ("group", "--name", "sym_pairs", "--m", "6", "--scan", "sampled", "--seed", "-1"),
    ]
    runs += [
        ("verify", "--in", name, "--mode", mode)
        for name in ("q.txt", "q1.txt", "g.txt", "g.json")
        for mode in ("full", "sample")
    ]

    def outputs(folder):
        folder.mkdir()
        monkeypatch.chdir(folder)
        printed = []
        for argv in runs:
            code, out, err = run_cli(*argv)
            assert code == 0, err
            printed.append(re.sub(r'"elapsed_ms": [0-9.]+', "", out))
        return printed, {path.name: path.read_bytes() for path in folder.iterdir()}

    want = outputs(tmp_path / "default")
    for module, name, value in (
        (parallel, "BLOCK_CELLS", 64),
        (parallel, "TILE_CELLS", 3 * 5),
        (pa_module, "_TILE_ROWS", 3),
    ):
        monkeypatch.setattr(module, name, value)
    assert outputs(tmp_path / "small") == want


def test_block_and_tile_budgets_are_declared_only_in_parallel():
    # One declaration each, so the test above patches every budget: no other
    # module names a module-level *_CELLS or *_BUDGET, and the FULL tiles
    # take their columns from TILE_CELLS.
    src = os.path.dirname(cli.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            text = fh.read()
        assert "_TILE_COLS" not in text, name
        if name == "parallel.py":
            continue
        stored = {
            node.id
            for statement in ast.parse(text).body
            if isinstance(statement, (ast.Assign, ast.AnnAssign))
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert not {v for v in stored if v.endswith(("_CELLS", "_BUDGET"))}, name


def test_outputs_independent_of_threads(tmp_path):
    texts = set()
    for threads in ("1", "3"):
        path = tmp_path / f"pa{threads}.txt"
        code, out, _ = run_cli(
            "sfp", "--q", "11", "--k", "2", "--variant", "q+1",
            "--threads", threads, "--emit", str(path),
        )
        assert code == 0
        texts.add(path.read_bytes())
    assert len(texts) == 1


def test_env_thread_fallback(tmp_path, monkeypatch):
    path1 = tmp_path / "a.txt"
    path2 = tmp_path / "b.txt"
    monkeypatch.setenv("PA_FORGE_THREADS", "2")
    run_cli("sfp", "--q", "7", "--k", "2", "--emit", str(path1))
    monkeypatch.setenv("PA_FORGE_THREADS", "1")
    run_cli("sfp", "--q", "7", "--k", "2", "--emit", str(path2))
    assert path1.read_bytes() == path2.read_bytes()


def test_bounds_skip_slow(tmp_path):
    out_path = tmp_path / "bounds.csv"
    code, _, _ = run_cli("bounds", "--reproduce", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,d,size,construction,verification,paper_value,match"
    assert len(lines) == 10  # header + nine reproductions
    for line in lines[1:]:
        assert line.endswith(",yes")
    # Every row is proven: fraction rows by FULL pairwise verification,
    # group rows by the exact minimal degree.
    for row in csv.reader(lines[1:]):
        assert row[4] == "FULL"
    for line in lines[7:]:
        assert line.split(",")[3].startswith("group:")
    sizes = {}
    for line in lines[1:]:
        n, d, size = line.split(",")[:3]
        sizes[(int(n), int(d))] = int(size)
    assert sizes[(19, 16)] == 684
    assert sizes[(19, 15)] == 6840
    assert sizes[(19, 14)] == 65322
    assert sizes[(18, 14)] == 9520
    assert sizes[(20, 14)] == 123804
    assert sizes[(24, 20)] == 23782
    assert sizes[(24, 16)] == 244823040
    assert sizes[(23, 16)] == 10200960
    assert sizes[(22, 16)] == 443520


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "paforge.cli", "sfp", "--q", "5", "--k", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PA_FORGE_THREADS": "1"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 20


def test_cli_import_loads_only_the_command_path():
    code = (
        "import sys, paforge.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'paforge'))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    modules = ["cli", "field", "groups", "pa", "pam", "parallel", "sfp"]
    assert proc.stdout.strip() == str(["paforge"] + [f"paforge.{m}" for m in modules])
