"""Command-line behaviors: manifests, emission, verification exit codes,
reproduction table, determinism across thread counts."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from paforge.cli import main
from paforge.pa import read_pa


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


def test_sfp_usage_errors():
    assert run_cli("sfp", "--q", "7")[0] == 2  # neither --k nor --s/--t
    assert run_cli("sfp", "--q", "7", "--k", "1", "--s", "1", "--t", "0")[0] == 2
    assert run_cli("sfp", "--q", "7", "--s", "1")[0] == 2
    assert run_cli("sfp", "--q", "12", "--k", "1")[0] == 2  # not a prime power
    assert run_cli("sfp", "--q", "7", "--k", "9")[0] == 2  # k too large
    assert run_cli("sfp", "--q", "7", "--k", "-1")[0] == 2  # k negative


def test_sfp_supported_field_orders():
    # 32749 is the largest prime the int16 kernels hold; 32768 = 2**15 is
    # the first order past them.
    code, out, _ = run_cli("sfp", "--q", "32749", "--s", "0", "--t", "0")
    assert code == 0 and json.loads(out)["count"] == 0
    for q in ("32768", "32771"):
        code, out, err = run_cli("sfp", "--q", q, "--s", "1", "--t", "0")
        assert code == 2 and out == ""
        assert "exceeds the supported maximum 32767" in err


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
        HEAD3.format(m=2) + "0 1 2 3\n1 2 0 3\n",  # every row longer than n
        HEAD3.format(m=2) + "0 1 2\n1 2\n",  # ragged rows
        HEAD3.format(m=2) + "0 1 2\n1 x 0\n",  # non-integer token
        HEAD3.format(m=2) + "0 1 2\n1 2.0 0\n",
        HEAD3.format(m=1) + "0 1 99999999999999999999\n",  # past int64
        HEAD3.format(m=0),  # no rows at all
        HEAD3.format(m=2) + "\n   \n",  # blank lines only
        "PA n=3 M=1 d=2 inf=none\n0 1 2\n",  # header without provenance
    ],
)
@pytest.mark.filterwarnings("error")
def test_verify_rejects_malformed_text(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli("verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("malformed input:")


def test_verify_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.txt"
    path.write_text(HEAD3.format(m=3) + "\n0 1 2\n  \n1 2 0\n\n2 0 1\n\n")
    code, out, _ = run_cli("verify", "--in", str(path))
    assert code == 0
    assert json.loads(out)["min_observed"] == 3
    assert read_pa(path).rows.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


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
    code, out, err = run_cli(
        "group", "--name", "sym", "--m", "5", "--scan", "sampled", "--trials", "0"
    )
    assert code == 2 and out == "" and "trials" in err


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


def test_emitted_file_reparses_byte_exact(tmp_path):
    from paforge.pa import format_pa

    path = tmp_path / "pa.txt"
    run_cli("sfp", "--q", "7", "--s", "1", "--t", "1", "--emit", str(path))
    text = path.read_text()
    assert format_pa(read_pa(path)) == text


def test_published_rows_emit_pinned_bytes(tmp_path):
    # Emitted arrays are byte-identical across releases; these digests are
    # the ones perfbench/expected.json pins for the same rows.
    for q, k, variant, digest in (
        ("19", "3", "q", "155dc0b81654842c90482be42b79d7a092a74f2e1a6498acc745eddd6ae94667"),
        ("17", "3", "q+1", "7d94af0272f769790c2ba3d538986ea22a101c96fb6e86564ceab650eb9b0856"),
        ("25", "3", "q+1", "499c9cc31b672e75ee347993b4626c9d7f743cf6e8699992b821941f61b1dc31"),
    ):
        path = tmp_path / f"sfp-q{q}-k{k}-{variant}.txt"
        code, _, _ = run_cli(
            "sfp", "--q", q, "--k", k, "--variant", variant, "--emit", str(path)
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name


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
