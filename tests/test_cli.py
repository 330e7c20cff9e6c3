"""Command-line behaviors: manifests, emission, verification exit codes,
reproduction table, determinism across thread counts."""

import json
import os
import subprocess
import sys

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
    code, _, _ = run_cli("bounds", "--reproduce", "--skip-slow", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,d,size,construction,verification,paper_value,match"
    assert len(lines) == 10  # header + nine reproductions
    for line in lines[1:]:
        assert line.endswith(",yes")
    # Slow fraction rows are downgraded to sampling; group rows stay exact.
    assert any("SAMPLED" in line for line in lines[1:7])
    for line in lines[7:]:
        assert line.split(",")[3].startswith("group:")
        assert line.split(",")[4] == "FULL"
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
