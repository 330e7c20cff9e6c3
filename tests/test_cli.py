"""Command-line behaviors: manifests, emission, verification exit codes,
reproduction table, determinism across thread counts."""

import csv
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from paforge import cli, groups, parallel
from paforge.cli import main
from paforge.groups import PermGroup, StabilizerChain, group_to_pa, make_named
from paforge.pa import MAX_DEGREE, is_sharply_k_transitive, read_pa, write_pa


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
    ],
)
def test_verify_rejects_malformed_json(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli("verify", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("malformed input:")


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
    assert "order 39916800 exceeds row cap" in err
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
    from paforge.pa import format_pa

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
