"""Seeded input files for the verifier, and the independent witness oracle.

Inputs are always written as PA text files and reach the program only
through `verify --in`, so the program, not the benchmark, decides how rows
sit in memory.  (An in-memory column-permuted array would arrive in Fortran
order, which makes FULL verification of the q=23 array 2.2x faster than the
same rows read from a file.)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def read_rows(path: Path) -> tuple[dict[str, str], np.ndarray]:
    """Header fields and rows of a PA text file, parsed without paforge."""
    with open(path, encoding="utf-8") as fh:
        head, _, provenance = fh.readline().rstrip("\n").partition(" provenance=")
        body = fh.read()
    fields = dict(tok.split("=", 1) for tok in head.split()[1:])
    fields["provenance"] = provenance
    n, m = int(fields["n"]), int(fields["M"])
    rows = np.array(body.split(), dtype=np.int64).reshape(m, n)
    return fields, rows


def write_rows(path: Path, rows: np.ndarray, distance: int, provenance: str) -> None:
    m, n = rows.shape
    lines = [f"PA n={n} M={m} d={distance} inf=none provenance={provenance}"]
    lines.extend(" ".join(map(str, row)) for row in rows.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def relabel(src: Path, dst: Path, seed: int) -> dict:
    """Permute columns, rename symbols and shuffle rows.

    Every pairwise Hamming distance is unchanged, so the minimum distance is
    too.  The point-at-infinity marker is dropped, since renaming symbols
    moves it.
    """
    fields, rows = read_rows(src)
    m, n = rows.shape
    rng = np.random.default_rng(seed)
    columns = rng.permutation(n)
    symbols = rng.permutation(n)
    order = rng.permutation(m)
    out = symbols[rows[order][:, columns]]
    write_rows(dst, out, int(fields["d"]), f"perfbench:relabel:seed={seed}")
    return {}


def corrupt(src: Path, dst: Path, seed: int) -> dict:
    """Replace one row by another row with two entries swapped.

    The replaced row is drawn from the first tenth of the array, so the
    verifier's first violation lies early in its scan order and early exit
    matters; the source row is drawn from the whole array.  The result
    stays a valid array of distinct permutations whenever the input's
    minimum distance is at least 3.
    """
    fields, rows = read_rows(src)
    m, n = rows.shape
    rng = np.random.default_rng(seed)
    replaced = int(rng.integers(0, max(1, m // 10)))
    source = int(rng.integers(0, m - 1))
    source += source >= replaced
    a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
    row = rows[source].copy()
    row[[a, b]] = row[[b, a]]
    rows[replaced] = row
    write_rows(dst, rows, int(fields["d"]), f"perfbench:corrupt:seed={seed}")
    return {"replaced_row": replaced}


MAKERS = {"relabel": relabel, "corrupt": corrupt}


def first_violation(path: Path, replaced: int) -> tuple[tuple[int, int], int]:
    """The first pair in index order closer than the claimed distance, and
    its distance, for an array where every violating pair involves row
    `replaced`.  O(M*n): only that row's distances are computed."""
    fields, rows = read_rows(path)
    claimed = int(fields["d"])
    dist = (rows != rows[replaced]).sum(axis=1)
    before = np.nonzero(dist[:replaced] < claimed)[0]
    if len(before):
        i = int(before[0])
        return (i, replaced), int(dist[i])
    after = np.nonzero(dist[replaced + 1:] < claimed)[0]
    if not len(after):
        raise ValueError(f"row {replaced} violates no pair")
    j = replaced + 1 + int(after[0])
    return (replaced, j), int(dist[j])
