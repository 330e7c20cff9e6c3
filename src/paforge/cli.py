"""Command-line surface: run searches, build and verify arrays, query group
constructions, and emit the bound-reproduction table."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from .groups import (
    DEFAULT_TRIALS,
    EXACT_SCAN_CAP,
    check_row_cap,
    group_order,
    group_to_pa,
    make_named,
    minimal_degree,
)
from .pa import DEFAULT_SAMPLE_PAIRS, min_distance, read_pa, write_pa
from .pam import build_pa
from .parallel import resolve_workers
from .sfp import (
    SfpQuery,
    Variant,
    best_count,
    check_field_range,
    enumerate_fast,
    field_for_order,
)


@dataclass(frozen=True)
class BoundRecord:
    """One row of the reproduction table."""

    n: int
    d: int
    size: int
    construction: str
    verification: str
    paper_value: Optional[int]

    @property
    def match(self) -> bool:
        return self.paper_value is None or self.size == self.paper_value

    def csv_row(self) -> list:
        return [
            self.n,
            self.d,
            self.size,
            self.construction,
            self.verification,
            self.paper_value if self.paper_value is not None else "",
            "yes" if self.match else "no",
        ]


def _variant(text: str) -> Variant:
    if text in ("q", "Q"):
        return Variant.Q
    if text in ("q+1", "Q+1", "q1"):
        return Variant.Q_PLUS_1
    raise argparse.ArgumentTypeError(f"unknown variant {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paforge",
        description="Permutation arrays from fractional maps and groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sfp = sub.add_parser("sfp", help="search one cell or a fixed-total grid")
    p_sfp.add_argument("--q", type=int, required=True, help="field order")
    p_sfp.add_argument("--variant", type=_variant, default=Variant.Q)
    p_sfp.add_argument("--k", type=int, help="maximize over s+t=k")
    p_sfp.add_argument("--s", type=int, help="explicit numerator budget")
    p_sfp.add_argument("--t", type=int, help="explicit denominator budget")
    p_sfp.add_argument("--a", type=int, default=0)
    p_sfp.add_argument("--b", type=int, default=0)
    p_sfp.add_argument("--emit", type=str, help="write the constructed array")
    p_sfp.add_argument("--threads", type=int, default=None)
    p_sfp.set_defaults(func=cmd_sfp)

    p_ver = sub.add_parser("verify", help="check a permutation-array file")
    p_ver.add_argument("--in", dest="path", required=True)
    p_ver.add_argument("--mode", choices=["full", "sample"], default="full")
    p_ver.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_PAIRS)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--threads", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_grp = sub.add_parser("group", help="facts for a named permutation group")
    p_grp.add_argument(
        "--name",
        required=True,
        help="agl1|pgl2|agl|sym|sym_pairs|mathieu22|mathieu23|mathieu24",
    )
    p_grp.add_argument("--q", type=int)
    p_grp.add_argument("--d", type=int)
    p_grp.add_argument("--m", type=int)
    p_grp.add_argument("--scan", choices=["auto", "exact", "sampled"], default="auto")
    p_grp.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_grp.add_argument("--seed", type=int, default=0)
    p_grp.add_argument("--emit", type=str)
    p_grp.set_defaults(func=cmd_group)

    p_bnd = sub.add_parser("bounds", help="reproduce the published lower bounds")
    p_bnd.add_argument(
        "--reproduce", action="store_true", required=True, help="run everything"
    )
    p_bnd.add_argument("--out", type=str, help="write CSV here instead of stdout")
    p_bnd.add_argument("--threads", type=int, default=None)
    p_bnd.set_defaults(func=cmd_bounds)

    return parser


def _probe_writable(path: Optional[str]) -> None:
    """Raise open()'s OSError before any work when a path cannot be written;
    an existing file is not truncated, and a file the probe creates is removed."""
    if path:
        created = not os.path.exists(path)
        open(path, "ab").close()
        if created:
            os.remove(path)


def cmd_sfp(args: argparse.Namespace) -> int:
    explicit = args.s is not None or args.t is not None
    if explicit and (args.s is None or args.t is None):
        print("--s and --t must be given together", file=sys.stderr)
        return 2
    if explicit == (args.k is not None):
        print("give exactly one of --k or --s/--t", file=sys.stderr)
        return 2
    if not explicit and (args.a or args.b):
        print("--a/--b need --s/--t: the --k grid picks its offsets", file=sys.stderr)
        return 2
    check_field_range(args.q)
    _probe_writable(args.emit)
    field = field_for_order(args.q)
    if explicit:
        query = SfpQuery(field, args.variant, args.s, args.t, args.a, args.b)
        result = enumerate_fast(query, workers=args.threads)
        manifest = result.manifest(tool_version=__version__)
    else:
        bc = best_count(args.q, args.k, args.variant, workers=args.threads)
        query = bc.query
        result = None
        manifest = bc.manifest(tool_version=__version__)
    print(json.dumps(manifest))
    if args.emit:
        pa = build_pa(query, result=result, workers=args.threads)
        write_pa(pa, args.emit)
        print(f"wrote {pa.M} rows to {args.emit}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    workers = resolve_workers(args.threads)
    try:
        pa = read_pa(args.path)
        if pa.M < 2:
            raise ValueError(f"{pa.M} rows, a distance needs at least two")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    mode = "sampled" if args.mode == "sample" else "full"
    report = min_distance(
        pa, mode, sample_pairs=args.samples, seed=args.seed, workers=workers
    )
    print(report.to_json())
    return 0 if report.passed else 1


def _group_params(args: argparse.Namespace) -> dict:
    params = {}
    if args.q is not None:
        params["q"] = args.q
    if args.d is not None:
        params["d"] = args.d
    if args.m is not None:
        params["m"] = args.m
    return params


def cmd_group(args: argparse.Namespace) -> int:
    try:
        group = make_named(args.name, **_group_params(args))
    except (ValueError, KeyError, TypeError) as exc:
        print(f"cannot build group: {exc}", file=sys.stderr)
        return 2
    _probe_writable(args.emit)
    order = group_order(group)
    if args.emit:
        check_row_cap(order)
    scan = args.scan
    if scan == "auto":
        scan = "exact" if order <= EXACT_SCAN_CAP else "sampled"
    facts = minimal_degree(
        group, mode=scan, trials=args.trials, seed=args.seed
    )
    info = {
        "name": group.name,
        "degree": group.degree,
        "order": order,
        "minimal_degree": facts.minimal_degree,
        "scan": scan,
        "pa": [group.degree, order, facts.minimal_degree],
    }
    sharp_k = _sharp_k_for(group.degree, order)
    if sharp_k is not None:
        # The order is n!/(n-k)!, so the group is sharply k-transitive exactly
        # when it is k-transitive.  For n >= 2 `_sharp_k_for` returns n-1
        # before it could return n, so the chain's cap at orbits of size 2
        # hides no case.
        sharp = group.chain.transitivity() >= sharp_k
        info["sharply_k_transitive"] = sharp_k if sharp else None
    print(json.dumps(info))
    if args.emit:
        pa = group_to_pa(group, facts)
        write_pa(pa, args.emit)
        print(f"wrote {pa.M} rows to {args.emit}", file=sys.stderr)
    return 0


def _sharp_k_for(n: int, order: int) -> Optional[int]:
    for k in range(1, n + 1):
        target = math.factorial(n) // math.factorial(n - k)
        if target == order:
            return k
        if target > order:
            return None
    return None


PUBLISHED_SFP_BOUNDS = (
    # (q, k, variant, published size)
    (19, 3, Variant.Q, 684),
    (19, 4, Variant.Q, 6840),
    (19, 5, Variant.Q, 65322),
    (17, 3, Variant.Q_PLUS_1, 9520),
    (19, 5, Variant.Q_PLUS_1, 123804),
    (23, 3, Variant.Q_PLUS_1, 23782),
)

PUBLISHED_GROUP_BOUNDS = (
    ("mathieu24", 24, 16, 244823040),
    ("mathieu23", 23, 16, 10200960),
    ("mathieu22", 22, 16, 443520),
)

def _sfp_bound_record(
    q: int, k: int, variant: Variant, published: int, workers
) -> tuple[BoundRecord, bool]:
    bc = best_count(q, k, variant, workers=workers)
    query = bc.query
    pa = build_pa(query, workers=workers)
    report = min_distance(pa, "full", workers=workers)
    record = BoundRecord(
        n=query.length(),
        d=query.distance(),
        size=bc.count,
        construction=f"sfp:{query.describe()}",
        verification=report.mode,
        paper_value=published,
    )
    return record, report.passed


def _group_bound_record(
    name: str, degree: int, published_d: int, published_size: int
) -> tuple[BoundRecord, bool]:
    facts = minimal_degree(make_named(name), mode="exact")
    record = BoundRecord(
        n=degree,
        d=facts.minimal_degree,
        size=facts.order,
        construction=f"group:{name}",
        verification="FULL",
        paper_value=published_size,
    )
    return record, facts.minimal_degree == published_d


def reproduce_bounds(workers: Optional[int] = None) -> tuple[list[BoundRecord], bool]:
    records: list[BoundRecord] = []
    all_ok = True
    for q, k, variant, published in PUBLISHED_SFP_BOUNDS:
        record, ok = _sfp_bound_record(q, k, variant, published, workers)
        records.append(record)
        all_ok = all_ok and ok and record.match
    for name, degree, published_d, published_size in PUBLISHED_GROUP_BOUNDS:
        record, ok = _group_bound_record(name, degree, published_d, published_size)
        records.append(record)
        all_ok = all_ok and ok and record.match
    return records, all_ok


def bounds_csv(records: Sequence[BoundRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["n", "d", "size", "construction", "verification", "paper_value", "match"]
    )
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def cmd_bounds(args: argparse.Namespace) -> int:
    _probe_writable(args.out)
    records, ok = reproduce_bounds(workers=args.threads)
    text = bounds_csv(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
