"""Per-layer tracing of the real `paforge` commands.

`tracing(recorder)` replaces the public functions that `paforge.cli` calls,
`enumerate_fast` as `paforge.pam.build_pa` reaches it, and `Field.tables`,
with wrappers that open a span around the original call and read counts from
its arguments and return value.  Jobs still run through the unchanged
`cli.main(argv)`, so the traced call path is the program's own.  Spans nest,
so `pam.build_pa`'s self time is completion without its enumeration.  The
`group_order` wrapper builds the stabilizer chain itself (the original is
that one line) so the chain's levels and transitivity can be read, and the
`minimal_degree` span is named by that transitivity.  `poly` and `fracpoly`
are not separated: they run inside the `sfp` spans.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from pathlib import Path
from typing import Iterator

from paforge import cli, pam
from paforge.field import Field
from paforge.groups import StabilizerChain, group_to_pa, minimal_degree
from paforge.pa import min_distance, read_pa, write_pa
from paforge.pam import build_pa
from paforge.sfp import Variant, best_count, enumerate_fast, field_for_order

from spans import Recorder

_tables = Field.tables


def transitivity(chain: StabilizerChain) -> int:
    """Largest t with orbit sizes n, n-1, ..., n-t+1 down the chain, which
    holds exactly when the group is t-transitive."""
    t = 0
    while t < len(chain.orbits) and len(chain.orbits[t]) == chain.degree - t:
        t += 1
    return t


def _extension_field(q: int) -> bool:
    return any(q % f == 0 for f in range(2, math.isqrt(q) + 1))


def _wrappers(rec: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every traced call."""
    chains: dict[int, tuple[int, int]] = {}  # id(group) -> (order, transitivity)

    def search(q: int):
        return rec.span("sfp.ext_field") if _extension_field(q) else contextlib.nullcontext()

    def traced_field_for_order(q):
        with rec.span("field.tables"):
            return field_for_order(q)

    def traced_tables(self):
        # Only the first build is timed; search threads call it too.
        if self._dense is not None or threading.current_thread() is not threading.main_thread():
            return _tables(self)
        with rec.span("field.tables"):
            return _tables(self)

    def traced_best_count(q, k, variant, workers=None):
        with search(q), rec.span("sfp.best_count"):
            bc = best_count(q, k, variant, workers=workers)
        rec.count("sfp.cells", len(bc.cell_counts))
        return bc

    def traced_enumerate_fast(query, workers=None):
        with search(query.q), rec.span("sfp.enumerate_fast"):
            result = enumerate_fast(query, workers=workers)
        rec.count("sfp.members", result.count)
        return result

    def traced_build_pa(query, result=None, workers=None):
        with rec.span("pam.build_pa"):
            pa = build_pa(query, result=result, workers=workers)
        rec.count("pam.rows", pa.M)
        return pa

    def traced_write_pa(pa, path):
        with rec.span("pa.write_pa"):
            write_pa(pa, path)
        rec.count("pa.bytes_written", os.path.getsize(path))

    def traced_read_pa(path):
        with rec.span("pa.read_pa"):
            pa = read_pa(path)
        rec.count("pa.bytes_read", os.path.getsize(path))
        return pa

    def traced_min_distance(pa, mode="full", *args, **kwargs):
        with rec.span("pa.min_distance") as span:
            report = min_distance(pa, mode, *args, **kwargs)
            if mode != "full":
                span["name"] = "pa.min_distance_sampled"
            elif report.passed:
                span["name"] = "pa.min_distance_full"
            else:
                span["name"] = "pa.min_distance_fail"
        if mode == "full" and report.passed:
            rec.count("pa.pairs_checked", report.pairs_checked)
        elif mode == "full":
            rec.count("pa.fail_pairs_checked", report.pairs_checked)
            rec.count("pa.fail_pairs_total", pa.M * (pa.M - 1) // 2)
        return report

    def traced_group_order(group):
        with rec.span("groups.chain"):
            chain = StabilizerChain(group.degree, group.generators)
            order = chain.order()
        rec.count("groups.chain_levels", len(chain.base))
        chains[id(group)] = (order, transitivity(chain))
        return order

    def traced_minimal_degree(group, mode="exact", *args, **kwargs):
        if mode == "exact":
            order, t = chains[id(group)]
            name = f"groups.min_degree_{min(t, 2)}trans"
            rec.count("groups.elements_scanned", order)
        else:
            name = "groups.min_degree_sampled"
        with rec.span(name):
            return minimal_degree(group, mode, *args, **kwargs)

    def traced_group_to_pa(group, *args, **kwargs):
        with rec.span("groups.group_to_pa"):
            return group_to_pa(group, *args, **kwargs)

    return [
        (cli, "field_for_order", traced_field_for_order),
        (Field, "tables", traced_tables),
        (cli, "best_count", traced_best_count),
        (cli, "enumerate_fast", traced_enumerate_fast),
        (pam, "enumerate_fast", traced_enumerate_fast),
        (cli, "build_pa", traced_build_pa),
        (cli, "write_pa", traced_write_pa),
        (cli, "read_pa", traced_read_pa),
        (cli, "min_distance", traced_min_distance),
        (cli, "group_order", traced_group_order),
        (cli, "minimal_degree", traced_minimal_degree),
        (cli, "group_to_pa", traced_group_to_pa),
    ]


@contextlib.contextmanager
def tracing(rec: Recorder) -> Iterator[None]:
    """Record spans for the calls made inside the block."""
    saved = []
    try:
        for owner, name, wrapper in _wrappers(rec):
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def parallel_speedup(spec: dict, work: Path) -> float:
    """Time at 1 worker divided by time at 2 workers, for one FULL verify or
    one grid search; a ratio on the machine that runs it, not a scaling claim."""
    if spec["kind"] == "verify":
        pa = read_pa(work / spec["file"])

        def call(workers: int) -> None:
            min_distance(pa, "full", workers=workers)
    else:
        def call(workers: int) -> None:
            best_count(spec["q"], spec["k"], Variant(spec["variant"]), workers=workers)
    times = {}
    for workers in (1, 2):
        started = time.perf_counter()
        call(workers)
        times[workers] = time.perf_counter() - started
    return times[1] / times[2]
