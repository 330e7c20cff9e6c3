"""Worker-count resolution and deterministic block mapping.

Work is split into contiguous blocks that are evaluated independently and
merged in block order, so results are identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

ENV_THREADS = "PA_FORGE_THREADS"

#: Most worker threads: `map_blocks` may start one per block up to this.
MAX_WORKERS = 256


def resolve_workers(workers: Optional[int] = None) -> int:
    if workers is not None:
        if not 1 <= workers <= MAX_WORKERS:
            raise ValueError(f"worker count must be in [1, {MAX_WORKERS}]")
        return workers
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {env!r}")
        if not 1 <= n <= MAX_WORKERS:
            raise ValueError(f"{ENV_THREADS} must be in [1, {MAX_WORKERS}], got {n}")
        return n
    return min(os.cpu_count() or 1, MAX_WORKERS)


def map_blocks(fn: Callable[[T], R], blocks: Sequence[T], workers: int) -> list[R]:
    """Apply fn to each block; results returned in block order."""
    if workers <= 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))
