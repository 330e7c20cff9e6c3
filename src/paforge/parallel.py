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


def resolve_workers(workers: Optional[int] = None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        return workers
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {env!r}")
        if n < 1:
            raise ValueError(f"{ENV_THREADS} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def map_blocks(fn: Callable[[T], R], blocks: Sequence[T], workers: int) -> list[R]:
    """Apply fn to each block; results returned in block order."""
    if workers <= 1 or len(blocks) <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))
