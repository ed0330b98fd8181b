"""Deterministic fan-out of independent jobs over a thread pool.

Worker count comes from the QSENSE_WORKERS environment variable (default 1,
i.e. sequential).  Results always come back in submission order, so
aggregate statistics do not depend on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

ENV_VAR = "QSENSE_WORKERS"


def worker_count() -> int:
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    items = list(items)
    count = worker_count()
    if count <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, items))
