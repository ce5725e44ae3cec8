"""Run one function over a list of items in forked worker processes, one per usable CPU."""

from __future__ import annotations

import collections
import contextlib
import os
from typing import Callable, Iterator, Sequence


def _worker_count(n_items: int) -> int:
    """Usable CPUs capped at ``n_items``; 1 where fork or the CPU set is not available."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n_items, len(os.sched_getaffinity(0)))


@contextlib.contextmanager
def in_order(fn: Callable, items: Sequence) -> Iterator[Iterator]:
    """Yield an iterator over ``fn(item)`` for each of ``items``, in item order.

    With two or more usable CPUs and items, every item is handed on entry to
    a fork-context process pool of one worker per CPU, at most one per item.
    The workers inherit ``fn`` through the pool's initializer, so ``fn`` and
    what it closes over are never pickled: only each item goes out and each
    result comes back. An item's exception is raised when the iterator
    reaches it, which ends the iteration. On exit the items not yet started
    are cancelled and every worker is joined. Otherwise the iterator calls
    ``fn`` in this process as it is advanced, and no process is started.
    """
    workers = _worker_count(len(items))
    if workers <= 1:
        yield (fn(item) for item in items)
        return
    # imported here: they add 1.6 MB of resident memory to every command that never pools
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_hold, initargs=(fn,)
    )
    try:
        futures = collections.deque(pool.submit(_call, item) for item in items)
        # each future is dropped as its result is taken, so no result outlives its turn
        yield (futures.popleft().result() for _ in items)
    finally:
        pool.shutdown(cancel_futures=True)


# the function being mapped, set by the pool's initializer in each worker and never in the calling process
_fn: Callable | None = None


def _hold(fn: Callable) -> None:
    global _fn
    _fn = fn


def _call(item):
    return _fn(item)
