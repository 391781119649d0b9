"""Shared executor lifecycle: one wavefront thread pool, reused.

Before this module, :func:`repro.parallel.executor.run_wavefront` built a
fresh ``ThreadPoolExecutor`` per call when no pool was injected — every
FillCache region of every service job paid thread spawn/teardown.  The
wavefront now borrows its executor from here: the pool is created on
first use, grown (by replacement) when a caller asks for more workers,
reused across alignments and service jobs, and shut down deterministically
— via :func:`shutdown_pools` (tests, service close) or the ``atexit``
hook.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

__all__ = ["get_thread_pool", "shutdown_pools"]

_lock = threading.Lock()
_thread_pool: Optional[ThreadPoolExecutor] = None
_thread_pool_size = 0


def get_thread_pool(n_threads: int) -> ThreadPoolExecutor:
    """The shared wavefront thread pool, at least ``n_threads`` wide.

    Growing replaces the pool (after draining the old one); shrinking
    requests reuse the wider pool — the executor layer gates in-flight
    tiles to its own ``n_threads`` regardless of pool width.
    """
    global _thread_pool, _thread_pool_size
    n_threads = max(1, int(n_threads))
    with _lock:
        if _thread_pool is None or _thread_pool_size < n_threads:
            old = _thread_pool
            _thread_pool = ThreadPoolExecutor(
                max_workers=n_threads, thread_name_prefix="fastlsa-wave"
            )
            _thread_pool_size = n_threads
            if old is not None:
                old.shutdown(wait=True)
        return _thread_pool


def shutdown_pools() -> None:
    """Tear down the shared pool (idempotent; used by tests and atexit)."""
    global _thread_pool, _thread_pool_size
    with _lock:
        if _thread_pool is not None:
            _thread_pool.shutdown(wait=True)
            _thread_pool = None
            _thread_pool_size = 0


atexit.register(shutdown_pools)
