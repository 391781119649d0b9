"""Global memory governor: one cell budget shared by every in-flight job.

FastLSA's defining property is adapting to a fixed memory budget
(Section 3 of the paper: ``RM`` memory units, ``BM`` reserved for the Base
Case buffer).  A server runs many alignments at once, so the budget must be
*split*: the governor owns a process-wide budget of DP cells and derives a
**per-job allocation** of ``total_cells // max_workers``.  Every job is
planned against that allocation with
:func:`repro.core.planner.plan_alignment`, which guarantees the job's
predicted peak residency fits its share — so the sum over all concurrently
running jobs never exceeds the process budget.

Admission control is two-staged:

* **planning** (synchronous, at submit): a problem that cannot fit the
  per-job allocation even at ``k = 2`` is rejected immediately with
  :class:`~repro.errors.MemoryBudgetError` — a typed backpressure signal;
* **reservation** (asynchronous, before execution): the job's predicted
  peak cells are reserved from the global pool; if the pool is exhausted
  the job waits (bounded by its deadline) until running jobs release cells.

All accounting runs on the event loop — the governor is not thread-safe
and must only be touched from scheduler coroutines.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional

from ..core.config import FastLSAConfig
from ..core.planner import (
    Plan,
    fastlsa_peak_cells,
    ops_ratio_bound,
    plan_alignment,
    resolve_backend,
)
from ..errors import ConfigError, JobTimeoutError, MemoryBudgetError
from ..faults import runtime as faults
from ..faults.plan import SITE_GOVERNOR_ADMIT
from ..obs import runtime as obs

__all__ = ["MemoryGovernor"]


class MemoryGovernor:
    """Splits a process-wide DP-cell budget across in-flight jobs.

    Parameters
    ----------
    total_cells:
        Process-wide budget in DP cells (multiply by 8 bytes for int64).
    max_workers:
        Number of jobs that may run concurrently; the per-job allocation
        is ``total_cells // max_workers``.
    profile:
        Optional :class:`~repro.tune.profile.CalibrationProfile`; when
        set, unpinned admissions plan their Base Case buffer from the
        measured ``BM`` sweep (see :func:`plan_alignment`).
    """

    def __init__(
        self, total_cells: int, max_workers: int, profile=None
    ) -> None:
        if total_cells < 1:
            raise ConfigError(f"total_cells must be >= 1, got {total_cells}")
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        self.total_cells = total_cells
        self.max_workers = max_workers
        self.profile = profile
        self.per_job_cells = max(1, total_cells // max_workers)
        self.cells_in_flight = 0
        self.peak_cells_in_flight = 0
        self.reservations = 0
        self.waits = 0
        self.rejections = 0
        self._released = asyncio.Condition()

    # -- admission (synchronous) ---------------------------------------
    def admit(
        self,
        m: int,
        n: int,
        affine: bool = False,
        config: Optional[FastLSAConfig] = None,
    ) -> Plan:
        """Plan an ``m × n`` job inside the per-job allocation.

        With ``config`` the caller pins the FastLSA parameters instead of
        letting the planner choose; admission then checks the *pinned*
        configuration's predicted peak against the per-job share.

        Raises
        ------
        MemoryBudgetError
            If the problem cannot be planned within the per-job share —
            the caller should reject the submission (backpressure).
        """
        faults.inject(SITE_GOVERNOR_ADMIT)
        if config is not None:
            peak = fastlsa_peak_cells(m, n, config.k, config.base_cells, affine)
            notes: list = []
            backend, _ = resolve_backend(config, notes=notes)
            if peak > self.per_job_cells:
                self.rejections += 1
                obs.counter_add("service.budget_rejections")
                raise MemoryBudgetError(
                    f"pinned config (k={config.k}, base_cells={config.base_cells}, "
                    f"backend={backend}) "
                    f"predicts {peak} peak cells for a {m} x {n} job — over the "
                    f"per-job allocation of {self.per_job_cells} cells "
                    f"({self.total_cells} total / {self.max_workers} workers)"
                )
            return Plan(
                method="fastlsa",
                config=config,
                memory_cells=self.per_job_cells,
                predicted_peak_cells=peak,
                predicted_ops_ratio=ops_ratio_bound(config.k),
                downgrades=tuple(notes),
            )
        try:
            return plan_alignment(
                m, n, self.per_job_cells, affine=affine, profile=self.profile
            )
        except ConfigError as exc:
            self.rejections += 1
            obs.counter_add("service.budget_rejections")
            raise MemoryBudgetError(
                f"{m} x {n} job does not fit the per-job allocation of "
                f"{self.per_job_cells} cells "
                f"({self.total_cells} total / {self.max_workers} workers): {exc}"
            ) from exc

    # -- reservation (asynchronous) ------------------------------------
    async def reserve(self, cells: int, timeout: Optional[float] = None) -> int:
        """Reserve ``cells`` from the global pool, waiting if exhausted.

        Returns the reserved amount (for symmetry with :meth:`release`).

        Raises
        ------
        MemoryBudgetError
            If ``cells`` exceeds the whole process budget (can never be
            satisfied, only possible for batch groups — see scheduler).
        JobTimeoutError
            If the pool does not free up within ``timeout`` seconds.
        """
        if cells > self.total_cells:
            self.rejections += 1
            obs.counter_add("service.budget_rejections")
            raise MemoryBudgetError(
                f"reservation of {cells} cells exceeds the process budget "
                f"of {self.total_cells} cells"
            )
        t0 = time.perf_counter()
        async with self._released:
            if self.cells_in_flight + cells > self.total_cells:
                self.waits += 1
                try:
                    await asyncio.wait_for(
                        self._released.wait_for(
                            lambda: self.cells_in_flight + cells <= self.total_cells
                        ),
                        timeout,
                    )
                except asyncio.TimeoutError:
                    raise JobTimeoutError(
                        f"timed out after {timeout}s waiting for {cells} cells "
                        f"({self.cells_in_flight}/{self.total_cells} in flight)"
                    ) from None
            obs.observe("service.reserve_wait", time.perf_counter() - t0)
            self.cells_in_flight += cells
            obs.gauge_set("service.cells_in_flight", self.cells_in_flight)
            self.peak_cells_in_flight = max(
                self.peak_cells_in_flight, self.cells_in_flight
            )
            self.reservations += 1
        return cells

    async def release(self, cells: int) -> None:
        """Return ``cells`` to the pool and wake waiting reservations."""
        async with self._released:
            self.cells_in_flight = max(0, self.cells_in_flight - cells)
            obs.gauge_set("service.cells_in_flight", self.cells_in_flight)
            self._released.notify_all()

    def stats(self) -> Dict[str, int]:
        """Counters for the service stats surface."""
        return {
            "budget_total_cells": self.total_cells,
            "budget_per_job_cells": self.per_job_cells,
            "cells_in_flight": self.cells_in_flight,
            "peak_cells_in_flight": self.peak_cells_in_flight,
            "budget_reservations": self.reservations,
            "budget_waits": self.waits,
            "budget_rejections": self.rejections,
        }
