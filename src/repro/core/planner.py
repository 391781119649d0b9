"""Adaptive planner: choose FastLSA parameters from a memory budget.

The paper's headline property is *adaptivity*: "FastLSA can effectively
adapt to use either linear or quadratic space, depending on the specific
machine" (abstract), with ``RM`` memory units available and ``BM`` of them
reserved for the Base Case buffer (Section 3).  This module implements that
decision procedure:

* if the dense matrix fits in ``RM`` → run the full-matrix algorithm
  (FastLSA's quadratic-space extreme: one base case, zero recomputation);
* otherwise pick the **largest** ``k`` whose grid lines fit in the budget
  left after reserving the Base Case buffer — larger ``k`` means fewer
  recomputed cells (operations ratio bounded by ``(k+1)/(k−1)``);
* if even ``k = 2`` does not fit, the problem cannot be aligned within the
  budget and a :class:`~repro.errors.ConfigError` is raised.

All quantities are in DP *cells* (multiply by 8 bytes for int64 storage),
keeping the planner machine-independent.  ``RM`` may model a processor
cache or main memory, matching the paper's performance-tuning story.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigError
from .config import MIN_BASE_CELLS, AlignConfig, FastLSAConfig, check_backend

__all__ = [
    "Plan",
    "parse_memory",
    "plan_alignment",
    "degrade_plan",
    "ops_ratio_bound",
    "grid_cells_bound",
    "fastlsa_peak_cells",
    "resolve_backend",
    "worker_cap",
    "BACKENDS",
]

#: Byte multipliers for :func:`parse_memory` suffixes.
_SIZE_UNITS = {"K": 1024, "M": 1024**2, "G": 1024**3, "T": 1024**4}

#: Bytes per DP cell (int64 storage).
CELL_BYTES = 8


def parse_memory(text) -> int:
    """Parse a memory budget into DP cells.

    Accepts a bare integer (DP **cells** — backward compatible with the
    CLI's historical argument) or a human-readable **byte** size with a
    ``K`` / ``M`` / ``G`` / ``T`` suffix, optionally followed by ``B``
    (``"64M"``, ``"2GB"``); suffixed sizes convert at 8 bytes per int64
    cell.  Non-positive budgets are rejected.
    """
    if isinstance(text, bool):
        raise ConfigError(f"cannot parse memory budget {text!r}")
    if isinstance(text, int):
        cells = text
    else:
        s = str(text).strip().upper()
        if s.endswith("B") and len(s) > 1 and s[-2] in _SIZE_UNITS:
            s = s[:-1]
        unit = 0
        if s and s[-1] in _SIZE_UNITS:
            unit = _SIZE_UNITS[s[-1]]
            s = s[:-1]
        try:
            value = float(s) if unit else int(s)
        except ValueError:
            raise ConfigError(
                f"cannot parse memory budget {text!r} "
                f"(expected cells like 500000 or a size like 64M / 2G)"
            ) from None
        cells = int(value * unit) // CELL_BYTES if unit else int(value)
    if cells <= 0:
        raise ConfigError(f"memory budget must be positive, got {text!r}")
    return cells


def ops_ratio_bound(k: int) -> float:
    """Worst-case FastLSA operations ratio vs the FM algorithm.

    Per level, FillCache computes all cells except the bottom-right block
    (``mn·(1 − 1/k²)``) and the path crosses at most ``2k − 1`` blocks of
    ``mn/k²`` cells each, so

        T(mn) = mn·(1 − 1/k²) + (2k − 1)·T(mn/k²)
              → ratio = (1 − 1/k²) / (1 − (2k−1)/k²) = (k + 1)/(k − 1).

    ``k = 2`` gives 3.0 in the worst case; in practice paths cross far
    fewer than ``2k − 1`` blocks and measured ratios are much lower (≈1.5
    at ``k = 2`` — the paper's linear-space figure).  See bench T2.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    return (k + 1) / (k - 1)


def grid_cells_bound(m: int, n: int, k: int, affine: bool) -> int:
    """Upper bound on grid-line cells live at once across all levels.

    Level 0 stores ``(k−1)·(n+1) + (k−1)·(m+1)`` H cells (doubled for
    affine gap-state lines); level ``d`` operates on a block ``k^d`` times
    smaller per dimension.  The geometric sum is bounded by
    ``k/(k−1)``× the level-0 cost, i.e. ≈ ``k·(m+n+2)`` cells.
    """
    line_layers = 2 if affine else 1
    level0 = (k - 1) * ((m + 1) + (n + 1)) * line_layers
    return int(level0 * k / (k - 1)) + 1


def fastlsa_peak_cells(m: int, n: int, k: int, base_cells: int, affine: bool) -> int:
    """Predicted peak resident cells of a FastLSA run."""
    sweep_rows = (6 if affine else 2) * (n + 2)  # rolling kernel rows
    return grid_cells_bound(m, n, k, affine) + base_cells + sweep_rows


#: Backends the planner / governor understand.
BACKENDS = AlignConfig.BACKENDS


def worker_cap() -> int:
    """Largest worker count :func:`resolve_backend` will honour.

    ``max(2, cpu_count)``: real oversubscription (more workers than
    cores) is clamped, but two workers are always allowed so the
    parallel code paths stay exercisable (tests, wavefront semantics) on
    single-core machines — where the autotuner, not the clamp, is what
    steers jobs back to serial.
    """
    return max(2, os.cpu_count() or 1)


def resolve_backend(
    config=None,
    workers: "int | None" = None,
    *,
    notes: "Optional[List[str]]" = None,
) -> "tuple[str, int]":
    """Normalise an :class:`AlignConfig` into ``(backend, workers)``.

    ``backend`` falls back to ``"serial"`` when unset; ``workers`` comes
    from the explicit argument, then ``config.max_workers``, then 1.  A
    parallel backend with one worker degrades to ``"serial"`` — a single
    thread only adds dispatch overhead.

    Parallel worker counts above :func:`worker_cap` are clamped instead
    of oversubscribing the machine; when ``notes`` is passed the clamp is
    recorded there (the governor threads these onto
    :attr:`Plan.downgrades` so the downgrade is visible on the job
    result, not silent).
    """
    backend = getattr(config, "backend", None) or "serial"
    check_backend(backend)
    if workers is None:
        workers = getattr(config, "max_workers", None) or 1
    workers = max(1, int(workers))
    if backend != "serial":
        cap = worker_cap()
        if workers > cap:
            if notes is not None:
                notes.append(f"workers_clamped:{workers}->{cap}")
            workers = cap
    if workers <= 1 and backend != "serial":
        backend = "serial"
    return backend, workers


@dataclass(frozen=True)
class Plan:
    """Planner output.

    Attributes
    ----------
    method:
        ``"full-matrix"`` when the dense DPM fits the budget, otherwise
        ``"fastlsa"``.
    config:
        FastLSA parameters (also set for ``full-matrix``, where the base
        buffer swallows the whole problem).
    memory_cells:
        The budget the plan was derived from.
    predicted_peak_cells:
        Model estimate of peak resident DP cells.
    predicted_ops_ratio:
        Worst-case operations ratio vs FM (1.0 for ``full-matrix``).
    downgrades:
        Adjustments recorded while deriving the plan (e.g.
        ``"workers_clamped:16->8"`` from :func:`resolve_backend`); the
        scheduler copies them onto the job result so nothing the planner
        overrode happens silently.
    """

    method: str
    config: FastLSAConfig
    memory_cells: int
    predicted_peak_cells: int
    predicted_ops_ratio: float
    downgrades: Tuple[str, ...] = ()


def plan_alignment(
    m: int,
    n: int,
    memory_cells: int,
    affine: bool = False,
    max_k: int = 64,
    base_fraction: float = 0.5,
    profile=None,
) -> Plan:
    """Derive FastLSA parameters for an ``m × n`` problem in ``memory_cells``.

    Parameters
    ----------
    m, n:
        Sequence lengths.
    memory_cells:
        Available memory ``RM`` in DP cells.
    affine:
        Whether the scoring scheme uses affine gaps (doubles grid lines,
        triples dense layers).
    max_k:
        Upper clamp on ``k`` (very large ``k`` has diminishing returns and
        grows per-level overhead).
    base_fraction:
        Fraction of the budget reserved for the Base Case buffer ``BM``.
    profile:
        Optional :class:`~repro.tune.profile.CalibrationProfile` (duck
        typed: anything with ``best_base_cells()``).  When the measured
        Base-Case-buffer sweep found a throughput peak *below* the
        default ``BM`` reservation, the plan starts from that cache-sized
        buffer instead — freeing budget for more grid lines (larger
        ``k``, fewer recomputed cells) at no measured cost.

    Raises
    ------
    ConfigError
        If not even the ``k = 2`` linear-space configuration fits.
    """
    if memory_cells < MIN_BASE_CELLS:
        raise ConfigError(f"memory budget {memory_cells} below minimum {MIN_BASE_CELLS}")
    if not (0.0 < base_fraction < 1.0):
        raise ConfigError(f"base_fraction must be in (0, 1), got {base_fraction}")
    dense_layers = 3 if affine else 1
    dense = (m + 1) * (n + 1) * dense_layers
    if dense <= memory_cells:
        cfg = FastLSAConfig(k=2, base_cells=max(MIN_BASE_CELLS, int(memory_cells)))
        return Plan(
            method="full-matrix",
            config=cfg,
            memory_cells=memory_cells,
            predicted_peak_cells=dense,
            predicted_ops_ratio=1.0,
        )
    plan = _plan_fastlsa(m, n, memory_cells, affine, max_k, base_fraction,
                         profile=profile)
    if plan is not None:
        return plan
    line_layers = 2 if affine else 1
    per_k_unit = ((m + 1) + (n + 1)) * line_layers
    raise ConfigError(
        f"cannot align a {m} x {n} problem in {memory_cells} cells: even the "
        f"k=2 linear-space configuration needs ≈ {2 * per_k_unit + MIN_BASE_CELLS} cells"
    )


def _plan_fastlsa(
    m: int,
    n: int,
    memory_cells: int,
    affine: bool,
    max_k: int = 64,
    base_fraction: float = 0.5,
    profile=None,
) -> "Plan | None":
    """The linear-space branch of :func:`plan_alignment`; ``None`` if no fit."""
    line_layers = 2 if affine else 1
    base_cells = max(MIN_BASE_CELLS, int(memory_cells * base_fraction))
    if profile is not None:
        # Start from the measured cache-sized BM when it is smaller than
        # the default reservation; the halving loop below still walks
        # down from there if grid lines need more room.
        measured = getattr(profile, "best_base_cells", lambda: None)()
        if measured:
            base_cells = max(MIN_BASE_CELLS, min(base_cells, int(measured)))
    per_k_unit = ((m + 1) + (n + 1)) * line_layers  # ≈ grid cells per unit of k
    while base_cells >= MIN_BASE_CELLS:
        budget = memory_cells - base_cells
        k = int(min(max_k, budget // per_k_unit if per_k_unit else max_k))
        while k >= 2 and fastlsa_peak_cells(m, n, k, base_cells, affine) > memory_cells:
            k -= 1
        if k >= 2:
            return Plan(
                method="fastlsa",
                config=FastLSAConfig(k=k, base_cells=base_cells),
                memory_cells=memory_cells,
                predicted_peak_cells=fastlsa_peak_cells(m, n, k, base_cells, affine),
                predicted_ops_ratio=ops_ratio_bound(k),
            )
        # Shrink the base buffer and retry with more room for grid lines.
        base_cells //= 2
    return None


#: Smallest Base Case buffer the degradation ladder will plan (below this,
#: recursion depth explodes and the cure is worse than the disease).
_DEGRADE_BASE_FLOOR = 1024


def degrade_plan(plan: Plan, m: int, n: int, affine: bool = False) -> "Plan | None":
    """One rung down the graceful-degradation ladder, or ``None`` at the floor.

    Every rung strictly reduces the predicted peak residency, so a job
    failing under memory pressure makes real progress each time it is
    re-planned:

    * ``full-matrix`` → the FastLSA linear-space configuration under the
      same budget (always far smaller than the dense matrix);
    * ``fastlsa(k, base)`` → ``fastlsa(max(2, k // 2), base // 4)`` — fewer
      grid lines and a smaller Base Case buffer, down to the
      ``k = 2`` / :data:`_DEGRADE_BASE_FLOOR` sequential floor.

    The service scheduler walks this ladder on
    :class:`~repro.errors.MemoryBudgetError` or repeated tile failure,
    recording each downgrade on the job result (see ``docs/ROBUSTNESS.md``).
    """
    if plan.method == "full-matrix":
        alt = _plan_fastlsa(m, n, plan.memory_cells, affine)
        if alt is not None and alt.predicted_peak_cells < plan.predicted_peak_cells:
            return alt
        # A dense plan only exists because the matrix fit; synthesise the
        # linear-space floor directly for tiny budgets _plan_fastlsa rejects.
        cfg = FastLSAConfig(k=2, base_cells=max(MIN_BASE_CELLS, _DEGRADE_BASE_FLOOR))
        peak = fastlsa_peak_cells(m, n, cfg.k, cfg.base_cells, affine)
        if peak >= plan.predicted_peak_cells:
            return None
        return Plan("fastlsa", cfg, plan.memory_cells, peak, ops_ratio_bound(cfg.k))
    cfg = plan.config
    new_k = max(2, cfg.k // 2)
    new_base = max(
        MIN_BASE_CELLS, min(_DEGRADE_BASE_FLOOR, cfg.base_cells), cfg.base_cells // 4
    )
    if (new_k, new_base) == (cfg.k, cfg.base_cells):
        return None  # already at the floor
    peak = fastlsa_peak_cells(m, n, new_k, new_base, affine)
    return Plan(
        method="fastlsa",
        config=FastLSAConfig(k=new_k, base_cells=new_base),
        memory_cells=plan.memory_cells,
        predicted_peak_cells=peak,
        predicted_ops_ratio=ops_ratio_bound(new_k),
    )
