"""Parallel FastLSA: wavefront FillCache / Base Case + drivers.

Two front-ends over the sequential recursion of
:mod:`repro.core.fastlsa`, wired in through :class:`FastLSAHooks`:

* :func:`parallel_fastlsa` — **threaded** execution on a real
  :class:`~concurrent.futures.ThreadPoolExecutor`.  Produces bit-identical
  alignments to the sequential algorithm; physical speedup requires
  multiple cores and the compiled kernel tier, whose C sweeps release
  the GIL (see docs/PERFORMANCE.md).
* :func:`simulated_parallel_fastlsa` — runs the real alignment once while
  feeding every FillCache / Base-Case tile DAG through the deterministic
  ``P``-processor simulator, reproducing the paper's speedup and
  efficiency experiments on a single core.

Both follow the paper's decomposition: each grid block is refined into
``u × v`` tiles (``R = k·u`` tile rows, ``C = k·v`` tile columns), the
bottom-right block's tiles are skipped during FillCache, and recursion
along the path is sequential while each region is wavefront-parallel
(Equation 28's structure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..align.alignment import Alignment
from ..align.sequence import as_sequence
from ..core.config import (
    DEFAULT_BASE_CELLS,
    DEFAULT_K,
    FastLSAConfig,
    resolve_config,
)
from ..core.fastlsa import FastLSAHooks, fastlsa
from ..core.fillcache import compute_block, fill_grid
from ..core.grid import Grid, split_bounds
from ..core.problem import ColCache, RowCache
from ..errors import ConfigError
from ..kernels import registry
from ..kernels.affine import NEG_INF
from ..kernels.fullmatrix import FullMatrices, compute_full
from ..kernels.linear import score_profile
from ..kernels.ops import KernelInstruments
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from .executor import run_wavefront
from .simmachine import ScheduleReport, simulate_schedule
from .tiles import Tile, TileGrid, default_uv, refine_bounds
from .wavefront import line_phases

__all__ = [
    "build_fill_tiles",
    "build_base_tiles",
    "parallel_fastlsa",
    "SimulationReport",
    "simulated_parallel_fastlsa",
]


# ----------------------------------------------------------------------
# tile-grid construction
# ----------------------------------------------------------------------
def build_fill_tiles(grid: Grid, u: int, v: int, skip_bottom_right: bool = True) -> TileGrid:
    """Tile decomposition of a FillCache region, grid-line aligned.

    Refines each block into ``u × v`` tiles and (optionally) skips the
    tiles covered by the bottom-right block.
    """
    row_bounds = refine_bounds(grid.row_bounds, u)
    col_bounds = refine_bounds(grid.col_bounds, v)
    skip = set()
    if skip_bottom_right and len(grid.row_bounds) >= 2 and len(grid.col_bounds) >= 2:
        br_a0 = grid.row_bounds[-2]
        br_b0 = grid.col_bounds[-2]
        for r in range(len(row_bounds) - 1):
            for c in range(len(col_bounds) - 1):
                if row_bounds[r] >= br_a0 and col_bounds[c] >= br_b0:
                    skip.add((r, c))
    return TileGrid(row_bounds, col_bounds, skip=skip)


def build_base_tiles(M: int, N: int, k: int, u: int, v: int) -> TileGrid:
    """Tile decomposition of a Base Case region (paper's ``PBaseCaseT``).

    Uses the same nominal ``R = k·u`` / ``C = k·v`` refinement as a
    FillCache region; short dimensions degrade to fewer tiles.
    """
    return TileGrid(split_bounds(0, M, k * u), split_bounds(0, N, k * v))


# ----------------------------------------------------------------------
# tile-span instrumentation
# ----------------------------------------------------------------------
def _traced_tile_worker(tg: TileGrid, worker, P: int, region: str):
    """Wrap a tile worker with phase-tagged trace spans.

    Resolved once per region: with instrumentation off the original
    worker is returned untouched (zero per-tile overhead).  Tile spans
    parent onto the span open on the *submitting* thread (the FillCache
    or Base-Case span) because worker threads have no span stack of
    their own, and each carries its Figure-13 wavefront phase.
    """
    inst = obs.current()
    if inst is None:
        return worker
    phases = line_phases(tg, P)
    parent = inst.tracer.current_span()

    def traced(tile: Tile) -> None:
        with inst.tracer.span(
            "wavefront.tile",
            category="tile",
            parent=parent,
            r=tile.r,
            c=tile.c,
            cells=tile.cells,
            region=region,
            phase=phases[tile.r + tile.c],
        ):
            worker(tile)
        inst.metrics.counter(f"wavefront.{phases[tile.r + tile.c]}_tiles").inc()

    return traced


# ----------------------------------------------------------------------
# threaded FillCache
# ----------------------------------------------------------------------
def _parallel_fill_grid(
    grid: Grid,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    counter,
    skip_bottom_right: bool,
    P: int,
    u: int,
    v: int,
) -> None:
    """Wavefront-parallel FillCache (threads); same results as
    :func:`repro.core.fillcache.fill_grid`."""
    tg = build_fill_tiles(grid, u, v, skip_bottom_right)
    if len(tg) == 0:
        return
    # One score-profile gather per region; tiles take contiguous slices
    # instead of re-gathering per tile (shared fast path with the
    # sequential kernels).
    c0 = tg.col_bounds[0]
    region_profile = score_profile(
        scheme.matrix.table, b_codes[c0 : tg.col_bounds[-1]]
    )
    # Resolve the kernel provider here: worker threads run in their own
    # context, so the caller's registry.use(...) would not be visible.
    provider = registry.active("linear" if scheme.is_linear else "affine")
    # Interior grid-line lookup by global coordinate.
    row_index = {grid.row_bounds[p]: p for p in range(1, len(grid.row_bounds) - 1)}
    col_index = {grid.col_bounds[q]: q for q in range(1, len(grid.col_bounds) - 1)}
    bottom_edges: Dict[Tuple[int, int], RowCache] = {}
    right_edges: Dict[Tuple[int, int], ColCache] = {}
    edge_cells = 0
    if grid.meter is not None:
        edge_cells = sum(
            (t.cols + 1) + (t.rows + 1) for t in tg.tiles()
        ) * (2 if not scheme.is_linear else 1)
        grid.meter.alloc(edge_cells)

    def worker(tile: Tile) -> None:
        if tile.r == 0:
            top = grid.row_line(0, tile.b0, tile.b1)
        else:
            full = bottom_edges[(tile.r - 1, tile.c)]
            top = full
        if tile.c == 0:
            left = grid.col_line(0, tile.a0, tile.a1)
        else:
            left = right_edges[(tile.r, tile.c - 1)]
        bottom, right = compute_block(
            a_codes[tile.a0 : tile.a1], b_codes[tile.b0 : tile.b1], scheme, top, left,
            profile=region_profile[:, tile.b0 - c0 : tile.b1 - c0],
            provider=provider,
        )
        bottom_edges[(tile.r, tile.c)] = bottom
        right_edges[(tile.r, tile.c)] = right
        p = row_index.get(tile.a1)
        if p is not None:
            grid.store_row_segment(p, tile.b0, bottom.h, bottom.f)
        q = col_index.get(tile.b1)
        if q is not None:
            grid.store_col_segment(q, tile.a0, right.h, right.e)

    run_wavefront(tg, _traced_tile_worker(tg, worker, P, "fill"), n_threads=P)
    if counter is not None:
        counter.add_cells(tg.total_cells())
    if grid.meter is not None:
        grid.meter.free(edge_cells)


# ----------------------------------------------------------------------
# threaded Base Case
# ----------------------------------------------------------------------
def _parallel_base_matrix(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    first_row_h: np.ndarray,
    first_col_h: np.ndarray,
    first_row_f: Optional[np.ndarray] = None,
    first_col_e: Optional[np.ndarray] = None,
    counter=None,
    *,
    P: int,
    k: int,
    u: int,
    v: int,
) -> FullMatrices:
    """Wavefront-parallel dense base-case computation (threads)."""
    M, N = len(a_codes), len(b_codes)
    table = scheme.matrix.table
    H = np.empty((M + 1, N + 1), dtype=np.int64)
    H[0, :] = first_row_h
    H[:, 0] = first_col_h
    if scheme.is_linear:
        E = F = None
    else:
        E = np.full((M + 1, N + 1), NEG_INF, dtype=np.int64)
        F = np.full((M + 1, N + 1), NEG_INF, dtype=np.int64)
        F[0, :] = first_row_f
        E[:, 0] = first_col_e
    if M == 0 or N == 0:
        return FullMatrices(H=H, E=E, F=F)

    tg = build_base_tiles(M, N, k, u, v)
    region_profile = score_profile(table, b_codes)
    # Resolve the kernel provider here: worker threads run in their own
    # context, so the caller's registry.use(...) would not be visible.
    provider = registry.active("linear" if scheme.is_linear else "affine")

    def worker(tile: Tile) -> None:
        a0, a1, b0, b1 = tile.a0, tile.a1, tile.b0, tile.b1
        prof = region_profile[:, b0:b1]
        if scheme.is_linear:
            sub = provider.sweep_matrix(
                a_codes[a0:a1], b_codes[b0:b1], table, scheme.gap_open,
                H[a0, b0 : b1 + 1], H[a0 : a1 + 1, b0],
                profile=prof,
            )
            H[a0 + 1 : a1 + 1, b0 + 1 : b1 + 1] = sub[1:, 1:]
            H[a0 + 1 : a1 + 1, b0] = sub[1:, 0]
            H[a0, b0 + 1 : b1 + 1] = sub[0, 1:]
        else:
            sh, se, sf = provider.sweep_matrix(
                a_codes[a0:a1], b_codes[b0:b1], table,
                scheme.gap_open, scheme.gap_extend,
                H[a0, b0 : b1 + 1], F[a0, b0 : b1 + 1],
                H[a0 : a1 + 1, b0], E[a0 : a1 + 1, b0],
                profile=prof,
            )
            H[a0 + 1 : a1 + 1, b0 + 1 : b1 + 1] = sh[1:, 1:]
            E[a0 + 1 : a1 + 1, b0 + 1 : b1 + 1] = se[1:, 1:]
            F[a0 + 1 : a1 + 1, b0 + 1 : b1 + 1] = sf[1:, 1:]

    run_wavefront(tg, _traced_tile_worker(tg, worker, P, "base"), n_threads=P)
    if counter is not None:
        counter.add_cells(tg.total_cells())
    return FullMatrices(H=H, E=E, F=F)


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def parallel_fastlsa(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    P: int,
    k: Optional[int] = None,
    base_cells: Optional[int] = None,
    u: Optional[int] = None,
    v: Optional[int] = None,
    config: Optional[FastLSAConfig] = None,
    instruments: Optional[KernelInstruments] = None,
) -> Alignment:
    """Wavefront-parallel FastLSA; identical output to :func:`fastlsa`.

    The paper's driver: both FillCache and the Base Case run as thread
    wavefronts (``config.backend="threads"`` parallelises FillCache only).
    ``P`` is the worker count; ``u``/``v`` the tiles per grid block
    (defaults from :func:`repro.parallel.tiles.default_uv`).
    Parameterize via ``config=``; the ``k=`` / ``base_cells=`` keywords
    are deprecated.
    """
    if P < 1:
        raise ConfigError(f"P must be >= 1, got {P}")
    cfg = resolve_config(config, k, base_cells, where="parallel_fastlsa")
    if u is None or v is None:
        du, dv = default_uv(P, cfg.k)
        u = u or du
        v = v or dv

    def fill(grid, a_codes, b_codes, sch, counter, skip_bottom_right=True):
        _parallel_fill_grid(
            grid, a_codes, b_codes, sch, counter, skip_bottom_right, P, u, v
        )

    def base_matrix(*args, **kwargs):
        return _parallel_base_matrix(*args, **kwargs, P=P, k=cfg.k, u=u, v=v)

    hooks = FastLSAHooks(fill=fill, base_matrix=base_matrix)
    alignment = fastlsa(
        seq_a, seq_b, scheme, config=cfg, instruments=instruments, hooks=hooks
    )
    alignment.algorithm = f"parallel-fastlsa(P={P})"
    return alignment


# ----------------------------------------------------------------------
# simulated machine driver
# ----------------------------------------------------------------------
@dataclass
class SimulationReport:
    """Aggregate of every region's simulated schedule for one alignment.

    Times are in cell-units.  ``seq_time`` is the sequential program's
    cost (pure DP work, no dispatch overhead); ``par_time`` the sum of the
    ``P``-worker makespans (tile costs + per-tile overhead) along the
    inherently-sequential recursion chain — Equation 28's structure.
    """

    P: int
    k: int
    u: int
    v: int
    overhead: float
    m: int = 0
    n: int = 0
    regions: List[ScheduleReport] = field(default_factory=list)

    def add(self, report: ScheduleReport) -> None:
        """Record one FillCache / Base-Case region."""
        self.regions.append(report)

    @property
    def seq_time(self) -> float:
        """Sequential-program time: pure DP work, no dispatch overhead."""
        return sum(r.work for r in self.regions)

    @property
    def par_time(self) -> float:
        """Total ``P``-worker time (sum of region makespans)."""
        return sum(r.makespan for r in self.regions)

    @property
    def speedup(self) -> float:
        """``seq_time / par_time``."""
        return self.seq_time / self.par_time if self.par_time > 0 else 1.0

    @property
    def efficiency(self) -> float:
        """``speedup / P``."""
        return self.speedup / self.P

    @property
    def n_regions(self) -> int:
        """Number of simulated wavefront regions."""
        return len(self.regions)

    def wt_bound(self) -> float:
        """Theorem 4's bound for this configuration (Eq. 36)."""
        from .model import wt_bound

        return wt_bound(max(self.m, 1), max(self.n, 1), self.k, self.P, self.u, self.v)


def simulated_parallel_fastlsa(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    P: int,
    k: Optional[int] = None,
    base_cells: Optional[int] = None,
    u: Optional[int] = None,
    v: Optional[int] = None,
    overhead: float = 0.0,
    config: Optional[FastLSAConfig] = None,
) -> Tuple[Alignment, SimulationReport]:
    """Run a real alignment while simulating its parallel execution.

    Every FillCache and Base-Case region is computed sequentially (for
    correctness) and its tile DAG is fed to the deterministic
    ``P``-processor simulator.  Returns the (exact) alignment together
    with the :class:`SimulationReport`.

    ``overhead`` adds a fixed per-tile cost (cells) modelling dispatch and
    synchronisation — the knob that makes efficiency grow with sequence
    size, as the paper observes.
    """
    if P < 1:
        raise ConfigError(f"P must be >= 1, got {P}")
    # The simulator keeps plain k/base_cells keywords: it is a modelling
    # API sweeping parameters, not a serving entry point.
    cfg = config or FastLSAConfig(
        k=k if k is not None else DEFAULT_K,
        base_cells=base_cells if base_cells is not None else DEFAULT_BASE_CELLS,
    )
    if u is None or v is None:
        du, dv = default_uv(P, cfg.k)
        u = u or du
        v = v or dv
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    report = SimulationReport(
        P=P, k=cfg.k, u=u, v=v, overhead=overhead, m=len(a), n=len(b)
    )

    def fill(grid, a_codes, b_codes, sch, counter, skip_bottom_right=True):
        fill_grid(grid, a_codes, b_codes, sch, counter, skip_bottom_right)
        tg = build_fill_tiles(grid, u, v, skip_bottom_right)
        if len(tg):
            report.add(simulate_schedule(tg, P, overhead=overhead))

    def base_matrix(a_codes, b_codes, sch, *args, **kwargs):
        mats = compute_full(a_codes, b_codes, sch, *args, **kwargs)
        M, N = len(a_codes), len(b_codes)
        if M > 0 and N > 0:
            tg = build_base_tiles(M, N, cfg.k, u, v)
            report.add(simulate_schedule(tg, P, overhead=overhead))
        return mats

    hooks = FastLSAHooks(fill=fill, base_matrix=base_matrix)
    alignment = fastlsa(a, b, scheme, config=cfg, hooks=hooks)
    alignment.algorithm = f"simulated-parallel-fastlsa(P={P})"
    return alignment, report
