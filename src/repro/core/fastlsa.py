"""Sequential FastLSA (the paper's primary contribution).

Implements the recursive algorithm of Figure 2:

1. **Base Case** — if the sub-problem's dense matrix fits the Base Case
   buffer, solve it with the full-matrix algorithm and extend the path by
   traceback.
2. **General Case** — divide both dimensions into ``k`` parts, fill the
   ``k−1`` + ``k−1`` interior grid lines (FillCache, skipping the
   bottom-right block), recurse on the bottom-right block, and then, while
   the path has not reached the problem's top or left boundary, recurse on
   the ``UpLeft`` sub-problem cut at the current path head.  At most
   ``2k − 1`` blocks are crossed by the path, which is where FastLSA's
   operation bound ``≈ mn·(k+1)/(k−1)`` comes from.

The public entry point is :func:`fastlsa`; :func:`fastlsa_path` exposes the
raw recursion for drivers that manage their own sequences (e.g. the
parallel front-end, which swaps the FillCache and Base-Case fill functions
for wavefront-parallel ones via :class:`FastLSAHooks`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..align.alignment import Alignment, AlignmentStats, alignment_from_path
from ..align.path import Layer, PathBuilder
from ..align.sequence import as_sequence
from ..kernels import registry
from ..kernels.affine import affine_boundaries
from ..kernels.linear import boundary_vectors
from ..kernels.ops import KernelInstruments
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from .basecase import solve_base_case
from .cancel import checkpoint
from .config import FastLSAConfig, resolve_config
from .fillcache import fill_grid
from .grid import Grid
from .problem import ColCache, Problem, RowCache

__all__ = ["FastLSAHooks", "FastLSAResult", "fastlsa", "fastlsa_path", "initial_problem"]


@dataclass
class FastLSAHooks:
    """Override points for the FillCache / Base-Case computations.

    The sequential driver uses the defaults; the parallel driver swaps in
    wavefront-tiled implementations that produce identical values.

    Attributes
    ----------
    fill:
        ``fill(grid, a_codes, b_codes, scheme, counter, skip_bottom_right)``
        — must populate the grid's interior lines.
    base_matrix:
        Optional replacement for the dense base-case sweep (same signature
        as :func:`repro.kernels.fullmatrix.compute_full`).
    """

    fill: Callable = fill_grid
    base_matrix: Optional[Callable] = None


@dataclass
class _Ctx:
    """Recursion-wide state."""

    a_codes: np.ndarray
    b_codes: np.ndarray
    scheme: ScoringScheme
    config: FastLSAConfig
    inst: KernelInstruments
    hooks: FastLSAHooks
    target: tuple
    score: Optional[int] = None
    subproblems: int = 0
    base_cases: int = 0
    base_case_cells: int = 0
    max_depth: int = 0


@dataclass
class FastLSAResult:
    """Raw output of :func:`fastlsa_path` (before alignment assembly)."""

    score: int
    builder: PathBuilder
    subproblems: int
    base_cases: int
    base_case_cells: int
    max_depth: int


def initial_problem(m: int, n: int, scheme: ScoringScheme) -> Problem:
    """The whole-DPM problem with fresh leading-gap boundary caches."""
    if scheme.is_linear:
        row, col = boundary_vectors(m, n, scheme.gap_open)
        return Problem(
            0, 0, m, n, RowCache(h=row), ColCache(h=col)
        )
    row_h, row_f, col_h, col_e = affine_boundaries(
        m, n, scheme.gap_open, scheme.gap_extend
    )
    return Problem(
        0, 0, m, n, RowCache(h=row_h, f=row_f), ColCache(h=col_h, e=col_e)
    )


def _fastlsa_rec(problem: Problem, builder: PathBuilder, ctx: _Ctx, depth: int) -> None:
    """The FastLSA recursion (Figure 2)."""
    checkpoint()  # deadline boundary: one sub-problem entry
    ctx.subproblems += 1
    ctx.max_depth = max(ctx.max_depth, depth)
    M, N = problem.nrows, problem.ncols
    if M == 0 or N == 0:
        # The head already sits on the problem's top row or left column:
        # nothing to extend at this level.
        return

    layers = 1 if ctx.scheme.is_linear else 3
    if problem.dense_cells <= ctx.config.base_threshold(layers):
        # BASE CASE (Figure 2, lines 1-2).
        ctx.base_cases += 1
        ctx.base_case_cells += M * N
        score = solve_base_case(
            problem,
            ctx.a_codes,
            ctx.b_codes,
            ctx.scheme,
            builder,
            ctx.inst,
            ctx.hooks.base_matrix,
        )
        if (problem.i1, problem.j1) == ctx.target:
            ctx.score = score
        return

    with obs.span("fastlsa.recurse", category="recurse", depth=depth, rows=M, cols=N):
        _general_case(problem, builder, ctx, depth)


def _general_case(problem: Problem, builder: PathBuilder, ctx: _Ctx, depth: int) -> None:
    # GENERAL CASE (Figure 2, lines 3-15).
    grid = Grid(problem, ctx.config.k, affine=not ctx.scheme.is_linear, meter=ctx.inst.mem)
    try:
        with obs.span("fastlsa.fillcache", category="fill", depth=depth) as sp:
            cells_before = ctx.inst.ops.cells
            ctx.hooks.fill(
                grid, ctx.a_codes, ctx.b_codes, ctx.scheme, ctx.inst.ops,
                skip_bottom_right=True,
            )
            if sp is not None:
                filled = ctx.inst.ops.cells - cells_before
                sp.set(cells=filled, grid_cells=grid.cells_allocated)
                obs.counter_add("fastlsa.cells_filled", filled)
                obs.gauge_set("fastlsa.grid_cache_cells", ctx.inst.mem.current)
        # Recurse on the bottom-right block first (Figure 3(d)).
        p_last = len(grid.row_bounds) - 2
        q_last = len(grid.col_bounds) - 2
        a0, b0, a1, b1 = grid.block_extent(p_last, q_last)
        sub = Problem(
            a0, b0, problem.i1, problem.j1,
            grid.row_line(p_last, b0, problem.j1),
            grid.col_line(q_last, a0, problem.i1),
        )
        _fastlsa_rec(sub, builder, ctx, depth + 1)

        # Extend across the remaining blocks the path crosses
        # (Figure 3(e)/(f); at most 2k−1 in total).
        while True:
            ih, jh = builder.head
            if ih <= problem.i0 or jh <= problem.j0:
                break  # fully extended for this level
            p, a0, q, b0 = grid.up_left_bounds(ih, jh)
            sub = Problem(
                a0, b0, ih, jh,
                grid.row_line(p, b0, jh),
                grid.col_line(q, a0, ih),
            )
            _fastlsa_rec(sub, builder, ctx, depth + 1)
    finally:
        grid.free()


def fastlsa_path(
    m: int,
    n: int,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    config: FastLSAConfig,
    inst: KernelInstruments,
    hooks: Optional[FastLSAHooks] = None,
) -> FastLSAResult:
    """Run the FastLSA recursion over the whole DPM; return score + path.

    The returned builder's path spans ``(m, n)`` back to some point on row
    0 or column 0; drivers complete it to ``(0, 0)`` along the boundary.
    """
    problem = initial_problem(m, n, scheme)
    builder = PathBuilder((m, n), Layer.H)
    ctx = _Ctx(
        a_codes=a_codes,
        b_codes=b_codes,
        scheme=scheme,
        config=config,
        inst=inst,
        hooks=hooks or FastLSAHooks(),
        target=(m, n),
    )
    _fastlsa_rec(problem, builder, ctx, depth=1)
    if ctx.score is None:
        # Degenerate DPM (m == 0 or n == 0): the score is the boundary value.
        ctx.score = scheme.gap.cost(max(m, n))
    return FastLSAResult(
        score=int(ctx.score),
        builder=builder,
        subproblems=ctx.subproblems,
        base_cases=ctx.base_cases,
        base_case_cells=ctx.base_case_cells,
        max_depth=ctx.max_depth,
    )


def fastlsa(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    k: Optional[int] = None,
    base_cells: Optional[int] = None,
    config: Optional[FastLSAConfig] = None,
    instruments: Optional[KernelInstruments] = None,
    hooks: Optional[FastLSAHooks] = None,
) -> Alignment:
    """Globally align two sequences with FastLSA.

    Parameters
    ----------
    seq_a, seq_b:
        Sequences or strings; ``seq_a`` indexes DPM rows.
    scheme:
        Scoring scheme (linear or affine gaps).
    config:
        An :class:`~repro.core.config.AlignConfig` (or bare
        :class:`FastLSAConfig`) carrying ``k`` and ``base_cells`` — the
        one supported way to parameterize the run.
    k, base_cells:
        Removed legacy per-call tunables — passing them raises
        :class:`~repro.errors.ConfigError`; use ``config=AlignConfig(...)``.
    instruments:
        Optional shared counters.
    hooks:
        FillCache / Base-Case overrides (used by the parallel driver).

    Returns
    -------
    Alignment
        With ``stats.cells_computed`` between ``m·n`` (large ``k`` /
        quadratic space) and ≈ ``1.5·m·n`` (small memory), and
        ``stats.peak_cells_resident`` ≈ ``k·(m+n) + base_cells``.
    """
    cfg = resolve_config(config, k, base_cells, where="fastlsa")
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    inst = instruments or KernelInstruments()
    t0 = time.perf_counter()

    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    m, n = len(a), len(b)
    if getattr(cfg, "tune", None) not in (None, "off"):
        # Hardware-adaptive auto-selection: fill backend/kernel/band from
        # the host's calibration profile (no-op with a warning when the
        # host never ran `fastlsa calibrate`).  Lazy import: core stays
        # importable without repro.tune loaded.
        from ..tune.decision import autotune_config

        cfg, _ = autotune_config(cfg, m, n, affine=not scheme.is_linear)
    tier = registry.resolve_tier(getattr(cfg, "kernel", None))
    band = getattr(cfg, "band", None)

    if band is not None and hooks is None and m > 0 and n > 0:
        # Exact banded fast path: verify-or-widen with a width cap that
        # preserves FastLSA's linear-space guarantee — past the cap the
        # band stops paying off and the normal recursion takes over
        # (rather than falling back to a dense full-matrix solve).
        from .banded import banded_align_exact

        with registry.use(tier):
            banded = banded_align_exact(
                a, b, scheme, band=band,
                max_width=max(32, min(m, n) // 4),
                instruments=inst, on_give_up="none",
            )
        if banded is not None and banded.certified and banded.tier == "banded":
            obs.counter_add("fastlsa.alignments", 1)
            obs.counter_add("fastlsa.band_hits", 1)
            alignment = banded.alignment
            alignment.algorithm = f"fastlsa+banded(w={banded.width})"
            alignment.stats.kernel = tier
            alignment.stats.band_width = banded.width
            alignment.stats.wall_time = time.perf_counter() - t0
            return alignment

    if hooks is None and getattr(cfg, "backend", None) == "threads":
        # Lazy import: core stays importable without the parallel package
        # loaded; explicit hooks (the parallel drivers) always win.
        from ..parallel.backends import backend_hooks

        hooks = backend_hooks(cfg, scheme, m, n)

    with obs.span(
        "fastlsa.align", category="align", m=m, n=n, k=cfg.k,
        base_cells=cfg.base_cells, kernel=tier,
    ) as sp:
        with registry.use(tier):
            result = fastlsa_path(m, n, a_codes, b_codes, scheme, cfg, inst, hooks)
        if sp is not None:
            sp.set(score=result.score, subproblems=result.subproblems)
    builder = result.builder
    builder.extend_to_origin()
    path = builder.finalize()

    wall_time = time.perf_counter() - t0
    obs.observe("fastlsa.wall_time", wall_time)
    obs.counter_add("fastlsa.alignments", 1)
    stats = AlignmentStats(
        cells_computed=inst.ops.cells,
        peak_cells_resident=inst.mem.peak,
        base_case_cells=result.base_case_cells,
        recursion_depth=result.max_depth,
        subproblems=result.subproblems,
        wall_time=wall_time,
        kernel=tier,
    )
    return alignment_from_path(a, b, path, result.score, algorithm="fastlsa", stats=stats)
