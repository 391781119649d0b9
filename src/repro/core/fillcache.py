"""FillCache: compute a problem's grid lines (sequential).

Walks the blocks of a :class:`~repro.core.grid.Grid` in row-major order —
which respects the up/left data dependencies — computing each block with a
linear-space last-row/last-column sweep and storing the outputs into the
interior grid lines.  The bottom-right block is skipped: its entries belong
to the first recursive sub-problem (legible in the paper's Figure 13
discussion: "the tiles belonging to the bottom-right FastLSA subproblem
are not computed for a Fill Cache subproblem").

The parallel implementation (:mod:`repro.parallel.pfastlsa`) replaces this
module's walk with a tiled wavefront but produces byte-identical grid
lines.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..kernels import registry
from ..kernels.ops import OpCounter
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from .cancel import checkpoint
from .grid import Grid
from .problem import ColCache, RowCache

__all__ = ["compute_block", "fill_grid", "fill_grid_blocks"]


def compute_block(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    top: RowCache,
    left: ColCache,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
    provider=None,
) -> Tuple[RowCache, ColCache]:
    """Linear-space sweep of one block: boundary caches in, edge caches out.

    ``a_codes`` / ``b_codes`` are the encoded sub-sequences covered by the
    block (lengths ``M`` and ``N``); ``top`` / ``left`` are its boundary
    caches.  ``profile`` optionally carries the block's slice of a
    precomputed :func:`~repro.kernels.linear.score_profile` so tiled
    callers gather the substitution rows once per region, not per tile.
    ``provider`` pins the kernel provider; by default it is the ambient
    :func:`~repro.kernels.registry.active` one, which pool threads do not
    inherit, so threaded callers resolve it on the submitting thread.
    Returns the block's bottom :class:`RowCache` and right
    :class:`ColCache`.
    """
    table = scheme.matrix.table
    if provider is None:
        provider = registry.active("linear" if scheme.is_linear else "affine")
    if scheme.is_linear:
        last_row, last_col = provider.sweep_last_row_col(
            a_codes, b_codes, table, scheme.gap_open, top.h, left.h, counter,
            profile=profile,
        )
        return RowCache(h=last_row), ColCache(h=last_col)
    lr_h, lr_f, lc_h, lc_e = provider.sweep_last_row_col(
        a_codes,
        b_codes,
        table,
        scheme.gap_open,
        scheme.gap_extend,
        top.h,
        top.f,
        left.h,
        left.e,
        counter,
        profile=profile,
    )
    return RowCache(h=lr_h, f=lr_f), ColCache(h=lc_h, e=lc_e)


def fill_grid_blocks(
    grid: Grid,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    counter: Optional[OpCounter] = None,
    skip_bottom_right: bool = True,
) -> None:
    """Block-by-block FillCache (the literal Figure-3(c) walk).

    Produces grid lines identical to :func:`fill_grid` but sweeps each of
    the ``k² − 1`` blocks separately.  Kept as (a) the reference the band
    implementation is tested against and (b) the subject of ablation
    benchmark A1 — per-block sweeps pay the numpy per-row call overhead
    ``k×`` more often, which is why the band formulation exists.
    """
    P = grid.n_block_rows
    Q = grid.n_block_cols
    last_p, last_q = P - 1, Q - 1
    interior_rows = len(grid.row_bounds) - 1
    interior_cols = len(grid.col_bounds) - 1
    for p in range(P):
        for q in range(Q):
            if skip_bottom_right and p == last_p and q == last_q:
                continue
            checkpoint()  # deadline boundary: one block ≈ one tile
            a0, b0, a1, b1 = grid.block_extent(p, q)
            top = grid.row_line(p, b0, b1)
            left = grid.col_line(q, a0, a1)
            bottom, right = compute_block(
                a_codes[a0:a1], b_codes[b0:b1], scheme, top, left, counter
            )
            if p + 1 < interior_rows:
                grid.store_row_segment(p + 1, b0, bottom.h, bottom.f)
            if q + 1 < interior_cols:
                grid.store_col_segment(q + 1, a0, right.h, right.e)


def fill_grid(
    grid: Grid,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    counter: Optional[OpCounter] = None,
    skip_bottom_right: bool = True,
) -> None:
    """Fill a grid's interior lines by sweeping full-width row *bands*.

    Logically identical to a block-by-block walk, but each block-row band
    is swept in one pass across the whole problem width, sampling the
    grid-column values at the interior split positions on the fly.  This
    keeps every numpy row operation full-width — a ``k×`` reduction in
    per-row call overhead over per-block sweeps — while producing exactly
    the same grid lines.  (The parallel driver keeps the tile-by-tile walk
    of :func:`compute_block`, which is what the wavefront needs.)

    The bottom-right block is skipped: the last band stops at the final
    interior column split.  ``a_codes`` / ``b_codes`` are the encodings of
    the **full** sequences; bands slice them by global coordinates.
    """
    P = grid.n_block_rows
    problem = grid.problem
    j0 = problem.j0
    row_bounds = grid.row_bounds
    col_bounds = grid.col_bounds
    interior_rows = len(row_bounds) - 1
    col_splits = col_bounds[1:-1]
    table = scheme.matrix.table
    if len(row_bounds) < 2:
        return  # degenerate: no rows to sweep
    for p in range(P):
        checkpoint()  # deadline boundary: one band ≈ one tile row
        a0, a1 = row_bounds[p], row_bounds[p + 1]
        last_band = p == P - 1
        if skip_bottom_right and last_band:
            jend = col_bounds[-2] if len(col_bounds) >= 2 else j0
        else:
            jend = problem.j1
        if jend <= j0 and not col_splits:
            continue  # nothing to compute in this band
        with obs.span("fastlsa.fill_band", category="fill", band=p) as sp:
            if sp is not None:
                sp.set(cells=(a1 - a0) * (jend - j0))
            top = grid.row_line(p, j0, jend)
            left = grid.col_line(0, a0, a1)
            sample = np.asarray(
                [c - j0 for c in col_splits if c <= jend], dtype=np.int64
            )
            sub_a = a_codes[a0:a1]
            sub_b = b_codes[j0:jend]
            if scheme.is_linear:
                last_row, samples = registry.active("linear").sweep_band(
                    sub_a, sub_b, table, scheme.gap_open, top.h, left.h, sample, counter
                )
                for t, c in enumerate(col_splits[: len(sample)]):
                    grid.store_col_segment(t + 1, a0, samples[t], None)
                if p + 1 < interior_rows:
                    grid.store_row_segment(p + 1, j0, last_row, None)
            else:
                lr_h, lr_f, samp_h, samp_e = registry.active("affine").sweep_band(
                    sub_a,
                    sub_b,
                    table,
                    scheme.gap_open,
                    scheme.gap_extend,
                    top.h,
                    top.f,
                    left.h,
                    left.e,
                    sample,
                    counter,
                )
                for t, c in enumerate(col_splits[: len(sample)]):
                    grid.store_col_segment(t + 1, a0, samp_h[t], samp_e[t])
                if p + 1 < interior_rows:
                    grid.store_row_segment(p + 1, j0, lr_h, lr_f)
