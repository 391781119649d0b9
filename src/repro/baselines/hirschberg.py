"""Hirschberg's linear-space global alignment (Myers–Miller variant).

The paper's linear-space baseline (Section 2.2): divide-and-conquer on the
row sequence.  One forward sweep over the top half and one backward sweep
over the (reversed) bottom half meet in the middle; the join column that
maximises the sum of the two half-scores splits the problem into two
sub-problems, solved recursively.  Only two rows of scores are ever stored
per sweep, so space is ``O(min(m, n))``, at the price of ≈ ``2·m·n``
computed cells ("the number of operations approximately doubles").

This implementation supports **linear** gap models — the setting of the
paper's experiments (gap −10).  Affine gaps require the Myers–Miller
boundary-flag machinery; for affine schemes use FastLSA (which supports
them via its grid caches) or the FM baseline.

The recursion terminates in a full-matrix base case once a sub-problem
fits ``base_cells`` DP cells (the paper notes the recursion "could be
terminated sooner by using a FM algorithm when the problem size is small
enough").
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from ..align.alignment import Alignment, AlignmentStats, alignment_from_path
from ..align.path import AlignmentPath, PathBuilder
from ..align.sequence import as_sequence
from ..errors import ConfigError
from ..kernels.fullmatrix import compute_full, trace_from
from ..kernels.linear import boundary_vectors, sweep_last_row_col
from ..kernels.ops import KernelInstruments
from ..scoring.scheme import ScoringScheme

__all__ = ["hirschberg", "DEFAULT_BASE_CELLS"]

#: Default full-matrix base-case size (cells); small enough to stay "linear
#: space" for any realistic problem, large enough to amortise per-call
#: overhead.
DEFAULT_BASE_CELLS = 4096

Point = Tuple[int, int]


def _solve_base(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    i_off: int,
    j_off: int,
    out: List[Point],
    inst: KernelInstruments,
) -> int:
    """Full-matrix solve of a base-case rectangle; emits its forward path
    points (excluding the rectangle's origin) into ``out``.  Returns the
    rectangle's corner score (relative to a zero origin)."""
    M, N = len(a_codes), len(b_codes)
    fr, fc = boundary_vectors(M, N, scheme.gap_open)
    mats = compute_full(a_codes, b_codes, scheme, fr, fc, counter=inst.ops)
    inst.mem.alloc(mats.cells)
    points, _ = trace_from(mats, a_codes, b_codes, scheme, M, N)
    score = mats.score
    inst.mem.free(mats.cells)
    emit_forward(points, M, N, i_off, j_off, out)
    return score


def emit_forward(
    points: np.ndarray, M: int, N: int, i_off: int, j_off: int, out: List[Point]
) -> None:
    """Complete a base rectangle's traceback ``points`` (from its corner
    ``(M, N)``) along the boundary to the local origin and emit the path
    forward into ``out``: offset by ``(i_off, j_off)``, excluding the
    origin, including the corner."""
    builder = PathBuilder((M, N))
    builder.extend(points)
    builder.extend_to_origin()
    fwd = builder.finalize().array[1:] + (i_off, j_off)
    out.extend(zip(fwd[:, 0].tolist(), fwd[:, 1].tolist()))


def _hirschberg_rec(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    i_off: int,
    j_off: int,
    out: List[Point],
    inst: KernelInstruments,
    base_cells: int,
    depth: int,
) -> int:
    """Emit the forward path points of this rectangle (excluding its
    origin, including its bottom-right corner) into ``out``.  Returns the
    rectangle's optimal score (relative to a zero origin) — the top-level
    value is the global score, so no separate FindScore sweep is needed
    and total work stays at the paper's ≈ 2·m·n figure."""
    M, N = len(a_codes), len(b_codes)
    inst_stats_depth[0] = max(inst_stats_depth[0], depth)
    if M == 0 and N == 0:
        return 0
    if M == 0:
        out.extend((i_off, j_off + j) for j in range(1, N + 1))
        return scheme.gap.cost(N)
    if N == 0:
        out.extend((i_off + i, j_off) for i in range(1, M + 1))
        return scheme.gap.cost(M)
    if (M + 1) * (N + 1) <= base_cells or M == 1:
        return _solve_base(a_codes, b_codes, scheme, i_off, j_off, out, inst)

    mid = M // 2
    table = scheme.matrix.table
    gap = scheme.gap_open
    fr, fc = boundary_vectors(mid, N, gap)
    inst.mem.alloc(4 * (N + 2))
    fwd, _ = sweep_last_row_col(a_codes[:mid], b_codes, table, gap, fr, fc, inst.ops)
    fr2, fc2 = boundary_vectors(M - mid, N, gap)
    bwd, _ = sweep_last_row_col(
        a_codes[mid:][::-1], b_codes[::-1], table, gap, fr2, fc2, inst.ops
    )
    join = fwd + bwd[::-1]
    j_star = int(np.argmax(join))
    score = int(join[j_star])
    inst.mem.free(4 * (N + 2))

    _hirschberg_rec(
        a_codes[:mid], b_codes[:j_star], scheme, i_off, j_off, out, inst, base_cells, depth + 1
    )
    _hirschberg_rec(
        a_codes[mid:], b_codes[j_star:], scheme, i_off + mid, j_off + j_star, out,
        inst, base_cells, depth + 1,
    )
    return score


# Recursion-depth side channel (single-threaded recursion, reset per call).
inst_stats_depth = [0]


def hirschberg(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    base_cells: int = DEFAULT_BASE_CELLS,
    instruments: Optional[KernelInstruments] = None,
) -> Alignment:
    """Globally align two sequences in linear space (Hirschberg).

    Parameters
    ----------
    seq_a, seq_b:
        Sequences or strings; ``seq_a`` indexes DPM rows.
    scheme:
        Scoring scheme; must use a **linear** gap model.
    base_cells:
        Sub-problems with at most this many DP cells are solved by the
        full-matrix algorithm instead of recursing further.
    instruments:
        Optional shared counters.

    Returns
    -------
    Alignment
        ``stats.cells_computed`` ≈ ``2·m·n`` (the paper's recomputation
        figure), ``stats.peak_cells_resident`` ``O(m + n)``.
    """
    if not scheme.is_linear:
        # Affine gaps need the Myers-Miller boundary-flag machinery; the
        # result object is equivalent (linear-space, ~2·m·n operations).
        from .myers_miller import myers_miller

        return myers_miller(
            seq_a, seq_b, scheme,
            base_cells=max(base_cells, 16),
            instruments=instruments,
        )
    if base_cells < 4:
        raise ConfigError(f"base_cells must be >= 4, got {base_cells}")
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    inst = instruments or KernelInstruments()
    t0 = time.perf_counter()

    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)
    m, n = len(a), len(b)

    inst_stats_depth[0] = 0
    points: List[Point] = [(0, 0)]
    # The top-level recursion's join value is the optimal score, so no
    # separate FindScore sweep is needed (keeping total work ≈ 2·m·n, the
    # paper's figure for Hirschberg).
    score = _hirschberg_rec(a_codes, b_codes, scheme, 0, 0, points, inst, base_cells, 1)
    path = AlignmentPath(points)

    stats = AlignmentStats(
        cells_computed=inst.ops.cells,
        peak_cells_resident=inst.mem.peak,
        recursion_depth=inst_stats_depth[0],
        subproblems=1,
        wall_time=time.perf_counter() - t0,
    )
    return alignment_from_path(a, b, path, score, algorithm="hirschberg", stats=stats)
