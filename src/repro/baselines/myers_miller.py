"""Myers–Miller: linear-space global alignment with affine gaps.

Hirschberg's divide-and-conquer assumes the optimal path crosses the
middle row in the main DP layer; with affine gaps it may cross *inside a
vertical gap run*, whose opening penalty must not be charged twice.
Myers & Miller (CABIOS 1988) extend the division step with a second join
candidate and thread *boundary gap flags* through the recursion:

* the forward half-sweep produces both ``CC[j]`` (best score ending at the
  middle row in the main layer) and ``DD[j]`` (ending mid-run, the Gotoh
  ``F`` layer); the backward sweep likewise ``RR``/``SS``;
* the join maximises ``max(CC[j] + RR[N−j], DD[j] + SS[N−j] − g)`` where
  ``g = open − extend`` is the run-opening surcharge (subtracted once
  because both halves charged it);
* a mid-run join peels the two rows adjacent to the split as explicit
  deletions and recurses with the neighbouring boundary flag set to
  *PAID*, meaning a gap run touching that boundary re-opens for free.

The flags fold into the DP boundary conditions: a PAID top flag makes the
boundary-column values ``extend·i`` instead of ``open + (i−1)·extend``.

Space is ``O(m + n)`` outside the full-matrix base case; total work is
≈ ``2·m·n`` cells, the same as linear-gap Hirschberg.  This module backs
:func:`repro.baselines.hirschberg.hirschberg` for affine schemes and is
the affine linear-space baseline FastLSA is compared against.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from ..align.alignment import Alignment, AlignmentStats, alignment_from_path
from ..align.path import AlignmentPath
from ..align.sequence import as_sequence
from ..align.validate import score_gapped
from ..errors import ConfigError
from ..kernels.affine import NEG_INF, sweep_last_row_col_affine
from ..kernels.fullmatrix import compute_full, trace_from
from ..kernels.ops import KernelInstruments
from ..scoring.scheme import ScoringScheme
from .hirschberg import emit_forward

__all__ = ["myers_miller", "DEFAULT_BASE_CELLS"]

#: Full-matrix base-case threshold, in dense cells per layer.
DEFAULT_BASE_CELLS = 4096

Point = Tuple[int, int]

# Boundary gap flags: OPEN = a run touching this boundary pays the full
# opening penalty; PAID = the open was charged on the other side of the
# boundary (the run continues across it).
_OPEN = 0
_PAID = 1

# Recursion-depth side channel (single-threaded, reset per driver call).
_depth_tracker = [0]


def _flag_value(flag: int, open_: int, extend: int) -> int:
    """Run-opening surcharge for a boundary flag (``g`` or 0)."""
    return 0 if flag == _PAID else open_ - extend


def _boundary_col(flag: int, M: int, open_: int, extend: int) -> np.ndarray:
    """Boundary-column ``H`` values under a gap flag.

    OPEN: the standard affine boundary ``open + (i−1)·extend``;
    PAID: the run continues from outside, so each row costs ``extend``.
    """
    col = np.empty(M + 1, dtype=np.int64)
    col[0] = 0
    if M > 0:
        i = np.arange(1, M + 1, dtype=np.int64)
        col[1:] = _flag_value(flag, open_, extend) + extend * i
    return col


def _boundary_row(N: int, open_: int, extend: int) -> np.ndarray:
    """Top-row ``H`` values (horizontal runs never cross a row split)."""
    row = np.empty(N + 1, dtype=np.int64)
    row[0] = 0
    if N > 0:
        j = np.arange(1, N + 1, dtype=np.int64)
        row[1:] = open_ + (j - 1) * extend
    return row


def _half_sweep(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    flag: int,
    inst: KernelInstruments,
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward half-sweep: returns ``(CC, DD)`` at the last row.

    ``DD[0]`` (the boundary-column run) is filled in explicitly — the
    kernel treats column 0 as a supplied boundary and reports a sentinel
    there, but the mid-run join needs the real value.
    """
    M, N = len(a_codes), len(b_codes)
    open_, extend = scheme.gap_open, scheme.gap_extend
    row_h = _boundary_row(N, open_, extend)
    row_f = np.full(N + 1, NEG_INF, dtype=np.int64)
    col_h = _boundary_col(flag, M, open_, extend)
    col_e = np.full(M + 1, NEG_INF, dtype=np.int64)
    inst.mem.alloc(6 * (N + 2))
    cc, dd, _, _ = sweep_last_row_col_affine(
        a_codes, b_codes, scheme.matrix.table, open_, extend,
        row_h, row_f, col_h, col_e, inst.ops,
    )
    inst.mem.free(6 * (N + 2))
    dd = dd.copy()
    # Ending mid-run at column 0 == being on the boundary column itself.
    dd[0] = _flag_value(flag, open_, extend) + extend * M if M > 0 else NEG_INF
    return cc, dd


def _solve_base(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    tb: int,
    te: int,
    i_off: int,
    j_off: int,
    out: List[Point],
    inst: KernelInstruments,
) -> None:
    """Dense Gotoh solve of a small rectangle under boundary flags.

    ``tb`` adjusts the left-column boundary (an incoming run); ``te`` is
    honoured by starting the traceback in the ``F`` layer when the
    outgoing-run state scores better.
    """
    from ..align.path import Layer

    M, N = len(a_codes), len(b_codes)
    open_, extend = scheme.gap_open, scheme.gap_extend
    row_h = _boundary_row(N, open_, extend)
    row_f = np.full(N + 1, NEG_INF, dtype=np.int64)
    col_h = _boundary_col(tb, M, open_, extend)
    col_e = np.full(M + 1, NEG_INF, dtype=np.int64)
    mats = compute_full(
        a_codes, b_codes, scheme, row_h, col_h,
        first_row_f=row_f, first_col_e=col_e, counter=inst.ops,
    )
    inst.mem.alloc(mats.cells)
    # With te == PAID a bottom-adjacent run re-opens for free: compare the
    # plain corner value against the F-layer value with the open refunded.
    start_layer = Layer.H
    if te == _PAID and M > 0 and N >= 0:
        f_corner = int(mats.F[M, N]) if N > 0 else NEG_INF
        if N == 0:
            f_corner = int(col_h[M])  # boundary column is the run
        if f_corner != NEG_INF and f_corner - (open_ - extend) >= int(mats.H[M, N]):
            start_layer = Layer.F
    points, _ = trace_from(mats, a_codes, b_codes, scheme, M, N, start_layer)
    inst.mem.free(mats.cells)
    emit_forward(points, M, N, i_off, j_off, out)


def _emit_row_case(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    tb: int,
    te: int,
    i_off: int,
    j_off: int,
    out: List[Point],
) -> None:
    """Direct solve of the single-row case (Myers–Miller's M == 1)."""
    N = len(b_codes)
    open_, extend = scheme.gap_open, scheme.gap_extend
    table = scheme.matrix.table
    g = open_ - extend

    def run_cost(length: int) -> int:
        return g + extend * length if length > 0 else 0

    # Option A: delete a[0] (attach to the cheaper boundary) + insert B.
    best_flag = max(_flag_value(tb, open_, extend), _flag_value(te, open_, extend))
    delete_score = best_flag + extend + run_cost(N)
    # Option B: align a[0] to b[j-1] with insert runs around it.
    best_j, best_align = 0, None
    for j in range(1, N + 1):
        s = run_cost(j - 1) + int(table[a_codes[0], b_codes[j - 1]]) + run_cost(N - j)
        if best_align is None or s > best_align:
            best_align, best_j = s, j
    if best_align is not None and best_align >= delete_score:
        for j in range(1, best_j):
            out.append((i_off, j_off + j))
        out.append((i_off + 1, j_off + best_j))
        for j in range(best_j + 1, N + 1):
            out.append((i_off + 1, j_off + j))
        return
    # Delete path: attach the deletion to whichever boundary pays less.
    te_better = _flag_value(te, open_, extend) >= _flag_value(tb, open_, extend)
    if te_better:
        for j in range(1, N + 1):
            out.append((i_off, j_off + j))
        out.append((i_off + 1, j_off + N))
    else:
        out.append((i_off + 1, j_off))
        for j in range(1, N + 1):
            out.append((i_off + 1, j_off + j))


def _mm_rec(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    tb: int,
    te: int,
    i_off: int,
    j_off: int,
    out: List[Point],
    inst: KernelInstruments,
    base_cells: int,
    depth: int,
) -> None:
    """Emit the rectangle's forward path points (origin excluded)."""
    M, N = len(a_codes), len(b_codes)
    _depth_tracker[0] = max(_depth_tracker[0], depth)
    if M == 0 and N == 0:
        return
    if M == 0:
        out.extend((i_off, j_off + j) for j in range(1, N + 1))
        return
    if N == 0:
        out.extend((i_off + i, j_off) for i in range(1, M + 1))
        return
    if M == 1:
        _emit_row_case(a_codes, b_codes, scheme, tb, te, i_off, j_off, out)
        return
    if (M + 1) * (N + 1) * 3 <= base_cells:
        _solve_base(a_codes, b_codes, scheme, tb, te, i_off, j_off, out, inst)
        return

    mid = M // 2
    g = scheme.gap_open - scheme.gap_extend
    cc, dd = _half_sweep(a_codes[:mid], b_codes, scheme, tb, inst)
    rr, ss = _half_sweep(a_codes[mid:][::-1], b_codes[::-1], scheme, te, inst)
    type1 = cc + rr[::-1]
    type2 = dd + ss[::-1] - g
    j1 = int(np.argmax(type1))
    j2 = int(np.argmax(type2))
    if type1[j1] >= type2[j2]:
        j_star = j1
        _mm_rec(a_codes[:mid], b_codes[:j_star], scheme, tb, _OPEN,
                i_off, j_off, out, inst, base_cells, depth + 1)
        _mm_rec(a_codes[mid:], b_codes[j_star:], scheme, _OPEN, te,
                i_off + mid, j_off + j_star, out, inst, base_cells, depth + 1)
    else:
        # Mid-run join: the two rows around the split are deletions at
        # column j*, and the run re-opens for free on both sides.
        j_star = j2
        _mm_rec(a_codes[: mid - 1], b_codes[:j_star], scheme, tb, _PAID,
                i_off, j_off, out, inst, base_cells, depth + 1)
        out.append((i_off + mid, j_off + j_star))
        out.append((i_off + mid + 1, j_off + j_star))
        _mm_rec(a_codes[mid + 1 :], b_codes[j_star:], scheme, _PAID, te,
                i_off + mid + 1, j_off + j_star, out, inst, base_cells, depth + 1)


def myers_miller(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    base_cells: int = DEFAULT_BASE_CELLS,
    instruments: KernelInstruments | None = None,
) -> Alignment:
    """Globally align two sequences in linear space with affine gaps.

    The affine-gap counterpart of :func:`repro.baselines.hirschberg`;
    also accepts linear schemes (where it reduces to plain Hirschberg
    with a redundant second join candidate).

    Returns an :class:`Alignment` whose score is recomputed independently
    from the produced gapped strings.
    """
    if base_cells < 16:
        raise ConfigError(f"base_cells must be >= 16, got {base_cells}")
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    inst = instruments or KernelInstruments()
    t0 = time.perf_counter()
    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)

    _depth_tracker[0] = 0
    points: List[Point] = [(0, 0)]
    _mm_rec(
        a_codes, b_codes, scheme, _OPEN, _OPEN, 0, 0, points, inst, base_cells, 1
    )
    path = AlignmentPath(points)
    alignment = alignment_from_path(a, b, path, 0, algorithm="myers-miller")
    score = score_gapped(alignment.gapped_a, alignment.gapped_b, scheme)
    alignment.score = score
    alignment.stats = AlignmentStats(
        cells_computed=inst.ops.cells,
        peak_cells_resident=inst.mem.peak,
        recursion_depth=_depth_tracker[0],
        subproblems=1,
        wall_time=time.perf_counter() - t0,
    )
    return alignment
