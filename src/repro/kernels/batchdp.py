"""Lane-packed batch DP kernels: one query against many targets per sweep.

The service stack's dominant traffic shape is *many small-to-medium
alignments*: search tier-2 best-cell sweeps over hundreds of corpus
candidates, micro-batched ``batch_align`` groups, and the MSA pairwise
stage.  Run one pair at a time, every DP row pays the full numpy (or
Python) dispatch overhead; at short lengths that overhead dominates the
arithmetic.  These kernels amortise it by packing ``B`` targets into the
*lane* axis of ``(B, Np+1)`` row arrays and advancing all lanes per DP
step — each numpy row operation now covers ``B`` pairs, so the per-call
cost is divided by the lane count.

Packing
-------
Targets are right-padded to the longest lane with symbol code 0
(:func:`pack_lanes`).  Pad content is provably irrelevant: every DP
dependency flows left-to-right / top-down, so column ``j`` of a lane is a
function of columns ``<= j`` only — cells at ``j <= len`` never read a pad
cell.  Outputs are taken exclusively from valid cells: global scores are
gathered at ``H[M, len]`` per lane, and local best-cell maxima mask pad
columns out of the per-row argmax (a huge additive penalty on pads) so the
``(score, i, j)`` triple — including the first-row-major-maximum
tie-breaking — is bit-identical to the per-pair kernels.

Early exit
----------
The local kernels accept an optional ``floor``: after each row the kernel
computes an *admissible* per-lane cap on the final score,

    ``cap = max(best_so_far, rowmax + (M - i) * maxs)``

where ``rowmax`` is the row's best valid cell and ``maxs = max(0,
table.max())``.  Any local path ending below row ``i`` either crosses row
``i`` (value ``<= rowmax`` there, then at most ``maxs`` per remaining row)
or starts below it (at most ``maxs`` per row from 0 ``<= rowmax``), so the
true score never exceeds ``cap``.  A lane is retired only when *strictly*
``cap < floor`` — mirroring the search engine's strict bound pruning, so a
pruned lane provably cannot displace any top-K entry, ties included.
Retired lanes are compacted out of the pack once they are the majority, so
the remaining rows run at the surviving width.

All kernels share the per-bucket profile hoist: ``table[:, b_pack]`` is
gathered once per call (shape ``(A, B, Np)``), making each row's
similarity lookup a contiguous view instead of a fancy-index pass.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .affine import NEG_INF
from .ops import OpCounter

__all__ = [
    "SIMD_LANES",
    "BATCH_LANES",
    "lane_occupancy",
    "pack_lanes",
    "batch_best_cell_local",
    "batch_best_cell_local_affine",
    "batch_score_global",
    "batch_score_global_affine",
]

#: Additive penalty masking pad columns out of the per-row argmax.  Far
#: above any reachable score magnitude, far below int64 overflow even
#: after subtracting from NEG_INF-adjacent values.
_PAD_PENALTY = np.int64(1) << 50

#: Lanes per block of the compiled lane-inner best-local kernels (built
#: into them by :mod:`repro.kernels._ckernels_build`).  A pack of ``B``
#: targets sweeps ``SIMD_LANES * ceil(B / SIMD_LANES)`` lanes.
SIMD_LANES = 16

#: Targets per lane-packed pack on every batch scoring route (search
#: tier 2 and :func:`repro.core.batch.batch_align`): two 16-lane blocks.
#: Packs of two or more targets always take the lane kernels; measured
#: against per-pair dispatch on both tiers, this width won every case.
BATCH_LANES = 2 * SIMD_LANES


def lane_occupancy(B: int) -> float:
    """Filled lanes over SIMD lanes swept for a ``B``-target pack."""
    blocks = -(-int(B) // SIMD_LANES)
    return B / (SIMD_LANES * blocks) if blocks else 0.0


def pack_lanes(
    codes_list: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Right-pad encoded targets into a ``(B, Np)`` int16 lane pack.

    Returns ``(b_pack, b_lens)``.  Pads hold symbol code 0 — any valid
    code works, because no valid cell ever depends on a pad column (see
    module doc).  ``Np`` is the longest lane (0 when every lane is empty).
    """
    B = len(codes_list)
    lens = np.array([len(c) for c in codes_list], dtype=np.int64)
    Np = int(lens.max()) if B else 0
    pack = np.zeros((B, Np), dtype=np.int16)
    for lane, codes in enumerate(codes_list):
        n = len(codes)
        if n:
            pack[lane, :n] = codes
    return pack, lens


def _empty_result(B: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    z = np.zeros(B, dtype=np.int64)
    return z, z.copy(), z.copy(), np.zeros(B, dtype=bool)


def _check_pack(b_pack: np.ndarray, b_lens: np.ndarray) -> Tuple[int, int]:
    if b_pack.ndim != 2:
        raise ValueError(f"b_pack must be 2-D (B, Np), got shape {b_pack.shape}")
    B, Np = b_pack.shape
    if b_lens.shape != (B,):
        raise ValueError(f"b_lens must have shape ({B},), got {b_lens.shape}")
    if B and b_lens.size and (b_lens.min() < 0 or b_lens.max() > Np):
        raise ValueError("b_lens out of range for the pack width")
    return B, Np


def batch_best_cell_local(
    a_codes: np.ndarray,
    b_pack: np.ndarray,
    b_lens: np.ndarray,
    table: np.ndarray,
    gap: int,
    *,
    floor: Optional[int] = None,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clamped (Smith–Waterman) sweep over every lane at once.

    Returns ``(scores, bi, bj, pruned)`` — int64 arrays of shape ``(B,)``
    plus a bool prune mask.  For lanes with ``pruned[l] == False`` the
    triple ``(scores[l], bi[l], bj[l])`` is bit-identical to
    :func:`repro.kernels.linear.best_cell_local` on that pair (same
    first-row-major-maximum tie-breaking).  Lanes with ``pruned[l] ==
    True`` were retired by the admissible ``floor`` cap: their final score
    is *provably* ``< floor``; ``scores[l]`` holds the partial best.
    """
    gap = int(gap)
    b_lens = np.asarray(b_lens, dtype=np.int64)
    B, Np = _check_pack(b_pack, b_lens)
    M = len(a_codes)
    scores, bis, bjs, pruned = _empty_result(B)
    if B == 0 or M == 0 or Np == 0:
        return scores, bis, bjs, pruned

    cols = np.arange(Np + 1, dtype=np.int64)
    # 0 on valid columns (j <= len), _PAD_PENALTY on pads: subtracting it
    # before the argmax confines the row maximum to valid cells while
    # keeping first-occurrence (smallest-j) tie-breaking.
    penalty = np.where(cols[None, :] <= b_lens[:, None], 0, _PAD_PENALTY)
    bigprof = np.ascontiguousarray(table[:, b_pack])  # (A, B, Np)
    maxs = max(0, int(table.max()))
    gj = cols * gap
    gj1 = gj[1:]

    prev = np.zeros((B, Np + 1), dtype=np.int64)
    cur = np.empty_like(prev)
    t = np.empty_like(prev)
    v = np.empty((B, Np), dtype=np.int64)
    w = np.empty((B, Np), dtype=np.int64)
    masked = np.empty((B, Np + 1), dtype=np.int64)

    best = np.zeros(B, dtype=np.int64)
    bi = np.zeros(B, dtype=np.int64)
    bj = np.zeros(B, dtype=np.int64)
    alive = np.ones(B, dtype=bool)
    lanes = np.arange(B, dtype=np.int64)  # original lane ids of rows
    cells = 0

    for i in range(1, M + 1):
        n_rows = prev.shape[0]
        s = bigprof[a_codes[i - 1]]
        np.add(prev[:, :-1], s[:n_rows] if s.shape[0] != n_rows else s, out=v[:n_rows])
        np.add(prev[:, 1:], gap, out=w[:n_rows])
        np.maximum(v[:n_rows], w[:n_rows], out=v[:n_rows])
        np.maximum(v[:n_rows], 0, out=v[:n_rows])
        t[:n_rows, 0] = 0
        np.subtract(v[:n_rows], gj1, out=t[:n_rows, 1:])
        np.maximum.accumulate(t[:n_rows], axis=1, out=t[:n_rows])
        np.add(t[:n_rows], gj, out=cur[:n_rows])
        cur[:n_rows, 0] = 0

        np.subtract(cur[:n_rows], penalty, out=masked[:n_rows])
        rm = np.argmax(masked[:n_rows], axis=1)
        rowval = np.take_along_axis(masked[:n_rows], rm[:, None], axis=1)[:, 0]
        upd = (rowval > best) & alive
        best[upd] = rowval[upd]
        bi[upd] = i
        bj[upd] = rm[upd]
        prev, cur = cur, prev
        if counter is not None:
            cells += int(np.minimum(b_lens, Np)[alive].sum())

        if floor is not None and i < M:
            cap = rowval + (M - i) * maxs
            np.maximum(cap, best, out=cap)
            died = alive & (cap < floor)
            if died.any():
                alive &= ~died
                dead_ids = lanes[died]
                pruned[dead_ids] = True
                scores[dead_ids] = best[died]
                bis[dead_ids] = bi[died]
                bjs[dead_ids] = bj[died]
                n_alive = int(alive.sum())
                if n_alive == 0:
                    break
                # Compact once the dead are the majority: the remaining
                # rows then run at the surviving lane width.
                if n_alive <= n_rows // 2 and i + 2 < M:
                    keep = alive
                    prev = np.ascontiguousarray(prev[keep])
                    penalty = np.ascontiguousarray(penalty[keep])
                    bigprof = np.ascontiguousarray(bigprof[:, keep, :])
                    b_lens = b_lens[keep]
                    best = best[keep]
                    bi = bi[keep]
                    bj = bj[keep]
                    lanes = lanes[keep]
                    alive = np.ones(n_alive, dtype=bool)
                    cur = np.empty_like(prev)
                    t = np.empty_like(prev)
                    v = np.empty((n_alive, Np), dtype=np.int64)
                    w = np.empty((n_alive, Np), dtype=np.int64)
                    masked = np.empty_like(prev)

    if counter is not None:
        counter.add_cells(cells)
    live = lanes[alive]
    scores[live] = best[alive]
    bis[live] = bi[alive]
    bjs[live] = bj[alive]
    return scores, bis, bjs, pruned


def batch_best_cell_local_affine(
    a_codes: np.ndarray,
    b_pack: np.ndarray,
    b_lens: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    *,
    floor: Optional[int] = None,
    counter: Optional[OpCounter] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Affine (Gotoh) analogue of :func:`batch_best_cell_local`.

    Same contract; requires ``open_ <= extend`` (enforced upstream by
    :class:`repro.scoring.gaps.GapModel`), which is what lets the in-row
    ``E`` recurrence collapse into one prefix-max scan per row.
    """
    open_, extend = int(open_), int(extend)
    b_lens = np.asarray(b_lens, dtype=np.int64)
    B, Np = _check_pack(b_pack, b_lens)
    M = len(a_codes)
    scores, bis, bjs, pruned = _empty_result(B)
    if B == 0 or M == 0 or Np == 0:
        return scores, bis, bjs, pruned

    cols = np.arange(Np + 1, dtype=np.int64)
    penalty = np.where(cols[None, :] <= b_lens[:, None], 0, _PAD_PENALTY)
    bigprof = np.ascontiguousarray(table[:, b_pack])
    maxs = max(0, int(table.max()))
    ej = cols * extend
    oe = open_ - extend

    prev_h = np.zeros((B, Np + 1), dtype=np.int64)
    prev_f = np.full((B, Np + 1), NEG_INF, dtype=np.int64)
    cur_h = np.empty_like(prev_h)
    cur_f = np.empty_like(prev_h)
    w = np.empty_like(prev_h)
    t = np.empty((B, Np), dtype=np.int64)
    v = np.empty((B, Np), dtype=np.int64)
    e = np.empty((B, Np), dtype=np.int64)
    masked = np.empty_like(prev_h)

    best = np.zeros(B, dtype=np.int64)
    bi = np.zeros(B, dtype=np.int64)
    bj = np.zeros(B, dtype=np.int64)
    alive = np.ones(B, dtype=bool)
    lanes = np.arange(B, dtype=np.int64)
    cells = 0

    for i in range(1, M + 1):
        nr = prev_h.shape[0]
        s = bigprof[a_codes[i - 1]]
        np.add(prev_h, open_, out=w[:nr])
        np.add(prev_f, extend, out=cur_f[:nr])
        np.maximum(w[:nr], cur_f[:nr], out=cur_f[:nr])
        cur_f[:nr, 0] = NEG_INF
        np.add(prev_h[:, :-1], s, out=v[:nr])
        np.maximum(v[:nr], cur_f[:nr, 1:], out=v[:nr])
        np.maximum(v[:nr], 0, out=v[:nr])
        t[:nr, 0] = oe
        if Np > 1:
            np.subtract(v[:nr, :-1] + oe, ej[1:Np], out=t[:nr, 1:])
        np.maximum.accumulate(t[:nr], axis=1, out=t[:nr])
        np.add(t[:nr], ej[1:], out=e[:nr])
        np.maximum(v[:nr], e[:nr], out=cur_h[:nr, 1:])
        cur_h[:nr, 0] = 0

        np.subtract(cur_h[:nr], penalty, out=masked[:nr])
        rm = np.argmax(masked[:nr], axis=1)
        rowval = np.take_along_axis(masked[:nr], rm[:, None], axis=1)[:, 0]
        upd = (rowval > best) & alive
        best[upd] = rowval[upd]
        bi[upd] = i
        bj[upd] = rm[upd]
        prev_h, cur_h = cur_h, prev_h
        prev_f, cur_f = cur_f, prev_f
        if counter is not None:
            cells += int(np.minimum(b_lens, Np)[alive].sum())

        if floor is not None and i < M:
            cap = rowval + (M - i) * maxs
            np.maximum(cap, best, out=cap)
            died = alive & (cap < floor)
            if died.any():
                alive &= ~died
                dead_ids = lanes[died]
                pruned[dead_ids] = True
                scores[dead_ids] = best[died]
                bis[dead_ids] = bi[died]
                bjs[dead_ids] = bj[died]
                n_alive = int(alive.sum())
                if n_alive == 0:
                    break
                if n_alive <= nr // 2 and i + 2 < M:
                    keep = alive
                    prev_h = np.ascontiguousarray(prev_h[keep])
                    prev_f = np.ascontiguousarray(prev_f[keep])
                    penalty = np.ascontiguousarray(penalty[keep])
                    bigprof = np.ascontiguousarray(bigprof[:, keep, :])
                    b_lens = b_lens[keep]
                    best = best[keep]
                    bi = bi[keep]
                    bj = bj[keep]
                    lanes = lanes[keep]
                    alive = np.ones(n_alive, dtype=bool)
                    cur_h = np.empty_like(prev_h)
                    cur_f = np.empty_like(prev_h)
                    w = np.empty_like(prev_h)
                    t = np.empty((n_alive, Np), dtype=np.int64)
                    v = np.empty((n_alive, Np), dtype=np.int64)
                    e = np.empty((n_alive, Np), dtype=np.int64)
                    masked = np.empty_like(prev_h)

    if counter is not None:
        counter.add_cells(cells)
    live = lanes[alive]
    scores[live] = best[alive]
    bis[live] = bi[alive]
    bjs[live] = bj[alive]
    return scores, bis, bjs, pruned


def batch_score_global(
    a_codes: np.ndarray,
    b_pack: np.ndarray,
    b_lens: np.ndarray,
    table: np.ndarray,
    gap: int,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """Global (NW) alignment score of every lane: int64 shape ``(B,)``.

    Bit-identical to :func:`repro.core.score_only.align_score` per pair —
    the score is read at ``H[M, len]`` for each lane, which no pad column
    can influence.
    """
    gap = int(gap)
    b_lens = np.asarray(b_lens, dtype=np.int64)
    B, Np = _check_pack(b_pack, b_lens)
    M = len(a_codes)
    if B == 0:
        return np.zeros(0, dtype=np.int64)
    if counter is not None:
        counter.add_cells(int(M * b_lens.sum()))
    if M == 0:
        return b_lens * gap
    if Np == 0:
        return np.full(B, M * gap, dtype=np.int64)

    cols = np.arange(Np + 1, dtype=np.int64)
    bigprof = np.ascontiguousarray(table[:, b_pack])
    gj = cols * gap
    gj1 = gj[1:]
    prev = np.repeat(gj[None, :], B, axis=0)
    cur = np.empty_like(prev)
    t = np.empty_like(prev)
    v = np.empty((B, Np), dtype=np.int64)
    w = np.empty((B, Np), dtype=np.int64)
    for i in range(1, M + 1):
        s = bigprof[a_codes[i - 1]]
        np.add(prev[:, :-1], s, out=v)
        np.add(prev[:, 1:], gap, out=w)
        np.maximum(v, w, out=v)
        t[:, 0] = i * gap
        np.subtract(v, gj1, out=t[:, 1:])
        np.maximum.accumulate(t, axis=1, out=t)
        np.add(t, gj, out=cur)
        cur[:, 0] = i * gap
        prev, cur = cur, prev
    return prev[np.arange(B), b_lens].copy()


def batch_score_global_affine(
    a_codes: np.ndarray,
    b_pack: np.ndarray,
    b_lens: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    counter: Optional[OpCounter] = None,
) -> np.ndarray:
    """Affine (Gotoh) global score of every lane: int64 shape ``(B,)``."""
    open_, extend = int(open_), int(extend)
    b_lens = np.asarray(b_lens, dtype=np.int64)
    B, Np = _check_pack(b_pack, b_lens)
    M = len(a_codes)
    if B == 0:
        return np.zeros(0, dtype=np.int64)
    if counter is not None:
        counter.add_cells(int(M * b_lens.sum()))

    # Boundary H values of a fresh global affine problem (leading gap run).
    def lead(k: np.ndarray) -> np.ndarray:
        out = open_ + (k - 1) * extend
        return np.where(k > 0, out, 0)

    if M == 0:
        return lead(b_lens).astype(np.int64)
    if Np == 0:
        return np.full(B, open_ + (M - 1) * extend, dtype=np.int64)

    cols = np.arange(Np + 1, dtype=np.int64)
    bigprof = np.ascontiguousarray(table[:, b_pack])
    ej = cols * extend
    oe = open_ - extend
    prev_h = np.repeat(lead(cols)[None, :], B, axis=0).astype(np.int64)
    prev_f = np.full((B, Np + 1), NEG_INF, dtype=np.int64)
    cur_h = np.empty_like(prev_h)
    cur_f = np.empty_like(prev_h)
    w = np.empty_like(prev_h)
    t = np.empty((B, Np), dtype=np.int64)
    v = np.empty((B, Np), dtype=np.int64)
    e = np.empty((B, Np), dtype=np.int64)
    for i in range(1, M + 1):
        s = bigprof[a_codes[i - 1]]
        h0 = open_ + (i - 1) * extend  # column-0 leading gap (col_e is -inf)
        np.add(prev_h, open_, out=w)
        np.add(prev_f, extend, out=cur_f)
        np.maximum(w, cur_f, out=cur_f)
        cur_f[:, 0] = NEG_INF
        np.add(prev_h[:, :-1], s, out=v)
        np.maximum(v, cur_f[:, 1:], out=v)
        t[:, 0] = h0 + oe
        if Np > 1:
            np.subtract(v[:, :-1], ej[1:Np] - oe, out=t[:, 1:])
        np.maximum.accumulate(t, axis=1, out=t)
        np.add(t, ej[1:], out=e)
        np.maximum(v, e, out=cur_h[:, 1:])
        cur_h[:, 0] = h0
        prev_h, cur_h = cur_h, prev_h
        prev_f, cur_f = cur_f, prev_f
    return prev_h[np.arange(B), b_lens].copy()
