"""Vectorised linear-gap DP sweeps.

The Needleman–Wunsch recurrence with a linear gap penalty ``g`` is

    H[i, j] = max(H[i−1, j−1] + S(aᵢ, bⱼ),  H[i−1, j] + g,  H[i, j−1] + g).

The first two terms vectorise trivially across a row, but the third is a
serial in-row dependency.  Because the gap is linear, the horizontal chain
collapses: any path reaching ``(i, j)`` ends with zero or more RIGHT moves
after arriving at some ``(i, l)``, ``l ≤ j``, via a DIAG/DOWN move (or the
row's left boundary), so

    H[i, j] = max_{0 ≤ l ≤ j} ( V[l] + g·(j − l) ),
    V[l] = max(H[i−1, l−1] + S, H[i−1, l] + g)   (V[0] = left boundary).

Substituting ``t[l] = V[l] − g·l`` turns this into a prefix maximum,
computed with ``np.maximum.accumulate`` — one :math:`O(n)` numpy pass per
row instead of an :math:`O(n)` Python loop.  This is the trick that makes a
pure-Python reproduction of the paper feasible (cf. the repro-band note:
"pure-Python DP too slow; needs numpy tricks").

All functions operate on a *sub-problem* of the logical DPM: the caller
supplies the boundary row and column values, which is exactly the interface
FastLSA's grid cache needs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .ops import OpCounter

__all__ = [
    "sweep_last_row_col",
    "sweep_matrix",
    "sweep_band",
    "best_cell_local",
    "boundary_vectors",
    "score_profile",
]


def score_profile(table: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Per-symbol similarity rows for a column segment, gathered once.

    ``profile[a, j] = table[a, b_codes[j]]`` with shape ``(A, N)``: row
    ``a`` is the similarity profile a sweep needs for any row whose symbol
    encodes to ``a``.  Materialising it hoists the per-row fancy-index
    gather (``table[a_i][b_codes]`` — one full indexed pass per row) out
    of the sweep's inner loop: after this, fetching a row's profile is a
    contiguous O(1) view.  Shared by the sequential kernels and both
    wavefront backends, which slice one full-width profile per region
    instead of re-gathering per tile.
    """
    return np.ascontiguousarray(table[:, b_codes])


def _auto_profile(profile, table, b_codes, rows):
    """Build the score profile unless the sweep is too short to pay it off."""
    if profile is not None:
        return profile
    if rows >= table.shape[0] // 2:
        return score_profile(table, b_codes)
    return None


def boundary_vectors(m: int, n: int, gap: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-0 / column-0 boundary values of a fresh global problem.

    ``row[j] = g·j`` and ``col[i] = g·i`` — the leading-gap scores of
    Figure 1's first row and column.
    """
    row = np.arange(n + 1, dtype=np.int64) * int(gap)
    col = np.arange(m + 1, dtype=np.int64) * int(gap)
    return row, col


def sweep_last_row_col(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hirschberg-style sweep: compute only the last row and last column.

    Parameters
    ----------
    a_codes:
        Encoded row-sequence segment, length ``M`` (local rows ``1..M``).
    b_codes:
        Encoded column-sequence segment, length ``N``.
    table:
        ``(A, A)`` int64 substitution table.
    gap:
        Linear gap penalty (negative).
    first_row:
        ``H`` values along local row 0, length ``N + 1``.
    first_col:
        ``H`` values along local column 0, length ``M + 1``; must satisfy
        ``first_col[0] == first_row[0]``.
    counter:
        Optional cell counter; incremented by ``M·N``.
    profile:
        Optional precomputed :func:`score_profile` of ``(table, b_codes)``
        (possibly a column slice of a wider one); built on the fly when
        omitted and the sweep is tall enough to amortise it.

    Returns
    -------
    (last_row, last_col):
        ``H`` along local row ``M`` (length ``N + 1``) and local column
        ``N`` (length ``M + 1``).  ``last_row[0] == first_col[M]`` and
        ``last_col[0] == first_row[N]``.

    Space: two rows of width ``N + 1`` — linear, independent of ``M``.
    """
    M = len(a_codes)
    N = len(b_codes)
    gap = int(gap)
    first_row = np.asarray(first_row, dtype=np.int64)
    first_col = np.asarray(first_col, dtype=np.int64)
    if first_row.shape != (N + 1,):
        raise ValueError(f"first_row must have length {N + 1}, got {first_row.shape}")
    if first_col.shape != (M + 1,):
        raise ValueError(f"first_col must have length {M + 1}, got {first_col.shape}")

    if counter is not None:
        counter.add_cells(M * N)

    if N == 0:
        return first_col[-1:].copy(), first_col.copy()
    if M == 0:
        return first_row.copy(), first_row[-1:].copy()

    last_col = np.empty(M + 1, dtype=np.int64)
    last_col[0] = first_row[N]

    profile = _auto_profile(profile, table, b_codes, M)
    prev = first_row.copy()
    cur = np.empty(N + 1, dtype=np.int64)
    t = np.empty(N + 1, dtype=np.int64)
    v = np.empty(N, dtype=np.int64)
    w = np.empty(N, dtype=np.int64)
    # g·j offsets, reused every row.
    gj = np.arange(N + 1, dtype=np.int64) * gap
    gj1 = gj[1:]

    for i in range(1, M + 1):
        # Similarity profile of row i: a contiguous view when hoisted.
        a = a_codes[i - 1]
        s = profile[a] if profile is not None else table[a][b_codes]
        # V[j] = best arrival at (i, j) via DIAG or DOWN, for j = 1..N —
        # fused into preallocated buffers (no per-row temporaries).
        np.add(prev[:-1], s, out=v)
        np.add(prev[1:], gap, out=w)
        np.maximum(v, w, out=v)
        # Collapse the horizontal chain with a prefix max (see module doc).
        t[0] = first_col[i]
        np.subtract(v, gj1, out=t[1:])
        np.maximum.accumulate(t, out=t)
        np.add(t, gj, out=cur)
        cur[0] = first_col[i]
        last_col[i] = cur[N]
        prev, cur = cur, prev

    return prev.copy(), last_col


def sweep_band(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    sample_cols: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-width band sweep with column sampling.

    Like :func:`sweep_last_row_col`, but additionally records the ``H``
    value of every row at the (relative) column positions ``sample_cols``
    — the FillCache access pattern: one pass over a whole block-row band
    captures all grid-column segments, keeping each numpy row operation
    full-width (crucial for throughput; narrow per-block sweeps pay the
    numpy call overhead ``k×`` over).

    Returns ``(last_row, samples)`` where ``samples[t, i] =
    H[i, sample_cols[t]]`` with shape ``(len(sample_cols), M + 1)``.
    """
    M = len(a_codes)
    N = len(b_codes)
    gap = int(gap)
    first_row = np.asarray(first_row, dtype=np.int64)
    first_col = np.asarray(first_col, dtype=np.int64)
    sample_cols = np.asarray(sample_cols, dtype=np.int64)
    if first_row.shape != (N + 1,):
        raise ValueError(f"first_row must have length {N + 1}, got {first_row.shape}")
    if first_col.shape != (M + 1,):
        raise ValueError(f"first_col must have length {M + 1}, got {first_col.shape}")
    if sample_cols.size and (sample_cols.min() < 0 or sample_cols.max() > N):
        raise ValueError("sample_cols out of range")

    if counter is not None:
        counter.add_cells(M * N)

    samples = np.empty((len(sample_cols), M + 1), dtype=np.int64)
    samples[:, 0] = first_row[sample_cols] if sample_cols.size else 0

    if M == 0:
        return first_row.copy(), samples
    if N == 0:
        if sample_cols.size:
            samples[:, :] = first_col[np.newaxis, :]
        return first_col[-1:].copy(), samples

    profile = _auto_profile(profile, table, b_codes, M)
    prev = first_row.copy()
    cur = np.empty(N + 1, dtype=np.int64)
    t = np.empty(N + 1, dtype=np.int64)
    v = np.empty(N, dtype=np.int64)
    w = np.empty(N, dtype=np.int64)
    gj = np.arange(N + 1, dtype=np.int64) * gap
    gj1 = gj[1:]
    for i in range(1, M + 1):
        a = a_codes[i - 1]
        s = profile[a] if profile is not None else table[a][b_codes]
        np.add(prev[:-1], s, out=v)
        np.add(prev[1:], gap, out=w)
        np.maximum(v, w, out=v)
        t[0] = first_col[i]
        np.subtract(v, gj1, out=t[1:])
        np.maximum.accumulate(t, out=t)
        np.add(t, gj, out=cur)
        cur[0] = first_col[i]
        if sample_cols.size:
            samples[:, i] = cur[sample_cols]
        prev, cur = cur, prev
    return prev.copy(), samples


def best_cell_local(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    counter: Optional[OpCounter] = None,
    *,
    clamp: bool = True,
) -> Tuple[int, int, int]:
    """Rolling sweep tracking the best cell; returns ``(score, i, j)``.

    With ``clamp`` (the default) this is the clamped Smith–Waterman sweep:
    the best local score and its end cell — the scoring tier behind
    :func:`repro.core.local.local_best_cell`.  ``clamp=False`` runs the
    unclamped global (Needleman–Wunsch) recurrence from the origin, whose
    maximum over all cells locates a local alignment's start when swept
    over the reversed prefixes.  Either way ``best`` starts at ``0`` at
    ``(0, 0)`` and the first row-major strict maximum wins (ties broken
    by smallest ``i``, then smallest ``j``).
    """
    gap = int(gap)
    M, N = len(a_codes), len(b_codes)
    if counter is not None:
        counter.add_cells(M * N)
    best, bi, bj = 0, 0, 0
    if M == 0 or N == 0:
        return best, bi, bj
    gj = np.arange(N + 1, dtype=np.int64) * gap
    prev = np.zeros(N + 1, dtype=np.int64) if clamp else gj.copy()
    t = np.empty(N + 1, dtype=np.int64)
    for i in range(1, M + 1):
        s = table[a_codes[i - 1]][b_codes]
        v = np.maximum(prev[:-1] + s, prev[1:] + gap)
        h0 = 0
        if clamp:
            np.maximum(v, 0, out=v)
        else:
            h0 = i * gap
        t[0] = h0
        np.subtract(v, gj[1:], out=t[1:])
        np.maximum.accumulate(t, out=t)
        cur = t + gj
        cur[0] = h0
        rm = int(np.argmax(cur))
        if cur[rm] > best:
            best, bi, bj = int(cur[rm]), i, rm
        prev = cur
    return best, bi, bj


def sweep_matrix(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    gap: int,
    first_row: np.ndarray,
    first_col: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Full-matrix sweep: compute and return all ``(M+1) × (N+1)`` H values.

    Same contract as :func:`sweep_last_row_col` but stores every row — the
    base-case (full matrix) algorithm of FastLSA and the FM baselines.
    """
    M = len(a_codes)
    N = len(b_codes)
    gap = int(gap)
    first_row = np.asarray(first_row, dtype=np.int64)
    first_col = np.asarray(first_col, dtype=np.int64)
    if first_row.shape != (N + 1,):
        raise ValueError(f"first_row must have length {N + 1}, got {first_row.shape}")
    if first_col.shape != (M + 1,):
        raise ValueError(f"first_col must have length {M + 1}, got {first_col.shape}")

    if counter is not None:
        counter.add_cells(M * N)

    H = np.empty((M + 1, N + 1), dtype=np.int64)
    H[0, :] = first_row
    H[:, 0] = first_col
    if N == 0 or M == 0:
        return H

    profile = _auto_profile(profile, table, b_codes, M)
    t = np.empty(N + 1, dtype=np.int64)
    v = np.empty(N, dtype=np.int64)
    w = np.empty(N, dtype=np.int64)
    gj = np.arange(N + 1, dtype=np.int64) * gap
    gj1 = gj[1:]
    for i in range(1, M + 1):
        a = a_codes[i - 1]
        s = profile[a] if profile is not None else table[a][b_codes]
        prev = H[i - 1]
        np.add(prev[:-1], s, out=v)
        np.add(prev[1:], gap, out=w)
        np.maximum(v, w, out=v)
        t[0] = first_col[i]
        np.subtract(v, gj1, out=t[1:])
        np.maximum.accumulate(t, out=t)
        row = H[i]
        np.add(t, gj, out=row)
        row[0] = first_col[i]
    return H
