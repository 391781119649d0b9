"""Vectorised affine-gap (Gotoh) DP sweeps.

Recurrences (gap of length L costs ``open + (L−1)·extend``):

    E[i, j] = max(H[i, j−1] + open,  E[i, j−1] + extend)   # gap run in A
    F[i, j] = max(H[i−1, j] + open,  F[i−1, j] + extend)   # gap run in B
    H[i, j] = max(H[i−1, j−1] + S(aᵢ, bⱼ),  E[i, j],  F[i, j])

``F`` vectorises directly across a row.  The serial ``E``/``H`` interleave
collapses, *given* ``open ≤ extend`` (opening at least as costly — enforced
by :class:`repro.scoring.gaps.GapModel`): re-opening a gap immediately
after closing one can never beat extending it, so

    E[i, j] = max_{0 ≤ l < j} ( V'[l] + open + (j−1−l)·extend )

with ``V'[l] = max(H[i−1, l−1] + S, F[i, l])`` for interior ``l`` and the
boundary terms ``H[i, 0] + open + (j−1)·extend`` / ``E[i, 0] + j·extend``.
Substituting out the ``extend·j`` slope turns this into the same
``np.maximum.accumulate`` prefix scan as the linear kernel.

Boundary-state conventions (used by FastLSA's affine grid cache):

* A **row cache** carries ``(H, F)`` — the vertical-gap state crossing the
  line downwards.  The ``F`` value at the row's first point (the corner) is
  never read and may be the sentinel.
* A **column cache** carries ``(H, E)`` — the horizontal-gap state crossing
  the line rightwards.  Its first point's ``E`` likewise may be sentinel.
* ``NEG_INF`` (``-2**62``) marks impossible states; it survives a few
  additions without wrapping.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .linear import _auto_profile
from .ops import OpCounter

__all__ = [
    "NEG_INF",
    "affine_boundaries",
    "sweep_last_row_col_affine",
    "sweep_band_affine",
    "sweep_matrix_affine",
    "best_cell_local_affine",
]

#: Sentinel for impossible DP states; headroom for repeated penalty adds.
NEG_INF = -(2**62)


def affine_boundaries(
    m: int, n: int, open_: int, extend: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boundary vectors of a fresh global affine problem.

    Returns ``(row_H, row_F, col_H, col_E)``:

    * ``row_H[j] = open + (j−1)·extend`` for ``j ≥ 1`` (a single leading
      gap run), ``row_H[0] = 0``;
    * ``row_F ≡ NEG_INF`` — no path may end with a DOWN move on row 0;
    * symmetric definitions for the column.
    """
    row_h = np.empty(n + 1, dtype=np.int64)
    row_h[0] = 0
    if n > 0:
        j = np.arange(1, n + 1, dtype=np.int64)
        row_h[1:] = open_ + (j - 1) * extend
    col_h = np.empty(m + 1, dtype=np.int64)
    col_h[0] = 0
    if m > 0:
        i = np.arange(1, m + 1, dtype=np.int64)
        col_h[1:] = open_ + (i - 1) * extend
    row_f = np.full(n + 1, NEG_INF, dtype=np.int64)
    col_e = np.full(m + 1, NEG_INF, dtype=np.int64)
    return row_h, row_f, col_h, col_e


def _check_shapes(M, N, row_h, row_f, col_h, col_e):
    if row_h.shape != (N + 1,) or row_f.shape != (N + 1,):
        raise ValueError(f"row caches must have length {N + 1}")
    if col_h.shape != (M + 1,) or col_e.shape != (M + 1,):
        raise ValueError(f"column caches must have length {M + 1}")


def sweep_last_row_col_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    first_row_h: np.ndarray,
    first_row_f: np.ndarray,
    first_col_h: np.ndarray,
    first_col_e: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Affine analogue of :func:`repro.kernels.linear.sweep_last_row_col`.

    Returns ``(last_row_h, last_row_f, last_col_h, last_col_e)`` — the
    ``(H, F)`` row cache along local row ``M`` and the ``(H, E)`` column
    cache along local column ``N``.  Corner entries of the gap-state
    vectors (``last_row_f[0]``, ``last_col_e[0]``) are sentinels; they are
    never read by downstream sweeps.

    Space: a constant number of rows of width ``N + 1``.
    """
    M = len(a_codes)
    N = len(b_codes)
    open_ = int(open_)
    extend = int(extend)
    first_row_h = np.asarray(first_row_h, dtype=np.int64)
    first_row_f = np.asarray(first_row_f, dtype=np.int64)
    first_col_h = np.asarray(first_col_h, dtype=np.int64)
    first_col_e = np.asarray(first_col_e, dtype=np.int64)
    _check_shapes(M, N, first_row_h, first_row_f, first_col_h, first_col_e)

    if counter is not None:
        counter.add_cells(M * N)

    if N == 0:
        last_row_h = first_col_h[-1:].copy()
        last_row_f = np.full(1, NEG_INF, dtype=np.int64)
        return last_row_h, last_row_f, first_col_h.copy(), first_col_e.copy()
    if M == 0:
        return (
            first_row_h.copy(),
            first_row_f.copy(),
            first_row_h[-1:].copy(),
            np.full(1, NEG_INF, dtype=np.int64),
        )

    last_col_h = np.empty(M + 1, dtype=np.int64)
    last_col_e = np.empty(M + 1, dtype=np.int64)
    last_col_h[0] = first_row_h[N]
    last_col_e[0] = NEG_INF  # corner E never read

    profile = _auto_profile(profile, table, b_codes, M)
    prev_h = first_row_h.copy()
    prev_f = first_row_f.copy()
    cur_h = np.empty(N + 1, dtype=np.int64)
    cur_f = np.empty(N + 1, dtype=np.int64)
    t = np.empty(N, dtype=np.int64)
    v = np.empty(N, dtype=np.int64)
    e = np.empty(N, dtype=np.int64)
    w = np.empty(N + 1, dtype=np.int64)
    ej = np.arange(N + 1, dtype=np.int64) * extend  # extend·j slopes
    ej1 = ej[1:]
    # Pre-shifted slopes fold the (open−extend) bias into the subtraction.
    ejs = ej[1:N] - (open_ - extend)

    for i in range(1, M + 1):
        a = a_codes[i - 1]
        s = profile[a] if profile is not None else table[a][b_codes]
        # Fused E/F/H row pass: every step writes a preallocated buffer.
        # Vertical-gap layer: fully parallel across the row.
        np.add(prev_h, open_, out=w)
        np.add(prev_f, extend, out=cur_f)
        np.maximum(w, cur_f, out=cur_f)
        cur_f[0] = NEG_INF  # no DOWN move can land on the boundary column
        # Best arrival without a horizontal gap ending here (j = 1..N).
        np.add(prev_h[:-1], s, out=v)
        np.maximum(v, cur_f[1:], out=v)
        # Horizontal-gap layer via prefix scan (see module doc).
        h0 = first_col_h[i]
        e0 = first_col_e[i]
        t[0] = max(h0 + open_ - extend, e0)
        if N > 1:
            np.subtract(v[:-1], ejs, out=t[1:])
        np.maximum.accumulate(t, out=t)
        np.add(t, ej1, out=e)  # E[i, j] for j = 1..N
        # Main layer.
        np.maximum(v, e, out=cur_h[1:])
        cur_h[0] = h0
        last_col_h[i] = cur_h[N]
        last_col_e[i] = e[N - 1]
        prev_h, cur_h = cur_h, prev_h
        prev_f, cur_f = cur_f, prev_f

    return prev_h.copy(), prev_f.copy(), last_col_h, last_col_e


def sweep_band_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    first_row_h: np.ndarray,
    first_row_f: np.ndarray,
    first_col_h: np.ndarray,
    first_col_e: np.ndarray,
    sample_cols: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Affine full-width band sweep with ``(H, E)`` column sampling.

    The affine analogue of :func:`repro.kernels.linear.sweep_band`:
    returns ``(last_row_h, last_row_f, samples_h, samples_e)`` where
    ``samples_h[t, i] = H[i, sample_cols[t]]`` and ``samples_e`` the
    horizontal-gap layer at the same positions (row-0 entries are
    sentinels — never read downstream).  ``sample_cols`` must be interior
    positions (``>= 1``) because column 0's ``E`` belongs to the input
    cache.
    """
    M = len(a_codes)
    N = len(b_codes)
    open_ = int(open_)
    extend = int(extend)
    first_row_h = np.asarray(first_row_h, dtype=np.int64)
    first_row_f = np.asarray(first_row_f, dtype=np.int64)
    first_col_h = np.asarray(first_col_h, dtype=np.int64)
    first_col_e = np.asarray(first_col_e, dtype=np.int64)
    sample_cols = np.asarray(sample_cols, dtype=np.int64)
    _check_shapes(M, N, first_row_h, first_row_f, first_col_h, first_col_e)
    if sample_cols.size and (sample_cols.min() < 1 or sample_cols.max() > N):
        raise ValueError("sample_cols must be interior positions in [1, N]")

    if counter is not None:
        counter.add_cells(M * N)

    n_s = len(sample_cols)
    samples_h = np.empty((n_s, M + 1), dtype=np.int64)
    samples_e = np.full((n_s, M + 1), NEG_INF, dtype=np.int64)
    if n_s:
        samples_h[:, 0] = first_row_h[sample_cols]

    if M == 0:
        return first_row_h.copy(), first_row_f.copy(), samples_h, samples_e
    if N == 0:
        return (
            first_col_h[-1:].copy(),
            np.full(1, NEG_INF, dtype=np.int64),
            samples_h,
            samples_e,
        )

    profile = _auto_profile(profile, table, b_codes, M)
    prev_h = first_row_h.copy()
    prev_f = first_row_f.copy()
    cur_h = np.empty(N + 1, dtype=np.int64)
    cur_f = np.empty(N + 1, dtype=np.int64)
    t = np.empty(N, dtype=np.int64)
    v = np.empty(N, dtype=np.int64)
    e = np.empty(N, dtype=np.int64)
    w = np.empty(N + 1, dtype=np.int64)
    ej = np.arange(N + 1, dtype=np.int64) * extend
    ej1 = ej[1:]
    ejs = ej[1:N] - (open_ - extend)
    for i in range(1, M + 1):
        a = a_codes[i - 1]
        s = profile[a] if profile is not None else table[a][b_codes]
        np.add(prev_h, open_, out=w)
        np.add(prev_f, extend, out=cur_f)
        np.maximum(w, cur_f, out=cur_f)
        cur_f[0] = NEG_INF
        np.add(prev_h[:-1], s, out=v)
        np.maximum(v, cur_f[1:], out=v)
        h0 = first_col_h[i]
        e0 = first_col_e[i]
        t[0] = max(h0 + open_ - extend, e0)
        if N > 1:
            np.subtract(v[:-1], ejs, out=t[1:])
        np.maximum.accumulate(t, out=t)
        np.add(t, ej1, out=e)
        np.maximum(v, e, out=cur_h[1:])
        cur_h[0] = h0
        if n_s:
            samples_h[:, i] = cur_h[sample_cols]
            samples_e[:, i] = e[sample_cols - 1]
        prev_h, cur_h = cur_h, prev_h
        prev_f, cur_f = cur_f, prev_f
    return prev_h.copy(), prev_f.copy(), samples_h, samples_e


def best_cell_local_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    counter: Optional[OpCounter] = None,
    *,
    clamp: bool = True,
) -> Tuple[int, int, int]:
    """Affine analogue of :func:`repro.kernels.linear.best_cell_local`.

    Clamped Gotoh sweep by default; ``clamp=False`` runs the unclamped
    global recurrence from the origin (the :func:`affine_boundaries`
    boundaries).  Same first-row-major-maximum tie-breaking.
    """
    open_, extend = int(open_), int(extend)
    M, N = len(a_codes), len(b_codes)
    if counter is not None:
        counter.add_cells(M * N)
    best, bi, bj = 0, 0, 0
    if M == 0 or N == 0:
        return best, bi, bj
    ej = np.arange(N + 1, dtype=np.int64) * extend
    if clamp:
        prev_h = np.zeros(N + 1, dtype=np.int64)
    else:
        prev_h = affine_boundaries(0, N, open_, extend)[0]
    prev_f = np.full(N + 1, NEG_INF, dtype=np.int64)
    t = np.empty(N, dtype=np.int64)
    for i in range(1, M + 1):
        s = table[a_codes[i - 1]][b_codes]
        cur_f = np.maximum(prev_h + open_, prev_f + extend)
        cur_f[0] = NEG_INF
        v = np.maximum(prev_h[:-1] + s, cur_f[1:])
        h0 = 0
        if clamp:
            np.maximum(v, 0, out=v)
        else:
            h0 = open_ + (i - 1) * extend
        t[0] = h0 + open_ - extend
        if N > 1:
            np.subtract(v[:-1] + (open_ - extend), ej[1:N], out=t[1:])
        np.maximum.accumulate(t, out=t)
        e = t + ej[1:]
        cur_h = np.empty(N + 1, dtype=np.int64)
        np.maximum(v, e, out=cur_h[1:])
        cur_h[0] = h0
        rm = int(np.argmax(cur_h))
        if cur_h[rm] > best:
            best, bi, bj = int(cur_h[rm]), i, rm
        prev_h, prev_f = cur_h, cur_f
    return best, bi, bj


def sweep_matrix_affine(
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    table: np.ndarray,
    open_: int,
    extend: int,
    first_row_h: np.ndarray,
    first_row_f: np.ndarray,
    first_col_h: np.ndarray,
    first_col_e: np.ndarray,
    counter: Optional[OpCounter] = None,
    *,
    profile: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-matrix affine sweep: returns dense ``(H, E, F)`` matrices.

    ``E[:, 0]`` is ``first_col_e``; ``F[0, :]`` is ``first_row_f``;
    unreachable layer states hold ``NEG_INF``.
    """
    M = len(a_codes)
    N = len(b_codes)
    open_ = int(open_)
    extend = int(extend)
    first_row_h = np.asarray(first_row_h, dtype=np.int64)
    first_row_f = np.asarray(first_row_f, dtype=np.int64)
    first_col_h = np.asarray(first_col_h, dtype=np.int64)
    first_col_e = np.asarray(first_col_e, dtype=np.int64)
    _check_shapes(M, N, first_row_h, first_row_f, first_col_h, first_col_e)

    if counter is not None:
        counter.add_cells(M * N)

    H = np.empty((M + 1, N + 1), dtype=np.int64)
    E = np.full((M + 1, N + 1), NEG_INF, dtype=np.int64)
    F = np.full((M + 1, N + 1), NEG_INF, dtype=np.int64)
    H[0, :] = first_row_h
    H[:, 0] = first_col_h
    F[0, :] = first_row_f
    E[:, 0] = first_col_e
    if M == 0 or N == 0:
        return H, E, F

    profile = _auto_profile(profile, table, b_codes, M)
    t = np.empty(N, dtype=np.int64)
    v = np.empty(N, dtype=np.int64)
    w = np.empty(N + 1, dtype=np.int64)
    ej = np.arange(N + 1, dtype=np.int64) * extend
    ej1 = ej[1:]
    ejs = ej[1:N] - (open_ - extend)
    for i in range(1, M + 1):
        a = a_codes[i - 1]
        s = profile[a] if profile is not None else table[a][b_codes]
        prev_h = H[i - 1]
        np.add(prev_h, open_, out=w)
        np.add(F[i - 1], extend, out=F[i])
        np.maximum(w, F[i], out=F[i])
        F[i, 0] = NEG_INF
        np.add(prev_h[:-1], s, out=v)
        np.maximum(v, F[i, 1:], out=v)
        h0 = first_col_h[i]
        e0 = first_col_e[i]
        t[0] = max(h0 + open_ - extend, e0)
        if N > 1:
            np.subtract(v[:-1], ejs, out=t[1:])
        np.maximum.accumulate(t, out=t)
        np.add(t, ej1, out=E[i, 1:])
        np.maximum(v, E[i, 1:], out=H[i, 1:])
        H[i, 0] = h0
    return H, E, F
