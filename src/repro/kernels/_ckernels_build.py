"""cffi builder for the compiled kernel tier (``repro.kernels._ckernels``).

Run ``python -m repro.kernels._ckernels_build`` (with ``src`` on
``PYTHONPATH``) to compile the extension in place next to this file.  The
registry auto-detects the built module at import and parity-checks it
against the numpy tier before exposing it; when the build is absent or
fails the parity gate, everything falls back to numpy silently.

Design notes on bit-identity (the compiled tier must be *exactly* the
numpy tier, not merely equivalent):

* The full-width sweeps use plain ``int64`` arithmetic with no sentinel
  guards — the numpy kernels' prefix-max formulation is an exact integer
  identity of the per-cell recurrence (for affine, given the
  ``open <= extend`` invariant :class:`repro.scoring.gaps.GapModel`
  enforces), so a straight per-cell C loop reproduces every output word.
* The banded fills mirror :mod:`repro.kernels.banddp`'s guard semantics:
  every impossible state is stored as exactly ``NEG_INF`` and candidates
  are screened with the same ``> NEG_INF/2`` test, making the band
  matrices bit-comparable across tiers.
* The FindPath tracebacks (``flsa_lin_trace`` / ``flsa_aff_trace``) walk
  the stored matrices testing the numpy walk's equalities in its order,
  with wrapping int64 adds, so they emit the same points, end layer and
  failing cell.
* The lane-inner best-local batch kernels run int32 cells only when the
  caller has proved every reachable value fits (see
  :func:`repro.kernels.compiled.batch_elem`); otherwise the int64
  instance of the same body runs, so the cell type never shows in the
  output words.
"""

from __future__ import annotations

import os
import string

from .batchdp import SIMD_LANES

CDEF = """
int flsa_lin_sweep(const int16_t *a, long M, const int16_t *b, long N,
                   const int64_t *table, long A, int64_t gap,
                   const int64_t *first_row, const int64_t *first_col,
                   int64_t *last_row, int64_t *last_col, int64_t *H,
                   const int64_t *sample_cols, long S, int64_t *samples);
int flsa_aff_sweep(const int16_t *a, long M, const int16_t *b, long N,
                   const int64_t *table, long A,
                   int64_t open_, int64_t extend,
                   const int64_t *first_row_h, const int64_t *first_row_f,
                   const int64_t *first_col_h, const int64_t *first_col_e,
                   int64_t *last_row_h, int64_t *last_row_f,
                   int64_t *last_col_h, int64_t *last_col_e,
                   int64_t *H, int64_t *E, int64_t *F,
                   const int64_t *sample_cols, long S,
                   int64_t *samples_h, int64_t *samples_e);
void flsa_lin_best_local(const int16_t *a, long M, const int16_t *b, long N,
                         const int64_t *table, long A, int64_t gap,
                         int clamp, int64_t *out3);
void flsa_aff_best_local(const int16_t *a, long M, const int16_t *b, long N,
                         const int64_t *table, long A,
                         int64_t open_, int64_t extend, int clamp,
                         int64_t *out3);
void flsa_lin_band_fill(const int16_t *a, long M, const int16_t *b, long N,
                        const int64_t *table, long A, int64_t gap,
                        long dmin, long W, int64_t *B);
void flsa_aff_band_fill(const int16_t *a, long M, const int16_t *b, long N,
                        const int64_t *table, long A,
                        int64_t open_, int64_t extend, long dmin, long W,
                        int64_t *BH, int64_t *BE, int64_t *BF);
long flsa_lin_trace(const int64_t *H, long N, const int16_t *a,
                    const int16_t *b, const int64_t *table, long A,
                    int64_t gap, long si, long sj, int64_t *pts,
                    int64_t *at);
long flsa_aff_trace(const int64_t *H, const int64_t *E, const int64_t *F,
                    long N, const int16_t *a, const int16_t *b,
                    const int64_t *table, long A,
                    int64_t open_, int64_t extend, long si, long sj,
                    long layer, int64_t *pts, int64_t *at);
int flsa_batch_best_local_i32(const int16_t *a, long M,
                              const int16_t *bp, long B, long Np,
                              const int64_t *lens,
                              const int64_t *table, long A, int affine,
                              int64_t open_, int64_t extend,
                              int has_floor, int64_t floor_, int64_t maxs,
                              int64_t *out_score, int64_t *out_bi,
                              int64_t *out_bj, int64_t *out_pruned);
int flsa_batch_best_local_i64(const int16_t *a, long M,
                              const int16_t *bp, long B, long Np,
                              const int64_t *lens,
                              const int64_t *table, long A, int affine,
                              int64_t open_, int64_t extend,
                              int has_floor, int64_t floor_, int64_t maxs,
                              int64_t *out_score, int64_t *out_bi,
                              int64_t *out_bj, int64_t *out_pruned);
int flsa_batch_isa(void);
int flsa_lin_batch_score_global(const int16_t *a, long M,
                                const int16_t *bp, long B, long Np,
                                const int64_t *lens,
                                const int64_t *table, long A, int64_t gap,
                                int64_t *out_score);
int flsa_aff_batch_score_global(const int16_t *a, long M,
                                const int16_t *bp, long B, long Np,
                                const int64_t *lens,
                                const int64_t *table, long A,
                                int64_t open_, int64_t extend,
                                int64_t *out_score);
"""

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NEG_INF (-(((int64_t)1) << 62))
#define HALF (NEG_INF / 2)

static inline int64_t max2(int64_t x, int64_t y) { return x > y ? x : y; }

/* Linear-gap sweep engine: optionally records the last row/column, the
 * dense H matrix, and per-row samples at the given columns.  Matches
 * repro.kernels.linear's prefix-max kernels word for word (exact integer
 * identity of the recurrence). */
int flsa_lin_sweep(const int16_t *a, long M, const int16_t *b, long N,
                   const int64_t *table, long A, int64_t gap,
                   const int64_t *first_row, const int64_t *first_col,
                   int64_t *last_row, int64_t *last_col, int64_t *H,
                   const int64_t *sample_cols, long S, int64_t *samples)
{
    int64_t *buf = NULL, *prev, *cur;
    long i, j, s;

    if (H != NULL) {
        memcpy(H, first_row, (size_t)(N + 1) * sizeof(int64_t));
        prev = H;
    } else {
        buf = (int64_t *)malloc((size_t)(2 * (N + 1)) * sizeof(int64_t));
        if (buf == NULL)
            return 1;
        memcpy(buf, first_row, (size_t)(N + 1) * sizeof(int64_t));
        prev = buf;
    }
    if (last_col != NULL)
        last_col[0] = first_row[N];
    for (s = 0; s < S; s++)
        samples[s * (M + 1)] = first_row[sample_cols[s]];

    for (i = 1; i <= M; i++) {
        const int64_t *trow = table + (long)a[i - 1] * A;
        cur = (H != NULL) ? H + i * (N + 1)
                          : (prev == buf ? buf + (N + 1) : buf);
        cur[0] = first_col[i];
        for (j = 1; j <= N; j++) {
            int64_t v = prev[j - 1] + trow[b[j - 1]];
            int64_t u = prev[j] + gap;
            int64_t l = cur[j - 1] + gap;
            if (u > v) v = u;
            if (l > v) v = l;
            cur[j] = v;
        }
        if (last_col != NULL)
            last_col[i] = cur[N];
        for (s = 0; s < S; s++)
            samples[s * (M + 1) + i] = cur[sample_cols[s]];
        prev = cur;
    }
    if (last_row != NULL)
        memcpy(last_row, prev, (size_t)(N + 1) * sizeof(int64_t));
    free(buf);
    return 0;
}

/* Affine (Gotoh) sweep engine.  E uses the direct recurrence
 * E[i,j] = max(H[i,j-1]+open, E[i,j-1]+extend), which equals the numpy
 * tier's collapsed prefix scan exactly given open <= extend (re-opening
 * immediately after closing never beats extending, so the extra
 * candidates the direct form considers are dominated). */
int flsa_aff_sweep(const int16_t *a, long M, const int16_t *b, long N,
                   const int64_t *table, long A,
                   int64_t open_, int64_t extend,
                   const int64_t *first_row_h, const int64_t *first_row_f,
                   const int64_t *first_col_h, const int64_t *first_col_e,
                   int64_t *last_row_h, int64_t *last_row_f,
                   int64_t *last_col_h, int64_t *last_col_e,
                   int64_t *H, int64_t *E, int64_t *F,
                   const int64_t *sample_cols, long S,
                   int64_t *samples_h, int64_t *samples_e)
{
    int64_t *buf = NULL, *prev_h, *prev_f, *cur_h, *cur_f, *cur_e;
    long i, j, s;
    int flip = 0;

    buf = (int64_t *)malloc((size_t)(5 * (N + 1)) * sizeof(int64_t));
    if (buf == NULL)
        return 1;
    prev_h = buf;
    prev_f = buf + (N + 1);
    cur_e = buf + 4 * (N + 1);
    memcpy(prev_h, first_row_h, (size_t)(N + 1) * sizeof(int64_t));
    memcpy(prev_f, first_row_f, (size_t)(N + 1) * sizeof(int64_t));
    if (H != NULL) {
        memcpy(H, first_row_h, (size_t)(N + 1) * sizeof(int64_t));
        memcpy(F, first_row_f, (size_t)(N + 1) * sizeof(int64_t));
        for (j = 0; j <= N; j++)
            E[j] = (j == 0) ? first_col_e[0] : NEG_INF;
    }
    if (last_col_h != NULL) {
        last_col_h[0] = first_row_h[N];
        last_col_e[0] = NEG_INF; /* corner E never read */
    }
    for (s = 0; s < S; s++)
        samples_h[s * (M + 1)] = first_row_h[sample_cols[s]];

    for (i = 1; i <= M; i++) {
        const int64_t *trow = table + (long)a[i - 1] * A;
        int64_t e_prev, h_left;
        if (H != NULL) {
            cur_h = H + i * (N + 1);
            cur_f = F + i * (N + 1);
        } else {
            cur_h = buf + (flip ? 0 : 2) * (N + 1);
            cur_f = buf + (flip ? 1 : 3) * (N + 1);
        }
        cur_h[0] = first_col_h[i];
        cur_f[0] = NEG_INF; /* no DOWN move can land on the boundary column */
        e_prev = first_col_e[i];
        h_left = first_col_h[i];
        if (E != NULL)
            E[i * (N + 1)] = first_col_e[i];
        for (j = 1; j <= N; j++) {
            int64_t f = max2(prev_h[j] + open_, prev_f[j] + extend);
            int64_t v = prev_h[j - 1] + trow[b[j - 1]];
            int64_t e = max2(h_left + open_, e_prev + extend);
            int64_t h;
            if (f > v) v = f;
            h = v > e ? v : e;
            cur_f[j] = f;
            cur_h[j] = h;
            cur_e[j] = e;
            if (E != NULL)
                E[i * (N + 1) + j] = e;
            e_prev = e;
            h_left = h;
        }
        if (last_col_h != NULL) {
            last_col_h[i] = cur_h[N];
            last_col_e[i] = e_prev;
        }
        for (s = 0; s < S; s++) {
            samples_h[s * (M + 1) + i] = cur_h[sample_cols[s]];
            samples_e[s * (M + 1) + i] = cur_e[sample_cols[s]];
        }
        prev_h = cur_h;
        prev_f = cur_f;
        flip = !flip; /* ping-pong the scratch pairs (rolling mode only) */
    }
    if (last_row_h != NULL) {
        memcpy(last_row_h, prev_h, (size_t)(N + 1) * sizeof(int64_t));
        memcpy(last_row_f, prev_f, (size_t)(N + 1) * sizeof(int64_t));
    }
    free(buf);
    return 0;
}

/* Wrapping int64 add: numpy's overflow semantics, so the tracebacks test
 * exactly the equalities repro.kernels.traceback tests. */
static inline int64_t wadd(int64_t x, int64_t y)
{
    return (int64_t)((uint64_t)x + (uint64_t)y);
}

/* FindPath over a stored linear-gap H (row stride N + 1); mirrors
 * repro.kernels.traceback.traceback_linear, DIAG > DOWN > LEFT.  Writes
 * the visited points (traceback order, start excluded) as (i, j) pairs
 * into pts, which holds si + sj pairs, and returns their count.  Returns
 * -1 when no predecessor reproduces a cell; at[0..1] is then that cell. */
long flsa_lin_trace(const int64_t *H, long N, const int16_t *a,
                    const int16_t *b, const int64_t *table, long A,
                    int64_t gap, long si, long sj, int64_t *pts,
                    int64_t *at)
{
    const long W = N + 1;
    long i = si, j = sj, n = 0;
    while (i > 0 && j > 0) {
        const long c = i * W + j;
        const int64_t h = H[c];
        if (h == wadd(H[c - W - 1], table[(long)a[i - 1] * A + b[j - 1]])) {
            i--;
            j--;
        } else if (h == wadd(H[c - W], gap)) {
            i--;
        } else if (h == wadd(H[c - 1], gap)) {
            j--;
        } else {
            at[0] = i;
            at[1] = j;
            return -1;
        }
        pts[2 * n] = i;
        pts[2 * n + 1] = j;
        n++;
    }
    return n;
}

/* Affine FindPath from (si, sj) in Gotoh layer `layer` (0 = H, 1 = E,
 * 2 = F, as repro.align.path.Layer); mirrors
 * repro.kernels.traceback.traceback_affine: in H the order is DIAG, then
 * a switch to E, then to F; a gap layer steps one cell and returns to H
 * when the run opened there.  Points go to pts as in flsa_lin_trace.
 * at[0..2] receives the final (i, j, layer) — the boundary point and its
 * layer on success, the cell no predecessor reproduces on failure (-1). */
long flsa_aff_trace(const int64_t *H, const int64_t *E, const int64_t *F,
                    long N, const int16_t *a, const int16_t *b,
                    const int64_t *table, long A,
                    int64_t open_, int64_t extend, long si, long sj,
                    long layer, int64_t *pts, int64_t *at)
{
    const long W = N + 1;
    long i = si, j = sj, n = 0;
    long rc = 0;
    while (i > 0 && j > 0) {
        const long c = i * W + j;
        if (layer == 0) {
            const int64_t h = H[c];
            if (h == wadd(H[c - W - 1],
                          table[(long)a[i - 1] * A + b[j - 1]])) {
                i--;
                j--;
            } else {
                if (h == E[c])
                    layer = 1;
                else if (h == F[c])
                    layer = 2;
                else {
                    rc = -1;
                    break;
                }
                continue; /* same cell, switch layer: no point emitted */
            }
        } else if (layer == 1) {
            const int64_t e = E[c];
            if (e == wadd(H[c - 1], open_))
                layer = 0;
            else if (e != wadd(E[c - 1], extend)) {
                rc = -1;
                break;
            }
            j--;
        } else {
            const int64_t f = F[c];
            if (f == wadd(H[c - W], open_))
                layer = 0;
            else if (f != wadd(F[c - W], extend)) {
                rc = -1;
                break;
            }
            i--;
        }
        pts[2 * n] = i;
        pts[2 * n + 1] = j;
        n++;
    }
    at[0] = i;
    at[1] = j;
    at[2] = layer;
    return rc ? rc : n;
}

/* Best-cell sweep tracking the first row-major strict maximum, starting
 * from best = 0 at the origin.  clamp != 0: Smith-Waterman (zero floor,
 * zero boundaries).  clamp == 0: the unclamped global recurrence with the
 * leading-gap boundaries j*gap / i*gap (locates a local alignment's start
 * when run over the reversed prefixes). */
void flsa_lin_best_local(const int16_t *a, long M, const int16_t *b, long N,
                         const int64_t *table, long A, int64_t gap,
                         int clamp, int64_t *out3)
{
    int64_t best = 0;
    long bi = 0, bj = 0, i, j;
    int64_t *buf = (int64_t *)malloc((size_t)(2 * (N + 1)) * sizeof(int64_t));
    int64_t *prev = buf, *cur = buf + (N + 1);
    if (buf == NULL) { out3[0] = -1; out3[1] = -1; out3[2] = -1; return; }
    for (j = 0; j <= N; j++) prev[j] = clamp ? 0 : gap * j;
    for (i = 1; i <= M; i++) {
        const int64_t *trow = table + (long)a[i - 1] * A;
        int64_t *tmp;
        cur[0] = clamp ? 0 : gap * i;
        if (cur[0] > best) { best = cur[0]; bi = i; bj = 0; }
        for (j = 1; j <= N; j++) {
            int64_t v = prev[j - 1] + trow[b[j - 1]];
            int64_t u = prev[j] + gap;
            int64_t c = cur[j - 1] + gap;
            int64_t h;
            if (u > v) v = u;
            if (clamp && v < 0) v = 0;
            h = v > c ? v : c;
            cur[j] = h;
            if (h > best) { best = h; bi = i; bj = j; }
        }
        tmp = prev; prev = cur; cur = tmp;
    }
    free(buf);
    out3[0] = best; out3[1] = bi; out3[2] = bj;
}

/* Gotoh best-cell sweep; same clamp switch and tie-breaking as the linear
 * variant.  Unclamped boundaries: H = open + (j-1)*extend along row 0 and
 * column 0, F = NEG_INF along row 0, E = NEG_INF along column 0. */
void flsa_aff_best_local(const int16_t *a, long M, const int16_t *b, long N,
                         const int64_t *table, long A,
                         int64_t open_, int64_t extend, int clamp,
                         int64_t *out3)
{
    int64_t best = 0;
    long bi = 0, bj = 0, i, j;
    int64_t *buf = (int64_t *)malloc((size_t)(4 * (N + 1)) * sizeof(int64_t));
    int64_t *prev_h, *prev_f, *cur_h, *cur_f;
    if (buf == NULL) { out3[0] = -1; out3[1] = -1; out3[2] = -1; return; }
    prev_h = buf;
    prev_f = buf + (N + 1);
    cur_h = buf + 2 * (N + 1);
    cur_f = buf + 3 * (N + 1);
    for (j = 0; j <= N; j++) {
        prev_h[j] = (clamp || j == 0) ? 0 : open_ + (j - 1) * extend;
        prev_f[j] = NEG_INF;
    }
    for (i = 1; i <= M; i++) {
        const int64_t *trow = table + (long)a[i - 1] * A;
        int64_t h0 = clamp ? 0 : open_ + (i - 1) * extend;
        int64_t e_prev = NEG_INF, h_left = h0, *tmp;
        cur_h[0] = h0;
        cur_f[0] = NEG_INF;
        if (h0 > best) { best = h0; bi = i; bj = 0; }
        for (j = 1; j <= N; j++) {
            int64_t f = max2(prev_h[j] + open_, prev_f[j] + extend);
            int64_t v = prev_h[j - 1] + trow[b[j - 1]];
            int64_t e = max2(h_left + open_, e_prev + extend);
            int64_t h;
            if (f > v) v = f;
            if (clamp && v < 0) v = 0;
            h = v > e ? v : e;
            cur_h[j] = h;
            cur_f[j] = f;
            if (h > best) { best = h; bi = i; bj = j; }
            e_prev = e;
            h_left = h;
        }
        tmp = prev_h; prev_h = cur_h; cur_h = tmp;
        tmp = prev_f; prev_f = cur_f; cur_f = tmp;
    }
    free(buf);
    out3[0] = best; out3[1] = bi; out3[2] = bj;
}

/* Banded linear fill in band coordinates t = j - i - dmin.  B may be
 * uninitialised (np.empty): every out-of-range cell is written as
 * exactly NEG_INF here, mirroring repro.kernels.banddp.band_fill's
 * convention without a separate full-array pre-fill pass. */
void flsa_lin_band_fill(const int16_t *a, long M, const int16_t *b, long N,
                        const int64_t *table, long A, int64_t gap,
                        long dmin, long W, int64_t *B)
{
    long i, t;
    for (t = 0; t < W; t++) {
        long j = dmin + t;
        B[t] = (j >= 0 && j <= N) ? gap * j : NEG_INF;
    }
    for (i = 1; i <= M; i++) {
        int64_t *row = B + i * W;
        const int64_t *prev = B + (i - 1) * W;
        const int64_t *trow = table + (long)a[i - 1] * A;
        /* Hoist the j-range test out of the inner loop: only
         * t in [t_lo, t_hi] maps to 0 <= j <= N; everything outside is
         * written NEG_INF directly.  Guard-free candidate arithmetic is
         * safe: NEG_INF + any score stays far below HALF without
         * overflowing (NEG_INF = -2^62, int64 min = -2^63), and the
         * final clamp restores the exact-NEG_INF convention. */
        long t_lo = -(i + dmin); if (t_lo < 0) t_lo = 0;
        long t_hi = N - i - dmin; if (t_hi > W - 1) t_hi = W - 1;
        for (t = 0; t < t_lo; t++) row[t] = NEG_INF;
        for (t = t_hi + 1; t < W; t++) row[t] = NEG_INF;
        if (t_lo > t_hi) continue;
        t = t_lo;
        int64_t left = NEG_INF;
        if (i + dmin + t == 0) { /* the j == 0 boundary cell */
            left = gap * i;
            row[t] = left;
            t++;
        }
        long j = i + dmin + t;
        for (; t <= t_hi; t++, j++) {
            int64_t v = prev[t] + trow[b[j - 1]];
            int64_t c;
            if (t + 1 < W) {
                c = prev[t + 1] + gap;
                if (c > v) v = c;
            }
            c = left + gap;
            if (c > v) v = c;
            v = (v > HALF) ? v : NEG_INF;
            row[t] = v;
            left = v;
        }
    }
}

/* Banded affine fill; mirrors repro.kernels.banddp.band_fill_affine.
 * BH/BE/BF must be pre-filled with NEG_INF. */
void flsa_aff_band_fill(const int16_t *a, long M, const int16_t *b, long N,
                        const int64_t *table, long A,
                        int64_t open_, int64_t extend, long dmin, long W,
                        int64_t *BH, int64_t *BE, int64_t *BF)
{
    long i, t;
    for (t = 0; t < W; t++) {
        long j = dmin + t;
        if (j >= 0 && j <= N)
            BH[t] = (j == 0) ? 0 : open_ + (j - 1) * extend;
    }
    for (i = 1; i <= M; i++) {
        int64_t *rh = BH + i * W, *re = BE + i * W, *rf = BF + i * W;
        const int64_t *ph = BH + (i - 1) * W, *pf = BF + (i - 1) * W;
        const int64_t *trow = table + (long)a[i - 1] * A;
        int64_t bound = open_ + (i - 1) * extend; /* column-0 leading gap */
        int64_t e_prev = NEG_INF, v_prev = NEG_INF;
        for (t = 0; t < W; t++) {
            long j = i + dmin + t;
            int64_t f = NEG_INF, v = NEG_INF, e = NEG_INF, h;
            if (j < 0 || j > N) {
                e_prev = NEG_INF;
                v_prev = NEG_INF;
                continue; /* all three stay NEG_INF */
            }
            if (j == 0) {
                rh[t] = bound;
                rf[t] = bound; /* a column-0 path *is* a gap run */
                e_prev = NEG_INF;
                v_prev = bound; /* the boundary cell seeds the E chain */
                continue;
            }
            /* vertical layer: same column is t+1 in the previous row */
            if (t + 1 < W) {
                if (ph[t + 1] > HALF) f = ph[t + 1] + open_;
                if (pf[t + 1] > HALF) {
                    int64_t c = pf[t + 1] + extend;
                    if (c > f) f = c;
                }
            }
            if (ph[t] > HALF) {
                int64_t c = ph[t] + trow[b[j - 1]];
                if (c > v) v = c;
            }
            if (f > v) v = f;
            /* horizontal layer: chain over in-band v sources (l < t) */
            if (v_prev > HALF) e = v_prev + open_;
            if (e_prev > HALF) {
                int64_t c = e_prev + extend;
                if (c > e) e = c;
            }
            h = v > e ? v : e;
            rh[t] = (h > HALF) ? h : NEG_INF;
            re[t] = (e > HALF) ? e : NEG_INF;
            rf[t] = (f > HALF) ? f : NEG_INF;
            e_prev = e;
            v_prev = v;
        }
    }
}

/* ---- lane-packed batch kernels -----------------------------------------
 * One query against B targets packed as bp (B rows of Np int16 codes,
 * right-padded; lens[lane] gives the valid prefix).
 *
 * The global-score kernels below walk the pack lane by lane with the
 * per-pair loop; their win over the per-pair entry points is amortising
 * the Python/cffi call and buffer setup across the pack.  The best-local
 * kernels (flsa_batch_best_local_{i32,i64}, at the end of this file) put
 * the lanes in the innermost loop instead, so one vector instruction
 * advances a cell of many targets at once.
 */

int flsa_lin_batch_score_global(const int16_t *a, long M,
                                const int16_t *bp, long B, long Np,
                                const int64_t *lens,
                                const int64_t *table, long A, int64_t gap,
                                int64_t *out_score)
{
    int64_t *buf;
    long lane, i, j;
    buf = (int64_t *)malloc((size_t)(2 * (Np + 1)) * sizeof(int64_t));
    if (buf == NULL)
        return 1;
    for (lane = 0; lane < B; lane++) {
        const int16_t *b = bp + lane * Np;
        long N = (long)lens[lane];
        int64_t *prev = buf, *cur = buf + (Np + 1), *tmp;
        for (j = 0; j <= N; j++) prev[j] = gap * j;
        for (i = 1; i <= M; i++) {
            const int64_t *trow = table + (long)a[i - 1] * A;
            cur[0] = gap * i;
            for (j = 1; j <= N; j++) {
                int64_t v = prev[j - 1] + trow[b[j - 1]];
                int64_t u = prev[j] + gap;
                int64_t c = cur[j - 1] + gap;
                if (u > v) v = u;
                if (c > v) v = c;
                cur[j] = v;
            }
            tmp = prev; prev = cur; cur = tmp;
        }
        out_score[lane] = prev[N];
    }
    free(buf);
    return 0;
}

int flsa_aff_batch_score_global(const int16_t *a, long M,
                                const int16_t *bp, long B, long Np,
                                const int64_t *lens,
                                const int64_t *table, long A,
                                int64_t open_, int64_t extend,
                                int64_t *out_score)
{
    int64_t *buf;
    long lane, i, j;
    buf = (int64_t *)malloc((size_t)(4 * (Np + 1)) * sizeof(int64_t));
    if (buf == NULL)
        return 1;
    for (lane = 0; lane < B; lane++) {
        const int16_t *b = bp + lane * Np;
        long N = (long)lens[lane];
        int64_t *prev_h = buf, *prev_f = buf + (Np + 1);
        int64_t *cur_h = buf + 2 * (Np + 1), *cur_f = buf + 3 * (Np + 1);
        prev_h[0] = 0;
        for (j = 1; j <= N; j++) {
            prev_h[j] = open_ + (j - 1) * extend;
            prev_f[j] = NEG_INF;
        }
        prev_f[0] = NEG_INF;
        for (i = 1; i <= M; i++) {
            const int64_t *trow = table + (long)a[i - 1] * A;
            int64_t h0 = open_ + (i - 1) * extend;
            int64_t e_prev = NEG_INF, h_left = h0, *tmp;
            cur_h[0] = h0;
            cur_f[0] = NEG_INF;
            for (j = 1; j <= N; j++) {
                int64_t f = max2(prev_h[j] + open_, prev_f[j] + extend);
                int64_t v = prev_h[j - 1] + trow[b[j - 1]];
                int64_t e = max2(h_left + open_, e_prev + extend);
                int64_t h;
                if (f > v) v = f;
                h = v > e ? v : e;
                cur_h[j] = h;
                cur_f[j] = f;
                e_prev = e;
                h_left = h;
            }
            tmp = prev_h; prev_h = cur_h; cur_h = tmp;
            tmp = prev_f; prev_f = cur_f; cur_f = tmp;
        }
        out_score[lane] = prev_h[N];
    }
    free(buf);
    return 0;
}

/* ---- lane-inner best-local batch kernels --------------------------------
 * Inter-sequence SIMD (the SWIPE layout): the pack is swept in blocks of
 * L targets (repro.kernels.batchdp.SIMD_LANES) with the lane as the
 * innermost loop, so the compiler turns each cell update into a few
 * vector instructions covering the whole block.  Per block:
 *
 * - a query profile prof[c][j][lane] = table[c][b_lane[j]] makes the
 *   substitution score of row symbol c a contiguous L-wide load;
 * - the rolling H (and, affine, F) row is stored [column][lane];
 * - every lane carries a column limit, lens[lane] while it is live and -1
 *   once retired (or for the unused tail of the last block).  Cells past a
 *   lane's limit are computed but masked to 0 before the row max, so pads
 *   never reach the row max or the best cell (the same pad masking as the
 *   numpy tier), and a retired lane stops updating without any lane
 *   compaction;
 * - each lane keeps its row max with its first column; after the row a
 *   strictly greater row max moves the best cell, which reproduces the
 *   per-pair kernels' first row-major strict maximum;
 * - after every row i < M the floor check evaluates, for every live lane
 *   (including lens == 0 lanes, whose rows stay at the clamped value 0),
 *   the admissible cap max(best, rowmax + (M-i)*maxs) in int64 and retires
 *   the lane on the strict cap < floor, as repro.kernels.batchdp does.
 *   Rows then stop at the longest live lane, and a block whose lanes all
 *   retired stops.
 *
 * Linear gaps run the same body without the E/F layers (affine == 0);
 * the affine recurrence requires open <= extend like every other Gotoh
 * kernel here.  The body is written once over the cell type: the int32
 * instance runs when every reachable value fits with margin (the caller
 * checks min(M, Np)*maxs and the table and gap magnitudes), the int64
 * instance is the overflow path.  So (score, bi, bj, pruned) is word-
 * identical to the numpy batch kernels on either instance.
 */

#if defined(__GNUC__) || defined(__clang__)
#define FLSA_INLINE static inline __attribute__((always_inline))
#else
#define FLSA_INLINE static inline
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLSA_CLONES __attribute__((target_clones("avx2", "default")))
#define FLSA_HAVE_CLONES 1
#else
#define FLSA_CLONES
#define FLSA_HAVE_CLONES 0
#endif

/* 1 when the best-local kernels dispatch to their AVX2 clone on this CPU
 * (the same test the target_clones resolver makes), else 0. */
int flsa_batch_isa(void)
{
#if FLSA_HAVE_CLONES
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? 1 : 0;
#else
    return 0;
#endif
}
"""

#: The lane-inner best-local body, written once over its cell type.
BATCH_BEST_LOCAL = string.Template(r"""
FLSA_INLINE int batch_best_local_$S(
    const int16_t *a, long M, const int16_t *bp, long B, long Np,
    const int64_t *lens, const int64_t *table, long A, const int affine,
    const $T open_, const $T extend, int has_floor, int64_t floor_,
    int64_t maxs, int64_t *out_score, int64_t *out_bi, int64_t *out_bj,
    int64_t *out_pruned)
{
    enum { L = $LANES };
    /* -inf for F (row 0) and E (column 0): each gets one extend added
     * before a real gap-open candidate (>= open_, as H >= 0) wins. */
    const $T neg = $NEG;
    $T *prof = ($T *)malloc((size_t)(A * Np * L + 1) * sizeof($T));
    $T *hrow = ($T *)malloc((size_t)((Np + 1) * L) * sizeof($T));
    $T *frow = ($T *)malloc((size_t)((Np + 1) * L) * sizeof($T));
    long base;

    if (prof == NULL || hrow == NULL || frow == NULL) {
        free(prof); free(hrow); free(frow);
        return 1;
    }
    for (base = 0; base < B; base += L) {
        $T lim[L], best[L], rmax[L], rarg[L], bj[L];
        $T diag[L], left[L], e[L];
        long bi[L], nl = (B - base < L) ? B - base : L;
        long Nb = 0, ncols, i, j, c, l;
        int pruned[L];

        for (l = 0; l < L; l++) {
            lim[l] = (l < nl) ? ($T)lens[base + l] : -1;
            if (lim[l] > Nb) Nb = (long)lim[l];
            best[l] = 0; bi[l] = 0; bj[l] = 0; pruned[l] = 0;
        }
        for (c = 0; c < A; c++) {
            const int64_t *trow = table + c * A;
            $T *pc = prof + c * Nb * L;
            for (j = 0; j < Nb; j++)
                for (l = 0; l < L; l++)
                    pc[j * L + l] =
                        (l < nl) ? ($T)trow[bp[(base + l) * Np + j]] : 0;
        }
        for (j = 0; j < (Nb + 1) * L; j++) {
            hrow[j] = 0;
            frow[j] = neg;
        }
        ncols = Nb;

        for (i = 1; i <= M; i++) {
            const $T *pr = prof + (long)a[i - 1] * Nb * L;
            for (l = 0; l < L; l++) {
                diag[l] = 0; left[l] = 0; e[l] = neg;
                rmax[l] = 0; rarg[l] = 0;
            }
            for (j = 1; j <= ncols; j++) {
                $T *restrict hp = hrow + j * L;
                $T *restrict fp = frow + j * L;
                const $T *restrict s = pr + (j - 1) * L;
                const $T jj = ($T)j;
                for (l = 0; l < L; l++) {
                    $T up = hp[l], v = diag[l] + s[l], h, hm, t;
                    if (affine) {
                        $T f = fp[l] + extend, ee = e[l] + extend;
                        t = up + open_;     f = t > f ? t : f;
                        t = left[l] + open_; ee = t > ee ? t : ee;
                        fp[l] = f;
                        e[l] = ee;
                        v = f > v ? f : v;
                        v = v > 0 ? v : 0;
                        h = ee > v ? ee : v;
                    } else {
                        t = up + open_;      v = t > v ? t : v;
                        v = v > 0 ? v : 0;
                        t = left[l] + open_; h = t > v ? t : v;
                    }
                    diag[l] = up;
                    left[l] = h;
                    hp[l] = h;
                    hm = jj <= lim[l] ? h : 0;
                    rarg[l] = hm > rmax[l] ? jj : rarg[l];
                    rmax[l] = hm > rmax[l] ? hm : rmax[l];
                }
            }
            for (l = 0; l < L; l++) {
                if (rmax[l] > best[l]) {
                    best[l] = rmax[l]; bi[l] = i; bj[l] = rarg[l];
                }
            }
            if (has_floor && i < M) {
                long live = 0, widest = 0;
                for (l = 0; l < nl; l++) {
                    int64_t cap;
                    if (lim[l] < 0)
                        continue;
                    cap = (int64_t)rmax[l] + (int64_t)(M - i) * maxs;
                    if ((int64_t)best[l] > cap) cap = (int64_t)best[l];
                    if (cap < floor_) {
                        lim[l] = -1;
                        pruned[l] = 1;
                        continue;
                    }
                    live++;
                    if ((long)lim[l] > widest) widest = (long)lim[l];
                }
                if (live == 0)
                    break;
                ncols = widest;
            }
        }
        for (l = 0; l < nl; l++) {
            out_score[base + l] = (int64_t)best[l];
            out_bi[base + l] = bi[l];
            out_bj[base + l] = (int64_t)bj[l];
            out_pruned[base + l] = pruned[l];
        }
    }
    free(prof); free(hrow); free(frow);
    return 0;
}

/* Linear gaps run with affine = 0 and open_ = extend = gap; the constant
 * affine flag lets the compiler specialise the inlined body per kind. */
FLSA_CLONES int flsa_batch_best_local_$S(
    const int16_t *a, long M, const int16_t *bp, long B, long Np,
    const int64_t *lens, const int64_t *table, long A, int affine,
    int64_t open_, int64_t extend, int has_floor, int64_t floor_,
    int64_t maxs, int64_t *out_score, int64_t *out_bi, int64_t *out_bj,
    int64_t *out_pruned)
{
    if (affine)
        return batch_best_local_$S(a, M, bp, B, Np, lens, table, A, 1,
                                   ($T)open_, ($T)extend, has_floor, floor_,
                                   maxs, out_score, out_bi, out_bj,
                                   out_pruned);
    return batch_best_local_$S(a, M, bp, B, Np, lens, table, A, 0,
                               ($T)open_, ($T)open_, has_floor, floor_, maxs,
                               out_score, out_bi, out_bj, out_pruned);
}
""")

SOURCE += BATCH_BEST_LOCAL.substitute(
    S="i32", T="int32_t", NEG="-(((int32_t)1) << 29)", LANES=SIMD_LANES
)
SOURCE += BATCH_BEST_LOCAL.substitute(S="i64", T="int64_t", NEG="NEG_INF", LANES=SIMD_LANES)


def build(verbose: bool = False) -> str:
    """Compile the extension in place; returns the built module path."""
    import cffi

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(CDEF)
    ffibuilder.set_source(
        "repro.kernels._ckernels",
        SOURCE,
        extra_compile_args=["-O3"],
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src_root = os.path.dirname(os.path.dirname(here))  # .../src
    return ffibuilder.compile(tmpdir=src_root, verbose=verbose)


if __name__ == "__main__":  # pragma: no cover - build entry point
    import sys

    path = build(verbose="-v" in sys.argv)
    print(f"built {path}")
