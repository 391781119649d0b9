"""Linear-space local alignment built on FastLSA (extension).

The paper treats global alignment; local (Smith–Waterman-style) alignment
composes naturally with FastLSA using the classic three-phase linear-space
construction:

1. a rolling **clamped** sweep over the whole DPM locates the best local
   score and its end cell ``(bi, bj)``;
2. a rolling **global** sweep over the *reversed* prefixes ``a[:bi]`` /
   ``b[:bj]`` locates the start cell: the reversed optimal local alignment
   is a global alignment of those prefixes, so the cell whose global score
   equals the best local score marks the start;
3. FastLSA globally aligns the bracketed sub-sequences in the configured
   memory budget.

Total extra cost: two linear-space sweeps (≈ ``2·m·n`` cells) before the
FastLSA run; space stays linear outside the base-case buffer.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from ..align.sequence import as_sequence
from ..baselines.smith_waterman import LocalAlignment
from ..align.alignment import alignment_from_path
from ..align.path import AlignmentPath
from ..kernels import registry
from ..kernels.ops import KernelInstruments
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from .config import FastLSAConfig, resolve_config
from .fastlsa import fastlsa

__all__ = ["fastlsa_local", "local_best_cell"]


def local_best_cell(
    seq_a, seq_b, scheme: ScoringScheme, counter=None
) -> Tuple[int, int, int]:
    """Best local score and its end cell, in linear space: ``(score, i, j)``.

    One rolling clamped (Smith–Waterman) sweep — no traceback, no
    alignment materialisation.  This is the public scoring tier: rankers
    (:func:`repro.core.batch.batch_align`, :mod:`repro.search`) call it to
    score candidates cheaply, then feed the triple back to
    :func:`fastlsa_local` via ``best_cell=`` so the full alignment does
    not repeat the sweep.
    """
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    return _best_cell_local(scheme.encode(a.text), scheme.encode(b.text), scheme, counter)


def _best_cell_local(
    a_codes, b_codes, scheme: ScoringScheme, counter, *, clamp: bool = True
) -> Tuple[int, int, int]:
    """Rolling best-cell sweep; returns ``(score, i, j)`` of the first
    row-major maximum.

    Clamped (Smith–Waterman) by default; ``clamp=False`` runs the global
    recurrence, which over the reversed prefixes locates the start cell.
    Dispatches to the active kernel tier (:mod:`repro.kernels.registry`).
    """
    table = scheme.matrix.table
    if scheme.is_linear:
        return registry.active("linear").best_cell_local(
            a_codes, b_codes, table, scheme.gap_open, counter, clamp=clamp
        )
    return registry.active("affine").best_cell_local(
        a_codes, b_codes, table, scheme.gap_open, scheme.gap_extend, counter,
        clamp=clamp,
    )


def fastlsa_local(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    k: Optional[int] = None,
    base_cells: Optional[int] = None,
    config: Optional[FastLSAConfig] = None,
    instruments: Optional[KernelInstruments] = None,
    best_cell: Optional[Tuple[int, int, int]] = None,
) -> LocalAlignment:
    """Best local alignment in linear space (FastLSA-backed).

    Returns the same :class:`~repro.baselines.smith_waterman.LocalAlignment`
    structure as the FM Smith–Waterman baseline, but without ever holding a
    dense ``m × n`` matrix.  Parameterize via ``config=``; the legacy
    ``k=`` / ``base_cells=`` keywords now raise ConfigError.

    ``best_cell`` skips phase 1: pass the ``(score, i, j)`` triple a prior
    :func:`local_best_cell` sweep produced for this exact pair and scheme
    (rankers score every candidate before materialising alignments for the
    top hits, so without the hint the sweep would run twice).  The phase-2
    reverse sweep still cross-checks the score, so a stale or mismatched
    hint fails loudly instead of producing a wrong alignment.
    """
    cfg = resolve_config(config, k, base_cells, where="fastlsa_local")
    tier = registry.resolve_tier(getattr(cfg, "kernel", None))
    a = as_sequence(seq_a, "a")
    b = as_sequence(seq_b, "b")
    inst = instruments or KernelInstruments()
    t0 = time.perf_counter()
    a_codes = scheme.encode(a.text)
    b_codes = scheme.encode(b.text)

    if best_cell is not None:
        best, bi, bj = best_cell
        if not (0 <= bi <= len(a_codes) and 0 <= bj <= len(b_codes)):
            raise AssertionError(
                f"best_cell {best_cell} outside the {len(a_codes)}x{len(b_codes)} DPM"
            )
    else:
        with registry.use(tier), obs.span(
            "fastlsa.bracket", category="bracket", mode="local", phase="end",
            cells=len(a_codes) * len(b_codes),
        ):
            best, bi, bj = _best_cell_local(a_codes, b_codes, scheme, inst.ops)
    if best == 0:
        empty = alignment_from_path(
            a.slice(0, 0), b.slice(0, 0), AlignmentPath([(0, 0)]), 0,
            algorithm="fastlsa-local",
        )
        return LocalAlignment(empty, 0, 0, 0, 0, 0)

    with registry.use(tier), obs.span(
        "fastlsa.bracket", category="bracket", mode="local", phase="start",
        cells=bi * bj,
    ):
        rbest, ri, rj = _best_cell_local(
            a_codes[:bi][::-1], b_codes[:bj][::-1], scheme, inst.ops, clamp=False
        )
    if rbest != best:
        raise AssertionError(
            f"local/global sweep disagreement: {best} != {rbest} (library bug)"
        )
    i0, j0 = bi - ri, bj - rj

    alignment = fastlsa(
        a.slice(i0, bi), b.slice(j0, bj), scheme, config=cfg, instruments=inst
    )
    alignment.algorithm = "fastlsa-local"
    alignment.stats.wall_time = time.perf_counter() - t0
    if alignment.score != best:
        raise AssertionError(
            f"bracketed global score {alignment.score} != local best {best} (library bug)"
        )
    return LocalAlignment(alignment, i0, bi, j0, bj, best)
