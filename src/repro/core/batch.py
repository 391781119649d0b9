"""Batch alignment: one query against many targets.

The homology-search workload: rank a database by alignment score, keep
the top hits, and only materialise full alignments for those.  Scoring
uses the ``O(n)``-memory FindScore sweep; the final alignments run under
the configured FastLSA budget.  Mode selection covers global, local and
the ends-free variants.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence as Seq

from ..align.alignment import Alignment
from ..align.sequence import Sequence, as_sequence
from ..core.config import AlignConfig, resolve_config
from ..errors import ConfigError
from ..kernels import batchdp, registry
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from .fastlsa import fastlsa
from .local import fastlsa_local, local_best_cell
from .modes import overlap_align, semiglobal_align
from .score_only import align_score

__all__ = ["BatchHit", "batch_align"]

_MODES = ("global", "local", "semiglobal", "overlap")

#: A lane group never mixes targets shorter than this fraction of its
#: longest member (padding waste would exceed the dispatch savings).
_LANE_LENGTH_RATIO = 0.5


@dataclass
class BatchHit:
    """One ranked database hit.

    ``alignment`` is only populated for the top ``keep`` hits (scores are
    computed for every target).  For non-global modes the alignment is
    the matched core; offsets describe its placement.
    """

    target: Sequence
    score: int
    rank: int
    alignment: Optional[Alignment] = None
    a_range: Optional[tuple] = None
    b_range: Optional[tuple] = None


def _full_alignment(query, target, scheme, mode, cfg, best_cell=None):
    if mode == "global":
        al = fastlsa(query, target, scheme, config=cfg)
        return al, (0, len(query)), (0, len(target)), al.score
    if mode == "local":
        loc = fastlsa_local(query, target, scheme, config=cfg, best_cell=best_cell)
        return loc.alignment, (loc.a_start, loc.a_end), (loc.b_start, loc.b_end), loc.score
    fn = semiglobal_align if mode == "semiglobal" else overlap_align
    ef = fn(query, target, scheme, config=cfg)
    return ef.alignment, (ef.a_start, ef.a_end), (ef.b_start, ef.b_end), ef.score


def _quick_score_cell(query, target, scheme, mode, cfg):
    """Cheap score plus (for local mode) the reusable best-cell triple.

    Returns ``(score, cell)``.  ``cell`` is the ``(score, i, j)`` triple
    from :func:`local_best_cell` in local mode — fed back to
    :func:`fastlsa_local` via ``best_cell=`` so materialising the full
    alignment for a kept hit skips the sweep already paid for here —
    and ``None`` for the other modes.  Every sweep runs on the tier
    ``cfg.kernel`` selects, also inside pool workers (which do not inherit
    the caller's registry context).
    """
    with registry.use(getattr(cfg, "kernel", None)):
        if mode == "local":
            cell = local_best_cell(query, target, scheme)
            return cell[0], cell
        return _quick_score(query, target, scheme, mode, cfg), None


def _quick_score(query, target, scheme, mode, cfg) -> int:
    if mode == "global":
        band = getattr(cfg, "band", None)
        if band is not None:
            from .banded import banded_score

            return banded_score(query, target, scheme, band=band).score
        return align_score(query, target, scheme)
    if mode == "local":
        best, _, _ = local_best_cell(query, target, scheme)
        return best
    from .modes import EndsFree, _sweep_best

    free = (
        EndsFree(b_start=True, b_end=True)
        if mode == "semiglobal"
        else EndsFree(a_start=True, b_end=True)
    )
    best, _, _ = _sweep_best(
        scheme.encode(query.text), scheme.encode(target.text), scheme,
        free_a_start=free.a_start, free_b_start=free.b_start,
        end_rows_free=free.a_end, end_cols_free=free.b_end,
        counter=None,
    )
    return int(best)


def _resolve_lanes(lanes, cfg, scheme, tier) -> int:
    """Lane count for the batch route: explicit ``lanes`` wins; ``None``
    consults the calibration curves (default 32 when never calibrated,
    0 — per-pair — where the measured curve shows batch losing)."""
    if lanes is not None:
        if lanes < 0:
            raise ConfigError(f"lanes must be >= 0, got {lanes}")
        return 0 if lanes == 1 else lanes
    from ..tune import decision
    from ..tune.profile import load_profile

    profile = load_profile(getattr(cfg, "tune", None))
    kind = "linear" if scheme.is_linear else "affine"
    return decision.batch_lanes(profile, tier, kind)


def _lane_groups(lengths, lanes):
    """Length-compatible lane groups (indices), longest first.

    A new group starts when the next (shorter) target drops below
    :data:`_LANE_LENGTH_RATIO` of the group's longest member, or the
    group reaches ``lanes`` members.
    """
    order = sorted(range(len(lengths)), key=lambda i: (-lengths[i], i))
    groups: List[List[int]] = []
    for idx in order:
        if (
            groups
            and len(groups[-1]) < lanes
            and lengths[idx] >= _LANE_LENGTH_RATIO * lengths[groups[-1][0]]
        ):
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def _score_lanes(q, seqs, scheme, mode, cfg, tier, lanes):
    """Lane-packed scoring sweep: all targets, ``lanes`` at a time.

    Bit-identical to the per-pair loop in :func:`_score_all` — the batch
    kernels are parity-gated against the per-pair providers, and the
    local-mode best-cell triple (fed to :func:`fastlsa_local` as a hint)
    carries the same tie-breaking.
    """
    q_codes = scheme.encode(q.text)
    t_codes = [scheme.encode(s.text) for s in seqs]
    table = scheme.matrix.table
    provider = registry.get_batch_kernel(tier)
    scores: List[int] = [0] * len(seqs)
    cells: List[Optional[tuple]] = [None] * len(seqs)
    for group in _lane_groups([len(t) for t in t_codes], lanes):
        pack, lens = batchdp.pack_lanes([t_codes[i] for i in group])
        B, Np = pack.shape
        obs.counter_add("batch.sweeps")
        obs.observe("batch.lane_occupancy", batchdp.lane_occupancy(B))
        obs.observe(
            "batch.pad_waste", 1.0 - float(lens.sum()) / max(B * Np, 1)
        )
        if mode == "local":
            if scheme.is_linear:
                s, bi, bj, _ = provider.best_cell_local(
                    q_codes, pack, lens, table, scheme.gap_open
                )
            else:
                s, bi, bj, _ = provider.best_cell_local_affine(
                    q_codes, pack, lens, table,
                    scheme.gap_open, scheme.gap_extend,
                )
            for lane, idx in enumerate(group):
                cell = (int(s[lane]), int(bi[lane]), int(bj[lane]))
                scores[idx], cells[idx] = cell[0], cell
        else:
            if scheme.is_linear:
                s = provider.score_global(q_codes, pack, lens, table, scheme.gap_open)
            else:
                s = provider.score_global_affine(
                    q_codes, pack, lens, table,
                    scheme.gap_open, scheme.gap_extend,
                )
            for lane, idx in enumerate(group):
                scores[idx] = int(s[lane])
    return scores, cells


def _score_all(q, seqs, scheme, mode, cfg, executor, max_workers, lanes=None):
    """Score every target, optionally fanning out on a thread pool.

    Returns ``(scores, cells)``; ``cells[i]`` is the local-mode best-cell
    hint for target ``i`` (``None`` outside local mode).

    Sequential homogeneous workloads — ``local`` mode, or ``global`` with
    no band — route through the lane-packed batch kernels when the
    decision layer (or an explicit ``lanes=``) says batching pays; the
    other modes and all pool paths keep the per-pair loop.
    """
    tier = registry.resolve_tier(getattr(cfg, "kernel", None))

    if executor is None and max_workers is None and len(seqs) > 1:
        batchable = mode == "local" or (
            mode == "global" and getattr(cfg, "band", None) is None
        )
        if batchable:
            n_lanes = _resolve_lanes(lanes, cfg, scheme, tier)
            if n_lanes > 1:
                return _score_lanes(q, seqs, scheme, mode, cfg, tier, n_lanes)

    def one(t):
        return _quick_score_cell(q, t, scheme, mode, cfg)

    if executor is None and max_workers is None:
        pairs = [one(t) for t in seqs]
    else:
        own = executor is None
        pool = executor or ThreadPoolExecutor(max_workers=max_workers)
        try:
            pairs = list(pool.map(one, seqs))
        finally:
            if own:
                pool.shutdown(wait=True)
    return [p[0] for p in pairs], [p[1] for p in pairs]


def batch_align(
    query,
    targets: Seq,
    scheme: ScoringScheme,
    mode: str = "local",
    keep: int = 5,
    min_score: Optional[int] = None,
    k: Optional[int] = None,
    base_cells: Optional[int] = None,
    config: Optional[AlignConfig] = None,
    executor: Optional[ThreadPoolExecutor] = None,
    max_workers: Optional[int] = None,
    lanes: Optional[int] = None,
) -> List[BatchHit]:
    """Rank ``targets`` by alignment score against ``query``.

    Parameters
    ----------
    mode:
        ``"global"``, ``"local"`` (default), ``"semiglobal"`` or
        ``"overlap"``.
    keep:
        Number of top hits to materialise full alignments for.
    min_score:
        Drop targets scoring below this (after ranking).
    config:
        :class:`~repro.core.config.AlignConfig` carrying ``k``,
        ``base_cells``, ``max_workers``, ``band`` and ``kernel``; the
        loose ``k=`` / ``base_cells=`` / ``max_workers=`` keywords now
        raise :class:`~repro.errors.ConfigError`.
    executor:
        Score targets concurrently on this shared pool (it is not shut
        down); the service layer passes its worker pool here.
    lanes:
        Lane width for the vectorised batch scoring kernels on the
        sequential path (``local`` mode, or ``global`` without a band).
        ``None`` (default) consults the calibration profile; ``0`` or
        ``1`` forces the per-pair loop; ``N >= 2`` forces ``N``-lane
        packing.  Scores and hits are bit-identical either way.

    Without ``executor``, ``config.max_workers`` sizes a private pool for
    the scoring sweep; ``None`` stays sequential.

    Returns hits sorted by descending score with ``rank`` starting at 1;
    only the top ``keep`` carry alignments.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; choose from {_MODES}")
    if keep < 0:
        raise ConfigError(f"keep must be >= 0, got {keep}")
    cfg = resolve_config(config, k, base_cells, max_workers, where="batch_align")
    q = as_sequence(query, "query")
    seqs = [as_sequence(t, f"target{i}") for i, t in enumerate(targets)]

    scores, cells = _score_all(
        q, seqs, scheme, mode, cfg, executor, cfg.max_workers, lanes=lanes
    )
    scored = sorted(
        ((s, idx) for idx, s in enumerate(scores)), key=lambda t: (-t[0], t[1])
    )
    if min_score is not None:
        scored = [(s, i) for s, i in scored if s >= min_score]

    hits: List[BatchHit] = []
    for rank, (score, idx) in enumerate(scored, start=1):
        target = seqs[idx]
        if rank <= keep:
            alignment, a_range, b_range, full_score = _full_alignment(
                q, target, scheme, mode, cfg, best_cell=cells[idx]
            )
            if full_score != score:
                raise AssertionError(
                    f"quick score {score} != full score {full_score} (library bug)"
                )
            hits.append(BatchHit(target=target, score=score, rank=rank,
                                 alignment=alignment, a_range=a_range, b_range=b_range))
        else:
            hits.append(BatchHit(target=target, score=score, rank=rank))
    return hits
