"""Top-K corpus search: exact pruning + score sweep + bracketed alignment.

Three tiers, cheapest first, each feeding the next only what survives:

1. **bound** — :mod:`repro.search.bounds` caps every candidate's possible
   score from its composition histogram in ``O(|Σ|²)``.  Candidates are
   processed bound-descending, so strong hits establish the top-K floor
   early; once the floor exceeds the next bound, *everything* remaining is
   pruned in one comparison (bounds are sorted).  Pruning is strict
   (``bound < floor``), so ties always get scored and the result set is
   bit-identical to brute force.
2. **score** — survivors are swept, bound-descending and
   :data:`~repro.kernels.batchdp.BATCH_LANES` at a time, through the
   lane-packed best-local batch kernel (score + end cell, no traceback),
   in length-compatible buckets; lanes whose admissible cap drops below
   the running floor retire mid-sweep.  A lone survivor takes the
   per-pair :func:`~repro.core.local.local_best_cell` sweep instead.
3. **align** — only the final K materialise full alignments, via
   :func:`~repro.core.local.fastlsa_local` with the tier-2 ``best_cell``
   hint so the sweep is not repeated; ``config.backend`` drives their
   FastLSA wavefront.

Resilience: each candidate scores under the ``search.candidate.score``
fault site with per-candidate retries (transient failures only); a
candidate that exhausts retries either fails the search with a typed
:class:`~repro.errors.CandidateFailedError` (default) or — with
``allow_partial=True`` — is recorded on the result while the top-K stays
exactly ordered over the candidates that did score.  Deadlines use the
PR-4 cooperative-cancellation layer: one checkpoint per candidate.

Ranking is total and deterministic: ``(-score, corpus position)``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..align.sequence import Sequence, as_sequence
from ..baselines.smith_waterman import LocalAlignment
from ..core import cancel
from ..core.config import AlignConfig, resolve_config
from ..core.local import _best_cell_local, fastlsa_local
from ..kernels import batchdp as _batchdp
from ..kernels import registry
from ..errors import CandidateFailedError, ConfigError, JobTimeoutError
from ..faults import runtime as faults
from ..faults.plan import SITE_CANDIDATE_SCORE
from ..obs import runtime as obs
from ..scoring.scheme import ScoringScheme
from .bounds import candidate_bounds, descending_order
from .index import CorpusIndex

__all__ = ["SearchHit", "SearchResult", "SearchStats", "search"]

#: A lane-packed sub-bucket never mixes targets shorter than this
#: fraction of the longest lane — bounds padding waste at 50%.
_LANE_LENGTH_RATIO = 0.5


@dataclass
class SearchHit:
    """One ranked corpus hit.

    ``local`` (the full :class:`LocalAlignment`) is populated for final
    results; streaming snapshots carry only score/bound/identity.
    """

    name: str
    corpus_index: int
    score: int
    bound: int
    local: Optional[LocalAlignment] = None

    def to_dict(self, with_alignment: bool = True) -> dict:
        out = {
            "name": self.name,
            "index": self.corpus_index,
            "score": self.score,
            "bound": self.bound,
        }
        if with_alignment and self.local is not None:
            out["a_range"] = [self.local.a_start, self.local.a_end]
            out["b_range"] = [self.local.b_start, self.local.b_end]
            out["a"] = self.local.alignment.gapped_a
            out["b"] = self.local.alignment.gapped_b
        return out


@dataclass
class SearchStats:
    """Where the candidates went: the pruning tier's report card."""

    candidates: int = 0
    pruned: int = 0
    scored: int = 0
    aligned: int = 0
    retries: int = 0
    failed: List[Tuple[int, str]] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def prune_rate(self) -> float:
        return self.pruned / self.candidates if self.candidates else 0.0

    def to_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "pruned": self.pruned,
            "scored": self.scored,
            "aligned": self.aligned,
            "retries": self.retries,
            "failed": [list(f) for f in self.failed],
            "prune_rate": round(self.prune_rate, 4),
            "wall_time": self.wall_time,
        }


@dataclass
class SearchResult:
    """Final hits (exact, deterministic order) plus the tier accounting."""

    query: Sequence
    hits: List[SearchHit]
    stats: SearchStats
    complete: bool = True

    def to_dict(self, with_alignments: bool = True) -> dict:
        return {
            "query": self.query.name,
            "hits": [h.to_dict(with_alignments) for h in self.hits],
            "stats": self.stats.to_dict(),
            "complete": self.complete,
        }


def search(
    query,
    index: CorpusIndex,
    scheme: ScoringScheme,
    top_k: int = 10,
    config: Optional[AlignConfig] = None,
    *,
    min_score: int = 1,
    retries: int = 2,
    allow_partial: bool = False,
    deadline: Optional[float] = None,
    token: Optional[cancel.CancelToken] = None,
    on_update: Optional[Callable[[List[SearchHit], SearchStats], None]] = None,
) -> SearchResult:
    """Exact top-``top_k`` local alignment of ``query`` against an index.

    Returns the same ``(score, candidate, alignment)`` set brute-force
    Smith–Waterman over every corpus sequence would, ranked by
    ``(-score, corpus position)`` — the pruning tier only skips candidates
    *provably* unable to reach the running floor.

    Parameters
    ----------
    top_k:
        Hits to keep (``>= 1``).  Fewer may return if the corpus has
        fewer candidates scoring ``>= min_score``.
    config:
        :class:`AlignConfig` for the final top-K alignments: ``backend``
        (``serial`` | ``threads``), ``k`` and ``base_cells`` parameterize
        their FastLSA runs, and ``kernel`` picks the tier every sweep
        (tier 2 included) runs on.  Tier 2 always takes the lane-packed
        batch kernel whatever the backend.
    min_score:
        Hits must score at least this (default 1: empty matches are not
        hits).
    retries:
        Per-candidate retry budget for *transient* scoring failures.
    allow_partial:
        After retry exhaustion, record the candidate on
        ``result.stats.failed`` (and flip ``result.complete``) instead of
        raising :class:`CandidateFailedError`.  The returned hits stay
        exactly ordered over the candidates that scored.
    deadline:
        Seconds for the whole search; enforced one checkpoint per
        candidate via the cooperative-cancellation layer (raises
        :class:`~repro.errors.JobTimeoutError`).  Ignored when ``token``
        is given.
    on_update:
        Streaming hook: called with ``(top hits snapshot, stats)`` each
        time top-K membership changes (snapshots have no alignments);
        the NDJSON ``search`` op turns these into partial frames.
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    cfg = resolve_config(config, where="search")
    q = as_sequence(query, "query")
    if scheme.alphabet != index.alphabet:
        raise ConfigError(
            f"scheme alphabet {scheme.alphabet!r} does not match index "
            f"alphabet {index.alphabet!r}"
        )
    if token is None:
        token = cancel.CancelToken.after(deadline)

    stats = SearchStats(candidates=len(index))
    t0 = time.perf_counter()
    with obs.span("search.query", query=q.name, candidates=len(index), top_k=top_k):
        result = _run_search(
            q, index, scheme, top_k, cfg, min_score, retries,
            allow_partial, token, on_update, stats,
        )
    stats.wall_time = time.perf_counter() - t0
    obs.counter_add("search.queries")
    obs.counter_add("search.candidates", stats.candidates)
    obs.counter_add("search.pruned", stats.pruned)
    obs.counter_add("search.scored", stats.scored)
    obs.observe("search.prune_rate", stats.prune_rate)
    return result


def _run_search(
    q, index, scheme, top_k, cfg, min_score, retries,
    allow_partial, token, on_update, stats,
):
    with obs.span("search.bounds", candidates=len(index)):
        q_codes = scheme.encode(q.text)
        bounds = candidate_bounds(q_codes, index.histograms, index.lengths, scheme)
    order, ordered_bounds = descending_order(bounds)

    # (score, -corpus_index) min-heap of the current top-K: heap[0] is the
    # weakest kept hit, and on equal scores the *larger* index — exactly
    # the entry a better-ranked newcomer should displace.
    heap: List[Tuple[int, int]] = []
    scored: dict = {}  # corpus_index -> (score, best_cell)
    chunk = _batchdp.BATCH_LANES
    kernel = registry.resolve_tier(getattr(cfg, "kernel", None))

    def floor() -> int:
        return heap[0][0] if len(heap) >= top_k else min_score

    def snapshot() -> List[SearchHit]:
        top = sorted((-s, -ni) for s, ni in heap)  # (-score, corpus idx)
        return [
            SearchHit(index.names[idx], idx, -negscore, int(bounds[idx]))
            for negscore, idx in top
        ]

    pos = 0
    n = len(order)
    with obs.span("search.score", lanes=chunk):
        while pos < n:
            # assemble the next batch; bounds are sorted, so the first
            # prunable candidate prunes everything behind it too
            cut = floor()
            if ordered_bounds[pos] < cut:
                stats.pruned += n - pos
                break
            batch = order[pos:pos + chunk]
            keep = ordered_bounds[pos:pos + chunk] >= cut
            last_batch = not keep.all()
            if last_batch:
                kept = int(keep.sum())  # bounds sorted: a prefix survives
                stats.pruned += (n - pos) - kept
                batch = batch[:kept]
            pos += chunk

            changed = False
            for idx, cell in _score_batch(q_codes, index, scheme, batch, retries,
                                          allow_partial, token, stats, kernel, cut):
                scored[idx] = (cell[0], cell)
                score = cell[0]
                if score < min_score:
                    continue
                entry = (score, -idx)
                if len(heap) < top_k:
                    heapq.heappush(heap, entry)
                    changed = True
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
                    changed = True
            if changed and on_update is not None:
                on_update(snapshot(), stats)
            if last_batch:
                break

    with obs.span("search.align", hits=min(top_k, len(heap))):
        hits: List[SearchHit] = []
        for _negscore, idx in sorted((-s, -i) for s, i in heap):
            score, cell = scored[idx]
            target = index.sequence(idx)
            loc = fastlsa_local(q, target, scheme, config=cfg, best_cell=cell)
            if loc.score != score:
                raise AssertionError(
                    f"sweep score {score} != alignment score {loc.score} (library bug)"
                )
            stats.aligned += 1
            hits.append(SearchHit(target.name, idx, score, int(bounds[idx]), loc))

    return SearchResult(query=q, hits=hits, stats=stats, complete=not stats.failed)


def _sweep_lanes(q_codes, index, scheme, batch, token, stats, kernel, cut):
    """Lane-packed tier-2 sweep: one batch-kernel call per length bucket.

    Returns per-pair-shaped ``(idx, cell, exc)`` triples for candidates
    that scored (or whose fault injection failed — those flow into the
    shared retry machinery); lanes the kernel retired against the floor
    ``cut`` are counted straight into ``stats.pruned`` (their true score
    is provably below the floor, so skipping them cannot change the
    top-K, ties included).  When tracing, the enclosing ``search.score``
    span records the kernel variant every sweep ran (``batch_elem``,
    ``batch_isa``).
    """
    results: List[Tuple[int, Optional[tuple], Optional[BaseException]]] = []
    ok: List[int] = []
    for idx in batch:
        token.check()
        try:
            faults.inject(SITE_CANDIDATE_SCORE)
        except JobTimeoutError:
            raise
        except BaseException as exc:  # noqa: BLE001 - retried/reported by caller
            results.append((int(idx), None, exc))
            continue
        ok.append(int(idx))
    if not ok:
        return results

    provider = registry.get_batch_kernel(kernel)
    table = scheme.matrix.table
    inst = obs.current()
    span = inst.tracer.current_span() if inst is not None else None
    # Length-compatible sub-buckets: longest-first, cut when the next
    # target is under half the bucket's longest lane.
    order = sorted(ok, key=lambda i: -int(index.lengths[i]))
    groups: List[List[int]] = []
    for idx in order:
        n = int(index.lengths[idx])
        if groups and n >= _LANE_LENGTH_RATIO * int(index.lengths[groups[-1][0]]):
            groups[-1].append(idx)
        else:
            groups.append([idx])

    lanes_pruned = 0
    for group in groups:
        pack, lens = _batchdp.pack_lanes([index.codes_for(i) for i in group])
        B, Np = pack.shape
        if span is not None:
            v = provider.variant(len(q_codes), Np, table, scheme.gap_open,
                                 scheme.gap_extend)
            elems = set(span.attrs.get("batch_elem", "").split(",")) - {""}
            span.set(batch_elem=",".join(sorted(elems | {v["elem"]})),
                     batch_isa=v["isa"])
        with registry.use(kernel):
            if scheme.is_linear:
                s, bi, bj, pr = provider.best_cell_local(
                    q_codes, pack, lens, table, scheme.gap_open, floor=cut
                )
            else:
                s, bi, bj, pr = provider.best_cell_local_affine(
                    q_codes, pack, lens, table, scheme.gap_open,
                    scheme.gap_extend, floor=cut,
                )
        obs.counter_add("search.batch.sweeps")
        obs.observe("search.batch.lane_occupancy", _batchdp.lane_occupancy(B))
        obs.observe(
            "search.batch.pad_waste",
            1.0 - int(lens.sum()) / max(B * Np, 1),
        )
        for lane, idx in enumerate(group):
            if pr[lane]:
                stats.pruned += 1
                lanes_pruned += 1
            else:
                results.append(
                    (idx, (int(s[lane]), int(bi[lane]), int(bj[lane])), None)
                )
    if lanes_pruned:
        obs.counter_add("search.batch.lanes_pruned", lanes_pruned)
    return results


def _score_batch(q_codes, index, scheme, batch, retries, allow_partial,
                 token, stats, kernel, cut):
    """Score a batch of corpus positions; yields ``(idx, best_cell)``.

    First attempts ride the lane-packed batch kernel (a lone candidate
    takes the per-pair sweep, which is faster at one lane); retries of
    transient faults run per-pair.
    """
    if len(batch) > 1:
        results = _sweep_lanes(q_codes, index, scheme, batch, token, stats, kernel, cut)
    else:
        token.check()
        results = [_attempt_codes(q_codes, index, int(batch[0]), scheme, kernel)]

    for idx, cell, exc in results:
        attempts_left = retries
        while cell is None and attempts_left > 0 and getattr(exc, "transient", False):
            token.check()
            attempts_left -= 1
            stats.retries += 1
            obs.counter_add("search.retries")
            _, cell, exc = _attempt_codes(q_codes, index, idx, scheme, kernel)
        if cell is None:
            name = index.names[idx]
            if allow_partial:
                stats.failed.append((idx, name))
                obs.counter_add("search.candidates_failed")
                continue
            raise CandidateFailedError(
                f"candidate {idx} ({name!r}) failed after retries: {exc}",
                candidate=idx, name=name,
            ) from exc
        # everything scored — even hits that then miss the top-K — counts
        stats.scored += 1
        yield idx, cell


def _attempt_codes(q_codes, index, idx, scheme, kernel):
    """One per-pair tier-2 attempt: fault site + linear-space best-cell
    sweep over the index's code array for ``idx`` (no text decode).
    Returns ``(idx, best_cell, None)`` or ``(idx, None, exc)``."""
    try:
        faults.inject(SITE_CANDIDATE_SCORE)
        with registry.use(kernel):
            return idx, _best_cell_local(q_codes, index.codes_for(idx), scheme, None), None
    except JobTimeoutError:
        raise
    except BaseException as exc:  # noqa: BLE001 - classified by caller
        return idx, None, exc
