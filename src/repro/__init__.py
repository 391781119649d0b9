"""FastLSA: fast, linear-space, parallel & sequential sequence alignment.

A complete reproduction of *"FastLSA: A Fast, Linear-Space, Parallel and
Sequential Algorithm for Sequence Alignment"* (Driga, Lu, Schaeffer,
Szafron, Charter, Parsons; ICPP 2003 / journal version 2005).

Quick start::

    import repro

    scheme = repro.ScoringScheme(repro.blosum62(), repro.linear_gap(-10))
    result = repro.align("HEAGAWGHEE", "PAWHEAE", scheme)       # FastLSA
    print(result.score)
    print(repro.format_alignment(result, scheme=scheme))

Algorithms: :func:`fastlsa` (the paper's contribution, memory-adaptive via
``k`` and ``base_cells``), :func:`needleman_wunsch` (full matrix),
:func:`hirschberg` (linear space), :func:`smith_waterman` /
:func:`fastlsa_local` (local alignment), :func:`parallel_fastlsa`
(wavefront threads) and :func:`simulated_parallel_fastlsa` (deterministic
``P``-processor machine).  :func:`plan_alignment` picks FastLSA parameters
for a memory budget.
"""

from __future__ import annotations

from .errors import (
    AlignmentError,
    AlphabetError,
    BackpressureError,
    ConfigError,
    FastaError,
    JobTimeoutError,
    MemoryBudgetError,
    PathError,
    ProtocolError,
    QueueFullError,
    ReproError,
    SchedulerError,
    ScoringError,
    SequenceError,
    ServiceClosedError,
    ServiceError,
)
from .scoring import (
    AffineGap,
    GapModel,
    LinearGap,
    ScoringScheme,
    SubstitutionMatrix,
    affine_gap,
    blosum62,
    dna_simple,
    dna_unit,
    identity_matrix,
    linear_gap,
    match_mismatch_matrix,
    pam250,
    paper_scheme,
    scaled_pam250,
    table1_matrix,
)
from .align import (
    Alignment,
    AlignmentPath,
    AlignmentStats,
    Sequence,
    check_alignment,
    format_alignment,
    format_dpm,
    read_fasta,
    score_alignment,
    write_fasta,
)
from .baselines import (
    LocalAlignment,
    hirschberg,
    myers_miller,
    needleman_wunsch,
    smith_waterman,
)
from .core import (
    AlignConfig,
    BandedResult,
    EndsFree,
    EndsFreeAlignment,
    FastLSAConfig,
    batch_align,
    align_score,
    banded_align,
    banded_align_auto,
    ends_free_align,
    fastlsa,
    overlap_align,
    semiglobal_align,
)
from .core.local import fastlsa_local
from .core.planner import Plan, ops_ratio_bound, plan_alignment
from .kernels import KernelInstruments
from .obs import Instrumentation, MetricsRegistry, Tracer, instrumented
from .parallel import (
    SimulationReport,
    parallel_fastlsa,
    simulated_parallel_fastlsa,
)
from .workloads import dna_pair, protein_pair, sample_reads, sequence_pair
from .msa import (
    MultipleAlignment,
    Profile,
    align_to_profile,
    build_profile,
    center_star_msa,
)
from .search import (
    CorpusIndex,
    SearchHit,
    SearchResult,
    search,
)
from .service import AlignmentClient, AlignmentService, JobResult
from .version import __version__

#: Registry used by :func:`align` and the CLI.
ALGORITHMS = {
    "fastlsa": fastlsa,
    "needleman-wunsch": needleman_wunsch,
    "full-matrix": needleman_wunsch,
    "hirschberg": hirschberg,
}


def align(
    seq_a,
    seq_b,
    scheme: ScoringScheme,
    method: str = "fastlsa",
    config: "AlignConfig | None" = None,
    **kwargs,
) -> Alignment:
    """Globally align two sequences with the named algorithm.

    ``method`` is one of ``"fastlsa"`` (default), ``"needleman-wunsch"`` /
    ``"full-matrix"`` or ``"hirschberg"``.  ``config`` is the one way to
    parameterize FastLSA (an :class:`AlignConfig`); it is rejected for
    methods that take no alignment config.  Remaining keyword arguments
    are forwarded to the algorithm (the loose ``k=`` / ``base_cells=``
    keywords still work but are deprecated).
    """
    try:
        fn = ALGORITHMS[method]
    except KeyError:
        raise ConfigError(
            f"unknown method {method!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    if config is not None:
        if fn is not fastlsa:
            raise ConfigError(
                f"config= applies to FastLSA-backed methods; "
                f"{method!r} takes no alignment config"
            )
        kwargs["config"] = config
    return fn(seq_a, seq_b, scheme, **kwargs)


__all__ = [
    "__version__",
    "align",
    "ALGORITHMS",
    # errors
    "ReproError",
    "ConfigError",
    "SequenceError",
    "AlphabetError",
    "ScoringError",
    "AlignmentError",
    "PathError",
    "FastaError",
    "SchedulerError",
    "ServiceError",
    "BackpressureError",
    "QueueFullError",
    "MemoryBudgetError",
    "JobTimeoutError",
    "ServiceClosedError",
    "ProtocolError",
    # scoring
    "ScoringScheme",
    "SubstitutionMatrix",
    "GapModel",
    "LinearGap",
    "AffineGap",
    "linear_gap",
    "affine_gap",
    "blosum62",
    "pam250",
    "paper_scheme",
    "scaled_pam250",
    "table1_matrix",
    "dna_simple",
    "dna_unit",
    "identity_matrix",
    "match_mismatch_matrix",
    # align
    "Sequence",
    "Alignment",
    "AlignmentPath",
    "AlignmentStats",
    "check_alignment",
    "score_alignment",
    "format_alignment",
    "format_dpm",
    "read_fasta",
    "write_fasta",
    # algorithms
    "fastlsa",
    "AlignConfig",
    "FastLSAConfig",
    "batch_align",
    "needleman_wunsch",
    "hirschberg",
    "myers_miller",
    "smith_waterman",
    "LocalAlignment",
    "fastlsa_local",
    "EndsFree",
    "EndsFreeAlignment",
    "ends_free_align",
    "semiglobal_align",
    "overlap_align",
    "align_score",
    "BandedResult",
    "banded_align",
    "banded_align_auto",
    "parallel_fastlsa",
    "simulated_parallel_fastlsa",
    "SimulationReport",
    "KernelInstruments",
    # observability
    "Instrumentation",
    "MetricsRegistry",
    "Tracer",
    "instrumented",
    # search
    "CorpusIndex",
    "SearchHit",
    "SearchResult",
    "search",
    # service
    "AlignmentService",
    "AlignmentClient",
    "JobResult",
    # planning
    "Plan",
    "plan_alignment",
    "ops_ratio_bound",
    # workloads
    "dna_pair",
    "protein_pair",
    "sequence_pair",
    "sample_reads",
    # msa
    "MultipleAlignment",
    "Profile",
    "center_star_msa",
    "build_profile",
    "align_to_profile",
]
