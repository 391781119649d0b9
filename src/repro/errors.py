"""Exception hierarchy for the FastLSA reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of :mod:`repro` with a single ``except`` clause
while still distinguishing configuration mistakes from data problems.
"""

from __future__ import annotations

__all__ = [
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
    "InjectedFaultError",
    "CircuitOpenError",
    "ConnectionLostError",
    "SearchError",
    "IndexFormatError",
    "CorruptIndexError",
    "CandidateFailedError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigError(ReproError, ValueError):
    """An algorithm or planner was configured with invalid parameters.

    Examples: ``k < 2`` for FastLSA, a base-case buffer too small to hold a
    single DP cell, a non-positive processor count for the parallel
    machinery.
    """


class SequenceError(ReproError, ValueError):
    """A biological sequence failed validation (empty name, bad type, ...)."""


class AlphabetError(SequenceError):
    """A sequence contains symbols outside the scoring scheme's alphabet."""


class ScoringError(ReproError, ValueError):
    """A scoring matrix or gap model is malformed.

    Raised for non-square matrices, alphabets with duplicate symbols,
    non-integer scores, or affine gap models whose extension penalty is
    *worse* than the opening penalty (which breaks the Gotoh scan
    decomposition used by the vectorised kernels).
    """


class AlignmentError(ReproError, ValueError):
    """An alignment object is internally inconsistent."""


class PathError(AlignmentError):
    """A dynamic-programming path violates the move/monotonicity invariants."""


class FastaError(ReproError, ValueError):
    """A FASTA stream could not be parsed."""


class SchedulerError(ReproError, RuntimeError):
    """The wavefront scheduler detected an impossible state.

    This indicates a bug (a tile scheduled before its dependencies, a cyclic
    dependency graph, a simulated machine asked to run zero tasks forever)
    rather than a user error.
    """


class ServiceError(ReproError, RuntimeError):
    """Base class for alignment-service (``fastlsa serve``) failures."""


class BackpressureError(ServiceError):
    """A submission was rejected because the service is saturated.

    Subclasses distinguish the two admission-control limits: queue depth
    (:class:`QueueFullError`) and the global memory budget
    (:class:`MemoryBudgetError`).  Clients should back off and retry, or
    shed load.
    """


class QueueFullError(BackpressureError):
    """The service's pending-job queue is at its configured depth limit."""


class MemoryBudgetError(BackpressureError):
    """A job cannot be planned within the governor's per-job cell allocation.

    Raised at admission time: the memory governor splits the process-wide
    cell budget across workers, and :func:`repro.core.planner.plan_alignment`
    could not fit the requested problem into that per-job share even in the
    ``k = 2`` linear-space configuration.
    """


class JobTimeoutError(ServiceError):
    """A job exceeded its deadline while queued or running."""


class ServiceClosedError(ServiceError):
    """A submission arrived after the service began shutting down."""


class ProtocolError(ServiceError):
    """A service request (NDJSON line) is malformed or names an unknown op."""


class InjectedFaultError(ReproError, RuntimeError):
    """A fault deliberately raised by the :mod:`repro.faults` runtime.

    ``site`` names the injection point; ``transient`` marks the fault as
    retryable (the service retry policy treats transient injected faults
    like any other transient backend failure).
    """

    def __init__(self, site: str, message: str = "", transient: bool = True) -> None:
        super().__init__(message or f"injected fault at {site}")
        self.site = site
        self.transient = transient


class CircuitOpenError(ServiceError):
    """A backend kernel's circuit breaker is open: fail fast, don't compute.

    Raised when repeated backend failures opened the breaker and no
    degraded backend is available for the job.  Clients should back off;
    the breaker lets a trial request through after its reset interval.
    """


class SearchError(ReproError, RuntimeError):
    """Base class for corpus-search (:mod:`repro.search`) failures."""


class IndexFormatError(SearchError, ValueError):
    """A corpus index file is unreadable: bad magic, unsupported version,
    or a malformed header.  The file was not produced by ``fastlsa index``
    (or was truncated so early that not even the header survives)."""


class CorruptIndexError(IndexFormatError):
    """A corpus index failed its integrity check: the stored fingerprint
    does not match the loaded payload (bitrot, truncation, tampering).

    The loader raises instead of returning a silently-wrong corpus —
    search results over a rotten index would look plausible but be wrong,
    which is the one failure mode the search tier must never have.
    """


class CandidateFailedError(SearchError):
    """A corpus candidate could not be scored after exhausting retries.

    ``candidate`` is the corpus position, ``name`` the sequence id.  In
    strict mode (the default) the whole search fails with this error; in
    ``allow_partial`` mode the candidate is recorded on the result and the
    remaining top-K stays exactly ordered over the scored candidates.
    """

    def __init__(self, message: str, candidate: int = -1, name: str = "") -> None:
        super().__init__(message)
        self.candidate = candidate
        self.name = name


class ConnectionLostError(ServiceError, ConnectionError):
    """A service connection dropped mid-request after exhausting retries.

    ``partial`` carries whatever response fragment was received before the
    drop and ``attempts`` the number of connection attempts made, so
    callers can distinguish "never reached the server" from "the response
    was cut off".
    """

    def __init__(self, message: str, partial: str = "", attempts: int = 0) -> None:
        super().__init__(message)
        self.partial = partial
        self.attempts = attempts
