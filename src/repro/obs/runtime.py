"""The single instrumentation hook the whole library reports through.

Design goals (in priority order):

1. **Zero cost when off.**  Instrumented code calls the module-level
   helpers (:func:`span`, :func:`counter_add`, :func:`gauge_set`,
   :func:`observe`); with no instrumentation installed they return a
   shared no-op immediately — one context-variable read, no allocation
   of spans or metrics, no locks.
2. **One hook, every layer.**  Kernels, the FastLSA recursion, the
   wavefront executor and the service all consult the same
   :func:`current` — installing one :class:`Instrumentation` observes
   the full stack without threading new parameters through it.
3. **Context propagation.**  :func:`instrumented` scopes activation with
   a :class:`contextvars.ContextVar` (nesting-safe); a process-global
   fallback makes the instrumentation visible to worker threads, which
   do not inherit context variables.

Typical use::

    from repro import obs

    with obs.instrumented() as inst:
        repro.fastlsa(a, b, scheme)
    inst.tracer.chrome_trace()     # spans
    inst.metrics.snapshot()        # counters/gauges/histograms
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from .metrics import MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "Instrumentation",
    "current",
    "enable",
    "disable",
    "instrumented",
    "reset_scope",
    "span",
    "counter_add",
    "gauge_set",
    "gauge_add",
    "observe",
    "NULL_SPAN",
]


class Instrumentation:
    """A tracer plus a metrics registry: one observation surface."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def span(self, name: str, category: str = "", parent: Optional[Span] = None, **attrs):
        """Shorthand for ``self.tracer.span(...)``."""
        return self.tracer.span(name, category, parent=parent, **attrs)

    def reset(self) -> None:
        """Clear all recorded spans and metrics."""
        self.tracer.reset()
        self.metrics.reset()


class _NullSpan:
    """Context manager standing in for a span when instrumentation is off.

    ``__enter__`` yields ``None`` so instrumented code can guard optional
    attribute writes with ``if sp is not None``.
    """

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: Shared no-op span; returned by :func:`span` when instrumentation is off.
NULL_SPAN = _NullSpan()

_scoped: ContextVar[Optional[Instrumentation]] = ContextVar("repro_obs", default=None)
_global: Optional[Instrumentation] = None


def current() -> Optional[Instrumentation]:
    """The active instrumentation, or ``None`` (the usual, no-op state).

    Checks the context-variable scope first (set by :func:`instrumented`),
    then the process-global set by :func:`enable` — worker threads that do
    not inherit context variables still observe the global.
    """
    inst = _scoped.get()
    return inst if inst is not None else _global


def enable(inst: Optional[Instrumentation] = None) -> Instrumentation:
    """Install ``inst`` (or a fresh one) process-wide; returns it."""
    global _global
    _global = inst if inst is not None else Instrumentation()
    return _global


def disable() -> None:
    """Remove the process-global instrumentation."""
    global _global
    _global = None


def reset_scope() -> None:
    """Drop any :func:`instrumented` scope inherited into this context.

    Forked shard processes copy the parent's context variables, so a
    shard started inside an ``instrumented()`` block would silently
    record into the parent's (now private, copy-on-write) tracer instead
    of whatever :func:`enable` installs.  Shards call this once at
    startup so only their own explicit ``enable`` is observed.
    """
    _scoped.set(None)


@contextmanager
def instrumented(inst: Optional[Instrumentation] = None):
    """Activate instrumentation for a ``with`` block; yields it.

    Sets both the context-variable scope (so nested scopes restore
    correctly) and the process-global (so thread pools doing this scope's
    work observe it too).  Scopes are not isolated across concurrently
    running threads — a process observes one instrumentation at a time,
    which is the serving layer's model as well.
    """
    global _global
    inst = inst if inst is not None else Instrumentation()
    token = _scoped.set(inst)
    previous = _global
    _global = inst
    try:
        yield inst
    finally:
        _global = previous
        _scoped.reset(token)


# ----------------------------------------------------------------------
# null-safe helpers: the only API instrumented library code needs
# ----------------------------------------------------------------------
def span(name: str, category: str = "", parent: Optional[Span] = None, **attrs):
    """A tracer span if instrumentation is on, else the shared no-op."""
    inst = current()
    if inst is None:
        return NULL_SPAN
    return inst.tracer.span(name, category, parent=parent, **attrs)


def counter_add(name: str, n: int = 1) -> None:
    """Increment a counter if instrumentation is on."""
    inst = current()
    if inst is not None:
        inst.metrics.counter(name).inc(n)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge if instrumentation is on."""
    inst = current()
    if inst is not None:
        inst.metrics.gauge(name).set(value)


def gauge_add(name: str, delta: float) -> None:
    """Adjust a gauge if instrumentation is on."""
    inst = current()
    if inst is not None:
        inst.metrics.gauge(name).add(delta)


def observe(name: str, value: float) -> None:
    """Record a histogram observation if instrumentation is on."""
    inst = current()
    if inst is not None:
        inst.metrics.histogram(name).observe(value)
