"""Trace spans: nested, timed regions of one alignment or serving run.

A :class:`Span` covers one region of work — a FastLSA recursion level, a
FillCache band, a base-case solve, a wavefront tile (tagged with its
Figure-13 phase), or a service stage (queue → dispatch → batch → cache).
Spans nest: the :class:`Tracer` keeps a per-thread stack so ``with
tracer.span(...)`` parents automatically, and worker threads that compute
on behalf of a span in another thread attach explicitly via ``parent=``.

Two export shapes:

* :meth:`Tracer.to_rows` — flat, JSON-able rows compatible with
  :class:`repro.analysis.recorder.ExperimentRecorder`;
* :meth:`Tracer.chrome_trace` — the Chrome ``trace_event`` format
  (load the file at ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed, attributed region of work."""

    span_id: int
    name: str
    category: str = ""
    start: float = 0.0
    end: Optional[float] = None
    thread: int = 0
    parent_id: Optional[int] = None
    attrs: Dict = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall-clock seconds covered (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_time(self) -> float:
        """Duration not covered by child spans."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def set(self, **attrs) -> "Span":
        """Attach attributes; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, id={self.span_id}, children={len(self.children)})"


class _SpanHandle:
    """Context-manager wrapper binding a span to its tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.span.attrs.setdefault("error", type(exc).__name__)
        self._tracer.end_span(self.span)


class Tracer:
    """Collects a forest of spans from any number of threads.

    The per-thread current-span stack makes ``with tracer.span(...)``
    nest naturally within a thread; cross-thread children (wavefront
    tiles) pass ``parent=`` explicitly and never touch the stack of the
    thread that owns the parent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()
        self.roots: List[Span] = []

    # -- span lifecycle ------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread's stack, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start_span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        attach: bool = True,
        **attrs,
    ) -> Span:
        """Open a span; pair with :meth:`end_span`.

        With ``attach=True`` (default) the span is pushed on this
        thread's stack so nested ``span()`` calls become its children.
        ``attach=False`` is for long-lived spans ended from elsewhere
        (service jobs whose stages interleave across asyncio tasks).
        """
        if parent is None and attach:
            parent = self.current_span()
        span = Span(
            span_id=next(self._ids),
            name=name,
            category=category,
            start=time.perf_counter() - self._epoch,
            thread=threading.get_ident(),
            parent_id=parent.span_id if parent is not None else None,
            attrs=dict(attrs),
        )
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)
        if attach:
            self._stack().append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close a span (idempotent); pops it from this thread's stack."""
        if span.end is None:
            span.end = time.perf_counter() - self._epoch
        stack = self._stack()
        if span in stack:
            # Pop through, tolerating children left open by errors.
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        return span

    def span(
        self,
        name: str,
        category: str = "",
        parent: Optional[Span] = None,
        **attrs,
    ) -> _SpanHandle:
        """``with tracer.span("name") as sp:`` — open, yield, close."""
        return _SpanHandle(
            self, self.start_span(name, category, parent=parent, **attrs)
        )

    # -- introspection -------------------------------------------------
    def walk(self) -> List[Span]:
        """Every recorded span, depth-first from the roots."""
        out: List[Span] = []
        with self._lock:
            stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(span.children))
        return out

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in depth-first order."""
        return [s for s in self.walk() if s.name == name]

    def __len__(self) -> int:
        return len(self.walk())

    # -- export --------------------------------------------------------
    def to_rows(self) -> List[Dict]:
        """Flat recorder-compatible rows (one per span)."""
        rows: List[Dict] = []
        depths: Dict[int, int] = {}
        for span in self.walk():
            depth = depths.get(span.parent_id, -1) + 1 if span.parent_id else 0
            depths[span.span_id] = depth
            row = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "category": span.category,
                "depth": depth,
                "start": round(span.start, 9),
                "duration": round(span.duration, 9),
                "thread": span.thread,
            }
            row.update(span.attrs)
            rows.append(row)
        return rows

    def chrome_trace(self) -> Dict:
        """The span forest in Chrome ``trace_event`` JSON format."""
        events: List[Dict] = []
        for span in self.walk():
            events.append(
                {
                    "name": span.name,
                    "cat": span.category or "repro",
                    "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 0,
                    "tid": span.thread,
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def reset(self) -> None:
        """Drop every recorded span and restart the clock."""
        with self._lock:
            self.roots = []
        self._local = threading.local()
        self._epoch = time.perf_counter()


def _jsonable(value):
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
