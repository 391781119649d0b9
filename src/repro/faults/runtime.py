"""The fault-injection hook: context-propagated, free when off.

Mirrors :mod:`repro.obs.runtime` exactly: instrumented code calls the
module-level helpers (:func:`inject`, :func:`corrupt`) at its named sites;
with no plan active they return after a single context-variable read and a
global check — no locks, no allocation, no RNG draw.  Activation uses the
same two-level scheme as the obs layer:

* :func:`chaos` scopes a plan with a :class:`contextvars.ContextVar`
  (nesting-safe for tests), **and**
* sets a process-global fallback so worker threads — which do not inherit
  context variables — observe the same plan (wavefront tiles run on pool
  threads).

Typical use::

    from repro import faults

    plan = faults.named_plan("flaky-tiles", seed=7)
    with faults.chaos(plan):
        service_runs_a_workload()
    plan.stats()          # which sites fired, how often
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Optional

from .plan import FaultPlan

__all__ = ["current", "enable", "disable", "chaos", "inject", "corrupt", "reset_scope"]

_scoped: ContextVar[Optional[FaultPlan]] = ContextVar("repro_faults", default=None)
_global: Optional[FaultPlan] = None


def current() -> Optional[FaultPlan]:
    """The active fault plan, or ``None`` (the usual, healthy state)."""
    plan = _scoped.get()
    return plan if plan is not None else _global


def enable(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide; returns it."""
    global _global
    _global = plan
    return plan


def disable() -> None:
    """Remove the process-global fault plan."""
    global _global
    _global = None


def reset_scope() -> None:
    """Drop any :func:`chaos` scope inherited into this context.

    Forked shard processes copy the parent's context variables; a shard
    started inside a ``chaos()`` block would keep perturbing from the
    parent's (copy-on-write) plan.  Shards call this once at startup so
    only the plan the router ships them applies.
    """
    _scoped.set(None)


@contextmanager
def chaos(plan: FaultPlan):
    """Activate a fault plan for a ``with`` block; yields it.

    Sets both the context-variable scope and the process-global so thread
    pools doing this scope's work inject too (same model as
    :func:`repro.obs.instrumented`).
    """
    global _global
    token = _scoped.set(plan)
    previous = _global
    _global = plan
    try:
        yield plan
    finally:
        _global = previous
        _scoped.reset(token)


# ----------------------------------------------------------------------
# null-safe helpers: the only API instrumented library code needs
# ----------------------------------------------------------------------
def inject(site: str) -> None:
    """Raise or delay at ``site`` if the active plan says so; else no-op."""
    plan = current()
    if plan is not None:
        plan.perturb(site)


def corrupt(site: str, value, mutator: Callable):
    """Possibly corrupt ``value`` at ``site``; identity when no plan fires.

    ``mutator`` must return a corrupted **copy** — sites share the
    original object with live callers, and only the stored/transmitted
    copy is supposed to rot.
    """
    plan = current()
    if plan is None:
        return value
    return plan.corrupt_value(site, value, mutator)
