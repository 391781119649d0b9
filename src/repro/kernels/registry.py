"""Kernel-provider registry: tiered, parity-gated DP kernels.

The registry is the single seam between algorithm code and kernel
implementations.  Callers never import :mod:`repro.kernels.linear` /
:mod:`repro.kernels.affine` directly for hot-path sweeps; they ask for a
provider::

    provider = get_kernel("affine", tier="auto")
    last = provider.sweep_last_row_col(a, b, table, open_, extend, ...)

A provider is a frozen capability object whose methods share the numpy
kernels' exact signatures per scheme kind (``linear`` methods take
``(.., gap, ..)``, ``affine`` methods ``(.., open_, extend, ..)``).

Tiers
-----
``numpy``
    The vectorised reference tier; always available.
``compiled``
    cffi/C per-cell loops (:mod:`repro.kernels.compiled`), present only
    when the ``repro.kernels._ckernels`` extension has been built (see
    :mod:`repro.kernels._ckernels_build`).  Detected at import and gated
    behind a mandatory parity self-check: every compiled entry point is
    run against its numpy twin on fixed deterministic inputs and must be
    bit-identical, otherwise the tier is disabled (silent numpy
    fallback) and the failure is recorded in :func:`parity_report`.
``auto``
    Resolves to ``compiled`` when available and parity-clean, else
    ``numpy``.

Tier selection for serial code flows through a context variable
(:func:`use` / :func:`active`); pool workers receive the resolved tier
explicitly because context variables do not cross thread/process
boundaries.
"""

from __future__ import annotations

import contextlib
import contextvars
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from . import affine as _aff
from . import banddp as _banddp
from . import batchdp as _batch
from . import linear as _lin
from . import traceback as _tb

__all__ = [
    "KernelProvider",
    "BatchKernelProvider",
    "KERNEL_TIERS",
    "SCHEME_KINDS",
    "get_kernel",
    "get_batch_kernel",
    "active_batch",
    "available_tiers",
    "compiled_available",
    "resolve_tier",
    "current_tier",
    "use",
    "active",
    "describe",
    "parity_report",
    "set_preferred_tier",
    "preferred_tier",
]

#: Legal values of ``AlignConfig.kernel`` (``None`` means ``"auto"``).
KERNEL_TIERS = ("auto", "numpy", "compiled")
SCHEME_KINDS = ("linear", "affine")


@dataclass(frozen=True)
class KernelProvider:
    """Capability-flagged bundle of kernel entry points for one scheme kind.

    Methods mirror the numpy tier's signatures exactly; outputs are
    bit-identical across tiers (enforced by the import-time parity gate).
    """

    name: str                 # tier name: "numpy" | "compiled"
    scheme_kind: str          # "linear" | "affine"
    compiled: bool            # True when backed by the C extension
    sweep_last_row_col: Callable = field(repr=False)
    sweep_band: Callable = field(repr=False)
    sweep_matrix: Callable = field(repr=False)
    best_cell_local: Callable = field(repr=False)
    band_fill: Callable = field(repr=False)
    #: FindPath over ``sweep_matrix``'s output: ``(points, end_layer)``
    #: with the points as one ``(L, 2)`` int64 array in traceback order.
    traceback: Callable = field(repr=False)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scheme_kind": self.scheme_kind,
            "compiled": self.compiled,
            "methods": [
                "sweep_last_row_col",
                "sweep_band",
                "sweep_matrix",
                "best_cell_local",
                "band_fill",
                "traceback",
            ],
        }


_NUMPY_LINEAR = KernelProvider(
    name="numpy",
    scheme_kind="linear",
    compiled=False,
    sweep_last_row_col=_lin.sweep_last_row_col,
    sweep_band=_lin.sweep_band,
    sweep_matrix=_lin.sweep_matrix,
    best_cell_local=_lin.best_cell_local,
    band_fill=_banddp.band_fill,
    traceback=_tb.trace_linear,
)

_NUMPY_AFFINE = KernelProvider(
    name="numpy",
    scheme_kind="affine",
    compiled=False,
    sweep_last_row_col=_aff.sweep_last_row_col_affine,
    sweep_band=_aff.sweep_band_affine,
    sweep_matrix=_aff.sweep_matrix_affine,
    best_cell_local=_aff.best_cell_local_affine,
    band_fill=_banddp.band_fill_affine,
    traceback=_tb.trace_affine,
)

# tier -> kind -> provider; "compiled" entries added by _detect().
_PROVIDERS: Dict[str, Dict[str, KernelProvider]] = {
    "numpy": {"linear": _NUMPY_LINEAR, "affine": _NUMPY_AFFINE},
}


@dataclass(frozen=True)
class BatchKernelProvider:
    """Lane-packed many-pair kernels (:mod:`repro.kernels.batchdp` API).

    One provider spans both scheme kinds: linear methods take ``gap``,
    affine methods ``(open_, extend)``, all over a ``pack_lanes``-packed
    ``(b_pack, b_lens)`` target set.  Outputs are bit-identical to the
    per-pair providers lane by lane (enforced by the same parity gate
    that guards the per-pair compiled tier).
    """

    name: str                 # tier name: "numpy" | "compiled"
    compiled: bool
    best_cell_local: Callable = field(repr=False)
    best_cell_local_affine: Callable = field(repr=False)
    score_global: Callable = field(repr=False)
    score_global_affine: Callable = field(repr=False)
    #: ``(M, Np, table, open_, extend) -> {"elem", "isa"}``: the cell type
    #: and ISA clone the best-local methods run for that call's shape.
    variant: Callable = field(repr=False)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scheme_kind": "batch",
            "compiled": self.compiled,
            "methods": [
                "best_cell_local",
                "best_cell_local_affine",
                "score_global",
                "score_global_affine",
            ],
        }


_NUMPY_BATCH = BatchKernelProvider(
    name="numpy",
    compiled=False,
    best_cell_local=_batch.batch_best_cell_local,
    best_cell_local_affine=_batch.batch_best_cell_local_affine,
    score_global=_batch.batch_score_global,
    score_global_affine=_batch.batch_score_global_affine,
    variant=lambda M, Np, table, open_, extend: {"elem": "int64", "isa": "numpy"},
)

# tier -> batch provider; "compiled" entry added by _detect().
_BATCH_PROVIDERS: Dict[str, BatchKernelProvider] = {"numpy": _NUMPY_BATCH}

#: Import-time detection/parity record, surfaced via parity_report().
_PARITY: Dict[str, Any] = {
    "compiled_available": False,
    "parity_ok": None,       # None = not built; True/False once checked
    "checks": [],            # [{"name": ..., "ok": bool}, ...]
    "error": None,           # import/build failure detail, if any
}


def _parity_cases() -> List[Tuple[str, Callable[[Any], bool]]]:
    """Deterministic parity checks: each returns True on bit-identity."""
    from . import compiled as comp

    rng_a = np.array(
        [0, 2, 1, 3, 0, 0, 2, 3, 1, 2, 0, 1, 3, 3, 2, 0, 1, 0, 2, 1, 3, 0, 2, 2],
        dtype=np.int16,
    )
    rng_b = np.array(
        [1, 2, 1, 0, 3, 0, 2, 1, 1, 2, 3, 1, 0, 3, 2, 0, 0, 1, 2, 3],
        dtype=np.int16,
    )
    table = np.full((5, 5), -3, dtype=np.int64)
    np.fill_diagonal(table, 5)
    table[4, :] = table[:, 4] = -1
    gap = -4
    open_, extend = -6, -1
    m, n = len(rng_a), len(rng_b)

    lin_row, lin_col = _lin.boundary_vectors(m, n, gap)
    aff_rh, aff_rf, aff_ch, aff_ce = _aff.affine_boundaries(m, n, open_, extend)
    samples = np.array([1, n // 2, n], dtype=np.int64)

    # FindPath: the fixed scheme plus a tie-heavy one (a mismatch costs
    # exactly two gaps, and an affine open equals its extend, so DIAG,
    # DOWN, LEFT and the H/E/F layer switches all tie), from the corner,
    # an interior cell and a boundary cell, and for affine from each of
    # the three layers.
    tie = np.where(np.eye(5, dtype=bool), 2, -2).astype(np.int64)
    starts = [(m, n), (m // 2, n - 3), (0, n), (m, 0)]

    def trace_lin():
        for tbl, g in ((table, gap), (tie, -1)):
            row, col = _lin.boundary_vectors(m, n, g)
            H = _lin.sweep_matrix(rng_a, rng_b, tbl, g, row, col)
            for si, sj in starts:
                args = (H, rng_a, rng_b, tbl, g, si, sj)
                yield _tb.trace_linear(*args), comp.trace_linear(*args)

    def trace_aff():
        for tbl, o, e in ((table, open_, extend), (tie, -2, -2)):
            bounds = _aff.affine_boundaries(m, n, o, e)
            H, E, F = _aff.sweep_matrix_affine(rng_a, rng_b, tbl, o, e, *bounds)
            for si, sj in starts:
                for layer in (0, 1, 2):
                    args = (H, E, F, rng_a, rng_b, tbl, o, e, si, sj, layer)
                    yield _tb.trace_affine(*args), comp.trace_affine(*args)

    def eq(x, y) -> bool:
        if isinstance(x, tuple):
            return all(eq(xi, yi) for xi, yi in zip(x, y))
        if isinstance(x, np.ndarray):
            return bool(np.array_equal(x, np.asarray(y)))
        return x == y

    cases: List[Tuple[str, Callable[[], bool]]] = [
        (
            "linear.sweep_last_row_col",
            lambda: eq(
                _lin.sweep_last_row_col(rng_a, rng_b, table, gap, lin_row, lin_col),
                comp.sweep_last_row_col(rng_a, rng_b, table, gap, lin_row, lin_col),
            ),
        ),
        (
            "linear.sweep_band",
            lambda: eq(
                _lin.sweep_band(rng_a, rng_b, table, gap, lin_row, lin_col, samples),
                comp.sweep_band(rng_a, rng_b, table, gap, lin_row, lin_col, samples),
            ),
        ),
        (
            "linear.sweep_matrix",
            lambda: eq(
                _lin.sweep_matrix(rng_a, rng_b, table, gap, lin_row, lin_col),
                comp.sweep_matrix(rng_a, rng_b, table, gap, lin_row, lin_col),
            ),
        ),
        (
            "linear.best_cell_local",
            lambda: eq(
                _lin.best_cell_local(rng_a, rng_b, table, gap),
                comp.best_cell_local(rng_a, rng_b, table, gap),
            ),
        ),
        (
            "linear.best_cell_global",
            lambda: eq(
                _lin.best_cell_local(rng_a, rng_b, table, gap, clamp=False),
                comp.best_cell_local(rng_a, rng_b, table, gap, clamp=False),
            ),
        ),
        (
            "linear.band_fill",
            lambda: eq(
                _banddp.band_fill(rng_a, rng_b, table, gap, 3),
                comp.band_fill(rng_a, rng_b, table, gap, 3),
            ),
        ),
        (
            "affine.sweep_last_row_col",
            lambda: eq(
                _aff.sweep_last_row_col_affine(
                    rng_a, rng_b, table, open_, extend, aff_rh, aff_rf, aff_ch, aff_ce
                ),
                comp.sweep_last_row_col_affine(
                    rng_a, rng_b, table, open_, extend, aff_rh, aff_rf, aff_ch, aff_ce
                ),
            ),
        ),
        (
            "affine.sweep_band",
            lambda: eq(
                _aff.sweep_band_affine(
                    rng_a, rng_b, table, open_, extend,
                    aff_rh, aff_rf, aff_ch, aff_ce, samples,
                ),
                comp.sweep_band_affine(
                    rng_a, rng_b, table, open_, extend,
                    aff_rh, aff_rf, aff_ch, aff_ce, samples,
                ),
            ),
        ),
        (
            "affine.sweep_matrix",
            lambda: eq(
                _aff.sweep_matrix_affine(
                    rng_a, rng_b, table, open_, extend, aff_rh, aff_rf, aff_ch, aff_ce
                ),
                comp.sweep_matrix_affine(
                    rng_a, rng_b, table, open_, extend, aff_rh, aff_rf, aff_ch, aff_ce
                ),
            ),
        ),
        (
            "affine.best_cell_local",
            lambda: eq(
                _aff.best_cell_local_affine(rng_a, rng_b, table, open_, extend),
                comp.best_cell_local_affine(rng_a, rng_b, table, open_, extend),
            ),
        ),
        (
            "affine.best_cell_global",
            lambda: eq(
                _aff.best_cell_local_affine(
                    rng_a, rng_b, table, open_, extend, clamp=False
                ),
                comp.best_cell_local_affine(
                    rng_a, rng_b, table, open_, extend, clamp=False
                ),
            ),
        ),
        (
            "affine.band_fill",
            lambda: eq(
                _banddp.band_fill_affine(rng_a, rng_b, table, open_, extend, 3),
                comp.band_fill_affine(rng_a, rng_b, table, open_, extend, 3),
            ),
        ),
        ("traceback.linear", lambda: all(eq(x, y) for x, y in trace_lin())),
        ("traceback.affine", lambda: all(eq(x, y) for x, y in trace_aff())),
    ]

    # Lane-packed batch kernels: ragged lanes (including an empty one)
    # cut from the same fixed target, checked with and without a floor so
    # the early-exit path is parity-gated too.
    lanes = [rng_b, rng_b[:13], rng_b[5:17], rng_b[:0], rng_b[2:9]]
    b_pack, b_lens = _batch.pack_lanes(lanes)
    floor = 30
    wide_pack, wide_lens = _batch.pack_lanes(
        [rng_b[k % 7:k % 7 + (k * 5) % 14] for k in range(21)]
    )
    big = table << 28
    cases += [
        (
            "batch.best_cell_local",
            lambda: eq(
                _batch.batch_best_cell_local(rng_a, b_pack, b_lens, table, gap),
                comp.batch_best_cell_local(rng_a, b_pack, b_lens, table, gap),
            ),
        ),
        (
            "batch.best_cell_local.floor",
            lambda: eq(
                _batch.batch_best_cell_local(
                    rng_a, b_pack, b_lens, table, gap, floor=floor
                ),
                comp.batch_best_cell_local(
                    rng_a, b_pack, b_lens, table, gap, floor=floor
                ),
            ),
        ),
        (
            "batch.best_cell_local_affine",
            lambda: eq(
                _batch.batch_best_cell_local_affine(
                    rng_a, b_pack, b_lens, table, open_, extend
                ),
                comp.batch_best_cell_local_affine(
                    rng_a, b_pack, b_lens, table, open_, extend
                ),
            ),
        ),
        (
            "batch.best_cell_local_affine.floor",
            lambda: eq(
                _batch.batch_best_cell_local_affine(
                    rng_a, b_pack, b_lens, table, open_, extend, floor=floor
                ),
                comp.batch_best_cell_local_affine(
                    rng_a, b_pack, b_lens, table, open_, extend, floor=floor
                ),
            ),
        ),
        (
            # more than one 16-lane block, the last one partly filled
            "batch.best_cell_local_affine.wide",
            lambda: eq(
                _batch.batch_best_cell_local_affine(
                    rng_a, wide_pack, wide_lens, table, open_, extend, floor=floor
                ),
                comp.batch_best_cell_local_affine(
                    rng_a, wide_pack, wide_lens, table, open_, extend, floor=floor
                ),
            ),
        ),
        (
            # scores too large for int32 cells: the int64 instance
            "batch.best_cell_local.int64",
            lambda: comp.batch_elem(m, wide_pack.shape[1], big, gap, gap) == "int64"
            and eq(
                _batch.batch_best_cell_local(rng_a, wide_pack, wide_lens, big, gap),
                comp.batch_best_cell_local(rng_a, wide_pack, wide_lens, big, gap),
            ),
        ),
        (
            "batch.score_global",
            lambda: eq(
                _batch.batch_score_global(rng_a, b_pack, b_lens, table, gap),
                comp.batch_score_global(rng_a, b_pack, b_lens, table, gap),
            ),
        ),
        (
            "batch.score_global_affine",
            lambda: eq(
                _batch.batch_score_global_affine(
                    rng_a, b_pack, b_lens, table, open_, extend
                ),
                comp.batch_score_global_affine(
                    rng_a, b_pack, b_lens, table, open_, extend
                ),
            ),
        ),
    ]
    return cases


_CDEF_DECL = re.compile(r"(\w+)\s+(\w+)\(([^)]*)\);")


def _stale_entry_points(ffi, lib) -> List[str]:
    """Entry points of the build ``CDEF`` that ``lib`` lacks or exports
    with another signature (an extension built from older sources)."""
    from ._ckernels_build import CDEF

    stale = []
    for result, name, args in _CDEF_DECL.findall(CDEF):
        want = ffi.typeof(f"{result}(*)({args})")
        fn = getattr(lib, name, None)
        have = ffi.typeof(fn) if fn is not None else None
        if have is None or (have.result, have.args) != (want.result, want.args):
            stale.append(name)
    return stale


def _detect() -> None:
    """Probe the compiled extension and parity-gate it.  Never raises."""
    try:
        from . import compiled as comp
    except Exception as exc:  # extension not built (or broken build)
        _PARITY["error"] = f"{type(exc).__name__}: {exc}"
        return

    try:
        stale = _stale_entry_points(comp.ffi, comp.lib)
    except Exception as exc:  # an unreadable build counts as a stale one
        stale = [f"{type(exc).__name__}: {exc}"]
    if stale:
        # A .so built from older C sources: a missing entry point or a
        # changed argument list would crash or misread arguments, so the
        # whole tier is unavailable (same gate semantics as a parity
        # failure) rather than half-populated.
        _PARITY["parity_ok"] = False
        _PARITY["error"] = (
            f"extension predates the current kernel signatures ({', '.join(stale)}); "
            "rebuild with `python -m repro.kernels._ckernels_build`"
        )
        return

    checks: List[Dict[str, Any]] = []
    ok = True
    for name, check in _parity_cases():
        try:
            passed = bool(check())
        except Exception as exc:  # a crashing kernel also fails parity
            passed = False
            checks.append({"name": name, "ok": False, "error": repr(exc)})
            ok = False
            continue
        checks.append({"name": name, "ok": passed})
        ok = ok and passed
    _PARITY["checks"] = checks
    _PARITY["parity_ok"] = ok
    if not ok:
        _PARITY["error"] = "parity self-check failed; compiled tier disabled"
        return

    _PARITY["compiled_available"] = True
    _PROVIDERS["compiled"] = {
        "linear": KernelProvider(
            name="compiled",
            scheme_kind="linear",
            compiled=True,
            sweep_last_row_col=comp.sweep_last_row_col,
            sweep_band=comp.sweep_band,
            sweep_matrix=comp.sweep_matrix,
            best_cell_local=comp.best_cell_local,
            band_fill=comp.band_fill,
            traceback=comp.trace_linear,
        ),
        "affine": KernelProvider(
            name="compiled",
            scheme_kind="affine",
            compiled=True,
            sweep_last_row_col=comp.sweep_last_row_col_affine,
            sweep_band=comp.sweep_band_affine,
            sweep_matrix=comp.sweep_matrix_affine,
            best_cell_local=comp.best_cell_local_affine,
            band_fill=comp.band_fill_affine,
            traceback=comp.trace_affine,
        ),
    }
    _BATCH_PROVIDERS["compiled"] = BatchKernelProvider(
        name="compiled",
        compiled=True,
        best_cell_local=comp.batch_best_cell_local,
        best_cell_local_affine=comp.batch_best_cell_local_affine,
        score_global=comp.batch_score_global,
        score_global_affine=comp.batch_score_global_affine,
        variant=comp.batch_variant,
    )


_detect()


def compiled_available() -> bool:
    """True when the compiled tier is built and passed the parity gate."""
    return bool(_PARITY["compiled_available"])


def available_tiers() -> Tuple[str, ...]:
    """Concrete tiers usable right now (``auto`` excluded)."""
    return tuple(t for t in ("numpy", "compiled") if t in _PROVIDERS)


def parity_report() -> Dict[str, Any]:
    """Import-time detection + parity record (stable, JSON-serialisable)."""
    return {
        "compiled_available": _PARITY["compiled_available"],
        "parity_ok": _PARITY["parity_ok"],
        "checks": [dict(c) for c in _PARITY["checks"]],
        "error": _PARITY["error"],
    }


#: Process-wide override of what ``auto`` resolves to, set from a
#: calibration profile (``repro.tune``) when the *measured* ranking of
#: the tiers disagrees with the static compiled-first preference.
_PREFERRED_TIER: Optional[str] = None


def set_preferred_tier(tier: Optional[str]) -> None:
    """Override what ``auto``/``None`` resolve to, process-wide.

    Used by calibration-aware entry points (``fastlsa serve --tune``)
    after measuring the tiers on this host; ``None`` restores the static
    default (compiled when available).  The tier must be concrete and
    currently available.
    """
    global _PREFERRED_TIER
    if tier is not None:
        if tier not in ("numpy", "compiled"):
            raise ConfigError(
                f"preferred tier must be 'numpy', 'compiled' or None, got {tier!r}"
            )
        if tier == "compiled" and not compiled_available():
            raise ConfigError(
                "cannot prefer kernel tier 'compiled': extension unavailable"
            )
    _PREFERRED_TIER = tier


def preferred_tier() -> Optional[str]:
    """The current :func:`set_preferred_tier` override (``None`` if unset)."""
    return _PREFERRED_TIER


def resolve_tier(tier: Optional[str]) -> str:
    """Resolve a requested tier to a concrete one (``numpy``/``compiled``).

    ``None`` and ``"auto"`` prefer the measured
    :func:`set_preferred_tier` override when one is installed, else the
    compiled tier when available.  An explicit ``"compiled"`` raises
    :class:`~repro.errors.ConfigError` when the extension is absent or
    failed parity — silent degradation is reserved for ``auto``.
    """
    if tier is None or tier == "auto":
        if _PREFERRED_TIER is not None:
            return _PREFERRED_TIER
        return "compiled" if compiled_available() else "numpy"
    if tier not in KERNEL_TIERS:
        raise ConfigError(
            f"unknown kernel tier {tier!r}; expected one of {KERNEL_TIERS}"
        )
    if tier == "compiled" and not compiled_available():
        detail = _PARITY["error"] or "extension not built"
        raise ConfigError(
            "kernel tier 'compiled' is unavailable "
            f"({detail}); build it with `python -m repro.kernels._ckernels_build` "
            "or use kernel='auto'"
        )
    return tier


def get_kernel(scheme_kind: str, tier: Optional[str] = "auto") -> KernelProvider:
    """Return the provider for ``scheme_kind`` at the requested tier."""
    if scheme_kind not in SCHEME_KINDS:
        raise ConfigError(
            f"unknown scheme kind {scheme_kind!r}; expected one of {SCHEME_KINDS}"
        )
    return _PROVIDERS[resolve_tier(tier)][scheme_kind]


def get_batch_kernel(tier: Optional[str] = "auto") -> BatchKernelProvider:
    """Return the lane-packed batch provider at the requested tier."""
    return _BATCH_PROVIDERS[resolve_tier(tier)]


# ---------------------------------------------------------------------------
# Ambient tier selection (serial call paths).
# ---------------------------------------------------------------------------

_ACTIVE_TIER: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_kernel_tier", default="auto"
)


def current_tier() -> str:
    """The concrete tier serial code resolves to right now."""
    return resolve_tier(_ACTIVE_TIER.get())


@contextlib.contextmanager
def use(tier: Optional[str]):
    """Select the ambient kernel tier for the enclosed (serial) calls.

    Resolution happens eagerly so an impossible explicit request fails at
    the call boundary, not deep inside a sweep.  Context variables do not
    propagate into pool workers — parallel backends ship the resolved
    tier explicitly instead.
    """
    token = _ACTIVE_TIER.set(resolve_tier(tier))
    try:
        yield
    finally:
        _ACTIVE_TIER.reset(token)


def active(scheme_kind: str) -> KernelProvider:
    """Provider for ``scheme_kind`` at the ambient tier."""
    return get_kernel(scheme_kind, _ACTIVE_TIER.get())


def active_batch() -> BatchKernelProvider:
    """Lane-packed batch provider at the ambient tier."""
    return get_batch_kernel(_ACTIVE_TIER.get())


def describe() -> Dict[str, Any]:
    """Registry inventory for ``fastlsa kernels`` (JSON-serialisable)."""
    providers: List[Dict[str, Any]] = []
    for tier in ("numpy", "compiled"):
        kinds = _PROVIDERS.get(tier)
        if not kinds:
            continue
        for kind in SCHEME_KINDS:
            providers.append(kinds[kind].describe())
        if tier in _BATCH_PROVIDERS:
            providers.append(_BATCH_PROVIDERS[tier].describe())
    parity = parity_report()
    return {
        "available": list(available_tiers()),
        "default": resolve_tier(None),
        "compiled": {
            "available": parity["compiled_available"],
            "error": parity["error"],
        },
        "providers": providers,
        "parity": {"ok": parity["parity_ok"], "checks": parity["checks"]},
    }
