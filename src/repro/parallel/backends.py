"""Backend resolution: ``AlignConfig.backend`` → FastLSA hooks.

:func:`repro.core.fastlsa.fastlsa` calls :func:`backend_hooks` (lazily,
to keep ``core`` import-clean of the parallel package) whenever a config
selects a non-serial backend and no explicit hooks were passed.  Every
entry point that forwards ``config=`` — ``repro.align``, the ends-free
modes, :func:`~repro.core.batch.batch_align`, the service scheduler and
the CLI — therefore routes through here with no extra plumbing.

There is one parallel backend, ``threads``: the
:class:`ThreadPoolExecutor` tile wavefront of
:mod:`repro.parallel.pfastlsa`, borrowing the shared lifecycle pool and
a per-region score profile.  Only FillCache runs as a wavefront; the
dense Base Case stays serial in the calling thread, because base regions
are cache-sized by construction and dispatching them as tiny wavefronts
costs more than it saves.  The compiled kernel tier releases the GIL
around each C sweep, so tiles on different threads run on different
cores.
"""

from __future__ import annotations

from typing import Optional

from ..core.fastlsa import FastLSAHooks
from ..core.planner import resolve_backend
from ..scoring.scheme import ScoringScheme
from .pfastlsa import _parallel_fill_grid
from .tiles import default_uv

__all__ = ["backend_hooks"]


def backend_hooks(
    config, scheme: ScoringScheme, m: int, n: int
) -> Optional[FastLSAHooks]:
    """FastLSA hooks for ``config.backend``, or ``None`` for serial."""
    backend, workers = resolve_backend(config)
    if backend == "serial":
        return None
    u, v = _tile_shape(config, workers, m, n, affine=not scheme.is_linear)

    def fill(grid, a_c, b_c, sch, counter, skip_bottom_right=True):
        _parallel_fill_grid(
            grid, a_c, b_c, sch, counter, skip_bottom_right, workers, u, v
        )

    return FastLSAHooks(fill=fill)


def _tile_shape(config, workers: int, m: int, n: int, affine: bool):
    """Tile ``(u, v)``: calibration-shaped when the config carries an
    active ``tune`` profile, else :func:`default_uv`."""
    if getattr(config, "tune", None) not in (None, "off"):
        from ..tune.decision import tile_uv
        from ..tune.profile import load_profile

        profile = load_profile(config.tune)
        if profile is not None:
            return tile_uv(profile, workers, config.k, m, n, affine)
    return default_uv(workers, config.k)
