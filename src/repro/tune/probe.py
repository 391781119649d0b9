"""The calibration probe behind ``fastlsa calibrate``.

Measures, on the *current* host, every curve the decision layer consumes:

* cells/s per kernel tier (``align_score`` sweeps, linear + affine);
* end-to-end FastLSA cells/s per backend × worker count (serial always,
  plus every parallel point up to the CPU count);
* per-tile handoff overhead of each parallel backend (the excess of the
  parallel wall time over serial, amortised over the top-level tile
  count — the Theorem-4 model's per-tile constant, measured);
* band-fill throughput (the fill-only verify-or-widen loop, using its
  exact cell accounting);
* a Base-Case-buffer (``BM``) sweep — serial throughput at several buffer
  sizes, locating the cache-sized sweet spot the paper tunes for.

The lane-packed batch kernels are not timed: they run at the fixed
:data:`~repro.kernels.batchdp.BATCH_LANES` width, so the profile only
records which best-local variant (``{"elem", "isa"}``) each tier runs.

Everything is seeded and median-of-``repeats``; ``quick=True`` shrinks
inputs and repeats for CI smoke (seconds instead of tens of seconds).
The result is a :class:`~repro.tune.profile.CalibrationProfile` stamped
with the host fingerprint, ready to ``save()`` into the cache.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional

from ..core.banded import banded_score
from ..core.config import AlignConfig
from ..core.fastlsa import fastlsa
from ..core.score_only import align_score
from ..kernels import registry
from ..parallel.tiles import default_uv
from ..scoring.dna import dna_simple
from ..scoring.gaps import affine_gap, linear_gap
from ..scoring.scheme import ScoringScheme
from ..workloads.synth import dna_pair
from .decision import PROBE_K
from .profile import CalibrationProfile, host_fingerprint, host_info

__all__ = ["calibrate"]

#: Base Case buffer sizes the ``BM`` sweep visits (cells).
BASE_SWEEP = (16_384, 262_144, 1_048_576)
BASE_SWEEP_QUICK = (16_384, 262_144)

#: Small buffer used for the backend sweeps so the FillCache wavefront
#: (the part backends parallelise) actually runs instead of the whole
#: problem collapsing into one dense base case.
PROBE_BASE_CELLS = 4_096


def _median_time(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _worker_points(cpus: int, quick: bool) -> List[int]:
    """Worker counts to probe: 2 always (the honest "does parallelism pay
    at all here" point), then powers of two up to the CPU count."""
    points = {2}
    if not quick:
        w = 4
        while w <= max(2, cpus):
            points.add(w)
            w *= 2
        if cpus > 2:
            points.add(cpus)
    return sorted(points)


def calibrate(
    quick: bool = False,
    *,
    length: Optional[int] = None,
    repeats: Optional[int] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> CalibrationProfile:
    """Run the full measurement suite and return the profile (unsaved)."""
    length = length or (384 if quick else 1200)
    repeats = repeats or (2 if quick else 3)
    say = progress or (lambda msg: None)
    info = host_info()
    cpus = int(info["cpu_count"])

    a, b = dna_pair(length, divergence=0.2, seed=seed)
    sim_a, sim_b = dna_pair(length, divergence=0.03, seed=seed + 1)
    lin = ScoringScheme(dna_simple(), linear_gap(-6))
    aff = ScoringScheme(dna_simple(), affine_gap(-10, -1))
    cells = float(len(a) * len(b))

    # -- kernel tiers --------------------------------------------------
    kernels: Dict[str, Dict[str, float]] = {}
    for tier in registry.available_tiers():
        say(f"kernel tier {tier}: sweep throughput")
        with registry.use(tier):
            t_lin = _median_time(lambda: align_score(a, b, lin), repeats)
            t_aff = _median_time(lambda: align_score(a, b, aff), repeats)
        kernels[tier] = {
            "linear_cells_per_s": cells / max(t_lin, 1e-9),
            "affine_cells_per_s": cells / max(t_aff, 1e-9),
        }

    # -- backends ------------------------------------------------------
    def run_backend(backend: Optional[str], workers: Optional[int]) -> float:
        cfg = AlignConfig(
            PROBE_K, PROBE_BASE_CELLS, max_workers=workers, backend=backend
        )
        return _median_time(lambda: fastlsa(a, b, lin, config=cfg), repeats)

    say("backend serial: end-to-end FastLSA")
    t_serial = run_backend(None, None)
    curve: Dict[int, float] = {}
    slowdowns: List[float] = []
    for workers in _worker_points(cpus, quick):
        say(f"backend threads x{workers}: end-to-end FastLSA")
        t = run_backend("threads", workers)
        curve[workers] = cells / max(t, 1e-9)
        u, v = default_uv(workers, PROBE_K)
        tiles = (PROBE_K * u) * (PROBE_K * v)
        slowdowns.append(max(0.0, t - t_serial) / tiles)
    backends = {"serial": {1: cells / max(t_serial, 1e-9)}, "threads": curve}
    handoff_s = {"threads": statistics.median(slowdowns) if slowdowns else 0.0}

    # -- band fill -----------------------------------------------------
    say("band fill: verify-or-widen score throughput")
    band_result = banded_score(sim_a, sim_b, lin, band=32)
    t_band = _median_time(lambda: banded_score(sim_a, sim_b, lin, band=32), repeats)
    band_cps = float(band_result.cells) / max(t_band, 1e-9)

    # -- Base Case buffer sweep ---------------------------------------
    base_sweep: Dict[int, float] = {}
    for base_cells in BASE_SWEEP_QUICK if quick else BASE_SWEEP:
        say(f"base buffer {base_cells}: serial FastLSA")
        cfg = AlignConfig(PROBE_K, int(base_cells))
        t = _median_time(lambda: fastlsa(a, b, lin, config=cfg), repeats)
        base_sweep[int(base_cells)] = cells / max(t, 1e-9)

    # The best-local batch variant ({"elem", "isa"}) each tier runs.
    info["batch_kernel"] = {
        tier: registry.get_batch_kernel(tier).variant(
            len(a), len(b), aff.matrix.table, aff.gap_open, aff.gap_extend
        )
        for tier in registry.available_tiers()
    }
    info["fingerprint"] = host_fingerprint(info)
    return CalibrationProfile(
        host=info,
        kernels=kernels,
        backends=backends,
        handoff_s=handoff_s,
        band_fill_cells_per_s=band_cps,
        base_sweep=base_sweep,
        quick=quick,
    )
