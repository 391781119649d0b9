"""Cache-simulator validation of the tuner's tile shaping (PR 9 satellite).

:func:`repro.tune.decision.tile_uv` narrows wavefront tiles until one
tile's rolling-row working set fits the cache capacity measured by the
calibration probe.  These tests validate that decision against the same
trace-driven simulator used by experiment F8 (``bench_f8_cache_sim.py``,
``CacheConfig(2048, 8, 8)``): the shaped tile must simulate at a miss
rate within tolerance of the best candidate shape, and dramatically below
an unshaped tile that overflows the cache.
"""

from __future__ import annotations

from repro.memsim import CacheConfig, CacheSim
from repro.parallel.tiles import default_uv
from repro.tune import CalibrationProfile, tile_uv
from repro.tune.decision import MIN_TILE_COLS, _working_set_layers
from repro.tune.profile import host_fingerprint

#: The F8 experiment's cache: 2048 cells ≈ 16 KiB of int64 DP entries.
F8_CACHE = CacheConfig(capacity_cells=2048, line_cells=8, assoc=8)


def _profile_with_cache(cache_cells: int) -> CalibrationProfile:
    """A synthetic profile whose measured BM sweep peaks at the simulated
    cache's capacity — the proxy tile_uv consumes."""
    host = {"cpu_count": 4, "platform": "Test", "machine": "sim", "python": "3"}
    host["fingerprint"] = host_fingerprint(host)
    return CalibrationProfile(
        host=host,
        kernels={"numpy": {"linear_cells_per_s": 1e8, "affine_cells_per_s": 4e7}},
        backends={"serial": {1: 1e8}, "threads": {2: 2e8, 4: 3e8}},
        handoff_s={"threads": 1e-5},
        band_fill_cells_per_s=0.0,
        base_sweep={cache_cells: 1e8, cache_cells * 8: 6e7},
        synthetic=True,
    )


def _tile_sweep_miss_rate(cache: CacheConfig, width: int, rows: int = 32) -> float:
    """Simulated miss rate of one tile fill: a rolling two-row sweep of
    ``width`` columns (the linear kernel's access pattern, as in
    ``memsim.trace._sweep_rows``)."""
    sim = CacheSim(cache)
    prev, cur = 0, width
    for i in range(rows):
        if i % 2 == 0:
            sim.access_range(prev, width)
            sim.access_range(cur, width)
        else:
            sim.access_range(cur, width)
            sim.access_range(prev, width)
    return sim.stats.miss_rate


class TestTileShapeVsSimulator:
    K = 4
    WORKERS = 2
    N = 65_536

    def _widths(self):
        profile = _profile_with_cache(F8_CACHE.capacity_cells)
        u, v = tile_uv(profile, self.WORKERS, self.K, self.N, self.N)
        _, v0 = default_uv(self.WORKERS, self.K)
        shaped = self.N // (self.K * v)
        unshaped = self.N // (self.K * v0)
        return shaped, unshaped, v, v0

    def test_shaped_working_set_fits_measured_cache(self):
        shaped, unshaped, v, v0 = self._widths()
        layers = _working_set_layers(False)
        assert v > v0  # the default tile would overflow this cache
        assert layers * shaped <= F8_CACHE.capacity_cells
        assert layers * unshaped > F8_CACHE.capacity_cells

    def test_shaped_tile_simulates_resident(self):
        shaped, unshaped, _, _ = self._widths()
        shaped_rate = _tile_sweep_miss_rate(F8_CACHE, shaped)
        unshaped_rate = _tile_sweep_miss_rate(F8_CACHE, unshaped)
        # The shaped tile stays cache-resident (compulsory misses only);
        # the unshaped tile thrashes every sweep.
        assert shaped_rate < 0.10
        assert unshaped_rate > 0.50
        assert shaped_rate < unshaped_rate / 5

    def test_shaped_tile_within_tolerance_of_best_candidate(self):
        """Over the whole candidate range the tuner could have picked,
        its choice simulates within 20% (relative) of the best miss
        rate — the decision agrees with the simulator, not just beats
        the default."""
        profile = _profile_with_cache(F8_CACHE.capacity_cells)
        _, v_choice = tile_uv(profile, self.WORKERS, self.K, self.N, self.N)
        _, v0 = default_uv(self.WORKERS, self.K)
        v_cap = self.N // (self.K * MIN_TILE_COLS)
        candidates = sorted({v0, v_choice, 2, 4, 8, 16, 32, 64, min(128, v_cap)})
        rates = {
            v: _tile_sweep_miss_rate(F8_CACHE, self.N // (self.K * v))
            for v in candidates
            if v >= v0
        }
        best = min(rates.values())
        assert rates[v_choice] <= best * 1.2 + 0.01

    def test_affine_layers_shape_narrower(self):
        profile = _profile_with_cache(F8_CACHE.capacity_cells)
        _, v_lin = tile_uv(profile, self.WORKERS, self.K, self.N, self.N,
                           affine=False)
        _, v_aff = tile_uv(profile, self.WORKERS, self.K, self.N, self.N,
                           affine=True)
        # (H, E, F) x 2 rolling rows vs H x 2: the affine working set is
        # 3x larger per column, so tiles must be at least as narrow.
        assert v_aff >= v_lin
        width_aff = self.N // (self.K * v_aff)
        assert _working_set_layers(True) * width_aff <= F8_CACHE.capacity_cells

    def test_floor_never_violated(self):
        profile = _profile_with_cache(64)  # absurdly tiny "cache"
        u, v = tile_uv(profile, self.WORKERS, self.K, self.N, self.N)
        # Even when the cache cannot possibly hold a MIN_TILE_COLS-wide
        # working set, the handoff floor wins over residency.
        assert self.N // (self.K * v) >= MIN_TILE_COLS


def test_agrees_with_f8_fastlsa_trace():
    """Anchor to F8 itself: a tile shaped for the F8 cache simulates at
    a miss rate no worse than the full FastLSA trace of the F8
    experiment (which includes grid-line traffic the tile fill lacks)."""
    from repro.memsim import compare_algorithms

    rows = compare_algorithms(256, 256, F8_CACHE, k=4, base_cells=1024)
    fastlsa_rate = next(r["miss_rate"] for r in rows if r["algorithm"] == "fastlsa")

    profile = _profile_with_cache(F8_CACHE.capacity_cells)
    n = 65_536
    _, v = tile_uv(profile, 2, 4, n, n)
    shaped_rate = _tile_sweep_miss_rate(F8_CACHE, n // (4 * v))
    assert shaped_rate <= fastlsa_rate + 0.05
