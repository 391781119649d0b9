"""Planner/tuner property suite (PR 9, archetype: test).

The contract under test is the one that failed in BENCH_pr5: auto
selection must be **structurally unable** to pick a backend whose
measured curve loses to serial.  Hypothesis drives randomly generated
calibration profiles through :func:`repro.tune.decision.choose`; the
frozen synthetic fixtures (``slow-1cpu``, ``fast-8cpu``) pin the exact
decisions deterministically on any CI host; and the bit-identity tests
prove an auto-picked plan changes *performance knobs only*, never the
alignment.
"""

from __future__ import annotations

import warnings

from hypothesis import given, settings, strategies as st

from repro import align
from repro.core.config import AlignConfig
from repro.core.fastlsa import fastlsa
from repro.core.planner import resolve_backend, worker_cap
from repro.kernels import registry
from repro.scoring import ScoringScheme, affine_gap, dna_simple, linear_gap
from repro.tune import (
    CalibrationProfile,
    autotune_config,
    beats_serial,
    choose,
    synthetic_profile,
    tile_uv,
)
from repro.tune.decision import predict_seconds
from repro.tune.profile import host_fingerprint
from repro.workloads import dna_pair

_M = 1_000_000.0


@st.composite
def profiles(draw):
    """A random but internally consistent calibration profile.

    It may carry a ``processes`` curve, as profiles cached before that
    backend was removed do; no decision may ever return it.
    """
    cpus = draw(st.sampled_from([1, 2, 4, 8, 16]))
    serial = draw(st.floats(min_value=1 * _M, max_value=500 * _M))
    backends = {"serial": {1: serial}}
    for backend in ("threads", "processes"):
        curve = {}
        for workers in (2, 4, 8):
            if draw(st.booleans()):
                # Anywhere from a 0.1x regression to a decent speedup.
                factor = draw(st.floats(min_value=0.1, max_value=float(workers)))
                curve[workers] = serial * factor
        if curve:
            backends[backend] = curve
    host = {"cpu_count": cpus, "platform": "Test", "machine": "syn",
            "python": "3"}
    host["fingerprint"] = host_fingerprint(host)
    return CalibrationProfile(
        host=host,
        kernels={"numpy": {"linear_cells_per_s": serial,
                           "affine_cells_per_s": serial / 3}},
        backends=backends,
        handoff_s={"threads": draw(st.floats(min_value=0, max_value=1e-3)),
                   "processes": draw(st.floats(min_value=0, max_value=1e-3))},
        band_fill_cells_per_s=draw(st.floats(min_value=0, max_value=1000 * _M)),
        base_sweep={16_384: serial * 0.9, 262_144: serial},
        synthetic=True,
    )


class TestNeverBelowSerial:
    """The BENCH_pr5 regression, made structurally impossible."""

    @settings(max_examples=120, deadline=None)
    @given(profile=profiles(),
           m=st.integers(min_value=1, max_value=2_000_000),
           n=st.integers(min_value=1, max_value=2_000_000),
           affine=st.booleans())
    def test_choice_never_picks_a_measured_loser(self, profile, m, n, affine):
        choice = choose(profile, m, n, affine=affine)
        assert choice.backend in AlignConfig.BACKENDS
        if choice.backend != "serial":
            cps = profile.cells_per_s(choice.backend, choice.workers)
            assert cps is not None
            assert cps > profile.serial_cells_per_s()
            # ... and never more workers than the calibrated host has.
            assert choice.workers <= profile.cpu_count()

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(),
           m=st.integers(min_value=64, max_value=1_000_000),
           affine=st.booleans())
    def test_parallel_choice_predicts_no_slowdown(self, profile, m, affine):
        """The winning candidate's predicted time is never above serial's
        (serial is always in the candidate set)."""
        choice = choose(profile, m, m, affine=affine)
        serial_s = predict_seconds(
            profile, m, m, k=choice.k, backend="serial", workers=1,
            affine=affine,
        )
        assert choice.predicted_s <= serial_s + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(),
           m=st.integers(min_value=16, max_value=500_000),
           k=st.integers(min_value=2, max_value=16))
    def test_beats_serial_rejects_measured_losers(self, profile, m, k):
        for backend, workers, cps in profile.backend_points():
            if cps <= profile.serial_cells_per_s():
                assert not beats_serial(profile, backend, workers, m, m, k)


class TestCostModel:
    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(),
           m=st.integers(min_value=64, max_value=100_000),
           doublings=st.integers(min_value=1, max_value=6),
           affine=st.booleans())
    def test_predicted_cost_monotone_in_problem_size(
        self, profile, m, doublings, affine
    ):
        """Plan cost grows with m·n (compared at >=2x size steps, where
        cell growth dominates any tile-shape discontinuity)."""
        small = choose(profile, m, m, affine=affine)
        big = choose(profile, m * 2**doublings, m * 2**doublings, affine=affine)
        assert big.predicted_s >= small.predicted_s

    @settings(max_examples=40, deadline=None)
    @given(profile=profiles(),
           workers=st.sampled_from([2, 4, 8]),
           k=st.sampled_from([2, 4, 8]),
           n=st.integers(min_value=1, max_value=5_000_000),
           affine=st.booleans())
    def test_tile_shape_respects_floor_and_cache(
        self, profile, workers, k, n, affine
    ):
        from repro.parallel.tiles import default_uv
        from repro.tune.decision import MIN_TILE_COLS

        u, v = tile_uv(profile, workers, k, n, n, affine)
        u0, v0 = default_uv(workers, k)
        assert u == u0
        assert v >= v0
        if v > v0:  # shaped narrower than default: floor must hold
            assert n // (k * v) >= MIN_TILE_COLS


class TestDeterministicDecisions:
    """The frozen fixtures pin exact decisions on any hardware."""

    def test_slow_1cpu_always_serial(self):
        profile = synthetic_profile("slow-1cpu")
        for size in (100, 1_000, 10_000, 100_000):
            choice = choose(profile, size, size)
            assert choice.backend == "serial"
            assert choice.workers == 1

    def test_fast_8cpu_scales_to_threads(self):
        profile = synthetic_profile("fast-8cpu")
        # Large problem: compute dominates handoff, the 510 Mcells/s
        # threads x8 point wins.
        choice = choose(profile, 100_000, 100_000)
        assert (choice.backend, choice.workers) == ("threads", 8)

    def test_fast_8cpu_small_problem_stays_serial(self):
        profile = synthetic_profile("fast-8cpu")
        choice = choose(profile, 96, 96)
        assert choice.backend == "serial"

    def test_band_auto_only_with_measured_headroom(self):
        slow = synthetic_profile("slow-1cpu")  # band 220M vs serial 101M
        assert choose(slow, 2_000, 2_000).band == "auto"
        assert choose(slow, 64, 64).band is None  # below min dimension
        fast = synthetic_profile("fast-8cpu")  # band 230M vs compiled 800M
        assert choose(
            fast, 2_000, 2_000, kernels=("numpy", "compiled")
        ).band is None

    def test_kernel_pick_prefers_measured_fastest(self):
        profile = synthetic_profile("fast-8cpu")
        choice = choose(profile, 1_000, 1_000, kernels=("numpy", "compiled"))
        assert choice.kernel == "compiled"
        # Restricted availability falls back to what exists.
        choice = choose(profile, 1_000, 1_000, kernels=("numpy",))
        assert choice.kernel == "numpy"


class TestAutotuneConfig:
    def test_fills_only_unset_fields(self):
        profile = synthetic_profile("fast-8cpu")
        explicit = AlignConfig(backend="threads", max_workers=2, kernel="numpy")
        tuned, notes = autotune_config(explicit, 50_000, 50_000, profile=profile)
        assert tuned.backend == "threads"  # explicit choices always win
        assert tuned.max_workers == 2
        assert tuned.kernel == "numpy"

    def test_idempotent(self):
        profile = synthetic_profile("fast-8cpu")
        once, _ = autotune_config(AlignConfig(), 50_000, 50_000, profile=profile)
        twice, notes = autotune_config(once, 50_000, 50_000, profile=profile)
        assert twice == once and notes == ()

    def test_no_profile_is_identity(self):
        cfg = AlignConfig(tune="off")
        tuned, notes = autotune_config(cfg, 10_000, 10_000)
        assert tuned is cfg and notes == ()

    def test_auto_without_cache_warns_once_and_aligns(self, dna_scheme):
        """Satellite: tune="auto" with no cached profile must degrade to
        defaults with one warning — and still produce the exact result."""
        from repro.tune import profile as profile_mod

        profile_mod._WARNED_NO_PROFILE = False
        a, b = dna_pair(200, divergence=0.25, seed=9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tuned = align(a, b, dna_scheme, config=AlignConfig(tune="auto"))
        reference = align(a, b, dna_scheme)
        assert tuned.score == reference.score
        assert tuned.gapped_a == reference.gapped_a
        assert tuned.gapped_b == reference.gapped_b
        assert len([w for w in caught if "calibrate" in str(w.message)]) == 1


class TestBitIdentity:
    """Auto-picked plans change performance knobs, never the answer."""

    def _reference(self, a, b, scheme):
        with registry.use("numpy"):
            return fastlsa(a, b, scheme, config=AlignConfig(k=4, base_cells=4096))

    def test_tuned_parallel_plan_matches_serial_reference(self, dna_scheme):
        # fast-8cpu steers to threads; resolve_backend clamps workers
        # to this host's cap, and the result must be bit-identical.
        profile = synthetic_profile("fast-8cpu")
        a, b = dna_pair(700, divergence=0.2, seed=31)
        cfg, _ = autotune_config(
            AlignConfig(k=4, base_cells=4096), len(a), len(b), profile=profile
        )
        assert cfg.backend == "threads"
        ref = self._reference(a, b, dna_scheme)
        got = fastlsa(a, b, dna_scheme, config=cfg)
        assert (got.score, got.gapped_a, got.gapped_b) == (
            ref.score, ref.gapped_a, ref.gapped_b
        )

    def test_tuned_banded_plan_matches_reference(self):
        scheme = ScoringScheme(dna_simple(), affine_gap(-10, -1))
        profile = synthetic_profile("slow-1cpu")  # band=auto above 256
        a, b = dna_pair(600, divergence=0.05, seed=13)
        cfg, _ = autotune_config(
            AlignConfig(k=4, base_cells=4096), len(a), len(b),
            affine=True, profile=profile,
        )
        assert cfg.band == "auto"
        ref = self._reference(a, b, scheme)
        got = fastlsa(a, b, scheme, config=cfg)
        assert (got.score, got.gapped_a, got.gapped_b) == (
            ref.score, ref.gapped_a, ref.gapped_b
        )

    @settings(max_examples=15, deadline=None)
    @given(length=st.integers(min_value=3, max_value=160),
           divergence=st.sampled_from([0.05, 0.3]),
           kind=st.sampled_from(["slow-1cpu", "fast-8cpu"]))
    def test_property_tuned_equals_reference(self, length, divergence, kind):
        scheme = ScoringScheme(dna_simple(), linear_gap(-5))
        profile = synthetic_profile(kind)
        a, b = dna_pair(length, divergence=divergence, seed=length)
        cfg, _ = autotune_config(
            AlignConfig(k=4, base_cells=1024), len(a), len(b), profile=profile
        )
        ref = self._reference(a, b, scheme)
        got = fastlsa(a, b, scheme, config=cfg)
        assert (got.score, got.gapped_a, got.gapped_b) == (
            ref.score, ref.gapped_a, ref.gapped_b
        )


class TestWorkerClamp:
    """Satellite: resolve_backend clamps oversubscription, visibly."""

    def test_clamp_recorded_in_notes(self):
        cap = worker_cap()
        notes: list = []
        backend, workers = resolve_backend(
            AlignConfig(backend="threads", max_workers=cap + 7), notes=notes
        )
        assert workers == cap
        assert notes == [f"workers_clamped:{cap + 7}->{cap}"]

    def test_at_cap_not_clamped(self):
        cap = worker_cap()
        notes: list = []
        _, workers = resolve_backend(
            AlignConfig(backend="threads", max_workers=cap), notes=notes
        )
        assert workers == cap and notes == []

    def test_cap_floor_is_two(self):
        # Single-core hosts still allow two workers so parallel code
        # paths stay testable; the tuner is what steers them to serial.
        assert worker_cap() >= 2


class TestBatchLanes:
    """PR 10: the batch-lane pick can never select batch where its own
    measured curve loses to per-pair dispatch."""

    def _with_batch(self, curve):
        p = synthetic_profile("fast-8cpu")
        p.batch = {"numpy": {"linear": curve}}
        return p

    def test_no_profile_defaults_on(self):
        from repro.tune.decision import DEFAULT_BATCH_LANES, batch_lanes

        assert batch_lanes(None, "numpy", "linear") == DEFAULT_BATCH_LANES

    def test_missing_curve_defaults_on(self):
        from repro.tune.decision import DEFAULT_BATCH_LANES, batch_lanes

        p = self._with_batch({1: 10 * _M, 32: 40 * _M})
        assert batch_lanes(p, "compiled", "linear") == DEFAULT_BATCH_LANES
        assert batch_lanes(p, "numpy", "affine") == DEFAULT_BATCH_LANES

    def test_measured_winner_is_picked(self):
        from repro.tune.decision import batch_lanes

        p = self._with_batch({1: 10 * _M, 8: 30 * _M, 32: 45 * _M, 64: 44 * _M})
        assert batch_lanes(p, "numpy", "linear") == 32

    def test_measured_loser_disables_batching(self):
        from repro.tune.decision import batch_lanes, use_batch

        p = self._with_batch({1: 50 * _M, 8: 30 * _M, 32: 20 * _M})
        assert batch_lanes(p, "numpy", "linear") == 0
        assert not use_batch(p, "numpy", "linear")

    def test_synthetic_fixture_affine_loser(self):
        from repro.tune.decision import batch_lanes

        slow = synthetic_profile("slow-1cpu")
        assert batch_lanes(slow, "numpy", "affine") == 0
        assert batch_lanes(slow, "numpy", "linear") == 32

    def test_choice_carries_batch_lanes(self):
        choice = choose(synthetic_profile("fast-8cpu"), 400, 400,
                        kernels=("numpy", "compiled"))
        assert choice.batch_lanes == 64
        assert any(n.startswith("tuned:batch_lanes=") for n in choice.notes)

    @given(
        curve=st.dictionaries(
            st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
            st.floats(min_value=1.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=7,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_never_selects_a_measured_loser(self, curve):
        from repro.tune.decision import batch_lanes

        p = self._with_batch(curve)
        picked = batch_lanes(p, "numpy", "linear")
        baseline = curve.get(1, 0.0)
        if picked > 1:
            # any selected lane count must strictly beat the per-pair
            # baseline measured by the same probe
            assert curve[picked] > baseline
            # and nothing measured strictly faster was skipped
            assert curve[picked] == max(
                v for b, v in curve.items() if b > 1 and v > baseline
            )
        elif picked == 0:
            # disabled only when every measured batch point loses
            assert all(v <= baseline for b, v in curve.items() if b > 1)
