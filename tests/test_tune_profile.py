"""Calibration profile schema, cache and invalidation (PR 9 tentpole).

Covers the on-disk contract of :mod:`repro.tune.profile`: versioned JSON
roundtrip, atomic save, the strict vs forgiving load paths, and — the
part that guards correctness — cache invalidation when the host
fingerprint or schema version no longer matches, plus the warn-once
(never raise) behaviour of ``tune="auto"`` on an uncalibrated host.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.errors import ConfigError
from repro.tune import (
    SCHEMA_VERSION,
    CalibrationProfile,
    default_cache_path,
    host_fingerprint,
    host_info,
    load_cached,
    load_profile,
    synthetic_profile,
)
from repro.tune import profile as profile_mod


def _real_host_profile() -> CalibrationProfile:
    """A small profile stamped with *this* host's fingerprint."""
    info = host_info()
    return CalibrationProfile(
        host=dict(info, fingerprint=host_fingerprint(info)),
        kernels={"numpy": {"linear_cells_per_s": 80e6, "affine_cells_per_s": 30e6}},
        backends={"serial": {1: 80e6}, "threads": {2: 20e6}},
        handoff_s={"threads": 1e-4},
        band_fill_cells_per_s=100e6,
        base_sweep={16384: 70e6, 262144: 80e6},
        quick=True,
    )


class TestRoundtrip:
    def test_dict_roundtrip_preserves_everything(self):
        p = _real_host_profile()
        q = CalibrationProfile.from_dict(p.to_dict())
        assert q.to_dict() == p.to_dict()
        assert q.backends["threads"][2] == pytest.approx(20e6)
        assert q.base_sweep[16384] == pytest.approx(70e6)

    def test_json_keys_roundtrip_as_ints(self, tmp_path):
        # JSON stringifies int keys; load must restore worker counts and
        # base sizes as ints or every lookup goes quietly unmeasured.
        p = _real_host_profile()
        path = tmp_path / "cal.json"
        p.save(str(path))
        q = CalibrationProfile.load(str(path))
        assert q.cells_per_s("threads", 2) == pytest.approx(20e6)
        assert all(isinstance(k, int) for k in q.base_sweep)

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        p = _real_host_profile()
        path = tmp_path / "cal.json"
        p.save(str(path))
        assert path.exists()
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    def test_schema_version_stamped(self, tmp_path):
        p = _real_host_profile()
        path = tmp_path / "cal.json"
        p.save(str(path))
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == SCHEMA_VERSION


class TestCacheInvalidation:
    def test_load_cached_roundtrip(self, tmp_path):
        path = str(tmp_path / "cal.json")
        _real_host_profile().save(path)
        p = load_cached(path)
        assert p is not None
        assert p.serial_cells_per_s() == pytest.approx(80e6)

    def test_missing_file_is_none_not_error(self, tmp_path):
        assert load_cached(str(tmp_path / "nope.json")) is None

    def test_corrupt_json_is_none_not_error(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        assert load_cached(str(path)) is None

    def test_schema_bump_invalidates(self, tmp_path):
        path = tmp_path / "cal.json"
        raw = _real_host_profile().to_dict()
        raw["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(raw))
        assert load_cached(str(path)) is None
        with pytest.raises(ConfigError):
            CalibrationProfile.load(str(path))  # strict path: typed error

    def test_foreign_fingerprint_invalidates(self, tmp_path):
        # A profile measured on another machine must never steer this one.
        path = tmp_path / "cal.json"
        raw = _real_host_profile().to_dict()
        raw["host"]["fingerprint"] = "feedfacefeedface"
        path.write_text(json.dumps(raw))
        assert load_cached(str(path)) is None

    def test_host_change_invalidates(self, tmp_path, monkeypatch):
        # Same file, "different" host: fingerprint is derived from host
        # facts, so a cpu_count change alone must invalidate the cache.
        path = str(tmp_path / "cal.json")
        _real_host_profile().save(path)
        real = host_info()
        fake = dict(real, cpu_count=(real["cpu_count"] or 1) + 7)
        monkeypatch.setattr(profile_mod, "host_info", lambda: fake)
        assert load_cached(path) is None

    def test_synthetic_skips_fingerprint_check(self, tmp_path):
        # Synthetic fixtures are hosts that don't exist; they load anywhere.
        path = str(tmp_path / "cal.json")
        synthetic_profile("fast-8cpu").save(path)
        p = load_cached(path)
        assert p is not None and p.cpu_count() == 8

    def test_mtime_memo_sees_replacement(self, tmp_path):
        path = str(tmp_path / "cal.json")
        _real_host_profile().save(path)
        assert load_cached(path).serial_cells_per_s() == pytest.approx(80e6)
        p2 = _real_host_profile()
        p2.backends["serial"][1] = 99e6
        p2.save(path)
        os.utime(path, (1e9, 1e9))  # force a distinct mtime
        assert load_cached(path).serial_cells_per_s() == pytest.approx(99e6)


class TestLoadProfile:
    def test_off_and_none_disable(self):
        assert load_profile(None) is None
        assert load_profile("off") is None

    def test_profile_object_passthrough(self):
        p = synthetic_profile("slow-1cpu")
        assert load_profile(p) is p

    def test_auto_without_cache_warns_once_never_raises(self):
        # Satellite: tune="auto" on a never-calibrated host degrades to
        # defaults with a single one-line warning — not an exception.
        profile_mod._WARNED_NO_PROFILE = False
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert load_profile("auto") is None
            assert load_profile("auto") is None
        notices = [w for w in caught if "calibrate" in str(w.message)]
        assert len(notices) == 1

    def test_explicit_path_is_strict(self, tmp_path):
        with pytest.raises(ConfigError):
            load_profile(str(tmp_path / "missing.json"))

    def test_explicit_path_loads_synthetic(self, tmp_path):
        path = str(tmp_path / "fixture.json")
        synthetic_profile("slow-1cpu").save(path)
        p = load_profile(path)
        assert p is not None and p.cpu_count() == 1

    def test_default_cache_path_respects_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FASTLSA_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_path().startswith(str(tmp_path / "alt"))


class TestProfilesWithRemovedBackend:
    """Profiles cached before the processes backend was removed carry
    ``backends["processes"]`` and ``handoff_s["processes"]``; they must
    load and never plan a backend :class:`AlignConfig` rejects."""

    def _old_profile(self, tmp_path) -> str:
        p = _real_host_profile()
        p.backends["threads"] = {2: 120e6}
        p.backends["processes"] = {2: 400e6}  # beats serial and threads
        p.handoff_s["processes"] = 1e-6
        path = str(tmp_path / "old.json")
        p.save(path)
        return path

    def test_loads_and_plans_threads_or_serial(self, tmp_path):
        from repro.core.config import AlignConfig
        from repro.tune import autotune_config, beats_serial, choose

        profile = load_cached(self._old_profile(tmp_path))
        assert profile is not None
        assert "processes" in profile.backends  # kept on disk, ignored
        assert all(b != "processes" for b, _, _ in profile.backend_points())
        assert profile.cells_per_s("processes", 2) is None
        assert profile.best_backend() == ("threads", 2)
        assert not beats_serial(profile, "processes", 2, 50_000, 50_000, 8)
        for size in (100, 10_000, 100_000):
            choice = choose(profile, size, size)
            assert choice.backend in AlignConfig.BACKENDS
            cfg, _ = autotune_config(AlignConfig(), size, size, profile=profile)
            assert cfg.backend in ("serial", "threads")


class TestCurveQueries:
    def test_best_backend_never_below_serial(self):
        p = synthetic_profile("slow-1cpu")
        # Every parallel point in the slow-1cpu fixture loses to serial.
        assert p.best_backend() == ("serial", 1)

    def test_best_backend_picks_fastest_winner(self):
        p = synthetic_profile("fast-8cpu")
        backend, workers = p.best_backend()
        assert (backend, workers) == ("threads", 8)

    def test_cells_per_s_unmeasured_is_none(self):
        p = synthetic_profile("slow-1cpu")
        assert p.cells_per_s("threads", 64) is None
        assert p.cells_per_s("gpu", 1) is None

    def test_best_base_cells_is_sweep_argmax(self):
        p = synthetic_profile("slow-1cpu")
        best = p.best_base_cells()
        assert best in p.base_sweep
        assert p.base_sweep[best] == max(p.base_sweep.values())


@pytest.mark.slow
def test_quick_calibrate_produces_consumable_profile(tmp_path):
    """The real probe (quick mode) yields a profile the decision layer
    accepts end-to-end — the CI calibrate-smoke in miniature."""
    from repro.tune import autotune_config, calibrate
    from repro.core.config import AlignConfig

    profile = calibrate(quick=True, length=96, repeats=1)
    assert profile.quick and not profile.synthetic
    assert profile.serial_cells_per_s() > 0
    # batch lane points fill whole 16-lane blocks; the host info names
    # the best-local variant each probed tier ran
    for tier, curves in profile.batch.items():
        assert set(curves["linear"]) == {1, 16, 32}
        variant = profile.host["batch_kernel"][tier]
        assert variant["elem"] in ("int32", "int64")
        assert variant["isa"] in (("numpy",) if tier == "numpy" else ("avx2", "default"))
    path = str(tmp_path / "cal.json")
    profile.save(path)
    assert load_cached(path).host["batch_kernel"] == profile.host["batch_kernel"]
    cfg, _ = autotune_config(AlignConfig(), 512, 512, profile=profile)
    assert cfg.backend in ("serial", "threads")
