"""Tests for the kernel-provider registry (PR 8 API redesign).

The registry is the one seam between algorithm code and kernels:
``get_kernel(scheme_kind, tier)`` returns a capability-flagged provider,
``use``/``active`` carry the tier through serial call paths, and the
compiled tier only ever becomes visible after passing the import-time
parity gate.  Numpy-tier behaviour must be identical whether or not the
compiled extension is built — these tests run in both CI jobs.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels import registry
from repro.kernels.linear import boundary_vectors
from repro.kernels.affine import affine_boundaries
from repro.scoring import ScoringScheme, affine_gap, dna_simple, linear_gap

pytestmark = []

HAS_COMPILED = registry.compiled_available()
needs_compiled = pytest.mark.skipif(
    not HAS_COMPILED, reason="compiled kernel extension not built"
)


@pytest.fixture
def lin_scheme():
    return ScoringScheme(dna_simple(), linear_gap(-6))


@pytest.fixture
def aff_scheme():
    return ScoringScheme(dna_simple(), affine_gap(-8, -1))


class TestProviderAPI:
    def test_numpy_tier_always_available(self):
        assert "numpy" in registry.available_tiers()

    def test_get_kernel_returns_capability_flagged_provider(self):
        for kind in ("linear", "affine"):
            prov = registry.get_kernel(kind, "numpy")
            assert prov.name == "numpy"
            assert prov.scheme_kind == kind
            assert prov.compiled is False
            for method in ("sweep_last_row_col", "sweep_band", "sweep_matrix",
                           "best_cell_local", "band_fill", "traceback"):
                assert callable(getattr(prov, method))

    def test_describe_shape(self):
        info = registry.describe()
        assert set(info) == {"available", "default", "compiled", "providers", "parity"}
        assert info["default"] in ("numpy", "compiled")
        names = {(p["name"], p["scheme_kind"]) for p in info["providers"]}
        assert ("numpy", "linear") in names and ("numpy", "affine") in names

    def test_unknown_scheme_kind_rejected(self):
        with pytest.raises(ConfigError, match="scheme kind"):
            registry.get_kernel("semigroup", "numpy")

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigError, match="kernel tier"):
            registry.resolve_tier("fortran")

    def test_explicit_compiled_raises_when_absent(self):
        if HAS_COMPILED:
            assert registry.resolve_tier("compiled") == "compiled"
        else:
            with pytest.raises(ConfigError, match="compiled"):
                registry.resolve_tier("compiled")

    def test_auto_resolution(self):
        want = "compiled" if HAS_COMPILED else "numpy"
        assert registry.resolve_tier(None) == want
        assert registry.resolve_tier("auto") == want


class TestAmbientTier:
    def test_use_sets_and_restores(self):
        before = registry.current_tier()
        with registry.use("numpy"):
            assert registry.current_tier() == "numpy"
            assert registry.active("linear").name == "numpy"
        assert registry.current_tier() == before

    def test_use_resolves_eagerly(self):
        if HAS_COMPILED:
            with registry.use("compiled"):
                assert registry.active("affine").compiled
        else:
            with pytest.raises(ConfigError):
                with registry.use("compiled"):
                    pass  # pragma: no cover

    def test_nested_use(self):
        with registry.use("numpy"):
            with registry.use("auto"):
                assert registry.current_tier() in ("numpy", "compiled")
            assert registry.current_tier() == "numpy"


class TestParityReport:
    def test_report_is_json_shaped(self):
        rep = registry.parity_report()
        assert set(rep) == {"compiled_available", "parity_ok", "checks", "error"}
        assert isinstance(rep["checks"], list)

    @needs_compiled
    def test_all_checks_passed(self):
        rep = registry.parity_report()
        assert rep["parity_ok"] is True
        # 12 per-pair checks (the best-cell sweep both clamped and
        # unclamped) + 2 FindPath tracebacks + 8 batch-kernel checks (a
        # multi-block pack and the int64 instance among them).
        assert len(rep["checks"]) == 22
        names = {c["name"] for c in rep["checks"]}
        assert {"linear.best_cell_global", "affine.best_cell_global"} <= names
        assert {"traceback.linear", "traceback.affine"} <= names
        assert {"batch.best_cell_local_affine.wide",
                "batch.best_cell_local.int64"} <= names
        assert all(c["ok"] for c in rep["checks"])

    @needs_compiled
    def test_compiled_only_visible_after_parity(self):
        # the invariant the gate enforces: visible => all checks passed
        assert registry.parity_report()["parity_ok"]
        assert "compiled" in registry.available_tiers()


class TestStaleBuildGuard:
    """An extension built from older C sources must disable the tier with
    the rebuild hint, not fail parity (or crash) on a changed signature."""

    OLD_BEST_LOCAL = (
        "void(*)(const int16_t *, long, const int16_t *, long,"
        " const int64_t *, long, int64_t, int64_t *)"
    )

    def _fake_module(self, stale=()):
        import types

        cffi = pytest.importorskip("cffi")
        from repro.kernels._ckernels_build import CDEF

        ffi = cffi.FFI()
        lib = types.SimpleNamespace()
        for result, name, args in registry._CDEF_DECL.findall(CDEF):
            sig = self.OLD_BEST_LOCAL if name in stale else f"{result}(*)({args})"
            setattr(lib, name, ffi.cast(sig, 0))
        return types.SimpleNamespace(ffi=ffi, lib=lib)

    def test_current_signatures_pass(self):
        mod = self._fake_module()
        assert registry._stale_entry_points(mod.ffi, mod.lib) == []

    def test_old_signature_and_missing_entry_point_detected(self):
        mod = self._fake_module(stale=("flsa_lin_best_local",))
        del mod.lib.flsa_aff_batch_score_global
        assert registry._stale_entry_points(mod.ffi, mod.lib) == [
            "flsa_lin_best_local", "flsa_aff_batch_score_global",
        ]

    def test_missing_traceback_entry_points_detected(self):
        mod = self._fake_module()
        del mod.lib.flsa_lin_trace
        del mod.lib.flsa_aff_trace
        assert registry._stale_entry_points(mod.ffi, mod.lib) == [
            "flsa_lin_trace", "flsa_aff_trace",
        ]

    def test_detect_disables_tier_with_rebuild_hint(self, monkeypatch):
        import sys

        import repro.kernels

        mod = self._fake_module(stale=("flsa_lin_best_local",))
        monkeypatch.setitem(sys.modules, "repro.kernels.compiled", mod)
        monkeypatch.setattr(repro.kernels, "compiled", mod, raising=False)
        monkeypatch.setattr(registry, "_PARITY", {
            "compiled_available": False, "parity_ok": None, "checks": [], "error": None,
        })
        monkeypatch.setattr(registry, "_PROVIDERS", {"numpy": registry._PROVIDERS["numpy"]})
        registry._detect()
        rep = registry.parity_report()
        assert rep["parity_ok"] is False and not rep["compiled_available"]
        assert "flsa_lin_best_local" in rep["error"]
        assert "python -m repro.kernels._ckernels_build" in rep["error"]
        assert rep["checks"] == []  # never reached parity with a stale build
        assert registry.available_tiers() == ("numpy",)


@needs_compiled
class TestCompiledParity:
    """Randomised cross-tier bit-identity over every provider method."""

    def _random_case(self, rng, scheme):
        m = int(rng.integers(1, 48))
        n = int(rng.integers(1, 48))
        nsym = scheme.matrix.table.shape[0]
        a = rng.integers(0, min(4, nsym), size=m).astype(np.int16)
        b = rng.integers(0, min(4, nsym), size=n).astype(np.int16)
        return a, b

    def test_sweep_last_row_col_linear(self, rng, lin_scheme):
        np_prov = registry.get_kernel("linear", "numpy")
        c_prov = registry.get_kernel("linear", "compiled")
        table, gap = lin_scheme.matrix.table, lin_scheme.gap_open
        for _ in range(25):
            a, b = self._random_case(rng, lin_scheme)
            fr, fc = boundary_vectors(len(a), len(b), gap)
            ref = np_prov.sweep_last_row_col(a, b, table, gap, fr, fc, None)
            got = c_prov.sweep_last_row_col(a, b, table, gap, fr, fc, None)
            np.testing.assert_array_equal(ref[0], got[0])
            np.testing.assert_array_equal(ref[1], got[1])

    def test_sweep_matrix_affine(self, rng, aff_scheme):
        np_prov = registry.get_kernel("affine", "numpy")
        c_prov = registry.get_kernel("affine", "compiled")
        table = aff_scheme.matrix.table
        o, e = aff_scheme.gap_open, aff_scheme.gap_extend
        for _ in range(25):
            a, b = self._random_case(rng, aff_scheme)
            rh, rf, ch, ce = affine_boundaries(len(a), len(b), o, e)
            ref = np_prov.sweep_matrix(a, b, table, o, e, rh, rf, ch, ce, None)
            got = c_prov.sweep_matrix(a, b, table, o, e, rh, rf, ch, ce, None)
            for r, g in zip(ref, got):
                np.testing.assert_array_equal(r, g)

    def test_best_cell_local_both_kinds(self, rng, lin_scheme, aff_scheme):
        for kind, scheme in (("linear", lin_scheme), ("affine", aff_scheme)):
            np_prov = registry.get_kernel(kind, "numpy")
            c_prov = registry.get_kernel(kind, "compiled")
            table = scheme.matrix.table
            args = (scheme.gap_open,) if kind == "linear" else (
                scheme.gap_open, scheme.gap_extend)
            for _ in range(25):
                a, b = self._random_case(rng, scheme)
                for clamp in (True, False):
                    assert np_prov.best_cell_local(
                        a, b, table, *args, None, clamp=clamp
                    ) == c_prov.best_cell_local(a, b, table, *args, None, clamp=clamp)

    def test_band_fill_both_kinds(self, rng, lin_scheme, aff_scheme):
        np_lin = registry.get_kernel("linear", "numpy")
        c_lin = registry.get_kernel("linear", "compiled")
        np_aff = registry.get_kernel("affine", "numpy")
        c_aff = registry.get_kernel("affine", "compiled")
        for _ in range(25):
            a, b = self._random_case(rng, lin_scheme)
            width = int(rng.integers(1, max(2, min(len(a), len(b)))))
            ref = np_lin.band_fill(a, b, lin_scheme.matrix.table,
                                   lin_scheme.gap_open, width, None)
            got = c_lin.band_fill(a, b, lin_scheme.matrix.table,
                                  lin_scheme.gap_open, width, None)
            np.testing.assert_array_equal(ref, got)
            refs = np_aff.band_fill(a, b, aff_scheme.matrix.table,
                                    aff_scheme.gap_open, aff_scheme.gap_extend,
                                    width, None)
            gots = c_aff.band_fill(a, b, aff_scheme.matrix.table,
                                   aff_scheme.gap_open, aff_scheme.gap_extend,
                                   width, None)
            for r, g in zip(refs, gots):
                np.testing.assert_array_equal(r, g)


class TestEndToEndTierSelection:
    def test_fastlsa_records_kernel_in_stats(self, dna_scheme):
        from repro import AlignConfig
        from repro.core import fastlsa

        al = fastlsa("ACGTACGTACGT", "ACGTTCGTACGA", dna_scheme,
                     config=AlignConfig(kernel="numpy"))
        assert al.stats.kernel == "numpy"

    def test_fastlsa_tiers_bit_identical(self, rng, dna_scheme, affine_dna_scheme):
        if not HAS_COMPILED:
            pytest.skip("compiled kernel extension not built")
        from repro import AlignConfig
        from repro.core import fastlsa
        from tests.conftest import random_dna

        for scheme in (dna_scheme, affine_dna_scheme):
            a, b = random_dna(rng, 200), random_dna(rng, 190)
            ref = fastlsa(a, b, scheme, config=AlignConfig(k=3, base_cells=256,
                                                           kernel="numpy"))
            got = fastlsa(a, b, scheme, config=AlignConfig(k=3, base_cells=256,
                                                           kernel="compiled"))
            assert ref.score == got.score
            assert ref.gapped_a == got.gapped_a
            assert ref.gapped_b == got.gapped_b
            assert got.stats.kernel == "compiled"

    def test_bad_kernel_value_rejected_at_config(self):
        from repro import AlignConfig

        with pytest.raises(ConfigError):
            AlignConfig(kernel="cuda")


class TestPreferredTier:
    """PR 9: the calibration-installed process-wide tier override."""

    @pytest.fixture(autouse=True)
    def _restore(self):
        yield
        registry.set_preferred_tier(None)

    def test_auto_resolves_to_preference(self):
        registry.set_preferred_tier("numpy")
        assert registry.preferred_tier() == "numpy"
        assert registry.resolve_tier(None) == "numpy"
        assert registry.resolve_tier("auto") == "numpy"

    def test_explicit_tier_beats_preference(self):
        if not HAS_COMPILED:
            pytest.skip("compiled kernel extension not built")
        registry.set_preferred_tier("numpy")
        assert registry.resolve_tier("compiled") == "compiled"

    def test_none_restores_static_default(self):
        registry.set_preferred_tier("numpy")
        registry.set_preferred_tier(None)
        assert registry.preferred_tier() is None
        expected = "compiled" if HAS_COMPILED else "numpy"
        assert registry.resolve_tier("auto") == expected

    def test_rejects_bogus_and_unavailable_tiers(self, monkeypatch):
        with pytest.raises(ConfigError):
            registry.set_preferred_tier("cuda")
        monkeypatch.setattr(registry, "compiled_available", lambda: False)
        with pytest.raises(ConfigError):
            registry.set_preferred_tier("compiled")
        assert registry.preferred_tier() is None


class TestBracketSweepsHonourKernel:
    """The bracketing sweeps of the local and ends-free modes run on the
    tier ``AlignConfig.kernel`` names, not on the ambient one."""

    @pytest.fixture
    def compiled_calls(self, monkeypatch):
        """Install a spying "compiled" tier (the real one when built, else
        the numpy kernels under that name); returns its call log."""
        calls = []
        base = registry._PROVIDERS.get("compiled") or registry._PROVIDERS["numpy"]

        def spy(kind, method):
            fn = getattr(base[kind], method)

            def wrapped(*args, **kwargs):
                calls.append((kind, method))
                return fn(*args, **kwargs)
            return wrapped

        spied = {
            kind: dataclasses.replace(
                base[kind], name="compiled", compiled=True,
                sweep_last_row_col=spy(kind, "sweep_last_row_col"),
                best_cell_local=spy(kind, "best_cell_local"),
            )
            for kind in registry.SCHEME_KINDS
        }
        monkeypatch.setitem(registry._PROVIDERS, "compiled", spied)
        monkeypatch.setitem(registry._PARITY, "compiled_available", True)
        return calls

    def _run_all(self, config, lin_scheme, aff_scheme):
        from repro.core import batch_align, ends_free_align, fastlsa_local
        from repro.core.modes import EndsFree

        rng = np.random.default_rng(5)
        a = "".join(rng.choice(list("ACGT"), 40))
        b = "".join(rng.choice(list("ACGT"), 55))
        for scheme in (lin_scheme, aff_scheme):
            ends_free_align(a, b, scheme, EndsFree(a_start=True, b_end=True), config=config)
            fastlsa_local(a, b, scheme, config=config)
            batch_align(a, [b, b[5:]], scheme, mode="semiglobal", keep=1, config=config)

    def test_numpy_config_never_enters_compiled(
        self, compiled_calls, lin_scheme, aff_scheme
    ):
        from repro import AlignConfig

        with registry.use("compiled"):
            self._run_all(AlignConfig(kernel="numpy"), lin_scheme, aff_scheme)
        assert compiled_calls == []

    def test_compiled_config_enters_compiled(
        self, compiled_calls, lin_scheme, aff_scheme
    ):
        from repro import AlignConfig

        with registry.use("numpy"):
            self._run_all(AlignConfig(kernel="compiled"), lin_scheme, aff_scheme)
        assert {(k, "sweep_last_row_col") for k in registry.SCHEME_KINDS} <= set(compiled_calls)
        assert {(k, "best_cell_local") for k in registry.SCHEME_KINDS} <= set(compiled_calls)


def _spinner_share(call) -> float:
    """Run ``call`` while a pure-Python thread counts loop iterations.

    Returns the spinner's progress during the call as a fraction of what
    it manages alone over the same time.  A C call that holds the GIL
    starves the spinner (share near zero); one that releases it leaves
    the spinner running (share near one on two cores, about half on one).
    """
    count = [0]
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            count[0] += 1

    spinner = threading.Thread(target=spin, daemon=True)
    spinner.start()
    try:
        time.sleep(0.02)  # let the spinner get going
        c0, t0 = count[0], time.perf_counter()
        time.sleep(0.05)  # sleep releases the GIL: the spinner runs alone
        solo_rate = (count[0] - c0) / (time.perf_counter() - t0)
        c0, t0 = count[0], time.perf_counter()
        call()
        elapsed = time.perf_counter() - t0
        during = count[0] - c0
    finally:
        stop.set()
        spinner.join(timeout=5)
    assert not spinner.is_alive()
    return during / (solo_rate * elapsed)


@needs_compiled
class TestCompiledReleasesGil:
    """The threads backend scales only because cffi releases the GIL
    around each compiled sweep; pin that."""

    def test_sweep_last_row_col_releases_gil(self, lin_scheme):
        provider = registry.get_kernel("linear", "compiled")
        table = lin_scheme.matrix.table
        rng = np.random.default_rng(3)

        def sweep(m, n):
            a = rng.integers(0, 4, m).astype(np.int64)
            b = rng.integers(0, 4, n).astype(np.int64)
            row = np.arange(n + 1, dtype=np.int64) * -6
            col = np.arange(m + 1, dtype=np.int64) * -6
            return lambda: provider.sweep_last_row_col(a, b, table, -6, row, col)

        # Size the call to about 50 ms on this machine.
        probe = sweep(1000, 1000)
        t0 = time.perf_counter()
        probe()
        per_cell = max(time.perf_counter() - t0, 1e-6) / 1e6
        side = int(min(12_000, max(1000, (0.05 / per_cell) ** 0.5)))
        share = _spinner_share(sweep(side, side))
        assert share > 0.25, f"spinner share {share:.3f} during a {side}^2 sweep"
