"""Tests for the observability layer (repro.obs).

Covers the metrics primitives, the tracer, the context-propagated
runtime hook — including the two contract tests the instrumentation
must satisfy: *disabled is a no-op* (byte-identical results, tracer
never invoked) and *enabled reflects the recursion shape* (span tree
and cell attribution agree with the algorithm's own accounting).
"""

import json
import threading

import pytest

from repro import obs
from repro.core import AlignConfig, fastlsa
from repro.errors import ConfigError
from repro.kernels.ops import KernelInstruments
from repro.obs import Instrumentation, MetricsRegistry, Tracer
from repro.obs import runtime as obs_runtime
from repro.parallel import parallel_fastlsa
from repro.parallel.wavefront import PHASE_NAMES

from tests.conftest import random_dna


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("x") is c  # get-or-create

    def test_counter_cannot_decrease(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_tracks_high_water(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.add(2)
        g.set(1)
        assert g.value == 1
        assert g.max == 5

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("wait")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 1.0
        assert snap["max"] == 3.0
        assert snap["mean"] == 2.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")

    def test_snapshot_is_flat_and_jsonable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["g"]["max"] == 7
        assert snap["h"]["count"] == 1
        json.dumps(snap)  # must not raise

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.names() == []


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_within_a_thread(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        (root,) = t.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert root.end is not None and root.duration >= root.children[0].duration

    def test_explicit_cross_thread_parent(self):
        t = Tracer()
        parent = t.start_span("parent")

        def work():
            with t.span("child", parent=parent):
                pass

        th = threading.Thread(target=work)
        th.start()
        th.join()
        t.end_span(parent)
        assert [c.name for c in parent.children] == ["child"]
        assert parent.children[0].thread != parent.thread

    def test_error_attr_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("bad"):
                raise ValueError("boom")
        assert t.roots[0].attrs["error"] == "ValueError"
        assert t.roots[0].end is not None

    def test_to_rows_and_find(self):
        t = Tracer()
        with t.span("a", cells=10):
            with t.span("b"):
                pass
        rows = t.to_rows()
        assert [r["name"] for r in rows] == ["a", "b"]
        assert rows[0]["cells"] == 10
        assert rows[1]["depth"] == 1
        assert len(t.find("b")) == 1

    def test_chrome_trace_shape(self):
        t = Tracer()
        with t.span("region", category="fill", cells=4):
            pass
        doc = t.chrome_trace()
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["cat"] == "fill"
        assert event["dur"] >= 0
        assert event["args"]["cells"] == 4
        json.dumps(doc)  # chrome://tracing needs plain JSON

    def test_reset(self):
        t = Tracer()
        with t.span("x"):
            pass
        t.reset()
        assert len(t) == 0


# ----------------------------------------------------------------------
# runtime hook
# ----------------------------------------------------------------------
class TestRuntime:
    def test_off_by_default(self):
        assert obs_runtime.current() is None
        with obs_runtime.span("anything") as sp:
            assert sp is None  # the shared null span yields None

    def test_helpers_are_noops_when_off(self):
        # Must not raise and must not create any state anywhere.
        obs_runtime.counter_add("x", 3)
        obs_runtime.gauge_set("y", 1.0)
        obs_runtime.observe("z", 0.5)

    def test_instrumented_scopes_and_restores(self):
        with obs.instrumented() as inst:
            assert obs_runtime.current() is inst
            with obs_runtime.span("s") as sp:
                assert sp is not None
        assert obs_runtime.current() is None

    def test_enable_disable_global(self):
        inst = obs.enable()
        try:
            assert obs_runtime.current() is inst
        finally:
            obs.disable()
        assert obs_runtime.current() is None

    def test_worker_threads_see_scoped_instrumentation(self):
        seen = []
        with obs.instrumented() as inst:
            th = threading.Thread(target=lambda: seen.append(obs_runtime.current()))
            th.start()
            th.join()
        assert seen == [inst]


# ----------------------------------------------------------------------
# contract: disabled instrumentation is a strict no-op
# ----------------------------------------------------------------------
class TestDisabledIsNoop:
    def test_results_byte_identical_and_tracer_untouched(
        self, rng, dna_scheme, monkeypatch
    ):
        a = random_dna(rng, 300)
        b = random_dna(rng, 320)
        config = AlignConfig(k=4, base_cells=2048)

        with obs.instrumented():
            enabled = fastlsa(a, b, dna_scheme, config=config)

        calls = []
        monkeypatch.setattr(
            Tracer,
            "start_span",
            lambda self, *args, **kw: calls.append(args) or (_ for _ in ()).throw(
                AssertionError("tracer invoked while disabled")
            ),
        )
        disabled = fastlsa(a, b, dna_scheme, config=config)

        assert calls == []  # the hook never reached any tracer
        assert disabled.score == enabled.score
        assert disabled.gapped_a == enabled.gapped_a
        assert disabled.gapped_b == enabled.gapped_b
        assert disabled.stats.cells_computed == enabled.stats.cells_computed


# ----------------------------------------------------------------------
# contract: enabled spans mirror the recursion
# ----------------------------------------------------------------------
class TestEnabledShape:
    def test_span_tree_matches_recursion(self, rng, dna_scheme):
        a = random_dna(rng, 300)
        b = random_dna(rng, 320)
        inst_k = KernelInstruments()
        with obs.instrumented() as inst:
            result = fastlsa(
                a, b, dna_scheme, config=AlignConfig(k=4, base_cells=2048),
                instruments=inst_k,
            )

        align_spans = inst.tracer.find("fastlsa.align")
        assert len(align_spans) == 1
        assert align_spans[0].attrs["score"] == result.score
        assert align_spans[0].parent_id is None

        recurse = inst.tracer.find("fastlsa.recurse")
        base = inst.tracer.find("fastlsa.base_case")
        # Every sub-problem the algorithm counts is either a general-case
        # recursion span or a base-case solve span.
        assert len(recurse) + len(base) == result.stats.subproblems
        assert len(base) >= 1 and len(recurse) >= 1

        # Cell attribution partitions exactly: FillCache + Base Case
        # leaves account for every DP cell the kernels counted.
        fill = inst.tracer.find("fastlsa.fillcache")
        cells = sum(s.attrs["cells"] for s in fill) + sum(
            s.attrs["cells"] for s in base
        )
        assert cells == result.stats.cells_computed == inst_k.ops.cells
        assert (
            inst.metrics.counter("fastlsa.cells_filled").value
            == result.stats.cells_computed
        )

        # fill bands nest under fillcache spans; recursion nests properly.
        for band in inst.tracer.find("fastlsa.fill_band"):
            assert band.parent_id in {s.span_id for s in fill}
        for span in recurse:
            assert span.attrs["depth"] <= result.stats.recursion_depth

    def test_wall_time_histogram_and_alignment_counter(self, rng, dna_scheme):
        a = random_dna(rng, 120)
        b = random_dna(rng, 120)
        with obs.instrumented() as inst:
            fastlsa(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=1024))
            fastlsa(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=1024))
        assert inst.metrics.counter("fastlsa.alignments").value == 2
        assert inst.metrics.histogram("fastlsa.wall_time").count == 2


class TestBracketSpans:
    """The bracketing sweeps of the local and ends-free modes are spanned,
    so a trace attributes them instead of leaving them untraced."""

    def test_local_and_ends_free_sweeps(self, rng, dna_scheme):
        from repro.core import fastlsa_local, semiglobal_align

        a = random_dna(rng, 80)
        b = random_dna(rng, 90)
        with obs.instrumented() as inst:
            loc = fastlsa_local(a, b, dna_scheme)
            ef = semiglobal_align(a[20:60], b, dna_scheme)
        spans = inst.tracer.find("fastlsa.bracket")
        assert [
            (s.attrs["mode"], s.attrs["phase"], s.attrs["cells"]) for s in spans
        ] == [
            ("local", "end", 80 * 90),
            ("local", "start", loc.a_end * loc.b_end),
            ("ends_free", "end", 40 * 90),
            ("ends_free", "start", ef.a_end * ef.b_end),
        ]
        assert all(s.category == "bracket" and s.parent_id is None for s in spans)

    def test_best_cell_hint_skips_the_end_sweep(self, rng, dna_scheme):
        from repro.core.local import fastlsa_local, local_best_cell

        a = random_dna(rng, 60)
        b = random_dna(rng, 70)
        cell = local_best_cell(a, b, dna_scheme)
        with obs.instrumented() as inst:
            fastlsa_local(a, b, dna_scheme, best_cell=cell)
        phases = [s.attrs["phase"] for s in inst.tracer.find("fastlsa.bracket")]
        assert phases == ["start"]


# ----------------------------------------------------------------------
# parallel: tile spans carry Figure-13 phases
# ----------------------------------------------------------------------
class TestWavefrontSpans:
    def test_tile_spans_tagged_with_phases(self, rng, dna_scheme):
        a = random_dna(rng, 220)
        b = random_dna(rng, 240)
        config = AlignConfig(k=3, base_cells=900)
        seq = fastlsa(a, b, dna_scheme, config=config)
        with obs.instrumented() as inst:
            par = parallel_fastlsa(a, b, dna_scheme, P=2, config=config)
        assert par.score == seq.score
        assert par.gapped_a == seq.gapped_a

        tiles = inst.tracer.find("wavefront.tile")
        assert tiles, "expected wavefront tile spans"
        assert {t.attrs["phase"] for t in tiles} <= set(PHASE_NAMES)
        assert {t.attrs["region"] for t in tiles} <= {"fill", "base"}

        # Per-phase counters add up to the tile span count.
        counted = sum(
            inst.metrics.counter(f"wavefront.{p}_tiles").value for p in PHASE_NAMES
        )
        assert counted == len(tiles)

        # Tile wait histogram saw every dispatched tile.
        assert inst.metrics.histogram("wavefront.tile_wait").count == len(tiles)
        assert inst.tracer.find("wavefront.run")

    def test_phase_report_renders(self, rng, dna_scheme):
        a = random_dna(rng, 150)
        b = random_dna(rng, 150)
        with obs.instrumented() as inst:
            fastlsa(a, b, dna_scheme, config=AlignConfig(k=3, base_cells=1024))
        table = obs.phase_table(inst, m=150, n=150)
        assert "fastlsa.fillcache" in table
        assert "cells_filled=" in table
        assert "ops_ratio=" in table


# ----------------------------------------------------------------------
# service: stage spans and live metrics
# ----------------------------------------------------------------------
class TestServiceObservability:
    def test_job_spans_and_metrics(self, dna_scheme):
        import asyncio

        from repro.service import AlignmentService

        async def go(inst):
            async with AlignmentService(memory_cells=200_000, max_workers=2) as svc:
                r1 = await svc.align("ACGTACGTAC", "ACGTTCGTAC", dna_scheme)
                r2 = await svc.align("ACGTACGTAC", "ACGTTCGTAC", dna_scheme)
            return r1, r2

        with obs.instrumented() as inst:
            r1, r2 = asyncio.run(go(inst))
        assert r2.cached and r1.score == r2.score

        jobs = inst.tracer.find("service.job")
        assert len(jobs) == 2
        cached = [s for s in jobs if s.attrs.get("cached")]
        assert len(cached) == 1
        queued = inst.tracer.find("service.queue")
        assert queued and all(q.end is not None for q in queued)

        snap = inst.metrics.snapshot()
        assert snap["service.submitted"] == 2
        assert snap["service.completed"] >= 1
        assert snap["service.cache_hits"] == 1
        assert snap["service.job_wall_time"]["count"] == 1

    def test_stats_op_carries_metrics(self, dna_scheme):
        import asyncio

        from repro.service import AlignmentService, ProtocolHandler

        async def go():
            svc = AlignmentService(memory_cells=100_000)
            handler = ProtocolHandler(svc)
            async with svc:
                await handler.handle(
                    {"op": "align", "id": 1, "a": "ACGTACGT", "b": "ACGTTCGT"}
                )
                return await handler.handle({"op": "stats", "id": 2})

        with obs.instrumented():
            resp = asyncio.run(go())
        assert resp["ok"]
        metrics = resp["result"]["metrics"]
        assert metrics["service.submitted"] == 1

        # Without instrumentation the stats op omits the metrics object.
        resp_off = asyncio.run(go())
        assert "metrics" not in resp_off["result"]
