"""Degradation-ladder edge cases (PR 9 satellite).

:func:`repro.core.planner.degrade_plan` is the service's graceful-
degradation mechanism; these tests pin its contract at the edges —
affine + ends-free jobs, the memory floor, the full-matrix→fastlsa rung
— and the scheduler-side invariants added in PR 9: knob preservation
across a downgrade, the calibrated beats-serial re-consult, and the
governor-reservation invariant (a degraded plan never outgrows the
cells already reserved).
"""

from __future__ import annotations

import asyncio

from repro.core.config import MIN_BASE_CELLS, AlignConfig, FastLSAConfig
from repro.core.modes import semiglobal_align
from repro.core.planner import (
    Plan,
    degrade_plan,
    fastlsa_peak_cells,
    ops_ratio_bound,
    plan_alignment,
)
from repro.service import AlignmentService
from repro.service.jobs import AlignRequest, Job
from repro.tune import synthetic_profile
from repro.workloads import dna_pair


def _walk_ladder(plan, m, n, affine):
    """All rungs from ``plan`` down to the floor."""
    rungs = [plan]
    while True:
        nxt = degrade_plan(rungs[-1], m, n, affine=affine)
        if nxt is None:
            return rungs
        rungs.append(nxt)


class TestLadder:
    def test_affine_ladder_strictly_decreases_peak(self):
        m = n = 6_000
        plan = plan_alignment(m, n, 600_000, affine=True)
        rungs = _walk_ladder(plan, m, n, affine=True)
        assert len(rungs) >= 2
        peaks = [r.predicted_peak_cells for r in rungs]
        assert peaks == sorted(peaks, reverse=True)
        assert len(set(peaks)) == len(peaks)  # strict, every rung
        for r in rungs[1:]:
            assert r.config.k >= 2
            assert r.config.base_cells >= MIN_BASE_CELLS

    def test_floor_is_none_not_a_loop(self):
        m = n = 4_000
        floor = Plan(
            method="fastlsa",
            config=FastLSAConfig(k=2, base_cells=MIN_BASE_CELLS),
            memory_cells=100_000,
            predicted_peak_cells=fastlsa_peak_cells(m, n, 2, MIN_BASE_CELLS, False),
            predicted_ops_ratio=ops_ratio_bound(2),
        )
        assert degrade_plan(floor, m, n) is None

    def test_full_matrix_rung_switches_method(self):
        plan = plan_alignment(500, 500, 10_000_000)
        assert plan.method == "full-matrix"
        nxt = degrade_plan(plan, 500, 500)
        assert nxt is not None and nxt.method == "fastlsa"
        assert nxt.predicted_peak_cells < plan.predicted_peak_cells

    def test_degraded_config_still_aligns_ends_free_affine(self, affine_dna_scheme):
        """A floor-rung config must still produce the exact ends-free
        alignment (degradation trades speed/memory, never correctness)."""
        a, b = dna_pair(300, divergence=0.2, seed=5)
        plan = plan_alignment(len(a), len(b), 200_000, affine=True)
        floor = _walk_ladder(plan, len(a), len(b), affine=True)[-1]
        ref = semiglobal_align(a, b, affine_dna_scheme)
        got = semiglobal_align(
            a, b, affine_dna_scheme,
            config=AlignConfig(floor.config.k, floor.config.base_cells),
        )
        assert got.score == ref.score
        assert (got.alignment.gapped_a, got.alignment.gapped_b) == (
            ref.alignment.gapped_a, ref.alignment.gapped_b
        )


def _lead_job(m, n, scheme, config, reserved=None):
    a, b = dna_pair(m, divergence=0.2, seed=1)
    plan = Plan(
        method="fastlsa",
        config=config,
        memory_cells=10_000_000,
        predicted_peak_cells=fastlsa_peak_cells(
            m, n, config.k, config.base_cells, False
        ),
        predicted_ops_ratio=ops_ratio_bound(config.k),
    )
    job = Job(request=AlignRequest(a=a, b=b, scheme=scheme), plan=plan, future=None)
    job.reserved_cells = (
        reserved if reserved is not None else plan.predicted_peak_cells
    )
    return job


class TestSchedulerCarryConfig:
    """PR 9: what survives a downgrade, and what must never grow."""

    def _carry(self, tune, job):
        async def run():
            svc = AlignmentService(memory_cells=50_000_000, tune=tune)
            next_plan = degrade_plan(
                job.plan, len(job.request.a), len(job.request.b), affine=False
            )
            assert next_plan is not None
            return svc._carry_config(job, next_plan)

        return asyncio.run(run())

    def test_knobs_survive_downgrade(self):
        scheme_cfg = AlignConfig(
            k=8, base_cells=65_536, band="auto", kernel="numpy", tune="off"
        )
        job = _lead_job(2_000, 2_000, _scheme(), scheme_cfg)
        plan, dropped = self._carry("off", job)
        assert dropped is None
        assert plan.config.band == "auto"
        assert plan.config.kernel == "numpy"
        assert plan.config.tune == "off"
        assert plan.config.k < 8 or plan.config.base_cells < 65_536

    def test_backend_dropped_without_profile(self):
        cfg = AlignConfig(k=8, base_cells=65_536, backend="threads", max_workers=2)
        job = _lead_job(2_000, 2_000, _scheme(), cfg)
        plan, dropped = self._carry("off", job)
        assert dropped == "threads"
        assert plan.config.backend is None

    def test_backend_dropped_when_curve_loses_to_serial(self):
        # slow-1cpu: every parallel point is measured below serial, so the
        # re-consult must shed the backend at the first downgrade.
        cfg = AlignConfig(k=8, base_cells=65_536, backend="threads", max_workers=2)
        job = _lead_job(2_000, 2_000, _scheme(), cfg)
        plan, dropped = self._carry(synthetic_profile("slow-1cpu"), job)
        assert dropped == "threads"
        assert plan.config.backend is None

    def test_backend_kept_when_curve_still_wins(self):
        cfg = AlignConfig(k=8, base_cells=65_536, backend="threads", max_workers=2)
        job = _lead_job(3_000, 3_000, _scheme(), cfg, reserved=10_000_000)
        plan, dropped = self._carry(synthetic_profile("fast-8cpu"), job)
        assert dropped is None
        assert plan.config.backend == "threads"
        assert plan.config.max_workers == 2

    def test_reservation_invariant(self):
        """A kept parallel backend stays inside the cells the job already
        reserved; if the degraded plan cannot fit, the backend is shed."""
        m = n = 3_000
        cfg = AlignConfig(k=8, base_cells=65_536, backend="threads", max_workers=2)
        profile = synthetic_profile("fast-8cpu")

        roomy = _lead_job(m, n, _scheme(), cfg, reserved=50_000_000)
        plan, dropped = self._carry(profile, roomy)
        assert dropped is None and plan.config.backend == "threads"
        assert plan.predicted_peak_cells <= roomy.reserved_cells

        tight = _lead_job(m, n, _scheme(), cfg, reserved=1)
        plan, dropped = self._carry(profile, tight)
        assert dropped == "threads"
        assert plan.config.backend is None

    def test_downgrade_label_records_shed_backend(self):
        async def run():
            svc = AlignmentService(
                memory_cells=50_000_000,
                tune=synthetic_profile("slow-1cpu"),
            )
            cfg = AlignConfig(
                k=8, base_cells=65_536, backend="threads", max_workers=2
            )
            job = _lead_job(2_000, 2_000, _scheme(), cfg)
            assert svc._degrade_group([job], "memory_budget")
            return job

        job = asyncio.run(run())
        assert len(job.downgrades) == 1
        assert "memory_budget" in job.downgrades[0]
        assert "backend:threads->serial" in job.downgrades[0]
        assert job.plan.config.backend is None


def _scheme():
    from repro.scoring import ScoringScheme, dna_simple, linear_gap

    return ScoringScheme(dna_simple(), linear_gap(-6))


class TestGovernorSurfacesClampNotes:
    """resolve_backend's worker clamp reaches the job's downgrade list."""

    def test_pinned_admit_records_clamp(self, dna_scheme):
        from repro.core.planner import worker_cap
        from repro.service.governor import MemoryGovernor

        cap = worker_cap()
        gov = MemoryGovernor(total_cells=50_000_000, max_workers=1)
        plan = gov.admit(
            500, 500,
            config=AlignConfig(backend="threads", max_workers=cap + 3),
        )
        assert plan.downgrades == (f"workers_clamped:{cap + 3}->{cap}",)

    def test_submitted_job_surfaces_clamp(self, dna_scheme):
        from repro.core.planner import worker_cap

        cap = worker_cap()

        async def run():
            async with AlignmentService(
                memory_cells=50_000_000, tune="off"
            ) as svc:
                a, b = dna_pair(200, divergence=0.2, seed=3)
                job = await svc.submit(
                    a, b, dna_scheme,
                    config=AlignConfig(
                        backend="threads", max_workers=cap + 5
                    ),
                )
                return await job.future

        result = asyncio.run(run())
        assert f"workers_clamped:{cap + 5}->{cap}" in result.downgrades

    def test_unclamped_job_has_no_downgrades(self, dna_scheme):
        async def run():
            async with AlignmentService(
                memory_cells=50_000_000, tune="off"
            ) as svc:
                a, b = dna_pair(200, divergence=0.2, seed=3)
                job = await svc.submit(a, b, dna_scheme)
                return await job.future

        result = asyncio.run(run())
        assert result.downgrades == []
