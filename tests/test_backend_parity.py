"""Backend parity: serial vs threads, bit-for-bit.

The wavefront backend is a pure execution strategy — it must produce the
*identical* optimal score AND the identical traceback path for the same
inputs and FastLSA parameters.  This suite sweeps the differential
harness's ``k`` / base-case configurations (linear and affine schemes,
plus the ends-free modes) on both kernel tiers, checks that the worker
threads run on the tier the config names, and that the removed
``processes`` backend is a typed configuration error.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import fastlsa
from repro.core import AlignConfig, overlap_align, semiglobal_align
from repro.errors import ConfigError
from repro.kernels import registry
from repro.parallel import parallel_fastlsa
from repro.workloads import dna_pair, protein_pair

from .test_differential import SWEEP, _assert_optimal

BACKENDS = ["threads"]


def _with_backend(config: AlignConfig, backend: str, workers: int = 2) -> AlignConfig:
    return AlignConfig(
        config.k, config.base_cells, max_workers=workers, backend=backend
    )


class TestScoreAndPathParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("config", SWEEP, ids=lambda c: f"k{c.k}b{c.base_cells}")
    def test_linear_dna(self, dna_scheme, config, backend):
        a, b = dna_pair(120, divergence=0.25, seed=1)
        ref = fastlsa(a, b, dna_scheme, config=config)
        got = fastlsa(a, b, dna_scheme, config=_with_backend(config, backend))
        assert got.score == ref.score
        assert got.path.points == ref.path.points
        _assert_optimal(got, dna_scheme, ref.score)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("config", SWEEP, ids=lambda c: f"k{c.k}b{c.base_cells}")
    def test_affine_protein(self, affine_scheme, config, backend):
        a, b = protein_pair(90, divergence=0.3, seed=2)
        ref = fastlsa(a, b, affine_scheme, config=config)
        got = fastlsa(a, b, affine_scheme, config=_with_backend(config, backend))
        assert got.score == ref.score
        assert got.path.points == ref.path.points
        _assert_optimal(got, affine_scheme, ref.score)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_linear_seeds_deep_recursion(self, dna_scheme, backend, seed):
        a, b = dna_pair(150, divergence=0.2, seed=seed)
        config = AlignConfig(k=3, base_cells=64)
        ref = fastlsa(a, b, dna_scheme, config=config)
        got = fastlsa(a, b, dna_scheme, config=_with_backend(config, backend, 3))
        assert got.score == ref.score
        assert got.path.points == ref.path.points

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ends_free_modes(self, dna_scheme, backend):
        # config= routes through the same backend resolution, so the
        # ends-free drivers get wavefront FillCache for free.
        a, b = dna_pair(130, divergence=0.25, seed=5)
        config = AlignConfig(k=4, base_cells=256)
        bcfg = _with_backend(config, backend)
        for fn in (semiglobal_align, overlap_align):
            ref = fn(a, b, dna_scheme, config=config)
            got = fn(a, b, dna_scheme, config=bcfg)
            assert got.score == ref.score
            assert got.alignment.path.points == ref.alignment.path.points

    def test_parallel_fastlsa_parallel_base_case(self, dna_scheme):
        # The paper driver keeps its wavefront Base Case (the backend
        # runs it serially); both must match serial bit-for-bit.
        a, b = dna_pair(140, divergence=0.25, seed=7)
        cfg = AlignConfig(k=4, base_cells=256)
        ref = fastlsa(a, b, dna_scheme, config=cfg)
        got = parallel_fastlsa(a, b, dna_scheme, P=2, config=cfg)
        assert got.score == ref.score
        assert got.path.points == ref.path.points
        assert got.algorithm == "parallel-fastlsa(P=2)"


TIERS = ["numpy"] + (["compiled"] if registry.compiled_available() else [])


class TestThreadsParityPerTier:
    """Scores and gapped strings stay bit-identical to serial on each
    kernel tier: linear, affine and ends-free."""

    @pytest.mark.parametrize("kernel", TIERS)
    def test_linear_affine_and_ends_free(self, dna_scheme, affine_scheme, kernel):
        a, b = dna_pair(600, divergence=0.25, seed=13)
        serial = AlignConfig(k=4, base_cells=1024, kernel=kernel)
        threads = AlignConfig(
            k=4, base_cells=1024, kernel=kernel, backend="threads", max_workers=2
        )
        for scheme in (dna_scheme, affine_scheme):
            ref = fastlsa(a, b, scheme, config=serial)
            got = fastlsa(a, b, scheme, config=threads)
            assert (got.score, got.gapped_a, got.gapped_b) == (
                ref.score, ref.gapped_a, ref.gapped_b
            )
            assert got.stats.kernel == kernel
            for fn in (semiglobal_align, overlap_align):
                ref_ef = fn(a, b, scheme, config=serial)
                got_ef = fn(a, b, scheme, config=threads)
                assert got_ef.score == ref_ef.score
                assert (got_ef.alignment.gapped_a, got_ef.alignment.gapped_b) == (
                    ref_ef.alignment.gapped_a, ref_ef.alignment.gapped_b
                )


@pytest.mark.skipif(
    not registry.compiled_available(), reason="compiled kernel tier not built"
)
class TestThreadsHonourKernel:
    """Wavefront worker threads do not inherit the caller's
    ``registry.use(...)``; the tier must be resolved on the submitting
    thread, or ``kernel="numpy"`` silently runs compiled sweeps."""

    @pytest.fixture
    def compiled_calls(self):
        calls = []
        providers = [registry.get_kernel(kind, "compiled")
                     for kind in registry.SCHEME_KINDS]
        originals = [p.sweep_last_row_col for p in providers]
        for provider, fn in zip(providers, originals):
            def wrapped(*args, _fn=fn, **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)
            # Providers are frozen dataclasses.
            object.__setattr__(provider, "sweep_last_row_col", wrapped)
        try:
            yield calls
        finally:
            for provider, fn in zip(providers, originals):
                object.__setattr__(provider, "sweep_last_row_col", fn)

    def _run(self, scheme, kernel):
        a, b = dna_pair(700, divergence=0.25, seed=21)
        cfg = AlignConfig(
            k=4, base_cells=1024, kernel=kernel, backend="threads", max_workers=2
        )
        return fastlsa(a, b, scheme, config=cfg)

    def test_numpy_never_enters_compiled(self, compiled_calls, dna_scheme,
                                         affine_scheme):
        for scheme in (dna_scheme, affine_scheme):
            assert self._run(scheme, "numpy").stats.kernel == "numpy"
        assert compiled_calls == []

    def test_compiled_enters_compiled(self, compiled_calls, dna_scheme):
        assert self._run(dna_scheme, "compiled").stats.kernel == "compiled"
        assert compiled_calls


class TestRemovedProcessesBackend:
    def test_config_error_names_threads(self):
        with pytest.raises(ConfigError, match="threads"):
            AlignConfig(backend="processes")
        with pytest.raises(ConfigError, match="threads"):
            AlignConfig.from_dict({"backend": "processes"})

    def test_ndjson_config_is_protocol_error(self):
        from .test_service_server import run_requests

        responses, _ = run_requests(
            {"memory_cells": 100_000, "tune": "off"},
            [{"op": "align", "id": 1, "a": "ACGT", "b": "ACGA",
              "config": {"backend": "processes"}}],
        )
        resp = responses[0]
        assert not resp["ok"]
        assert resp["error"]["type"] == "ProtocolError"
        assert "threads" in resp["error"]["message"]

    def test_service_default_backend_rejected(self):
        from repro.service import AlignmentService

        async def go():
            AlignmentService(default_backend="processes", tune="off")

        with pytest.raises(ConfigError, match="threads"):
            asyncio.run(go())


@pytest.mark.slow
def test_bench_harness_full_path(tmp_path):
    """The non-smoke benchmark path: parity + the 1.3x kernel bar enforced."""
    repo_root = Path(__file__).resolve().parents[1]
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(repo_root / "benchmarks" / "bench_pr5_backends.py"),
            "--lengths", "1000", "--workers", "2", "--repeats", "3",
            "--out", str(out),
        ],
        cwd=repo_root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(out.read_text())
    assert data["kernel_fastpath"]["parity"]
    assert data["kernel_fastpath"]["speedup"] >= 1.3
    assert all(row["parity"] for row in data["sweep"])
    assert data["meta"]["cpu_count"] == os.cpu_count()


class TestServiceBackend:
    def test_default_backend_jobs_match_serial(self, dna_scheme):
        pairs = [dna_pair(100, divergence=0.3, seed=s) for s in range(3)]
        cfg = AlignConfig(k=4, base_cells=256)

        async def go():
            from repro.service import AlignmentService

            async with AlignmentService(
                memory_cells=4_000_000,
                default_backend="threads",
                backend_workers=2,
            ) as svc:
                results = [
                    await svc.align(a, b, dna_scheme, config=cfg) for a, b in pairs
                ]
                stats = svc.stats()
            return results, stats

        results, stats = asyncio.run(go())
        assert stats["default_backend"] == "threads"
        for (a, b), res in zip(pairs, results):
            assert res.score == fastlsa(a, b, dna_scheme, config=cfg).score
