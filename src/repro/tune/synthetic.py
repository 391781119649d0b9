"""Synthetic calibration fixtures: deterministic fake hosts for tests.

CI cannot depend on real multicore hardware, so the decision tests run
against two frozen profiles:

* ``"slow-1cpu"`` mirrors the honest BENCH_pr5_backends.json numbers from
  the 1-CPU bench host — serial ≈100 Mcells/s with the threads backend
  measured well below it (≈0.22×).  Correct decision: serial, always.
* ``"fast-8cpu"`` models a healthy 8-way machine where the threads
  backend scales to ≈5× serial at 8 workers.  Correct decision: the
  parallel point with the highest measured curve.

Both are marked ``synthetic=True`` so fingerprint validation is skipped,
and every number is a hard-coded constant — the tests that consume them
are fully deterministic without touching the clock or the real CPU.
"""

from __future__ import annotations

from ..errors import ConfigError
from .profile import SCHEMA_VERSION, CalibrationProfile, host_fingerprint

__all__ = ["SYNTHETIC_KINDS", "synthetic_profile"]

SYNTHETIC_KINDS = ("slow-1cpu", "fast-8cpu")

_M = 1_000_000.0


def _profile(host: dict, **fields) -> CalibrationProfile:
    host = dict(host)
    host["fingerprint"] = host_fingerprint(host)
    profile = CalibrationProfile(host=host, synthetic=True, **fields)
    profile.schema_version = SCHEMA_VERSION
    return profile


def synthetic_profile(kind: str) -> CalibrationProfile:
    """A frozen fixture profile; ``kind`` is one of :data:`SYNTHETIC_KINDS`."""
    if kind == "slow-1cpu":
        # BENCH_pr5_backends.json, 5000 bp row (cpu_count=1): serial
        # 101 Mcells/s; threads 0.21x at 2 workers.
        return _profile(
            {"cpu_count": 1, "platform": "Linux", "machine": "x86_64",
             "python": "3.12"},
            kernels={"numpy": {"linear_cells_per_s": 101 * _M,
                               "affine_cells_per_s": 34 * _M}},
            backends={
                "serial": {1: 101 * _M},
                "threads": {2: 21.4 * _M, 4: 22.9 * _M},
            },
            handoff_s={"threads": 2.0e-4},
            band_fill_cells_per_s=220 * _M,
            base_sweep={16_384: 88 * _M, 262_144: 101 * _M,
                        1_048_576: 97 * _M},
        )
    if kind == "fast-8cpu":
        return _profile(
            {"cpu_count": 8, "platform": "Linux", "machine": "x86_64",
             "python": "3.12"},
            kernels={"numpy": {"linear_cells_per_s": 100 * _M,
                               "affine_cells_per_s": 33 * _M},
                     "compiled": {"linear_cells_per_s": 800 * _M,
                                  "affine_cells_per_s": 400 * _M}},
            backends={
                "serial": {1: 100 * _M},
                "threads": {2: 180 * _M, 4: 330 * _M, 8: 510 * _M},
            },
            handoff_s={"threads": 5.0e-5},
            band_fill_cells_per_s=230 * _M,
            base_sweep={16_384: 90 * _M, 262_144: 100 * _M,
                        1_048_576: 95 * _M},
        )
    raise ConfigError(
        f"unknown synthetic profile {kind!r}; choose from {SYNTHETIC_KINDS}"
    )
