"""Helpers shared by the benchmark's parent (``run.py``), its workload
children (``worker.py``) and ``compare.py``.

Nothing here imports ``repro``: the parent never loads the library, and the
children must time ``import repro`` themselves as part of set-up.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: ``benchmarks/e2e`` sits two levels below it.
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Everything a run writes lives under here (listed in ``.gitignore``).
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")

WORKLOADS = ("genome_pair", "short_pairs", "corpus_search")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0–100) of ``values``, which
    may hold ``inf`` (a failed operation)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if xs[hi] == xs[lo]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def metric(value: float, unit: str, n: int) -> dict:
    """One reported metric: the value as measured, its unit, its sample count."""
    return {"value": float(value), "unit": unit, "n": int(n)}


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: The two fixed sequences the reference probe aligns (130 bp each), and
#: their score.
_REF_A = "".join("ACGT"[(i * i + 3 * i) // 7 % 4] for i in range(130))
_REF_B = "".join("ACGT"[(i * i + 5 * i) // 7 % 4] for i in range(130))
_REF_SCORE = 165
#: Time of one reference probe on the reference host, a 2-vCPU Xeon VM
#: running Python 3.11 with no other tenant busy.  Timings are reported at
#: this host speed.
REF_MS = 5.0
#: When the host slows the probe by a factor k, the workloads' ops slow by
#: about k ** 0.9: the pure-Python probe feels a slow state a little more
#: than the compiled and numpy code the ops spend most of their time in.
#: Measured over 120 runs of the three workloads on the reference host;
#: scaling by k itself left the timings' spreads up to twice as wide.
SCALE_EXPONENT = 0.9


def reference_probe() -> float:
    """Seconds taken by a fixed pure-Python global alignment score.

    It uses nothing from ``repro``, so no change to the program moves it:
    it measures how fast the host runs code right now.  On a shared host
    that speed switches, every few seconds, between a fast state and one
    up to twice as slow, and the program's own times switch with it.  The
    benchmark therefore runs this probe between its ops and scales each
    op's time by the probes around it (:func:`host_scale`).
    """
    t0 = time.perf_counter()
    prev = [-6 * j for j in range(len(_REF_B) + 1)]
    for i, x in enumerate(_REF_A, 1):
        row = [-6 * i]
        for j, y in enumerate(_REF_B, 1):
            row.append(max(prev[j - 1] + (5 if x == y else -4), prev[j] - 6, row[j - 1] - 6))
        prev = row
    if prev[-1] != _REF_SCORE:
        raise RuntimeError(f"reference probe scored {prev[-1]}, expected {_REF_SCORE}")
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """The factor that puts a time measured between two reference probes
    (their seconds) at the reference host speed."""
    return (REF_MS / (500.0 * (before + after))) ** SCALE_EXPONENT


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _module_version(name: str):
    """The installed version of distribution ``name``, or None."""
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def host_metadata() -> dict:
    """The fields two runs must share before ``compare.py`` compares them."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _module_version("numpy"),
        "cffi": _module_version("cffi"),
        "gcc": shutil.which("gcc") is not None,
        "platform": platform.platform(),
    }


#: Fields that must match between two sets of runs (``compare.py``).
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "cffi", "gcc")
