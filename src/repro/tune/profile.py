"""Calibration profiles: measured host performance, cached on disk.

A :class:`CalibrationProfile` is the persistent output of one
``fastlsa calibrate`` run (:mod:`repro.tune.probe`): cells/s per kernel
tier, per backend × worker count, the per-tile handoff overhead of the
wavefront backends, band-fill throughput and a Base-Case-buffer sweep —
everything :mod:`repro.tune.decision` needs to pick a plan from *measured*
curves instead of assumptions (ROADMAP item 5; the paper's Theorem-4 model
supplies the shape, the profile supplies the constants).

Profiles are host-fingerprinted and schema-versioned.  ``load_cached``
silently rejects a cache written by a different schema or on a different
machine (different CPU count, platform or interpreter) so a copied home
directory can never poison planning decisions; an explicitly named profile
path (``AlignConfig.tune = "<path>"``) skips the fingerprint check, which
is what the synthetic CI fixtures rely on.

The cache lives at ``~/.cache/fastlsa/calibration.json`` (override the
directory with ``$FASTLSA_CACHE_DIR``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..core.config import AlignConfig
from ..errors import ConfigError

__all__ = [
    "SCHEMA_VERSION",
    "CalibrationProfile",
    "host_info",
    "host_fingerprint",
    "default_cache_dir",
    "default_cache_path",
    "load_cached",
    "load_profile",
]

#: Bump on any incompatible change to the profile JSON layout.  A cached
#: profile with a different version is discarded (treated as absent), so
#: upgrades re-probe instead of misreading old files.
SCHEMA_VERSION = 1

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "FASTLSA_CACHE_DIR"


def host_info() -> Dict[str, object]:
    """The identity fields a calibration is only valid for."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.system(),
        "machine": platform.machine(),
        "python": "{}.{}".format(*sys.version_info[:2]),
    }


def host_fingerprint(info: Optional[Dict[str, object]] = None) -> str:
    """Stable digest of :func:`host_info` (what the cache is keyed on)."""
    info = host_info() if info is None else info
    blob = json.dumps(
        {k: info.get(k) for k in ("cpu_count", "platform", "machine", "python")},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "fastlsa")


def default_cache_path() -> str:
    return os.path.join(default_cache_dir(), "calibration.json")


@dataclass
class CalibrationProfile:
    """Measured performance curves for one host.

    Attributes
    ----------
    host:
        :func:`host_info` of the probed machine plus its ``fingerprint``.
    kernels:
        ``tier -> {"linear_cells_per_s": float, "affine_cells_per_s": float}``
        for every tier available when the probe ran.
    backends:
        ``backend -> {str(workers) -> cells_per_s}`` end-to-end FastLSA
        throughput.  ``"serial"`` always carries the single key ``"1"``.
    handoff_s:
        ``backend -> seconds`` of per-tile dispatch/boundary-handoff
        overhead for the parallel backends (the Theorem-4 model's
        per-tile constant, measured rather than assumed).
    band_fill_cells_per_s:
        Banded-fill throughput (cells inside the band per second); 0 when
        not measured.
    base_sweep:
        ``str(base_cells) -> cells_per_s`` serial throughput at several
        Base Case buffer sizes — how the planner learns the cache-sized
        ``BM`` sweet spot.
    batch:
        ``tier -> {kind -> {lanes -> cells_per_s}}`` throughput of the
        lane-packed batch kernels (``kind`` is ``"linear"``/``"affine"``).
        The ``lanes == 1`` point is the *per-pair* baseline measured
        through the same harness, so the decision layer can compare batch
        and per-pair dispatch on equal footing.  Empty when the probe
        predates the batch kernels.
    quick:
        Probe ran in ``--quick`` mode (smaller inputs, fewer repeats).
    synthetic:
        Fixture profile (not measured on this host); fingerprint checks
        are skipped for synthetic profiles.
    """

    host: Dict[str, object] = field(default_factory=dict)
    kernels: Dict[str, Dict[str, float]] = field(default_factory=dict)
    backends: Dict[str, Dict[str, float]] = field(default_factory=dict)
    handoff_s: Dict[str, float] = field(default_factory=dict)
    band_fill_cells_per_s: float = 0.0
    base_sweep: Dict[str, float] = field(default_factory=dict)
    batch: Dict[str, Dict[str, Dict[int, float]]] = field(default_factory=dict)
    quick: bool = False
    synthetic: bool = False
    schema_version: int = SCHEMA_VERSION

    # -- derived queries ----------------------------------------------
    def cpu_count(self) -> int:
        return int(self.host.get("cpu_count") or 1)

    def serial_cells_per_s(self) -> float:
        """Measured serial end-to-end throughput (the floor to beat)."""
        curve = self.backends.get("serial") or {}
        if curve:
            return float(next(iter(curve.values())))
        # Fall back to the kernel sweep if the backend probe is missing.
        tier = self.kernels.get("numpy") or {}
        return float(tier.get("linear_cells_per_s", 0.0))

    def backend_points(self) -> Iterator[Tuple[str, int, float]]:
        """Every measured parallel ``(backend, workers, cells_per_s)`` point.

        Curves for backends this library no longer has (profiles cached
        before the processes backend was removed carry one) are ignored,
        so no decision can return a backend :class:`AlignConfig` rejects.
        """
        for backend, curve in self.backends.items():
            if backend == "serial" or backend not in AlignConfig.BACKENDS:
                continue
            for workers, cps in curve.items():
                yield backend, int(workers), float(cps)

    def cells_per_s(self, backend: str, workers: int) -> Optional[float]:
        """Measured throughput at ``(backend, workers)``; ``None`` if the
        point was never probed (the decision layer treats unmeasured
        points as unusable rather than extrapolating optimistically)."""
        if backend == "serial":
            return self.serial_cells_per_s() or None
        if backend not in AlignConfig.BACKENDS:
            return None
        curve = self.backends.get(backend)
        if not curve:
            return None
        value = curve.get(int(workers))
        if value is None:  # tolerate hand-built profiles with str keys
            value = curve.get(str(int(workers)))
        return None if value is None else float(value)

    def best_backend(self, cells: Optional[int] = None) -> Tuple[str, int]:
        """Fastest measured ``(backend, workers)`` — never below serial.

        A parallel point only wins when its *measured* curve strictly
        beats serial throughput; by construction this function can never
        reproduce the BENCH_pr5 regression (threads at 0.22× serial being
        selected).  ``cells`` is accepted for signature stability with
        richer cost models; the curves are throughput-based so it does
        not change the argmax.
        """
        best = ("serial", 1)
        best_cps = self.serial_cells_per_s()
        for backend, workers, cps in self.backend_points():
            if cps > best_cps:
                best, best_cps = (backend, workers), cps
        return best

    def best_kernel(self, available: Tuple[str, ...]) -> Optional[str]:
        """Fastest measured kernel tier among ``available``; ``None`` when
        the probe measured none of them."""
        best: Optional[str] = None
        best_cps = -1.0
        for tier in available:
            curve = self.kernels.get(tier)
            if not curve:
                continue
            cps = float(curve.get("linear_cells_per_s", 0.0))
            if cps > best_cps:
                best, best_cps = tier, cps
        return best

    def batch_curve(self, tier: str, kind: str) -> Dict[int, float]:
        """Measured ``{lanes -> cells_per_s}`` for the batch kernel at
        ``(tier, kind)``; empty when the point was never probed."""
        curve = (self.batch.get(tier) or {}).get(kind) or {}
        return {int(b): float(v) for b, v in curve.items()}

    def best_base_cells(self) -> Optional[int]:
        """The Base Case buffer size with the highest measured throughput."""
        if not self.base_sweep:
            return None
        best = max(self.base_sweep.items(), key=lambda kv: (kv[1], -int(kv[0])))
        return int(best[0])

    # -- (de)serialisation --------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "host": dict(self.host),
            "kernels": {t: dict(c) for t, c in self.kernels.items()},
            "backends": {b: dict(c) for b, c in self.backends.items()},
            "handoff_s": dict(self.handoff_s),
            "band_fill_cells_per_s": self.band_fill_cells_per_s,
            "base_sweep": dict(self.base_sweep),
            "batch": {
                t: {k: dict(c) for k, c in kinds.items()}
                for t, kinds in self.batch.items()
            },
            "quick": self.quick,
            "synthetic": self.synthetic,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationProfile":
        if not isinstance(data, dict):
            raise ConfigError(f"calibration profile must be an object, got {data!r}")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"calibration profile schema_version {version!r} unsupported "
                f"(expected {SCHEMA_VERSION}; re-run `fastlsa calibrate`)"
            )
        # JSON stringifies int keys: restore worker counts and base-buffer
        # sizes as ints so in-memory and loaded profiles are identical.
        return cls(
            host=dict(data.get("host") or {}),
            kernels={
                str(t): {str(k): float(v) for k, v in (c or {}).items()}
                for t, c in (data.get("kernels") or {}).items()
            },
            backends={
                str(b): {int(w): float(v) for w, v in (c or {}).items()}
                for b, c in (data.get("backends") or {}).items()
            },
            handoff_s={str(b): float(v) for b, v in (data.get("handoff_s") or {}).items()},
            band_fill_cells_per_s=float(data.get("band_fill_cells_per_s") or 0.0),
            base_sweep={
                int(k): float(v) for k, v in (data.get("base_sweep") or {}).items()
            },
            # ``batch`` is absent from pre-PR10 profiles: tolerate that
            # (same schema version) and coerce JSON-stringified lane
            # counts back to ints.
            batch={
                str(t): {
                    str(k): {int(b): float(v) for b, v in (c or {}).items()}
                    for k, c in (kinds or {}).items()
                }
                for t, kinds in (data.get("batch") or {}).items()
            },
            quick=bool(data.get("quick", False)),
            synthetic=bool(data.get("synthetic", False)),
        )

    def save(self, path: Optional[str] = None) -> str:
        """Write the profile atomically; returns the path written."""
        path = path or default_cache_path()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "CalibrationProfile":
        """Load an explicit profile path (raises on any problem)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"calibration profile not found: {path}") from None
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read calibration profile {path}: {exc}") from exc
        return cls.from_dict(data)


#: ``path -> (mtime, profile | None)`` memo so per-alignment auto-tuning
#: does not re-read and re-validate the cache file on every call.
_LOAD_MEMO: Dict[str, Tuple[float, Optional["CalibrationProfile"]]] = {}


def load_cached(path: Optional[str] = None) -> Optional[CalibrationProfile]:
    """Load the cached profile if it is valid *for this host*.

    Returns ``None`` (never raises) when the cache is absent, unreadable,
    written by a different schema version, or fingerprinted for a
    different host — all of which mean "behave as if never calibrated".
    """
    path = path or default_cache_path()
    try:
        mtime = os.path.getmtime(path)
    except OSError:
        _LOAD_MEMO.pop(path, None)
        return None
    memo = _LOAD_MEMO.get(path)
    if memo is not None and memo[0] == mtime:
        return memo[1]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        profile = CalibrationProfile.from_dict(data)
    except (OSError, ValueError, ConfigError):
        profile = None
    if profile is not None and not profile.synthetic:
        recorded = (profile.host or {}).get("fingerprint")
        if recorded != host_fingerprint():
            profile = None
    _LOAD_MEMO[path] = (mtime, profile)
    return profile


_WARNED_NO_PROFILE = False


def _warn_no_profile() -> None:
    """One-line, once-per-process notice that auto-tuning is inert."""
    global _WARNED_NO_PROFILE
    if _WARNED_NO_PROFILE:
        return
    _WARNED_NO_PROFILE = True
    warnings.warn(
        "tune='auto' but no calibration profile is cached for this host; "
        "using defaults (run `fastlsa calibrate` once to enable measured "
        "auto-selection)",
        RuntimeWarning,
        stacklevel=3,
    )


def load_profile(tune: object) -> Optional[CalibrationProfile]:
    """Resolve an ``AlignConfig.tune`` value into a profile (or ``None``).

    * ``None`` / ``"off"`` — tuning disabled, no profile.
    * ``"auto"`` — the host cache if present and valid; otherwise a
      one-line warning (once per process) and ``None`` — a host that
      never ran ``fastlsa calibrate`` must degrade cleanly, never raise.
    * a path string — loaded strictly (:class:`~repro.errors.ConfigError`
      on absence or schema mismatch: an explicit request must not be
      silently ignored).
    * a :class:`CalibrationProfile` — returned as-is (internal callers).
    """
    if tune is None or tune == "off":
        return None
    if isinstance(tune, CalibrationProfile):
        return tune
    if tune == "auto":
        profile = load_cached()
        if profile is None:
            _warn_no_profile()
        return profile
    if isinstance(tune, str):
        return CalibrationProfile.load(tune)
    raise ConfigError(
        f"tune must be None, 'auto', 'off', a profile path or a "
        f"CalibrationProfile, got {tune!r}"
    )
