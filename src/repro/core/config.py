"""FastLSA configuration.

The two tunables the paper exposes:

* ``k`` — each recursion level divides both sequences into ``k`` parts
  (Section 3: "dividing each sequence into k parts instead of only two"),
  storing ``k−1`` grid rows and ``k−1`` grid columns per level.  Larger
  ``k`` uses more memory and recomputes less.
* ``base_cells`` — the Base Case buffer ``BM``: sub-problems whose full DP
  matrix fits in this many cells are solved with the full-matrix
  algorithm.

``k`` and ``base_cells`` are what the paper's "parameterized and tuned ...
to take advantage of cache memory and main memory sizes" theme is about;
:mod:`repro.core.planner` derives them from a memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..errors import ConfigError

__all__ = [
    "AlignConfig",
    "FastLSAConfig",
    "resolve_config",
    "DEFAULT_K",
    "DEFAULT_BASE_CELLS",
    "MIN_BASE_CELLS",
]

#: Default number of parts each dimension is divided into.
DEFAULT_K = 8

#: Default Base Case buffer, in DP cells (≈ 2 MiB of int64 H values —
#: roughly the L2-cache scale the paper tunes for).
DEFAULT_BASE_CELLS = 256 * 1024

#: Smallest accepted Base Case buffer.  Must hold at least a 2×2 matrix so
#: degenerate sub-problems always fit.
MIN_BASE_CELLS = 16


@dataclass(frozen=True)
class FastLSAConfig:
    """Validated FastLSA parameters.

    Attributes
    ----------
    k:
        Parts per dimension per recursion level (``>= 2``).
    base_cells:
        Base Case buffer size in DP cells (``>= MIN_BASE_CELLS``).  For
        affine schemes the three dense layers (H, E, F) must *all* fit, so
        the effective threshold on ``(M+1)·(N+1)`` is ``base_cells // 3``.
    """

    k: int = DEFAULT_K
    base_cells: int = DEFAULT_BASE_CELLS

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise ConfigError(f"k must be an integer >= 2, got {self.k!r}")
        if not isinstance(self.base_cells, int) or self.base_cells < MIN_BASE_CELLS:
            raise ConfigError(
                f"base_cells must be an integer >= {MIN_BASE_CELLS}, got {self.base_cells!r}"
            )

    def base_threshold(self, layers: int) -> int:
        """Max ``(M+1)·(N+1)`` that fits the buffer with ``layers`` dense
        matrices (1 for linear schemes, 3 for affine)."""
        return max(4, self.base_cells // layers)


@dataclass(frozen=True)
class AlignConfig(FastLSAConfig):
    """The one way to parameterize an alignment (every entry point).

    Extends :class:`FastLSAConfig` (so anything accepting the kernel
    config accepts this) with the knobs that used to be scattered as
    per-module keyword arguments:

    Attributes
    ----------
    max_workers:
        Thread fan-out for the per-pair scoring sweeps of
        :func:`repro.core.batch.batch_align` in the modes without a lane
        kernel (``semiglobal``, ``overlap``, banded ``global``); ``None``
        stays sequential.
        Also the worker count for the wavefront backends below.
    backend:
        Execution backend for the FillCache wavefront: ``"serial"``
        (in-process band sweeps, the default) or ``"threads"``
        (ThreadPoolExecutor tile wavefront — see
        :mod:`repro.parallel.backends`).  ``None`` means ``"serial"``.
        The former ``"processes"`` backend was removed; asking for it
        raises :class:`~repro.errors.ConfigError` naming ``"threads"``.
    band:
        Exact banded fast path (:mod:`repro.core.banded`).  ``None``
        (default) disables banding; an integer is an initial band
        half-width; ``"auto"`` starts from a similarity-derived width.
        Either way the result is certificate-checked and widened until
        it is *provably* bit-identical to full DP, so this knob only
        trades work, never correctness.
    kernel:
        Kernel tier (:mod:`repro.kernels.registry`): ``"numpy"``,
        ``"compiled"`` (cffi/C; errors when not built), or ``"auto"``
        (compiled when available, else numpy).  ``None`` means
        ``"auto"``.
    tune:
        Hardware-adaptive auto-selection (:mod:`repro.tune`).
        ``"auto"`` consults the host's cached calibration profile
        (``fastlsa calibrate``) and fills any knobs left unset above —
        backend + workers, kernel tier, band — from measured curves;
        with no cached profile it degrades to defaults with a one-line
        warning.  ``"off"`` / ``None`` disables tuning; a path string
        loads an explicit profile (strict: missing file or schema
        mismatch raises).  Explicitly-set knobs always win over tuned
        values.

    ``repro.align()``, :func:`~repro.core.fastlsa.fastlsa`,
    :func:`~repro.parallel.pfastlsa.parallel_fastlsa` and
    :func:`~repro.core.batch.batch_align` all take ``config=``; the old
    ``k=`` / ``base_cells=`` / ``max_workers=`` keywords were deprecated
    in the 0.2 line and now raise :class:`~repro.errors.ConfigError`.
    The NDJSON protocol accepts the same shape as a ``"config"`` object
    (see :meth:`from_dict`).
    """

    max_workers: Optional[int] = None
    backend: Optional[str] = None
    band: Union[None, int, str] = None
    kernel: Optional[str] = None
    tune: Optional[str] = None

    #: Accepted ``backend`` values (``None`` resolves to ``"serial"``).
    BACKENDS = ("serial", "threads")

    #: Accepted ``kernel`` values (``None`` resolves to ``"auto"``).
    KERNELS = ("auto", "numpy", "compiled")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_workers is not None and (
            not isinstance(self.max_workers, int) or self.max_workers < 1
        ):
            raise ConfigError(
                f"max_workers must be None or an integer >= 1, got {self.max_workers!r}"
            )
        if self.backend is not None:
            check_backend(self.backend)
        if self.band is not None:
            if isinstance(self.band, bool) or not (
                self.band == "auto"
                or (isinstance(self.band, int) and self.band >= 1)
            ):
                raise ConfigError(
                    f"band must be None, an integer >= 1 or 'auto', got {self.band!r}"
                )
        if self.kernel is not None and self.kernel not in self.KERNELS:
            raise ConfigError(
                f"kernel must be one of {list(self.KERNELS)}, got {self.kernel!r}"
            )
        if self.tune is not None and (
            not isinstance(self.tune, str) or not self.tune
        ):
            raise ConfigError(
                f"tune must be None, 'auto', 'off' or a profile path, "
                f"got {self.tune!r}"
            )

    #: Keys :meth:`from_dict` accepts — also the wire-protocol schema.
    FIELDS = ("k", "base_cells", "max_workers", "backend", "band", "kernel", "tune")

    @classmethod
    def from_dict(cls, data: Mapping) -> "AlignConfig":
        """Build a config from a plain dict (the wire-protocol schema).

        Accepts exactly the keys in :data:`FIELDS` (all optional);
        anything else raises :class:`~repro.errors.ConfigError` so typos
        fail loudly instead of silently running with defaults.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(f"config must be an object/dict, got {data!r}")
        unknown = sorted(set(data) - set(cls.FIELDS))
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; accepted: {list(cls.FIELDS)}"
            )
        kwargs = {}
        for key in cls.FIELDS:
            if key in data and data[key] is not None:
                value = data[key]
                if key in ("backend", "kernel", "tune"):
                    if not isinstance(value, str):
                        raise ConfigError(
                            f"config.{key} must be a string, got {value!r}"
                        )
                elif key == "band":
                    if not (
                        value == "auto"
                        or (isinstance(value, int) and not isinstance(value, bool))
                    ):
                        raise ConfigError(
                            f"config.band must be an integer or 'auto', got {value!r}"
                        )
                elif not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigError(f"config.{key} must be an integer, got {value!r}")
                kwargs[key] = value
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The :meth:`from_dict`-round-trippable representation."""
        return {
            "k": self.k,
            "base_cells": self.base_cells,
            "max_workers": self.max_workers,
            "backend": self.backend,
            "band": self.band,
            "kernel": self.kernel,
            "tune": self.tune,
        }


def check_backend(backend, what: str = "backend") -> None:
    """Raise :class:`ConfigError` unless ``backend`` is in
    :attr:`AlignConfig.BACKENDS`; a removed backend's message names its
    replacement."""
    if backend in AlignConfig.BACKENDS:
        return
    hint = (
        "; the processes backend was removed, use 'threads'"
        if backend == "processes" else ""
    )
    raise ConfigError(
        f"{what} must be one of {list(AlignConfig.BACKENDS)}, "
        f"got {backend!r}{hint}"
    )


def resolve_config(
    config: Optional[FastLSAConfig] = None,
    k: Optional[int] = None,
    base_cells: Optional[int] = None,
    max_workers: Optional[int] = None,
    *,
    where: str = "align",
    stacklevel: int = 3,
) -> AlignConfig:
    """Normalise ``config=`` into an :class:`AlignConfig`.

    The single config gate behind every public entry point.  The loose
    ``k=`` / ``base_cells=`` / ``max_workers=`` keywords were deprecated
    (with a warning) in the 0.2 line; the migration is now complete and
    passing any of them raises :class:`~repro.errors.ConfigError` naming
    the :class:`AlignConfig` field to use instead.
    """
    legacy = [
        name
        for name, value in (("k", k), ("base_cells", base_cells),
                            ("max_workers", max_workers))
        if value is not None
    ]
    if legacy:
        fields = ", ".join(f"{name}=..." for name in legacy)
        raise ConfigError(
            f"{where}: the {', '.join(legacy)} keyword(s) were removed; "
            f"pass config=AlignConfig({fields}) instead"
        )
    if config is not None:
        if isinstance(config, AlignConfig):
            return config
        return AlignConfig(k=config.k, base_cells=config.base_cells)
    return AlignConfig()
