"""Parallel FastLSA: tiles, wavefront scheduling, executors, and models."""

from .tiles import Tile, TileGrid, default_uv, refine_bounds
from .wavefront import PhaseBreakdown, three_phases, wavefront_stage_schedule
from .simmachine import ScheduleReport, list_schedule, simulate_schedule
from .executor import run_wavefront
from .gantt import render_gantt, schedule_gantt
from .model import (
    PhaseModel,
    alpha,
    ideal_speedup,
    pbasecase_time,
    pfillcache_time,
    phase_model,
    wt_bound,
)
from .lifecycle import get_thread_pool, shutdown_pools
from .pfastlsa import (
    SimulationReport,
    build_base_tiles,
    build_fill_tiles,
    parallel_fastlsa,
    simulated_parallel_fastlsa,
)

__all__ = [
    "Tile",
    "TileGrid",
    "default_uv",
    "refine_bounds",
    "PhaseBreakdown",
    "three_phases",
    "wavefront_stage_schedule",
    "ScheduleReport",
    "list_schedule",
    "simulate_schedule",
    "run_wavefront",
    "render_gantt",
    "schedule_gantt",
    "PhaseModel",
    "alpha",
    "ideal_speedup",
    "pbasecase_time",
    "pfillcache_time",
    "phase_model",
    "wt_bound",
    "SimulationReport",
    "build_base_tiles",
    "build_fill_tiles",
    "parallel_fastlsa",
    "simulated_parallel_fastlsa",
    "get_thread_pool",
    "shutdown_pools",
]
