"""Per-layer attribution for ``--trace`` runs.

Layers are named after ``src/repro`` modules.  Time comes from spans the
program already emits (``fastlsa.*``, ``search.*``, ``wavefront.*``) plus
the benchmark's own ``e2e.op`` span around each public call: an op span's
self time is time inside the entry point that no program span covers
(plan, encode, traceback, path build) and is the "untraced" row.  Nothing
here adds spans inside the program.

Every workload reports every metric, so a layer a workload never enters
reads 0.  Layer time is therefore reported as a share (``%``) of the traced
wall, which is 0 honestly, rather than as seconds.
"""

from __future__ import annotations

from typing import Dict, Iterable

from harness import metric

OP_SPAN = "e2e.op"

#: span name (or prefix ending in ".") -> layer row
_LAYER_OF = (
    ("fastlsa.fillcache", "core.fillcache"),
    ("fastlsa.fill_band", "core.fillcache"),
    ("fastlsa.base_case", "core.basecase"),
    ("fastlsa.recurse", "core.recurse"),
    ("fastlsa.align", "core.recurse"),
    ("wavefront.", "parallel"),
    ("search.index.", "search.index"),
    ("search.bounds", "search.bounds"),
    ("search.score", "search.score"),
    ("search.align", "search.align"),
    ("search.query", "search.query"),
    (OP_SPAN, "untraced"),
)


def layer_of(span_name: str) -> str:
    for name, layer in _LAYER_OF:
        if span_name == name or (name.endswith(".") and span_name.startswith(name)):
            return layer
    return "other:" + span_name


def spans_by_name(tracer) -> Dict[str, dict]:
    """``{span name: {calls, self_s, total_s, cells}}`` from a Tracer."""
    out: Dict[str, dict] = {}
    for span in tracer.walk():
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "cells": 0})
        row["calls"] += 1
        row["self_s"] += span.self_time
        row["total_s"] += span.duration
        row["cells"] += int(span.attrs.get("cells", 0) or 0)
    return out


def layer_rows(by_name: Dict[str, dict], basis_s: float):
    """Rows of the per-layer table: layer, calls, self s, share of
    ``basis_s``, cells, with a "harness" row for the benchmark's loop
    between ops (``basis_s`` minus the time inside op spans)."""
    rows: Dict[str, dict] = {}
    for name, row in by_name.items():
        agg = rows.setdefault(layer_of(name), {"calls": 0, "self_s": 0.0, "cells": 0})
        agg["calls"] += row["calls"]
        agg["self_s"] += row["self_s"]
        agg["cells"] += row["cells"]
    rows.setdefault("untraced", {"calls": 0, "self_s": 0.0, "cells": 0})
    ops_s = by_name.get(OP_SPAN, {}).get("total_s", 0.0)
    rows["harness"] = {"calls": 0, "self_s": max(0.0, basis_s - ops_s), "cells": 0}
    table = []
    for layer, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        table.append({"layer": layer, "calls": row["calls"],
                      "self_s": row["self_s"], "share": _share(row["self_s"], basis_s),
                      "cells": row["cells"]})
    return table


def format_rows(table: Iterable[dict], title: str) -> str:
    lines = [f"== {title} ==",
             f"{'layer':<18} {'calls':>8} {'self_s':>10} {'share':>8} {'cells':>14}"]
    for r in table:
        lines.append(f"{r['layer']:<18} {r['calls']:>8d} {r['self_s']:>10.4f} "
                     f"{r['share']:>7.2f}% {r['cells']:>14d}")
    return "\n".join(lines)


def _share(seconds: float, basis_s: float) -> float:
    return 100.0 * seconds / basis_s if basis_s > 0 else 0.0


def per_layer_metrics(by_name: Dict[str, dict], table, basis_s: float,
                      counters: dict, nominal_cells: int,
                      setup: dict, probes: dict, trace_overhead: float) -> Dict[str, dict]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` for one traced run.

    ``by_name`` and ``table`` come from :func:`spans_by_name` and
    :func:`layer_rows`; ``counters`` is the ``Instrumentation.metrics``
    snapshot.
    """
    by_layer = {r["layer"]: r for r in table}

    def self_s(layer):
        return by_layer.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return by_layer.get(layer, {}).get("calls", 0)

    def share(layer):
        return metric(_share(self_s(layer), basis_s), "%", calls(layer))

    def count(name):
        return int(counters.get(name, 0) or 0)

    cells_filled = count("fastlsa.cells_filled")
    fill_s = self_s("core.fillcache") + self_s("core.basecase")
    candidates = count("search.candidates")
    occupancy = counters.get("search.batch.lane_occupancy") or {}
    setup_s = setup.get("setup_s", 0.0)
    index_build_s = setup.get("index_build_s", 0.0) + setup.get("index_save_s", 0.0)

    return {
        "trace_overhead": metric(trace_overhead, "ratio", 2),
        "core.fillcache_share": share("core.fillcache"),
        "core.basecase_share": share("core.basecase"),
        "core.recurse_share": share("core.recurse"),
        "core.cells_filled": metric(cells_filled, "count", 1),
        "core.recompute_ratio": metric(
            cells_filled / nominal_cells if nominal_cells else 0.0, "ratio", 1),
        "kernels.fill_mcells_per_s": metric(
            cells_filled / fill_s / 1e6 if fill_s > 0 else 0.0, "Mcells/s",
            calls("core.fillcache") + calls("core.basecase")),
        "kernels.sweep_mcells_per_s": probes["sweep_mcells_per_s"],
        "parallel.tiles": metric(by_name.get("wavefront.tile", {}).get("calls", 0), "count", 1),
        "parallel.share": share("parallel"),
        "tune.calibrate_s": metric(setup["calibrate_s"], "s", 1),
        "tune.autotune_ms": probes["autotune_ms"],
        "scoring.encode_ms": probes["encode_ms"],
        "search.bounds_share": share("search.bounds"),
        "search.score_share": share("search.score"),
        "search.align_share": share("search.align"),
        "search.prune_rate": metric(
            count("search.pruned") / candidates if candidates else 0.0, "ratio",
            count("search.queries")),
        "search.lane_occupancy": metric(occupancy.get("mean", 0.0), "ratio",
                                        occupancy.get("count", 0)),
        "search.batch_sweeps": metric(count("search.batch.sweeps"), "count", 1),
        "search.index_build_share": metric(_share(index_build_s, setup_s), "%", 1),
        "search.index_load_share": metric(
            _share(setup.get("index_load_s", 0.0), setup_s), "%", 1),
        "untraced_share": share("untraced"),
    }
