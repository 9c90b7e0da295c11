"""Per-layer metrics of one traced run.

Layers are named after the ``repro`` modules.  Times come from the
benchmark's own spans (:mod:`perfbench.spans`); counts, ratios and memory
come from the program's own counters (``StageStats``, ``SimStats``,
``IngestStats``, ``DtwStats``, ``CacheStats``), so the two can be set side
by side.  Every metric is emitted on every workload; a layer that does no
work on a workload reports 0 there.
"""

from __future__ import annotations

from typing import Any

#: The simulator serve-path components that get ``<name>_self_s`` and
#: ``<name>_calls`` metrics (span names ``cdn.<name>``).
CDN_COMPONENTS = (
    "serve",
    "rng",
    "browser",
    "edge",
    "chunker",
    "cache_lookup",
    "cache_insert",
    "cache_pressure",
    "origin",
    "http",
    "metrics",
    "emit",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER: dict[str, str] = {
    "workload.generate_s": "s",
    "workload.requests": "count",
    "workload.stamp_s": "s",
    "cdn.warm_s": "s",
    "cdn.requests": "count",
    "cdn.records": "count",
    "cdn.serve_us_per_request": "us",
    **{f"cdn.{name}_self_s": "s" for name in CDN_COMPONENTS},
    **{f"cdn.{name}_calls": "count" for name in CDN_COMPONENTS},
    "cdn.cache_hit_ratio": "1",
    "cdn.suppressed_frac": "1",
    "cdn.shard_busy_s": "s",
    "cdn.shard_busy_max_s": "s",
    "cdn.ideal_speedup": "x",
    "cdn.overlap_fraction": "1",
    "cdn.peak_resident_requests": "count",
    "cdn.queue_peak_max": "count",
    "cdn.parent_self_s": "s",
    "cdn.worker_peak_rss_mb": "MB",
    "cdn.sharded_speedup": "x",
    "trace.read_s": "s",
    "trace.read_rows_per_s": "1/s",
    "trace.write_s": "s",
    "trace.write_rows_per_s": "1/s",
    "trace.bytes_written": "bytes",
    "core.ingest_s": "s",
    "core.ingest_finish_s": "s",
    "core.ingest_rows_per_s": "1/s",
    "core.ingest_peak_resident_bytes": "bytes",
    "core.passes_s": "s",
    "core.report_s": "s",
    "core.dtw_s": "s",
    "core.dtw_pairs": "count",
    "core.dtw_full_dp": "count",
    "core.dtw_pruned_frac": "1",
    "spill.ingest_files": "count",
    "spill.ingest_bytes_spilled": "bytes",
    "spill.ingest_bytes_restored": "bytes",
    "spill.ingest_seconds": "s",
    "spill.sim_files": "count",
    "spill.sim_bytes_spilled": "bytes",
    "spill.sim_bytes_restored": "bytes",
    "spill.sim_seconds": "s",
    "spill.budget_overshoot_bytes": "bytes",
    "dataflow.overhead_s": "s",
    "dataflow.bytes_pruned": "bytes",
    "bench.tracing_overhead_s": "s",
}

#: Metrics the harness fills in from more than one run (the traced child
#: cannot know them).
FROM_HARNESS = ("cdn.sharded_speedup", "bench.tracing_overhead_s")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    spans: dict[str, dict[str, float]],
    counts: dict[str, int],
    run: dict[str, Any],
) -> dict[str, float]:
    """Every per-layer metric except :data:`FROM_HARNESS`.

    ``spans`` is :func:`perfbench.spans.summarize` output, ``counts`` the
    tracer's boundary counters and ``run`` the child's counter record
    (``stages``, ``sim_stats``, ``ingest_stats``, ``dtw_stats``,
    ``cache_stats``, ``budget``, ``bytes_written``, ``children_maxrss_mb``).
    """

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    stages = {stage["name"]: stage for stage in run["stages"]}
    sim = run.get("sim_stats") or {}
    ingest = run.get("ingest_stats") or {}
    cache = run.get("cache_stats") or {}
    dtw = run.get("dtw_stats") or []
    metrics: dict[str, float] = {
        "workload.generate_s": span("workload.generate", "incl_s"),
        "workload.requests": counts.get("workload.requests", 0),
        "workload.stamp_s": span("workload.stamp", "self_s"),
        "cdn.warm_s": span("cdn.warm", "incl_s"),
        "cdn.requests": sim.get("requests", 0),
        "cdn.records": sim.get("records", 0),
        "cdn.serve_us_per_request": 1e6 * _ratio(span("cdn.serve", "incl_s"), span("cdn.serve", "calls")),
    }
    for name in CDN_COMPONENTS:
        metrics[f"cdn.{name}_self_s"] = span(f"cdn.{name}", "self_s")
        metrics[f"cdn.{name}_calls"] = span(f"cdn.{name}", "calls")
    shard_busy = [shard["wall_seconds"] for shard in sim.get("shards", ())]
    metrics.update(
        {
            "cdn.cache_hit_ratio": _ratio(cache.get("hits", 0), cache.get("lookups", 0)),
            "cdn.suppressed_frac": 1.0 - _ratio(sim.get("records", 0), sim.get("requests", 0)) if sim else 0.0,
            "cdn.shard_busy_s": sum(shard_busy),
            "cdn.shard_busy_max_s": max(shard_busy, default=0.0),
            "cdn.ideal_speedup": _ratio(sum(shard_busy), max(shard_busy, default=0.0)),
            "cdn.overlap_fraction": sim.get("overlap_fraction", 0.0),
            "cdn.peak_resident_requests": sim.get("peak_resident_requests", 0),
            "cdn.queue_peak_max": max((s["queue_peak"] for s in sim.get("shards", ())), default=0),
            "cdn.parent_self_s": span("cdn.run_batches", "self_s"),
            "cdn.worker_peak_rss_mb": run.get("children_maxrss_mb", 0.0),
        }
    )

    read_s = span("trace.read", "self_s")
    write_s = span("trace.write", "incl_s")
    rows_written = stages.get("write_trace", {}).get("rows", 0)
    metrics.update(
        {
            "trace.read_s": read_s,
            "trace.read_rows_per_s": _ratio(counts.get("trace.rows_read", 0), read_s),
            "trace.write_s": write_s,
            "trace.write_rows_per_s": _ratio(rows_written, write_s),
            "trace.bytes_written": run.get("bytes_written", 0),
        }
    )

    ingest_s = span("core.ingest", "incl_s")
    finish_s = span("core.ingest_finish", "incl_s")
    pairs = sum(stats["pairs_total"] for stats in dtw)
    pruned = sum(
        stats["pruned_lb_kim"] + stats["pruned_lb_keogh"] + stats["pruned_lb_improved"] for stats in dtw
    )
    metrics.update(
        {
            "core.ingest_s": ingest_s,
            "core.ingest_finish_s": finish_s,
            "core.ingest_rows_per_s": _ratio(ingest.get("rows", 0), ingest_s + finish_s),
            "core.ingest_peak_resident_bytes": ingest.get("peak_resident_bytes", 0),
            "core.passes_s": span("core.passes", "incl_s"),
            "core.report_s": span("core.report", "self_s"),
            "core.dtw_s": span("core.dtw", "incl_s"),
            "core.dtw_pairs": pairs,
            "core.dtw_full_dp": sum(stats["full_dp"] for stats in dtw),
            "core.dtw_pruned_frac": _ratio(pruned, pairs),
        }
    )

    for prefix, stage_name in (("ingest", "ingest"), ("sim", "simulate")):
        stage = stages.get(stage_name, {})
        metrics[f"spill.{prefix}_files"] = stage.get("spill_files", 0)
        metrics[f"spill.{prefix}_bytes_spilled"] = stage.get("bytes_spilled", 0)
        metrics[f"spill.{prefix}_bytes_restored"] = stage.get("bytes_restored", 0)
        metrics[f"spill.{prefix}_seconds"] = stage.get("spill_seconds", 0.0)
    budget = run.get("budget")
    metrics["spill.budget_overshoot_bytes"] = (
        ingest.get("peak_resident_bytes", 0) - budget if budget is not None and ingest else 0
    )

    metrics["dataflow.overhead_s"] = span("dataflow.plan", "incl_s") - sum(
        stage["wall_seconds"] for stage in run["stages"]
    )
    metrics["dataflow.bytes_pruned"] = sum(stage["bytes_pruned"] for stage in run["stages"])
    return metrics
