"""Serving metrics: per-request rows and aggregate summary tables.

Converts a :class:`~repro.serving.engine.records.ServingResult` into the row
dicts the :mod:`repro.experiments.io` writers consume.  Every summary
reads the result's records once as columns
(:func:`~repro.serving.engine.records.record_columns`, free for the soa
engine's columnar records) and aggregates them with
:func:`~repro.experiments.tables.serving_row`, so every engine and the
cluster layer share one metrics path:

* :func:`record_rows` — one row per request (timestamps plus the
  derived TTFT / TPOT / latency values),
* :func:`metrics_table` — percentile summary rows (one ``all`` scope
  plus one per rank) enriched with energy, utilization and throughput
  from the per-rank counters,
* :func:`summary` — a single flat dict for JSON payloads and quick
  assertions,
* :func:`cluster_rows` / :func:`cluster_summary` — the cluster-level
  equivalents: one row per deployment of a
  :class:`~repro.serving.cluster.ClusterResult` (feeding
  :func:`repro.experiments.tables.cluster_table`) and one flat
  cluster-wide dict whose request-level keys are the ``all`` summary
  of every record.

Metrics glossary (all times in seconds):

============  ========================================================
TTFT          time to first token: request arrival to the first
              generated token (queueing + prefill + first decode step)
TPOT          time per output token after the first
latency       arrival to last generated token
queue         arrival to admission (KV-cache / batch-slot wait)
makespan      trace start until the last rank goes idle
tokens/s      generated tokens over the scope's busy window
SLO attain.   share of SLO-carrying requests whose TTFT met the SLO
preemptions   KV-pressure evictions (victims re-queue and recompute
              their prefix)
cache hit     share of prefix-cache admissions that resumed from a
              cached KV prefix (0 with the cache disabled)
KV dedup      logical KV bytes over bytes actually reserved — how much
              MRAM the shared prefixes saved (1.0 = no sharing)
============  ========================================================
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.experiments.tables import safe_ratio, select_rows, serving_row
from repro.serving.engine.records import ServingResult, record_columns

__all__ = [
    "record_rows",
    "metrics_table",
    "summary",
    "cluster_rows",
    "cluster_summary",
]


#: :func:`record_rows` keys, in output order: record fields, then the
#: derived-metric properties.
_ROW_KEYS = (
    "req_id", "rank", "status", "arrival_s", "prompt_tokens", "gen_tokens",
    "priority", "slo_ttft_s", "preemptions", "session_id", "turn",
    "cache_hit", "cached_tokens", "retries", "failovers", "shed",
    "admit_s", "first_token_s", "finish_s",
    "queue_s", "ttft_s", "tpot_s", "latency_s",
)


def record_rows(result: ServingResult) -> List[dict]:
    """One JSON/CSV-ready row per request in ``result``.

    Requests that never reached a milestone (a rejected request has no
    admission, a truncated run may have no finish) carry ``None`` for
    that timestamp — rendered as JSON ``null`` and an empty CSV cell —
    rather than a fake ``0.0`` that would read as "at trace start".
    """
    return [{key: getattr(rec, key) for key in _ROW_KEYS} for rec in result.records]


def metrics_table(result: ServingResult) -> List[dict]:
    """Percentile summary rows enriched with energy and utilization.

    The ``all`` row carries deployment-level totals (makespan, energy,
    energy per token, preemption/requeue counters); each ``rank<i>`` row
    carries that replica's counters, so imbalance across the round-robin
    shards is visible.  Every replica in ``rank_stats`` gets a row, an
    idle one the zero-valued request summary; a run with no requests
    has an empty table.
    """
    columns = record_columns(result.records)
    rank = columns["rank"]
    if not rank.size:
        return []
    stats = {rs.rank: rs for rs in result.rank_stats}
    table = [_add_deployment_totals(serving_row("all", columns), result)]
    for r in sorted(set(np.unique(rank).tolist()) | stats.keys()):
        row = serving_row(f"rank{r}", select_rows(columns, rank == r))
        table.append(row)
        rs = stats.get(r)
        if rs is None:
            continue
        row["makespan_s"] = rs.finish_s
        row["prefill_tokens"] = rs.prefill_tokens
        row["energy_j"] = rs.energy_j
        row["energy_mj_per_token"] = safe_ratio(1e3 * rs.energy_j, rs.output_tokens)
        row["utilization"] = rs.utilization
        row["requeues"] = rs.requeues
        row["recompute_tokens"] = rs.recompute_tokens
        row["kv_peak_bytes"] = rs.kv_peak_bytes
        row["cache_hits"] = rs.cache_hits
        row["cache_misses"] = rs.cache_misses
        row["cache_evictions"] = rs.cache_evictions
        row["cache_hit_rate"] = safe_ratio(
            rs.cache_hits, rs.cache_hits + rs.cache_misses
        )
        row["cache_hit_tokens"] = rs.cache_hit_tokens
        row["kv_dedup_factor"] = safe_ratio(
            rs.kv_logical_bytes, rs.kv_reserved_bytes, default=1.0
        )
    return table


def _add_deployment_totals(row: dict, result: ServingResult) -> dict:
    """Add ``result``'s deployment-level totals to its ``all`` row."""
    stats = result.rank_stats
    row["makespan_s"] = result.makespan_s
    row["prefill_tokens"] = result.prefill_tokens
    row["energy_j"] = result.total_energy_j
    row["energy_mj_per_token"] = safe_ratio(
        1e3 * result.total_energy_j, result.output_tokens
    )
    row["utilization"] = safe_ratio(
        sum(rs.busy_s for rs in stats), len(stats) * result.makespan_s
    )
    row["requeues"] = sum(rs.requeues for rs in stats)
    row["recompute_tokens"] = sum(rs.recompute_tokens for rs in stats)
    row["kv_peak_bytes"] = max((rs.kv_peak_bytes for rs in stats), default=0)
    hits, misses = result.cache_hits, result.cache_misses
    row["cache_hits"] = hits
    row["cache_misses"] = misses
    row["cache_evictions"] = result.cache_evictions
    row["cache_hit_rate"] = safe_ratio(hits, hits + misses)
    row["cache_hit_tokens"] = sum(rs.cache_hit_tokens for rs in stats)
    row["kv_dedup_factor"] = safe_ratio(
        sum(rs.kv_logical_bytes for rs in stats),
        sum(rs.kv_reserved_bytes for rs in stats),
        default=1.0,
    )
    return row


def summary(result: ServingResult) -> dict:
    """Flat deployment-level summary (the ``all`` row plus config keys).

    A result with no requests gets the zero-valued ``all`` row, so the
    summary carries the same keys whatever the trace length.
    """
    table = metrics_table(result)
    row = (
        dict(table[0]) if table
        else _add_deployment_totals(
            serving_row("all", record_columns([])), result
        )
    )
    row.update(
        {
            "model": result.config.model,
            "scheme": result.config.scheme,
            "kernel": result.config.kernel,
            "policy": result.config.policy,
            "engine": result.config.engine,
            "prefix_cache": result.config.prefix_cache,
            "num_ranks": result.config.num_ranks,
            "dpus_per_rank": result.config.dpus_per_rank,
            "max_batch": result.config.max_batch,
            "kv_capacity_bytes": result.kv_capacity_bytes,
            "weight_bytes": result.weight_bytes,
        }
    )
    return row


def cluster_rows(result) -> List[dict]:
    """One flat summary row per deployment of a cluster run.

    ``result`` is a :class:`~repro.serving.cluster.ClusterResult`.  Each
    row is the deployment's ordinary :func:`summary` (its slice of the
    run is a full ServingResult) extended with the cluster-level keys —
    deployment name, tier, routed count, replica counts and scale
    events — in the shape
    :func:`repro.experiments.tables.cluster_table` consumes.
    """
    rows = []
    for dep in result.deployments:
        row = summary(dep.serving)
        row.update(
            {
                "deployment": dep.name,
                "tier": dep.tier,
                "routed": dep.routed,
                "replicas": dep.replicas_final,
                "replicas_peak": dep.replicas_peak,
                "scale_ups": dep.scale_ups,
                "scale_downs": dep.scale_downs,
                "replacements": dep.replacements,
            }
        )
        rows.append(row)
    return rows


def cluster_summary(result) -> dict:
    """Flat cluster-wide summary over every request record.

    The request-level keys come from the :func:`serving_row` summary of
    all records, so percentiles are computed over *completed* requests
    across every deployment (unlike the aggregate row of
    :func:`~repro.experiments.tables.cluster_table`, which cannot
    re-derive them from per-deployment rows); ``goodput_tokens`` is that
    row's completed-request output.  Preemptions, throughput and energy
    come from the replicas' counters.
    """
    row = serving_row("all", record_columns(result.records))
    makespan = result.makespan_s
    output_tokens = result.output_tokens
    goodput_tokens = row["output_tokens"]
    energy = result.total_energy_j
    unavailability, recovery = _availability(result, makespan)
    fault_kinds = [e["kind"] for e in result.fault_events]
    return {
        "router": result.router,
        "deployments": len(result.deployments),
        "replicas": sum(d.replicas_final for d in result.deployments),
        "replicas_peak": sum(d.replicas_peak for d in result.deployments),
        "requests": row["requests"],
        "completed": row["completed"],
        "rejected": row["rejected"],
        "failed": row["failed"],
        "retries": row["retries"],
        "failovers": row["failovers"],
        "shed": row["shed"],
        "routed": sum(d.routed for d in result.deployments),
        "preemptions": sum(
            d.serving.preemptions for d in result.deployments
        ),
        "slo_requests": row["slo_requests"],
        "slo_attainment": row["slo_attainment"],
        "ttft_p50_s": row["ttft_p50_s"],
        "ttft_p95_s": row["ttft_p95_s"],
        "ttft_p99_s": row["ttft_p99_s"],
        "latency_p95_s": row["latency_p95_s"],
        "output_tokens": output_tokens,
        "output_tokens_per_s": safe_ratio(output_tokens, makespan),
        "goodput_tokens": goodput_tokens,
        "goodput_tokens_per_s": safe_ratio(goodput_tokens, makespan),
        "energy_j": energy,
        "energy_mj_per_token": safe_ratio(1e3 * energy, output_tokens),
        "makespan_s": makespan,
        "scale_ups": sum(d.scale_ups for d in result.deployments),
        "scale_downs": sum(d.scale_downs for d in result.deployments),
        "replacements": sum(d.replacements for d in result.deployments),
        "scale_events": len(result.scale_events),
        "cold_start_s": result.cold_start_s,
        "cold_start_bytes": result.cold_start_bytes,
        "crashes": fault_kinds.count("crash"),
        "stalls": fault_kinds.count("stall"),
        "degrades": fault_kinds.count("degrade"),
        "unavailability_s": unavailability,
        "recovery_time_s": recovery,
    }


def _availability(result, makespan: float) -> tuple:
    """Replica-seconds of lost capacity and total time-to-recovery.

    Each crash contributes a dead interval from the crash until its
    replacement is *ready* (the ``replace`` scale event paired by
    ``dead_rank``, at its decision time plus cold start) or — never
    replaced — until the makespan.  Stall windows add their frozen
    durations (clipped to the makespan).  ``recovery_time_s`` sums the
    paired detection→replacement-ready spans (detection, not the
    effective crash boundary, which lazy segment commits can push past
    the replacement) — the cluster's MTTR numerator.
    """
    replace_ready = {}
    for event in result.scale_events:
        if event.get("action") == "replace" and "dead_rank" in event:
            replace_ready.setdefault(
                event["dead_rank"], event["t_s"] + event["cold_start_s"]
            )
    unavailability = 0.0
    recovery = 0.0
    for event in result.fault_events:
        if event["kind"] == "crash":
            t_crash = event["t_s"]
            ready = replace_ready.get(event["rank"])
            if ready is not None:
                detected = event.get("detected_s", t_crash)
                recovery += max(ready - detected, 0.0)
                unavailability += max(ready - t_crash, 0.0)
            else:
                unavailability += max(makespan - t_crash, 0.0)
        elif event["kind"] == "stall":
            start = event["t_s"]
            end = min(start + event["duration_s"], makespan)
            unavailability += max(end - start, 0.0)
    return unavailability, recovery
