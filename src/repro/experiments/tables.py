"""Aggregate sweep rows into the paper's per-figure tables.

Each function consumes the row dicts produced by
:func:`repro.experiments.sweep.run_sweep` and emits a flat list of table
rows ready for :func:`repro.experiments.io.write_csv` or for the text
renderer :func:`format_table`:

* :func:`latency_table` — prefill vs decode latency and throughput per
  (model, scheme, kernel) point (the paper's model-latency figures),
* :func:`energy_table` — per-component energy shares per phase (the
  Fig. 14-style energy breakdown at model scale),
* :func:`ablation_table` — kernel-ladder speedups (naive → +OP+LC →
  +RC) whenever a sweep covered several kernels (the optimisation
  ablation at model scale),
* :func:`serving_table` — TTFT / TPOT / latency percentiles,
  SLO attainment, preemption counters and throughput aggregated from
  per-request serving record columns (the :mod:`repro.serving`
  simulator's figure table),
* :func:`policy_table` — one row per scheduling-policy run over the
  same trace, with each policy's p95 TTFT normalised against the FCFS
  baseline (the latency/throughput-frontier comparison),
* :func:`cluster_table` — per-deployment rows of a cluster run topped
  with an aggregate ``cluster`` row (the multi-deployment serving
  comparison from :mod:`repro.serving.cluster`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "latency_table",
    "energy_table",
    "ablation_table",
    "serving_table",
    "serving_row",
    "select_rows",
    "policy_table",
    "cluster_table",
    "format_table",
    "percentile",
    "safe_ratio",
]


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator``, or ``default`` when the denominator
    is zero (or negative, for quantities that are durations or counts).

    Degenerate aggregation edges — a run with zero output tokens, a
    rejected-only trace, a zero-span busy window — all reduce to a zero
    denominator somewhere; funnelling every rate/share/mean through this
    helper keeps those rows well-formed instead of scattering ``if``
    guards at each call site.

    >>> safe_ratio(6.0, 3.0)
    2.0
    >>> safe_ratio(6.0, 0.0)
    0.0
    >>> safe_ratio(0.0, 0.0, default=1.0)
    1.0
    """
    if denominator <= 0:
        return default
    return numerator / denominator

#: Row keys identifying one workload point (everything but the kernel).
_POINT_KEYS = ("model", "scheme", "batch", "prefill_tokens", "decode_tokens", "num_ranks")


def _ok(rows: Sequence[dict]) -> List[dict]:
    """Rows that completed (``status == "ok"``)."""
    return [r for r in rows if r.get("status") == "ok"]


def latency_table(rows: Sequence[dict]) -> List[dict]:
    """Prefill/decode latency and throughput per completed grid point."""
    table = []
    for r in _ok(rows):
        decode_tokens = r["decode_tokens"]
        decode_s = r["decode"]["latency"]["total_s"]
        table.append(
            {
                "model": r["model"],
                "scheme": r["scheme"],
                "kernel": r["kernel"],
                "batch": r["batch"],
                "prefill_tokens": r["prefill_tokens"],
                "num_ranks": r["num_ranks"],
                "prefill_s": r["prefill"]["latency"]["total_s"],
                "decode_s": decode_s,
                "decode_ms_per_token": safe_ratio(1e3 * decode_s, decode_tokens),
                "prefill_tokens_per_s": r["prefill"]["tokens_per_s"],
                "decode_tokens_per_s": r["decode"]["tokens_per_s"],
                "kv_cache_mb": r["kv_cache_bytes"] / 1e6,
                "weight_mb": r["weight_bytes"] / 1e6,
            }
        )
    return table


def energy_table(rows: Sequence[dict]) -> List[dict]:
    """Per-component energy (joules) for each phase of each grid point."""
    table = []
    for r in _ok(rows):
        for phase in ("prefill", "decode"):
            energy = r[phase]["energy"]
            total_pj = energy["total_pj"]
            entry = {
                "model": r["model"],
                "scheme": r["scheme"],
                "kernel": r["kernel"],
                "batch": r["batch"],
                "prefill_tokens": r["prefill_tokens"],
                "num_ranks": r["num_ranks"],
                "phase": phase,
                "total_j": energy["total_j"],
            }
            for component in ("dram", "wram", "compute", "host", "static"):
                pj = energy[f"{component}_pj"]
                entry[f"{component}_j"] = pj * 1e-12
                entry[f"{component}_share"] = safe_ratio(pj, total_pj)
            table.append(entry)
    return table


def ablation_table(rows: Sequence[dict]) -> List[dict]:
    """Kernel-ladder totals and speedups per workload point.

    Groups completed rows by workload point; within each group every
    kernel's end-to-end latency is reported together with its speedup
    over the slowest kernel present (``naive_pim_gemm`` when the full
    ladder ran), reproducing the OP/LC/RC ablation bars at model scale.
    """
    groups: Dict[tuple, List[dict]] = {}
    for r in _ok(rows):
        groups.setdefault(tuple(r[k] for k in _POINT_KEYS), []).append(r)
    table = []
    for key, group in groups.items():
        baseline = max(g["total_s"] for g in group)
        for g in sorted(group, key=lambda g: -g["total_s"]):
            entry = dict(zip(_POINT_KEYS, key))
            entry["kernel"] = g["kernel"]
            entry["total_s"] = g["total_s"]
            entry["speedup"] = safe_ratio(baseline, g["total_s"])
            table.append(entry)
    return table


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; 0.0 for an empty sequence.

    ``q`` is in ``[0, 100]``.  Matches numpy's default ("linear")
    definition; ``values`` may be a list or an array.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = np.sort(values)
    if len(ordered) <= 1:
        return float(ordered[0]) if len(ordered) else 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


def serving_table(columns: Mapping[str, np.ndarray]) -> List[dict]:
    """Aggregate per-request serving columns into percentile summary rows.

    ``columns`` are request-record columns as produced by
    :func:`repro.serving.engine.records.record_columns`: record fields
    plus the derived ``ttft_s`` / ``tpot_s`` / ``latency_s`` /
    ``queue_s``.  Returns one ``scope="all"`` row followed by one row per
    rank, each carrying request counts, TTFT/TPOT/latency percentiles
    over *completed* requests (TTFT also split by prefix-cache hit and
    miss), SLO attainment over SLO-carrying requests (rejected requests
    count as missed; 1.0 when no request carries an SLO), preemption and
    fault-recovery counts, and output-token throughput over the scope's
    busy window (trace start to last completion).
    """
    rank = columns["rank"]
    if not rank.size:
        return []
    return [serving_row("all", columns)] + [
        serving_row(f"rank{r}", select_rows(columns, rank == r))
        for r in np.unique(rank).tolist()
    ]


def select_rows(columns: Mapping[str, np.ndarray], mask: np.ndarray) -> dict:
    """The rows of ``columns`` where ``mask`` holds, order kept."""
    return {name: col[mask] for name, col in columns.items()}


def serving_row(scope: str, group: Mapping[str, np.ndarray]) -> dict:
    """One :func:`serving_table` row: the summary of ``group`` under ``scope``.

    ``group`` is a column mapping as :func:`serving_table` takes.  An
    empty ``group`` gives the zero-valued row (no requests, 0.0
    percentiles, SLO attainment 1.0), so a zero-request run still has a
    well-formed summary.  Means add in row order with Python's ``sum``.
    """
    status = group["status"]
    done = status == "completed"
    ttft_all = group["ttft_s"]
    ttfts = ttft_all[done]
    # Single-token requests have no post-first-token interval; including
    # their 0.0 placeholder would bias TPOT low.
    tpots = group["tpot_s"][done & (group["gen_tokens"] >= 2)]
    latencies = group["latency_s"][done]
    output_tokens = int(group["gen_tokens"][done].sum())
    window = float(group["finish_s"][done].max()) if ttfts.size else 0.0
    slo = group["slo_ttft_s"]
    slo_requests = int((slo > 0).sum())
    slo_met = int(((slo > 0) & done & (ttft_all <= slo)).sum())
    hit_ttfts = ttft_all[done & group["cache_hit"]]
    miss_ttfts = ttft_all[done & ~group["cache_hit"]]
    return {
        "scope": scope,
        "requests": int(status.size),
        "completed": int(ttfts.size),
        "rejected": int((status == "rejected").sum()),
        "failed": int((status == "failed").sum()),
        "preemptions": int(group["preemptions"].sum()),
        "retries": int(group["retries"].sum()),
        "failovers": int(group["failovers"].sum()),
        "shed": int(group["shed"].sum()),
        "slo_requests": slo_requests,
        "slo_attainment": safe_ratio(slo_met, slo_requests, default=1.0),
        "ttft_p50_s": percentile(ttfts, 50),
        "ttft_p95_s": percentile(ttfts, 95),
        "ttft_p99_s": percentile(ttfts, 99),
        "ttft_mean_s": safe_ratio(sum(ttfts.tolist()), ttfts.size),
        "cache_hit_requests": int(hit_ttfts.size),
        "ttft_hit_p50_s": percentile(hit_ttfts, 50),
        "ttft_hit_p95_s": percentile(hit_ttfts, 95),
        "ttft_miss_p50_s": percentile(miss_ttfts, 50),
        "ttft_miss_p95_s": percentile(miss_ttfts, 95),
        "tpot_mean_s": safe_ratio(sum(tpots.tolist()), tpots.size),
        "tpot_p99_s": percentile(tpots, 99),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p95_s": percentile(latencies, 95),
        "latency_p99_s": percentile(latencies, 99),
        "queue_mean_s": safe_ratio(
            sum(group["queue_s"][done].tolist()), ttfts.size
        ),
        "output_tokens": output_tokens,
        "output_tokens_per_s": safe_ratio(output_tokens, window),
    }


#: Summary keys copied verbatim into :func:`policy_table` rows.
_POLICY_KEYS = (
    "requests", "completed", "rejected", "preemptions",
    "slo_requests", "slo_attainment",
    "ttft_p50_s", "ttft_p95_s", "ttft_p99_s",
    "tpot_mean_s", "latency_p95_s",
    "output_tokens_per_s", "energy_mj_per_token", "makespan_s",
    "cache_hit_rate", "kv_dedup_factor",
)


def policy_table(summary_rows: Sequence[dict]) -> List[dict]:
    """Compare scheduling-policy runs over the same trace.

    ``summary_rows`` are flat serving summaries (one per policy run, as
    produced by :func:`repro.serving.metrics.summary`, each carrying a
    ``policy`` key and optionally a ``scenario`` key).  Returns one row
    per run with the headline latency/SLO/throughput metrics, plus
    ``ttft_p95_vs_fcfs`` — the FCFS baseline's p95 TTFT divided by this
    policy's (> 1 means the policy improves tail TTFT) — whenever an
    ``fcfs`` run with the same scenario is present.
    """
    fcfs_p95: Dict[object, float] = {}
    for row in summary_rows:
        if row.get("policy") == "fcfs":
            fcfs_p95[row.get("scenario")] = row.get("ttft_p95_s", 0.0)
    table = []
    for row in summary_rows:
        entry = {"policy": row.get("policy", "")}
        if "scenario" in row:
            entry["scenario"] = row["scenario"]
        for key in _POLICY_KEYS:
            if key in row:
                entry[key] = row[key]
        baseline = fcfs_p95.get(row.get("scenario"), 0.0)
        entry["ttft_p95_vs_fcfs"] = safe_ratio(baseline, row.get("ttft_p95_s", 0.0))
        table.append(entry)
    return table


#: Deployment-row keys summed into the aggregate ``cluster`` row.
_CLUSTER_SUM_KEYS = (
    "replicas", "replicas_peak", "routed", "requests", "completed",
    "rejected", "preemptions", "output_tokens", "energy_j",
    "scale_ups", "scale_downs",
)

#: Deployment-row keys copied verbatim into the per-deployment rows.
_CLUSTER_ROW_KEYS = (
    "model", "scheme", "tier", "replicas", "replicas_peak", "routed",
    "requests", "completed", "rejected", "preemptions",
    "slo_attainment", "ttft_p50_s", "ttft_p95_s", "tpot_mean_s",
    "latency_p95_s", "output_tokens", "output_tokens_per_s",
    "energy_j", "energy_mj_per_token", "utilization", "makespan_s",
    "scale_ups", "scale_downs",
)


def cluster_table(deployment_rows: Sequence[dict]) -> List[dict]:
    """Aggregate per-deployment cluster rows into the cluster table.

    ``deployment_rows`` are flat per-deployment summaries (as produced
    by :func:`repro.serving.metrics.cluster_rows`, each carrying a
    ``deployment`` key plus the headline serving metrics and replica /
    scale counters).  Returns one ``deployment="cluster"`` total row —
    counters summed, makespan the max, the throughput and energy rates
    re-derived from the summed counters (per-deployment percentiles do
    not aggregate and are left blank there) — followed by one row per
    deployment with its ``routed_share`` of the cluster's traffic.
    """
    if not deployment_rows:
        return []
    total: Dict[str, object] = {"deployment": "cluster"}
    for key in _CLUSTER_SUM_KEYS:
        total[key] = sum(r.get(key, 0) for r in deployment_rows)
    makespan = max(r.get("makespan_s", 0.0) for r in deployment_rows)
    total["makespan_s"] = makespan
    total["routed_share"] = 1.0
    total["output_tokens_per_s"] = safe_ratio(total["output_tokens"], makespan)
    total["energy_mj_per_token"] = safe_ratio(
        1e3 * total["energy_j"], total["output_tokens"]
    )
    total_routed = total["routed"]
    table = [total]
    for row in deployment_rows:
        entry = {"deployment": row.get("deployment", "")}
        for key in _CLUSTER_ROW_KEYS:
            if key in row:
                entry[key] = row[key]
        entry["routed_share"] = safe_ratio(row.get("routed", 0), total_routed)
        table.append(entry)
    return table


def format_table(
    rows: Sequence[dict],
    columns: Optional[Sequence[str]] = None,
    float_digits: int = 4,
) -> str:
    """Render table rows as aligned monospace text for the CLI.

    ``columns`` defaults to the keys of the first row; floats are
    formatted with ``float_digits`` significant digits.
    """
    if not rows:
        return "(empty table)"
    cols = list(columns) if columns is not None else list(rows[0].keys())

    def fmt(value) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float):
            return f"{value:.{float_digits}g}"
        return str(value)

    rendered = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rendered)
    return "\n".join([header, rule, body])
