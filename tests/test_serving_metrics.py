"""Per-request rows and aggregate tables: None timestamps, zero edges."""

import math

import numpy as np
import pytest

from repro.experiments.io import read_csv, write_csv
from repro.experiments.tables import safe_ratio, serving_table
from repro.serving import (
    Request,
    ServingConfig,
    TraceSpec,
    generate_trace,
    simulate_trace,
)
from repro.serving.metrics import metrics_table, record_rows, summary
from repro.serving.engine import RequestRecord, ServingResult
from repro.serving.engine.records import ColumnRecords, record_columns


def _result(**record_kwargs):
    """A one-request ServingResult with controllable record fields."""
    defaults = dict(req_id=0, rank=0, arrival_s=1.0, prompt_tokens=8,
                    gen_tokens=4, priority=0, slo_ttft_s=0.0)
    defaults.update(record_kwargs)
    return ServingResult(
        config=ServingConfig(model="gpt-125m", num_ranks=1),
        records=[RequestRecord(**defaults)],
        rank_stats=[],
        kv_capacity_bytes=0,
        weight_bytes=0,
    )


def test_record_rows_keep_missing_timestamps_none():
    """A rejected request has no admission/first-token/finish time — the
    row must say so with None, not a fake 0.0 reading as trace start."""
    rows = record_rows(_result(status="rejected"))
    row = rows[0]
    assert row["status"] == "rejected"
    assert row["admit_s"] is None
    assert row["first_token_s"] is None
    assert row["finish_s"] is None
    assert row["arrival_s"] == 1.0


def test_record_rows_none_round_trips_csv(tmp_path):
    """None cells serialise to empty CSV cells and are dropped on read,
    so the round-trip never manufactures numbers."""
    rows = record_rows(_result(status="rejected"))
    path = str(tmp_path / "records.csv")
    write_csv(path, rows)
    back = read_csv(path)
    assert "admit_s" not in back[0]
    assert "finish_s" not in back[0]
    assert back[0]["arrival_s"] == 1.0
    assert back[0]["status"] == "rejected"


def test_record_rows_completed_request_keeps_floats():
    rows = record_rows(_result(
        status="completed", admit_s=2.0, first_token_s=3.0, finish_s=5.0
    ))
    row = rows[0]
    assert row["admit_s"] == 2.0
    assert row["first_token_s"] == 3.0
    assert row["finish_s"] == 5.0
    assert row["latency_s"] == 4.0


def test_safe_ratio_edges():
    assert safe_ratio(6.0, 3.0) == 2.0
    assert safe_ratio(1.0, 0.0) == 0.0
    assert safe_ratio(1.0, -2.0) == 0.0
    assert safe_ratio(0.0, 0.0, default=1.0) == 1.0
    assert math.isinf(safe_ratio(1.0, 0.0, default=math.inf))


def test_metrics_table_rejected_only_run_is_well_formed():
    """Zero output tokens, zero busy time, no completions: every rate
    and share must come out 0.0 / defaulted, never raise — for a
    rejected-only and a failed-only run alike."""
    for status in ("rejected", "failed"):
        table = metrics_table(_result(status=status))
        row = table[0]
        assert row["scope"] == "all"
        assert row["completed"] == 0
        assert row[status] == 1
        assert row["output_tokens"] == 0
        assert row["output_tokens_per_s"] == 0.0
        assert row["energy_mj_per_token"] == 0.0
        assert row["utilization"] == 0.0
        assert row["ttft_mean_s"] == 0.0
        assert row["slo_attainment"] == 1.0  # no SLO-carrying request


def test_metrics_table_zero_makespan():
    """An instantly-rejected trace has makespan 0; utilization must not
    divide by it."""
    result = _result(status="rejected")
    assert result.makespan_s == 0.0
    assert metrics_table(result)[0]["utilization"] == 0.0


def test_serving_table_empty_rows():
    assert serving_table(record_columns([])) == []


def test_single_token_request_is_left_out_of_tpot():
    """A completed 1-token request has a TTFT but no post-first-token
    interval: it counts as completed and stays out of the TPOT stats."""
    result = _result(gen_tokens=1, admit_s=1.5, first_token_s=2.0,
                     finish_s=2.0)
    result.records.append(RequestRecord(
        req_id=1, rank=0, arrival_s=1.0, prompt_tokens=8, gen_tokens=3,
        admit_s=1.0, first_token_s=2.0, finish_s=3.0,
    ))
    row = metrics_table(result)[0]
    assert row["completed"] == 2
    assert row["output_tokens"] == 4
    assert row["ttft_mean_s"] == 1.0
    assert row["tpot_mean_s"] == row["tpot_p99_s"] == 0.5
    assert row["queue_mean_s"] == 0.25


def test_metrics_table_empty_result():
    empty = ServingResult(
        config=ServingConfig(model="gpt-125m"), records=[], rank_stats=[],
        kv_capacity_bytes=0, weight_bytes=0,
    )
    assert metrics_table(empty) == []
    assert summary(empty)["scope"] == "all"


def test_metrics_table_healthy_run_unchanged():
    """The guard refactor must not move any value on a normal run."""
    trace = generate_trace(TraceSpec(num_requests=12, seed=2))
    result = simulate_trace(trace, ServingConfig(model="gpt-125m", num_ranks=2))
    table = metrics_table(result)
    row = table[0]
    assert row["completed"] == 12
    assert row["output_tokens_per_s"] > 0
    assert row["energy_mj_per_token"] > 0
    assert 0.0 < row["utilization"] <= 1.0
    assert row["energy_mj_per_token"] == pytest.approx(
        1e3 * result.total_energy_j / result.output_tokens
    )


def test_metrics_table_has_a_row_per_replica_even_when_idle():
    """Two requests on four replicas: ranks 2 and 3 serve nothing, yet
    each still gets its row, zero-valued but carrying its counters."""
    trace = generate_trace(TraceSpec(num_requests=2, seed=0))
    for engine in ("event", "soa"):
        result = simulate_trace(trace, ServingConfig(
            model="gpt-125m", num_ranks=4, engine=engine))
        table = metrics_table(result)
        assert [row["scope"] for row in table] == \
            ["all", "rank0", "rank1", "rank2", "rank3"], engine
        for row in table[3:]:
            assert row["requests"] == row["output_tokens"] == 0
            assert row["slo_attainment"] == 1.0
            assert row["energy_j"] == 0.0
            assert row["utilization"] == 0.0
        assert sum(row["requests"] for row in table[1:]) == 2


# ---------------------------------------------------------------------------
# record columns: one format for every engine
# ---------------------------------------------------------------------------

def _assert_same_columns(a, b):
    assert list(a) == list(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        if a[name].dtype.kind == "f":
            assert np.array_equal(a[name], b[name], equal_nan=True), name
        else:
            assert np.array_equal(a[name], b[name]), name


def test_column_records_recolumnise_identically():
    """Materialising soa columns and columnising the records again gives
    the same arrays, NaN timestamps included."""
    trace = generate_trace(TraceSpec(num_requests=40, seed=1))
    trace.append(Request(req_id=40, arrival_s=trace[-1].arrival_s,
                         prompt_tokens=4096, gen_tokens=8))
    result = simulate_trace(trace, ServingConfig(
        model="gpt-125m", num_ranks=2, dpus_per_rank=1, engine="soa"))
    assert isinstance(result.records, ColumnRecords)
    columns = record_columns(result.records)
    assert result.records._items is None  # columns need no objects
    assert np.isnan(columns["finish_s"]).any()  # the rejected request
    _assert_same_columns(record_columns(list(result.records)), columns)


def test_chaos_records_round_trip_through_columns():
    """Failed, shed and retried records survive columns and back."""
    from test_goldens import _run_cluster_golden

    records = _run_cluster_golden("chaos", "event").records
    statuses = {r.status for r in records}
    assert {"completed", "failed"} <= statuses
    assert any(r.shed for r in records) and any(r.retries for r in records)
    back = list(ColumnRecords(record_columns(records)))
    assert back == records
    for name in ("queue_s", "ttft_s", "tpot_s", "latency_s"):
        assert record_columns(records)[name].tolist() == \
            [getattr(r, name) for r in records], name


# ---------------------------------------------------------------------------
# prefix-cache counters: TTFT split and type-faithful round-trips
# ---------------------------------------------------------------------------

def _cached_result():
    trace = generate_trace(TraceSpec(
        num_requests=20, seed=3, scenario="conversational",
        arrival_rate_per_s=0.05,
        prompt_mean=48.0, prompt_sigma=0.8, prompt_max=128,
        gen_mean=24.0, gen_max=64,
        sessions=6, turns_mean=3.0, turns_max=4, think_time_mean_s=5.0,
        system_prompt_pool=2, system_prompt_tokens=48,
    ))
    return simulate_trace(trace, ServingConfig(
        model="gpt-125m", num_ranks=2, dpus_per_rank=8, max_batch=8,
        prefix_cache=True,
    ))


def test_serving_table_splits_ttft_by_cache_hit():
    """``ttft_hit_*`` / ``ttft_miss_*`` partition the completed set, and
    the row counts agree with the hit flags."""
    result = _cached_result()
    rows = record_rows(result)
    hits = [r for r in rows if r["status"] == "completed" and r["cache_hit"]]
    assert hits  # the fixture must exercise the split
    table = serving_table(record_columns(result.records))
    row = table[0]
    assert row["cache_hit_requests"] == len(hits)
    assert row["ttft_hit_p50_s"] > 0
    assert row["ttft_miss_p50_s"] > 0
    assert row["ttft_hit_p50_s"] <= row["ttft_hit_p95_s"]
    assert row["ttft_miss_p50_s"] <= row["ttft_miss_p95_s"]


def test_cache_record_rows_round_trip_csv_type_faithful(tmp_path):
    """The new per-request columns survive write/read exactly:
    ``cache_hit`` stays a bool (not the string "True"), the session and
    token counters stay ints."""
    rows = record_rows(_cached_result())
    path = str(tmp_path / "records.csv")
    write_csv(path, rows)
    back = read_csv(path)
    assert back == rows
    hit = next(r for r in back if r["cache_hit"])
    assert hit["cache_hit"] is True
    assert isinstance(hit["cached_tokens"], int) and hit["cached_tokens"] > 0
    assert isinstance(hit["session_id"], int)
    assert isinstance(hit["turn"], int)


def test_cache_metrics_table_round_trips_csv(tmp_path):
    """Aggregate cache counters (ints) and ratios (floats) round-trip
    through the CSV writer for the ``all`` row and every rank row."""
    table = metrics_table(_cached_result())
    path = str(tmp_path / "metrics.csv")
    write_csv(path, table)
    back = read_csv(path)
    assert back == table
    for row in back:
        assert isinstance(row["cache_hits"], int)
        assert isinstance(row["cache_misses"], int)
        assert isinstance(row["cache_evictions"], int)
        assert isinstance(row["cache_hit_rate"], float)
        assert isinstance(row["kv_dedup_factor"], float)
    assert back[0]["cache_hit_rate"] > 0.0
    assert back[0]["kv_dedup_factor"] > 1.0


def test_cache_timeline_rows_round_trip_csv(tmp_path):
    """``cache_hit`` / ``cache_evict`` events flatten into timeline rows
    whose ``key`` column stays a string through the CSV round-trip (it
    is in the io string-column allowlist)."""
    from repro.obs import RecordingTracer, timeline_rows
    from test_serving_prefix_cache import _fuzz_spec, _starved_config

    trace = generate_trace(_fuzz_spec(0))
    tracer = RecordingTracer("full")
    simulate_trace(trace, _starved_config(), tracer=tracer)
    rows = timeline_rows(tracer.events)
    kinds = {r["event"] for r in rows}
    assert {"cache_hit", "cache_evict"} <= kinds
    path = str(tmp_path / "timeline.csv")
    write_csv(path, rows)
    back = read_csv(path)
    evict = next(r for r in back if r["event"] == "cache_evict")
    assert isinstance(evict["key"], str) and ":" in evict["key"]
    assert isinstance(evict["depth_tokens"], int)
    hit = next(r for r in back if r["event"] == "cache_hit")
    assert isinstance(hit["cached_tokens"], int)
    assert isinstance(hit["kv_saved_bytes"], int)
