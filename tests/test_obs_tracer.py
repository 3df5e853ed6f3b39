"""Tracer hook surface, recording levels and the self-profiler."""

import pytest

from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    LIFECYCLE_KINDS,
    TRACE_LEVELS,
    RecordingTracer,
    SelfProfiler,
    Tracer,
)
from repro.obs.tracer import CLUSTER_KINDS, FAULT_EVENT_KINDS
from repro.serving import ServingConfig, TraceSpec, generate_trace, simulate_trace


def _run(level="full", seed=0, policy="fcfs", num_requests=16):
    trace = generate_trace(TraceSpec(
        num_requests=num_requests, arrival_rate_per_s=2.0, prompt_mean=32.0,
        gen_mean=8.0, seed=seed,
    ))
    tracer = RecordingTracer(level)
    result = simulate_trace(
        trace,
        ServingConfig(model="gpt-125m", num_ranks=2, dpus_per_rank=8,
                      max_batch=4, policy=policy),
        tracer=tracer,
    )
    return tracer, result


def test_null_tracer_is_disabled_noop():
    t = Tracer()
    assert t.enabled is False
    assert t.wants_engine_detail is False
    # Both hooks are callable and return None, for every kind.
    for kind in EVENT_KINDS:
        payload = dict.fromkeys(EVENT_SCHEMA[kind].fields, 0)
        assert t.emit(kind, 0.0, 0, 1, **payload) is None
    assert t.sample(0.0, 0, 0, 0, 0) is None


def test_null_tracer_hook_surface_is_emit_and_sample():
    hooks = {name for name, value in vars(Tracer).items()
             if callable(value) and not name.startswith("_")}
    assert hooks == {"emit", "sample"}


def test_event_kind_tuples_are_pinned():
    assert EVENT_KINDS == (
        "arrive", "admit", "preempt", "requeue", "reject",
        "prefill_chunk_start", "prefill_chunk_end", "first_token",
        "cache_hit", "cache_evict", "decode_segment", "finish",
        "fault_crash", "fault_stall", "fault_degrade",
        "route", "scale_up", "scale_up_warm", "scale_down", "replace",
        "retry", "failover", "shed",
    )
    assert LIFECYCLE_KINDS == (
        "arrive", "admit", "preempt", "requeue", "reject",
        "prefill_chunk_start", "prefill_chunk_end", "first_token",
        "cache_hit", "finish",
    )
    assert CLUSTER_KINDS == (
        "route", "scale_up", "scale_up_warm", "scale_down", "replace",
        "retry", "failover", "shed",
    )
    assert FAULT_EVENT_KINDS == ("fault_crash", "fault_stall", "fault_degrade")


def test_null_tracer_run_matches_untraced_run():
    trace = generate_trace(TraceSpec(num_requests=12, seed=1))
    config = ServingConfig(model="gpt-125m", num_ranks=2)
    plain = simulate_trace(trace, config)
    nulled = simulate_trace(trace, config, tracer=Tracer())
    assert plain.makespan_s == nulled.makespan_s
    assert plain.output_tokens == nulled.output_tokens


def test_recording_tracer_rejects_unknown_level():
    with pytest.raises(ValueError, match="trace level"):
        RecordingTracer("verbose")
    assert set(TRACE_LEVELS) == {"lifecycle", "full"}


def test_lifecycle_kinds_exclude_decode_segment():
    assert "decode_segment" in EVENT_KINDS
    assert "decode_segment" not in LIFECYCLE_KINDS
    assert set(LIFECYCLE_KINDS) < set(EVENT_KINDS)


def test_full_recording_captures_all_lifecycle_stages():
    tracer, result = _run()
    kinds = {e.kind for e in tracer.events}
    assert {"arrive", "admit", "prefill_chunk_start", "prefill_chunk_end",
            "first_token", "decode_segment", "finish"} <= kinds
    completed = sum(r.status == "completed" for r in result.records)
    counters = tracer.registry.counters
    assert counters["arrivals"].value == len(result.records)
    assert counters["completions"].value == completed
    assert counters["output_tokens"].value == result.output_tokens
    assert counters["prefill_tokens"].value == result.prefill_tokens


def test_lifecycle_level_drops_engine_detail():
    tracer, _ = _run(level="lifecycle")
    assert tracer.wants_engine_detail is False
    assert all(e.kind != "decode_segment" for e in tracer.events)
    assert tracer.registry.series == {}  # no sampled time series


def test_full_level_samples_per_rank_series():
    tracer, result = _run()
    names = set(tracer.registry.series)
    for rank in range(result.config.num_ranks):
        assert f"rank{rank}/kv_bytes" in names
        assert f"rank{rank}/batch" in names
        assert f"rank{rank}/queue_depth" in names


def test_histograms_match_record_timings():
    tracer, result = _run()
    done = [r for r in result.records if r.status == "completed"]
    ttft = tracer.registry.histograms["ttft_s"]
    assert ttft.count == len(done)
    assert ttft.mean == pytest.approx(
        sum(r.ttft_s for r in done) / len(done)
    )
    lat = tracer.registry.histograms["latency_s"]
    assert lat.mean == pytest.approx(
        sum(r.latency_s for r in done) / len(done)
    )


def test_events_are_per_rank_chronological():
    """Non-arrive events advance with the rank's clock; arrive events
    are stamped with the request's (earlier) arrival time and are
    nondecreasing among themselves per rank."""
    tracer, _ = _run()
    last, last_arrive = {}, {}
    for e in tracer.events:
        track = last_arrive if e.kind == "arrive" else last
        assert track.get(e.rank, 0.0) <= e.t_s + 1e-12, e
        track[e.rank] = e.t_s


def test_events_for_and_lifecycle_by_request():
    tracer, result = _run()
    grouped = tracer.lifecycle_by_request()
    assert set(grouped) == {r.req_id for r in result.records}
    for req_id, events in grouped.items():
        assert events[0].kind == "arrive"
        assert events == [
            e for e in tracer.events_for(req_id) if e.kind != "decode_segment"
        ]
    assert all(
        e.req_id is None for e in tracer.events_for(None)
    )


def test_self_profiler_phases_and_shares():
    prof = SelfProfiler()
    trace = generate_trace(TraceSpec(num_requests=16, seed=0))
    simulate_trace(trace, ServingConfig(model="gpt-125m"), profiler=prof)
    report = prof.report()
    assert {"admission", "prefill", "decode"} <= set(report["phases"])
    assert report["total_s"] > 0.0
    # segment_costing nests inside decode and is excluded from the total.
    named = {p: v["wall_s"] for p, v in report["phases"].items()}
    assert report["total_s"] == pytest.approx(
        sum(v for p, v in named.items() if p != "segment_costing")
    )
    for phase, entry in report["phases"].items():
        assert entry["calls"] >= 1
        assert entry["wall_s"] >= 0.0


def test_self_profiler_empty_report():
    report = SelfProfiler().report()
    assert report == {"total_s": 0.0, "phases": {}}
