"""Golden regression fixtures: cost-model drift is caught at review time.

Small JSON goldens are checked in under ``tests/goldens/``:

* ``sweep_latency_table.json`` — the latency table of a tiny two-scheme
  sweep,
* ``sweep_rows.json`` — every row of a small sweep over every registered
  scheme, all three cost kernels, two models, two rank counts and a
  2048-token prompt, stored unrounded: both phases' full ``stats_dict``
  (``dram_activations``, ``wram_peak_bytes``, ``n_lut_entry_pairs``, ...)
  and energy, plus the ``status`` / ``error`` of the unsupported points
  (WRAM overflow, bank capacity, naive-baseline codecs).  The
  per-projection ``gemms`` dicts are left out to keep the file small;
  the phase stats are their sums,
* ``serving_<policy>.json`` — the flat serving summary of one fixed-seed
  bursty trace per scheduling policy (the KV-starved deployment, so the
  ``priority`` golden pins preemption counters too), and
* ``serving_conversational_<policy>.json`` — the summary of a fixed-seed
  conversational session trace with the KV prefix cache enabled, so the
  hit-rate, dedup and eviction counters are pinned per policy.
* ``cluster_<router>.json`` — every request record of a fault-free
  two-deployment cluster (prefix cache on, conversational traffic)
  under each router, and
* ``cluster_chaos.json`` — the records, fault events and scale events
  of a ``p2c`` cluster run with a crash + stall + degrade plan,
  retries, tier shedding and the autoscaler.
* ``trace_<name>.json`` — the full recorded event stream of a traced
  run (every event's kind, time, rank, request id and payload, in
  payload-key order) plus the tracer registry's counters, gauges and
  sampled series: ``trace_prefix_cache.json`` is the KV-starved
  prefix-cache fixture of ``tests/test_serving_prefix_cache.py`` with
  one oversized request appended (preemption, requeue, rejection, cache
  hits and evictions; one run per object engine) and
  ``trace_cluster_chaos.json`` a ``p2c`` cluster run with a fault plan,
  retries, shedding and the autoscaler (every cluster and fault kind).
  Together they cover every event kind.
* ``metrics_tables.json`` — the unrounded ``metrics_table`` of every
  ``serving_<policy>`` fixture (``event`` and ``soa`` engines) and every
  ``serving_conversational_<policy>`` fixture (``event``), plus the
  ``cluster_summary`` and ``cluster_rows`` of every ``cluster_<name>``
  fixture (``event`` and ``loop``).  Compared exactly: it pins the
  aggregation path itself, not just the simulation under it.

Each cluster golden holds one run per object engine (``event`` and
``loop``): under lazy advance the routers observe each engine's own
intermediate state, so the two engines may route differently and are
pinned separately.

Any change to kernel costs, the energy model, trace generation or
scheduler behavior shifts these numbers; the diff shows up in the PR
instead of silently changing figures.  After an *intentional* change,
regenerate with::

    PYTHONPATH=src python tests/test_goldens.py --update

Floats are rounded to 10 significant digits before comparison, so the
goldens are stable against float-summation noise while still pinning
real cost changes.  ``sweep_rows.json`` and ``metrics_tables.json`` are
the exceptions: they are compared exactly, so a change that claims
bit-identical kernel costs or summaries is held to that.

The serving goldens are built with the default event-driven engine and
must *also* match under ``engine="loop"`` — the engines' metric
identity is part of what the fixtures pin.  Regeneration history: the
goldens were regenerated when trace generation was vectorised (the
bursty/diurnal RNG draw *order* changed — block draws instead of one
scalar draw per arrival — so fixed-seed arrival values shifted; the
process law is unchanged) and when the cost spine started scaling
layer-identical blocks instead of re-summing per layer (float-rounding
level shifts).
"""

import dataclasses
import json
import os
import sys

import pytest

from repro.experiments.sweep import SweepSpec, run_sweep
from repro.experiments.tables import latency_table
from repro.kernels.cost import COST_KERNELS
from repro.obs import EVENT_KINDS, EVENT_SCHEMA, RecordingTracer
from repro.quant import list_schemes
from repro.serving import (
    POLICIES,
    ROUTERS,
    Autoscaler,
    AutoscalerConfig,
    Deployment,
    FaultPlan,
    FaultSpec,
    Request,
    RetryPolicy,
    ServingConfig,
    TraceSpec,
    generate_trace,
    simulate_cluster,
    simulate_trace,
    summary,
)
from repro.serving.metrics import cluster_rows, cluster_summary, metrics_table

from test_serving_prefix_cache import _fuzz_spec, _starved_config

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
ALL_POLICIES = sorted(POLICIES)
ALL_ROUTERS = sorted(ROUTERS)
CLUSTER_ENGINES = ("event", "loop")
CLUSTER_GOLDENS = tuple(ALL_ROUTERS) + ("chaos",)

SWEEP_SPEC = SweepSpec(
    models=("gpt-125m",), schemes=("W1A3", "W4A4"), prefill_lens=(32,),
    decode_tokens=8,
)

# Every scheme x kernel on two models and two deployments; the 2048-token
# prompt overflows a bank on gpt-1.3b, pinning those error rows too.
SWEEP_ROWS_SPEC = SweepSpec(
    models=("gpt-125m", "gpt-1.3b"), schemes=tuple(list_schemes()),
    kernels=COST_KERNELS, prefill_lens=(32, 2048), decode_tokens=8,
    num_ranks=(1, 16),
)

# Seed chosen (after the vectorised trace generator landed) so the
# KV-starved golden deployment still separates all four policies and
# fires priority preemption.
TRACE_SPEC = TraceSpec(
    num_requests=12, seed=4, scenario="bursty", arrival_rate_per_s=0.003,
    prompt_mean=96.0, prompt_sigma=0.8, prompt_max=512,
    gen_mean=64.0, gen_max=512,
    priority_weights=(0.3, 0.7), slo_ttft_s=(50.0, 500.0),
)


def _serving_config(policy: str, engine: str = "event") -> ServingConfig:
    return ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                         max_batch=16, policy=policy, prefill_chunk_tokens=16,
                         engine=engine)


# A conversational session trace with shared system prompts; lengths
# and turns are capped so the deepest carried context stays inside the
# cost model's per-bank working set.
CONV_TRACE_SPEC = TraceSpec(
    num_requests=24, seed=7, scenario="conversational",
    arrival_rate_per_s=0.02,
    prompt_mean=48.0, prompt_sigma=0.8, prompt_max=128,
    gen_mean=24.0, gen_max=64,
    priority_weights=(0.3, 0.7), slo_ttft_s=(50.0, 500.0),
    sessions=8, turns_mean=3.0, turns_max=4, think_time_mean_s=5.0,
    system_prompt_pool=2, system_prompt_tokens=48,
)


def _conv_config(policy: str, engine: str = "event") -> ServingConfig:
    """KV-starved single rank with the prefix cache on: the goldens pin
    cache hits, LRU evictions and (for ``priority``) preemption."""
    return ServingConfig(model="gpt-125m", num_ranks=1, dpus_per_rank=1,
                         max_batch=8, policy=policy, prefill_chunk_tokens=16,
                         engine=engine, prefix_cache=True)


# Conversational traffic for the fault-free cluster goldens: sessions
# stick to one replica, so the prefix cache serves later turns.
CLUSTER_CONV_SPEC = TraceSpec(
    num_requests=32, seed=5, scenario="conversational",
    arrival_rate_per_s=0.5,
    prompt_mean=48.0, prompt_sigma=0.8, prompt_max=128,
    gen_mean=24.0, gen_max=64,
    priority_weights=(0.5, 0.5), slo_ttft_s=(50.0, 500.0),
    sessions=8, turns_mean=3.0, turns_max=4, think_time_mean_s=5.0,
    system_prompt_pool=2, system_prompt_tokens=48,
)

# Bursty traffic and a fault plan chosen so the chaos golden pins
# crash losses, retries, failovers, shedding and scale-ups together.
CLUSTER_CHAOS_SPEC = TraceSpec(
    num_requests=96, seed=11, scenario="bursty", arrival_rate_per_s=30.0,
    priority_weights=(1.0, 1.0),
)
CLUSTER_CHAOS_PLAN = FaultPlan((
    FaultSpec("crash", 0, 2.0),
    FaultSpec("stall", 3, 1.0, duration_s=20.0),
    FaultSpec("degrade", 1, 0.0, duration_s=1e6, factor=3.0),
))

#: Record fields a cluster golden pins.
CLUSTER_RECORD_FIELDS = (
    "req_id", "rank", "status", "arrival_s", "admit_s", "first_token_s",
    "finish_s", "retries", "failovers", "shed",
)


def _cluster_fleet(engine: str, prefix_cache: bool):
    return [
        Deployment(ServingConfig(model="gpt-125m", num_ranks=2, max_batch=8,
                                 prefill_chunk_tokens=16, engine=engine,
                                 prefix_cache=prefix_cache),
                   name="small", tier=0),
        Deployment(ServingConfig(model="gpt-350m", num_ranks=2, max_batch=8,
                                 prefill_chunk_tokens=16, engine=engine,
                                 prefix_cache=prefix_cache),
                   name="large", tier=1),
    ]


def _rounded(value, digits: int = 10):
    """Round every float in a nested JSON-ish structure to ``digits``
    significant digits (ints and other scalars pass through)."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _rounded(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v, digits) for v in value]
    return value


def _build_sweep_golden():
    return _rounded(latency_table(run_sweep(SWEEP_SPEC)))


def _build_sweep_rows_golden():
    """Unrounded sweep rows, minus the per-projection ``gemms``."""
    return [{k: v for k, v in row.items() if k != "gemms"}
            for row in run_sweep(SWEEP_ROWS_SPEC)]


def _dump_rows(fh, rows) -> None:
    """One row per line, so drift diffs per grid point."""
    fh.write("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")


def _build_serving_golden(policy: str, engine: str = "event"):
    trace = generate_trace(TRACE_SPEC)
    config = _serving_config(policy, engine)
    return _rounded(summary(simulate_trace(trace, config)))


def _build_conversational_golden(policy: str, engine: str = "event"):
    trace = generate_trace(CONV_TRACE_SPEC)
    config = _conv_config(policy, engine)
    return _rounded(summary(simulate_trace(trace, config)))


def _run_cluster_golden(name: str, engine: str):
    """One cluster run: ``name`` is a router (fault-free, prefix cache
    on, conversational traffic) or ``"chaos"``."""
    if name == "chaos":
        return simulate_cluster(
            generate_trace(CLUSTER_CHAOS_SPEC),
            _cluster_fleet(engine, prefix_cache=False), router="p2c",
            autoscaler=Autoscaler(AutoscalerConfig(
                max_replicas=3, queue_high=4.0, interval_s=1.0,
            )),
            faults=CLUSTER_CHAOS_PLAN,
            retry_policy=RetryPolicy(max_retries=3), shed_tier=1,
        )
    return simulate_cluster(
        generate_trace(CLUSTER_CONV_SPEC),
        _cluster_fleet(engine, prefix_cache=True), router=name,
    )


def _build_cluster_golden(name: str, engine: str):
    result = _run_cluster_golden(name, engine)
    return _rounded({
        "records": [
            {key: getattr(rec, key) for key in CLUSTER_RECORD_FIELDS}
            for rec in result.records
        ],
        "fault_events": result.fault_events,
        "scale_events": result.scale_events,
    })


def _metrics_tables_runs(fixture: str):
    """``(engine, payload)`` pairs of one ``metrics_tables.json`` fixture."""
    kind, _, name = fixture.partition("_")
    if kind == "cluster":
        for engine in CLUSTER_ENGINES:
            result = _run_cluster_golden(name, engine)
            yield engine, {"summary": cluster_summary(result),
                           "rows": cluster_rows(result)}
    elif name.startswith("conversational_"):
        policy = name[len("conversational_"):]
        result = simulate_trace(generate_trace(CONV_TRACE_SPEC),
                                _conv_config(policy))
        yield "event", metrics_table(result)
    else:
        for engine in ("event", "soa"):
            result = simulate_trace(generate_trace(TRACE_SPEC),
                                    _serving_config(name, engine))
            yield engine, metrics_table(result)


METRICS_TABLE_FIXTURES = tuple(
    [f"serving_{p}" for p in ALL_POLICIES]
    + [f"serving_conversational_{p}" for p in ALL_POLICIES]
    + [f"cluster_{name}" for name in CLUSTER_GOLDENS]
)


def _build_metrics_tables_golden():
    return {fixture: dict(_metrics_tables_runs(fixture))
            for fixture in METRICS_TABLE_FIXTURES}


# A stall long enough to catch a busy step boundary on rank 3, so the
# traced chaos run emits every fault kind next to every cluster kind.
TRACE_CHAOS_PLAN = FaultPlan((
    FaultSpec("crash", 0, 2.0),
    FaultSpec("stall", 3, 1.0, duration_s=200.0),
    FaultSpec("degrade", 1, 0.0, duration_s=1e6, factor=3.0),
))
TRACE_GOLDENS = ("prefix_cache", "cluster_chaos")


def _trace_runs(name: str):
    """``(engine, tracer)`` pairs of one traced golden fixture."""
    runs = []
    if name == "prefix_cache":
        trace = generate_trace(_fuzz_spec(0))
        # One request no KV budget can ever hold: pins the reject path.
        trace.append(Request(req_id=len(trace), arrival_s=trace[-1].arrival_s,
                             prompt_tokens=4096, gen_tokens=8))
        for engine in CLUSTER_ENGINES:
            tracer = RecordingTracer("full")
            config = dataclasses.replace(_starved_config(), engine=engine)
            simulate_trace(trace, config, tracer=tracer)
            runs.append((engine, tracer))
    else:
        tracer = RecordingTracer("full")
        simulate_cluster(
            generate_trace(CLUSTER_CHAOS_SPEC),
            _cluster_fleet("event", prefix_cache=False), router="p2c",
            autoscaler=Autoscaler(AutoscalerConfig(
                max_replicas=3, queue_high=4.0, interval_s=1.0,
            )),
            faults=TRACE_CHAOS_PLAN,
            retry_policy=RetryPolicy(max_retries=3), shed_tier=1,
            tracer=tracer,
        )
        runs.append(("event", tracer))
    return runs


def _build_trace_golden(name: str):
    """Every recorded event plus the registry's counters, gauges and
    series.  Payloads are ``[key, value]`` pairs so key order is pinned
    (the timeline columns follow it).  Histograms are left out: their
    float sums depend on observation order, and their agreement with
    the request records is tested directly."""
    golden = {}
    for engine, tracer in _trace_runs(name):
        registry = tracer.registry
        golden[engine] = _rounded({
            "events": [
                [e.kind, e.t_s, e.rank, e.req_id, [[k, v] for k, v in e.data.items()]]
                for e in tracer.events
            ],
            "counters": {n: c.value for n, c in sorted(registry.counters.items())},
            "gauges": {n: [g.value, g.max_value]
                       for n, g in sorted(registry.gauges.items())},
            "series": registry.series_rows(),
        })
    return golden


def _dump_trace_golden(fh, golden) -> None:
    """One event / series row per line, so drift diffs per event."""
    runs = []
    for engine, run in golden.items():
        fields = [
            f"  {json.dumps(key)}: [\n" + ",\n".join(
                f"   {json.dumps(item)}" for item in value) + "\n  ]"
            if isinstance(value, list) else f"  {json.dumps(key)}: {json.dumps(value)}"
            for key, value in run.items()
        ]
        runs.append(f" {json.dumps(engine)}: {{\n" + ",\n".join(fields) + "\n }")
    fh.write("{\n" + ",\n".join(runs) + "\n}\n")


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name)


def _load(name: str):
    path = _golden_path(name)
    if not os.path.exists(path):
        pytest.fail(
            f"golden {name} is missing; regenerate with "
            f"`PYTHONPATH=src python tests/test_goldens.py --update`"
        )
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_sweep_latency_table_matches_golden():
    assert _build_sweep_golden() == _load("sweep_latency_table.json")


def test_sweep_rows_match_golden():
    golden = _load("sweep_rows.json")
    assert {row["status"] for row in golden} == {"ok", "unsupported"}
    assert any("exceeds bank capacity" in row["error"] for row in golden)
    rows = _build_sweep_rows_golden()
    assert len(rows) == len(golden)
    for row, expected in zip(rows, golden):
        assert row == expected


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_serving_summary_matches_golden(policy):
    assert _build_serving_golden(policy) == _load(f"serving_{policy}.json")


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_loop_engine_reproduces_event_golden(policy):
    """The per-token loop engine must hit the same (event-engine-built)
    golden after 10-significant-digit rounding — the engines are
    metric-identical up to float-summation noise, and the ``engine``
    config key is the only allowed difference."""
    golden = dict(_load(f"serving_{policy}.json"))
    loop = dict(_build_serving_golden(policy, engine="loop"))
    assert loop.pop("engine") == "loop"
    assert golden.pop("engine") == "event"
    assert loop == golden


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_soa_engine_reproduces_event_golden(policy):
    """The structure-of-arrays engine must hit the same golden as the
    event oracle after rounding, exactly like the loop engine does.
    (Only the plain serving goldens: the conversational fixtures enable
    the prefix cache, which the soa engine rejects by contract.)"""
    golden = dict(_load(f"serving_{policy}.json"))
    soa = dict(_build_serving_golden(policy, engine="soa"))
    assert soa.pop("engine") == "soa"
    assert golden.pop("engine") == "event"
    assert soa == golden


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_conversational_summary_matches_golden(policy):
    assert _build_conversational_golden(policy) == _load(
        f"serving_conversational_{policy}.json"
    )


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_loop_engine_reproduces_conversational_golden(policy):
    golden = dict(_load(f"serving_conversational_{policy}.json"))
    loop = dict(_build_conversational_golden(policy, engine="loop"))
    assert loop.pop("engine") == "loop"
    assert golden.pop("engine") == "event"
    assert loop == golden


def test_conversational_goldens_pin_cache_behavior():
    """The checked-in fixtures themselves prove the cache works: hits
    dominate, dedup saves real bytes, and eviction actually fired."""
    summaries = {
        p: _load(f"serving_conversational_{p}.json") for p in ALL_POLICIES
    }
    for policy, flat in summaries.items():
        assert flat["prefix_cache"] is True, policy
        assert flat["cache_hit_rate"] > 0.5, policy
        assert flat["kv_dedup_factor"] > 1.0, policy
        assert flat["cache_evictions"] > 0, policy


@pytest.mark.parametrize("engine", CLUSTER_ENGINES)
@pytest.mark.parametrize("name", CLUSTER_GOLDENS)
def test_cluster_matches_golden(name, engine):
    assert _build_cluster_golden(name, engine) == \
        _load(f"cluster_{name}.json")[engine]


def test_cluster_goldens_pin_routing_and_recovery():
    """The checked-in fixtures themselves prove they cover what they
    claim: routers place requests differently, cached turns hit, and
    the chaos run retried, failed over, shed and scaled."""
    placements = set()
    for router in ALL_ROUTERS:
        records = _load(f"cluster_{router}.json")["event"]["records"]
        assert all(r["status"] == "completed" for r in records), router
        placements.add(tuple(r["rank"] for r in records))
    assert len(placements) >= 3
    for engine in CLUSTER_ENGINES:
        chaos = _load("cluster_chaos.json")[engine]
        records = chaos["records"]
        assert any(r["retries"] > 0 for r in records), engine
        assert any(r["failovers"] > 0 for r in records), engine
        assert any(r["shed"] for r in records), engine
        assert {e["kind"] for e in chaos["fault_events"]} == \
            {"crash", "stall", "degrade"}
        actions = {e["action"] for e in chaos["scale_events"]}
        assert {"replace", "scale_up"} <= actions, engine


@pytest.mark.parametrize("fixture", METRICS_TABLE_FIXTURES)
def test_metrics_tables_match_golden(fixture):
    golden = _load("metrics_tables.json")[fixture]
    runs = dict(_metrics_tables_runs(fixture))
    assert list(runs) == list(golden)
    for engine, payload in runs.items():
        assert payload == golden[engine], engine


@pytest.mark.parametrize("name", TRACE_GOLDENS)
def test_trace_matches_golden(name):
    assert _build_trace_golden(name) == _load(f"trace_{name}.json")


def test_trace_goldens_cover_every_event_kind():
    kinds = {
        event[0]
        for name in TRACE_GOLDENS
        for run in _load(f"trace_{name}.json").values()
        for event in run["events"]
    }
    assert kinds == set(EVENT_KINDS)


@pytest.mark.parametrize("name", TRACE_GOLDENS)
def test_trace_payloads_follow_event_schema(name):
    """``emit`` takes its payload as unchecked keywords, so a misspelled,
    missing or reordered keyword at a call site is caught here."""
    lanes = {"request": lambda e: e.rank >= 0 and e.req_id is not None,
             "rank": lambda e: e.rank >= 0 and e.req_id is None,
             "cluster": lambda e: e.rank == -1}
    for engine, tracer in _trace_runs(name):
        for event in tracer.events:
            spec = EVENT_SCHEMA[event.kind]
            assert tuple(event.data) == spec.fields, (engine, event)
            assert lanes[spec.scope](event), (engine, event)


def test_goldens_pin_distinct_policies():
    """The checked-in fixtures themselves prove the policies diverge."""
    summaries = {p: _load(f"serving_{p}.json") for p in ALL_POLICIES}
    assert len({s["ttft_p95_s"] for s in summaries.values()}) >= 3
    assert summaries["priority"]["preemptions"] > 0


def _update() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    goldens = {"sweep_latency_table.json": _build_sweep_golden()}
    for policy in ALL_POLICIES:
        goldens[f"serving_{policy}.json"] = _build_serving_golden(policy)
        goldens[f"serving_conversational_{policy}.json"] = (
            _build_conversational_golden(policy)
        )
    for name in CLUSTER_GOLDENS:
        goldens[f"cluster_{name}.json"] = {
            engine: _build_cluster_golden(name, engine)
            for engine in CLUSTER_ENGINES
        }
    for name, payload in goldens.items():
        with open(_golden_path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {_golden_path(name)}")
    path = _golden_path("sweep_rows.json")
    with open(path, "w", encoding="utf-8") as fh:
        _dump_rows(fh, _build_sweep_rows_golden())
    print(f"wrote {path}")
    path = _golden_path("metrics_tables.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_build_metrics_tables_golden(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    for name in TRACE_GOLDENS:
        path = _golden_path(f"trace_{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            _dump_trace_golden(fh, _build_trace_golden(name))
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
        sys.exit(1)
