"""Per-request lifecycle tracing for the serving engines.

The rank engines in :mod:`repro.serving.engine` — and the cluster layer
above them — report **typed events** through one hook,
``tracer.emit(kind, t_s, rank, req_id, **payload)``.  Every kind, its
scope, its ordered payload fields and the registry counters it bumps
are declared once, in :data:`EVENT_SCHEMA`; :data:`EVENT_KINDS` and the
scope subsets are derived from it.

The default is **no tracer at all**: the engines guard every hook behind
a single ``is not None`` check, so the untraced hot path pays one
branch per scheduler event (see the overhead floor in
``tools/bench.py``).  :class:`Tracer` itself is the no-op null
implementation; :class:`RecordingTracer` appends :class:`TraceEvent`
records and double-enters them into a
:class:`~repro.obs.registry.MetricsRegistry` (lifecycle counters, TTFT /
TPOT / latency / queue-wait log-histograms, and — at level ``full`` —
sampled per-rank KV / batch / queue-depth time series).

Every request-scoped event is engine-independent: the event and loop
engines emit the *same* kind sequence per request with timestamps equal
to float rounding (``tests/test_obs_equivalence.py`` pins this), which
is what makes the trace a correctness oracle — aggregates recomputed
from it by :func:`repro.obs.replay.replay_result` must match
:func:`repro.serving.metrics.metrics_table` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.obs.registry import MetricsRegistry

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_KINDS",
    "LIFECYCLE_KINDS",
    "CLUSTER_KINDS",
    "FAULT_EVENT_KINDS",
    "TRACE_LEVELS",
    "EventSpec",
    "TraceEvent",
    "Tracer",
    "RecordingTracer",
]


class EventSpec(NamedTuple):
    """One event kind's schema.

    ``scope`` is ``"request"`` (engine-independent, per request),
    ``"rank"`` (a rank-level engine or fault event, ``req_id`` None) or
    ``"cluster"`` (emitted by :mod:`repro.serving.cluster` on the
    synthetic ``rank = -1`` lane).  ``fields`` is the payload, in the
    order the timeline columns follow.  Each ``counters`` entry is a
    registry counter name (bumped by 1) or ``(name, field)`` (bumped by
    that payload value).
    """

    scope: str
    fields: Tuple[str, ...]
    counters: Tuple[Union[str, Tuple[str, str]], ...] = ()


_ARRIVE_FIELDS = ("prompt_tokens", "gen_tokens", "priority", "slo_ttft_s",
                  "session_id", "turn")
_SCALE_UP_FIELDS = ("deployment", "replicas", "cold_start_s", "weight_bytes",
                    "depth", "threshold")

#: Every event kind, in canonical order.  ``t_s`` is the simulation
#: clock at emission (for span-like kinds the *end* of the span).
EVENT_SCHEMA: Dict[str, EventSpec] = {
    # The request joined its rank's queue (t = arrival time).  A retried
    # request arrives again, at its re-submission time, on its new rank.
    "arrive": EventSpec("request", _ARRIVE_FIELDS, ("arrivals",)),
    # KV reserved, prefill scheduled.  ``kv_bytes`` is the reservation
    # actually made (the uncached tail when resuming from a prefix
    # cache), ``kv_full_bytes`` the full logical footprint; ``readmit``
    # marks a re-admission after preemption; ``cached_tokens`` is the
    # prefix-cache outcome (-1 cache disabled, 0 miss, > 0 the resumed
    # depth).
    "admit": EventSpec("request", (
        "kv_bytes", "kv_used_bytes", "readmit", "prefix_tokens",
        "cached_tokens", "kv_full_bytes",
    ), ("admissions",)),
    # KV-pressure eviction of a running request; ``cache_evictable_bytes``
    # is what the prefix cache could still reclaim at this instant — 0
    # by the eviction-before-preemption contract.
    "preempt": EventSpec("request", (
        "kv_bytes", "tokens_out", "cache_evictable_bytes",
    ), ("preemptions",)),
    # The evicted victim re-entered the ready queue.
    "requeue": EventSpec("request", ()),
    # The request can never fit the KV budget.
    "reject": EventSpec("request", ("kv_bytes",), ("rejections",)),
    # One prefill chunk's span (whole prompts are the single-chunk
    # case); the start event carries the chunk's start time.
    "prefill_chunk_start": EventSpec("request", ("done_tokens", "chunk_tokens")),
    "prefill_chunk_end": EventSpec(
        "request", ("chunk_tokens", "latency_s", "energy_j"),
        ("prefill_chunks", ("prefill_tokens", "chunk_tokens")),
    ),
    # The request's first generated token.
    "first_token": EventSpec("request", ()),
    # Admission resumed from a cached KV prefix (paired with its admit
    # event); the ``kv_saved_bytes`` never left MRAM.
    "cache_hit": EventSpec("request", ("cached_tokens", "kv_saved_bytes"),
                           (("kv_saved_bytes", "kv_saved_bytes"),)),
    # A refcount-zero cached prefix (``key`` like ``"sys:2"`` /
    # ``"sess:5:3"``) was dropped under KV pressure — always *before*
    # any preemption at the same decision point.
    "cache_evict": EventSpec("rank", ("key", "depth_tokens", "kv_bytes"),
                             ("cache_evictions",)),
    # One engine decode advance (``full`` level only): the per-token
    # loop emits ``tokens=1`` per iteration, the event engine one
    # multi-token segment per scheduler event.
    "decode_segment": EventSpec(
        "rank", ("batch", "tokens", "latency_s", "energy_j"),
        ("decode_segments",),
    ),
    # Last token produced, KV released.
    "finish": EventSpec("request", ("tokens_out",), ("completions",)),
    # A replica died, losing ``lost_req_ids`` and its KV / cache.
    "fault_crash": EventSpec("rank", ("lost_req_ids", "kv_lost_bytes"),
                             ("crashes",)),
    # A replica froze for ``duration_s`` starting at ``t_s``.
    "fault_stall": EventSpec("rank", ("duration_s",), ("stalls",)),
    # A replica entered a ``factor``x latency window.
    "fault_degrade": EventSpec("rank", ("duration_s", "factor"), ("degrades",)),
    # The router assigned a request to a deployment.
    "route": EventSpec("cluster", ("deployment", "router"), ("routes",)),
    # The autoscaler added a replica, usable after ``cold_start_s``;
    # ``depth`` / ``threshold`` are the queue observation and the
    # per-replica trigger that fired.  The warm kind reuses a retired
    # weights-resident replica (no cold-start broadcast).
    "scale_up": EventSpec("cluster", _SCALE_UP_FIELDS, ("scale_ups",)),
    "scale_up_warm": EventSpec("cluster", _SCALE_UP_FIELDS,
                               ("scale_ups", "scale_ups_warm")),
    # The autoscaler retired an idle replica.
    "scale_down": EventSpec("cluster", (
        "deployment", "replicas", "depth", "threshold",
    ), ("scale_downs",)),
    # The autoscaler replaced crashed replica ``dead_rank`` (cold-start
    # broadcast charged).
    "replace": EventSpec("cluster", (
        "deployment", "replicas", "cold_start_s", "weight_bytes", "dead_rank",
    ), ("replacements",)),
    # A crash-lost request re-entered the cluster (``t_s`` is the
    # re-submission time, after the backoff).
    "retry": EventSpec("cluster", ("deployment", "attempt", "backoff_s"),
                       ("retries",)),
    # A retried request was re-routed away from its dead replica.
    "failover": EventSpec("cluster", ("deployment", "from_rank"),
                          ("failovers",)),
    # The load-shedder dropped a queued low-tier request.
    "shed": EventSpec("cluster", ("deployment", "priority"), ("shed",)),
}

#: Every event kind a rank engine — or the cluster layer above it — can
#: emit.
EVENT_KINDS = tuple(EVENT_SCHEMA)

#: Request-scoped kinds, identical across engines (``decode_segment`` is
#: engine-granularity: per token for the loop, per segment for the event
#: engine; ``cache_evict`` names a cache entry, not a request; the fault
#: kinds are rank-scoped too, and the cluster kinds are not engine
#: events at all).
LIFECYCLE_KINDS = tuple(
    k for k, spec in EVENT_SCHEMA.items() if spec.scope == "request"
)

#: Cluster-scoped kinds: routing decisions, autoscaler actions and the
#: fault recovery loop's retries / failovers / load-sheds.  They carry
#: ``rank = -1`` — the synthetic "cluster" lane — and are ignored by the
#: single-deployment replay oracle.
CLUSTER_KINDS = tuple(
    k for k, spec in EVENT_SCHEMA.items() if spec.scope == "cluster"
)

#: Rank-scoped fault-injection kinds emitted by the event engine when a
#: :class:`~repro.serving.faults.FaultPlan` fires.
FAULT_EVENT_KINDS = tuple(k for k in EVENT_SCHEMA if k.startswith("fault_"))

#: Recording levels: ``lifecycle`` keeps request-scoped events only;
#: ``full`` adds decode segments and sampled per-rank time series (what
#: the replay oracle and the Chrome-trace counter tracks need).
TRACE_LEVELS = ("lifecycle", "full")

# Per kind: ``(counter, payload field or None)`` bumps.
_BUMPS = {
    kind: tuple((c, None) if isinstance(c, str) else c for c in spec.counters)
    for kind, spec in EVENT_SCHEMA.items()
}


@dataclass
class TraceEvent:
    """One typed engine event.

    ``t_s`` is the simulation clock at emission (for span-like kinds the
    *end* of the span; ``prefill_chunk_start`` carries the start).
    ``req_id`` is ``None`` for rank-scoped kinds (``decode_segment``).
    ``data`` holds the kind's payload, keyed by the
    :data:`EVENT_SCHEMA` fields in order.
    """

    kind: str
    t_s: float
    rank: int
    req_id: Optional[int] = None
    data: dict = field(default_factory=dict)


class Tracer:
    """The null tracer: both hooks are no-ops and ``enabled`` is False.

    The engines skip hook calls entirely when ``enabled`` is false (they
    keep ``None`` instead of the tracer), so this class is both the
    do-nothing default and the definition of the hook surface.
    Subclasses override the hooks and set ``enabled``.
    """

    #: Engines only call hooks when this is true.
    enabled = False
    #: Engines only call :meth:`sample` and emit ``decode_segment`` when
    #: this is true (the ``full`` recording level).
    wants_engine_detail = False

    def emit(self, kind: str, t_s: float, rank: int,
             req_id: Optional[int] = None, /, **data) -> None:
        """One event of ``kind``; ``data`` is its :data:`EVENT_SCHEMA`
        payload, passed as keywords in schema order.  The leading
        parameters are positional-only, so each payload keyword goes
        straight into ``data`` without being matched against them."""

    def sample(self, t_s: float, rank: int, kv_used_bytes: int, batch: int,
               queue_depth: int) -> None:
        """Periodic rank snapshot: KV occupancy, batch size, queue depth."""


class RecordingTracer(Tracer):
    """Record engine events and aggregate them into a metric registry.

    ``level`` is one of :data:`TRACE_LEVELS`.  At ``lifecycle`` only
    request-scoped events are kept; ``full`` adds rank-level decode
    segments and the sampled KV / batch / queue-depth time series, which
    the Chrome-trace exporter renders as counter tracks and
    :func:`repro.obs.replay.replay_result` replays into a full
    :class:`~repro.serving.engine.records.ServingResult`.

    Attributes
    ----------
    events:
        Chronological (per rank) :class:`TraceEvent` list.
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` the events are
        double-entered into.
    """

    enabled = True

    def __init__(self, level: str = "full", max_series_samples: int = 4096) -> None:
        if level not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace level {level!r}; expected one of {TRACE_LEVELS}"
            )
        self.level = level
        self.wants_engine_detail = level == "full"
        self.events: List[TraceEvent] = []
        self.registry = MetricsRegistry()
        self._max_series_samples = max_series_samples
        # Per-request (origin arrival_s, gen_tokens, admit_s,
        # first_token_s), kept so finish events can observe the TTFT /
        # TPOT / latency / queue histograms without a second pass.
        self._inflight: Dict[int, List[float]] = {}

    # -- helpers -------------------------------------------------------------

    def events_for(self, req_id: Optional[int]) -> List[TraceEvent]:
        """All recorded events scoped to one request id."""
        return [e for e in self.events if e.req_id == req_id]

    def lifecycle_events(self) -> List[TraceEvent]:
        """Recorded request-scoped events (:data:`LIFECYCLE_KINDS`)."""
        return [e for e in self.events if e.kind in LIFECYCLE_KINDS]

    def lifecycle_by_request(self) -> Dict[int, List[TraceEvent]]:
        """Per-request lifecycle sequences, keyed by request id."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self.lifecycle_events():
            grouped.setdefault(event.req_id, []).append(event)
        return grouped

    # -- hooks ---------------------------------------------------------------

    def emit(self, kind: str, t_s: float, rank: int,
             req_id: Optional[int] = None, /, **data) -> None:
        """Record the event, bump its schema counters and track the
        request's lifecycle stamps for the latency histograms."""
        self.events.append(TraceEvent(kind, t_s, rank, req_id, data))
        reg = self.registry
        for name, value in _BUMPS[kind]:
            reg.counter(name).inc(1 if value is None else data[value])
        if kind == "arrive":
            entry = self._inflight.get(req_id)
            if entry is None:
                self._inflight[req_id] = [t_s, float(data["gen_tokens"]),
                                          -1.0, -1.0]
            else:
                # A retry: keep the origin arrival, restart the attempt.
                entry[2] = entry[3] = -1.0
        elif kind == "admit":
            if data["readmit"]:
                reg.counter("requeues").inc()
                reg.counter("recompute_tokens").inc(data["prefix_tokens"])
            cached = data["cached_tokens"]
            if cached > 0:
                reg.counter("cache_hits").inc()
                reg.counter("cache_hit_tokens").inc(cached)
            elif cached == 0:
                reg.counter("cache_misses").inc()
            reg.gauge(f"rank{rank}/kv_used_bytes").set(float(data["kv_used_bytes"]))
            entry = self._inflight.get(req_id)
            if entry is not None and entry[2] < 0.0:
                entry[2] = t_s
        elif kind == "first_token":
            entry = self._inflight.get(req_id)
            if entry is not None:
                entry[3] = t_s
        elif kind == "decode_segment":
            reg.counter("output_tokens").inc(data["tokens"] * data["batch"])
        elif kind == "finish":
            entry = self._inflight.pop(req_id, None)
            if entry is None:
                return
            arrival, gen_tokens, admit, first = entry
            if first >= 0.0:
                reg.histogram("ttft_s").observe(first - arrival)
            reg.histogram("latency_s").observe(t_s - arrival)
            if admit >= 0.0:
                reg.histogram("queue_s").observe(admit - arrival)
            if first >= 0.0 and gen_tokens >= 2:
                reg.histogram("tpot_s").observe(
                    (t_s - first) / (gen_tokens - 1.0)
                )
        elif kind in ("reject", "shed"):
            self._inflight.pop(req_id, None)

    def sample(self, t_s: float, rank: int, kv_used_bytes: int, batch: int,
               queue_depth: int) -> None:
        """Append one point to each of the rank's sampled time series."""
        cap = self._max_series_samples
        reg = self.registry
        reg.timeseries(f"rank{rank}/kv_bytes", cap).sample(t_s, float(kv_used_bytes))
        reg.timeseries(f"rank{rank}/batch", cap).sample(t_s, float(batch))
        reg.timeseries(f"rank{rank}/queue_depth", cap).sample(t_s, float(queue_depth))
