"""Result records produced by serving simulations.

:class:`RequestRecord` is the per-request outcome (timestamps plus the
derived latency metrics), :class:`RankStats` the per-replica aggregate
counters, and :class:`ServingResult` the bundle a whole simulation
returns — the input type of :mod:`repro.serving.metrics` and of the
cluster layer's per-deployment slices.

It also owns the one record-column format every metric is computed
from: :func:`record_columns` turns any record sequence into it, and
:class:`ColumnRecords` turns it back into records on demand.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.engine.config import ServingConfig

__all__ = ["RequestRecord", "RankStats", "ServingResult", "ColumnRecords",
           "record_columns"]


@dataclass
class RequestRecord:
    """Outcome of one request: timestamps plus the derived serving metrics.

    Timestamps are absolute simulation seconds; ``None`` until the event
    happens (rejected requests never admit).  ``admit_s`` is the *first*
    admission — a preempted request keeps it, and every eviction bumps
    ``preemptions``.  ``cache_hit`` / ``cached_tokens`` describe the
    prefix-cache outcome of that first admission (always miss/0 with the
    cache disabled).

    ``status`` is one of three terminal outcomes: ``"completed"``,
    ``"rejected"`` (infeasible KV footprint) or ``"failed"`` (lost to a
    replica crash with the retry budget exhausted, shed under
    post-failure overload, or stranded on a dead fleet).  ``retries``
    counts crash-driven re-submissions, ``failovers`` the re-routes that
    landed on a different replica than the crashed one, and ``shed``
    marks a request dropped by the load-shedder; all are zero in
    fault-free runs.
    """

    req_id: int
    rank: int
    arrival_s: float
    prompt_tokens: int
    gen_tokens: int
    priority: int = 0
    slo_ttft_s: float = 0.0
    status: str = "completed"
    admit_s: Optional[float] = None
    first_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    preemptions: int = 0
    session_id: int = -1
    turn: int = 0
    cache_hit: bool = False
    cached_tokens: int = 0
    retries: int = 0
    failovers: int = 0
    shed: bool = False

    @property
    def queue_s(self) -> float:
        """Arrival-to-first-admission wait."""
        return (self.admit_s - self.arrival_s) if self.admit_s is not None else 0.0

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival to the first generated token."""
        return (
            (self.first_token_s - self.arrival_s)
            if self.first_token_s is not None
            else 0.0
        )

    @property
    def latency_s(self) -> float:
        """End-to-end request latency (arrival to last token)."""
        return (self.finish_s - self.arrival_s) if self.finish_s is not None else 0.0

    @property
    def tpot_s(self) -> float:
        """Time per output token after the first (0 for 1-token requests)."""
        if self.finish_s is None or self.first_token_s is None or self.gen_tokens < 2:
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.gen_tokens - 1)


#: Record fields, in :class:`RequestRecord` constructor order.
_FIELDS = tuple(f.name for f in fields(RequestRecord))
#: Field defaults, filled in for a column a producer leaves out.
_DEFAULTS = {f.name: f.default for f in fields(RequestRecord)}
#: Timestamps that are ``None`` on a record and NaN in a column.
_TIMESTAMPS = ("admit_s", "first_token_s", "finish_s")
#: Column dtype per field; ``status`` is a numpy string column.
_DTYPES = {name: np.float64 if name.endswith("_s") else np.int64
           for name in _FIELDS}
_DTYPES.update(status=str, cache_hit=bool, shed=bool)


def _since(t: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``t - start``, and 0.0 where ``t`` never happened (NaN)."""
    return np.where(np.isnan(t), 0.0, t - start)


def _complete(columns: Dict[str, Sequence]) -> Dict[str, np.ndarray]:
    """Every field plus the derived metric columns, sorted by ``req_id``.

    Absent fields take their :class:`RequestRecord` default; the sort is
    stable and skipped when the columns are already in order.
    """
    n = len(columns["req_id"])
    cols = {
        name: np.asarray(columns[name], dtype=_DTYPES[name]) if name in columns
        else np.full(n, _DEFAULTS[name], dtype=_DTYPES[name])
        for name in _FIELDS
    }
    req_id = cols["req_id"]
    if n > 1 and bool(np.any(req_id[1:] < req_id[:-1])):
        order = np.argsort(req_id, kind="stable")
        cols = {name: col[order] for name, col in cols.items()}
    # The RequestRecord properties, vectorised with the same arithmetic.
    arrival, gen = cols["arrival_s"], cols["gen_tokens"]
    first, finish = cols["first_token_s"], cols["finish_s"]
    cols["queue_s"] = _since(cols["admit_s"], arrival)
    cols["ttft_s"] = _since(first, arrival)
    cols["tpot_s"] = np.where(
        np.isnan(first) | (gen < 2), 0.0,
        _since(finish, first) / np.maximum(gen - 1, 1),
    )
    cols["latency_s"] = _since(finish, arrival)
    return cols


def record_columns(records: Sequence) -> Dict[str, np.ndarray]:
    """``req_id``-sorted columns of any request-record sequence.

    One array per :class:`RequestRecord` field (``None`` timestamps
    become NaN, ``status`` a string column) plus the derived
    ``queue_s`` / ``ttft_s`` / ``tpot_s`` / ``latency_s`` columns,
    equal to the record properties of the same names.  A
    :class:`ColumnRecords` hands back its arrays without building a
    single record; any other sequence is read once, field by field.

    >>> cols = record_columns([
    ...     RequestRecord(1, 0, 0.5, 8, 1, status="rejected"),
    ...     RequestRecord(0, 0, 0.0, 8, 4, first_token_s=0.5, finish_s=2.0),
    ... ])
    >>> cols["status"].tolist(), cols["tpot_s"].tolist()
    (['completed', 'rejected'], [0.5, 0.0])
    """
    if isinstance(records, ColumnRecords):
        return records.columns
    # numpy stores a None as NaN in a float column.
    return _complete({
        name: np.array([getattr(r, name) for r in records], dtype=_DTYPES[name])
        for name in _FIELDS
    })


class ColumnRecords(Sequence):
    """Request records held as columns, materialised only on demand.

    The structure-of-arrays engine finishes a run holding its outcome as
    numpy columns; building a million :class:`RequestRecord` objects up
    front would cost seconds the caller may never need (the metrics read
    the columns through :func:`record_columns`, the benches only
    aggregate counters).  This sequence keeps the columns and builds
    the record list — sorted by ``req_id``, matching the driver's
    contract — on first element access; ``len()`` stays O(1) and never
    materialises.

    ``columns`` maps :class:`RequestRecord` field names to equal-length
    arrays (timestamps NaN where the event never happened); a field left
    out takes its record default.
    """

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self._raw = columns
        self._columns: Optional[Dict[str, np.ndarray]] = None
        self._items: Optional[List[RequestRecord]] = None

    def __len__(self) -> int:
        return len(self._raw["req_id"])

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The :func:`record_columns` view: complete, sorted, derived."""
        if self._columns is None:
            self._columns = _complete(self._raw)
        return self._columns

    def _materialize(self) -> List[RequestRecord]:
        if self._items is None:
            values = [self.columns[name].tolist() for name in _FIELDS]
            for name in _TIMESTAMPS:
                i = _FIELDS.index(name)
                values[i] = [None if v != v else v for v in values[i]]
            self._items = [RequestRecord(*row) for row in zip(*values)]
        return self._items

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())


@dataclass
class RankStats:
    """Per-replica aggregate counters for one simulation."""

    rank: int
    finish_s: float = 0.0
    busy_s: float = 0.0
    energy_j: float = 0.0
    prefill_tokens: int = 0
    output_tokens: int = 0
    decode_iterations: int = 0
    preemptions: int = 0
    requeues: int = 0
    recompute_tokens: int = 0
    kv_peak_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_hit_tokens: int = 0
    kv_logical_bytes: int = 0
    kv_reserved_bytes: int = 0
    kv_final_bytes: int = 0

    @property
    def utilization(self) -> float:
        """Busy share of the rank's active window."""
        return self.busy_s / self.finish_s if self.finish_s > 0 else 0.0


@dataclass
class ServingResult:
    """Everything a simulation produced, ready for metric aggregation."""

    config: ServingConfig
    records: List[RequestRecord]
    rank_stats: List[RankStats]
    kv_capacity_bytes: int
    weight_bytes: int
    #: Per-rank :class:`~repro.serving.engine.cache.PrefixCache`
    #: instances at drain (empty when the cache is disabled, and for
    #: replayed results).
    prefix_caches: Tuple = ()

    @property
    def makespan_s(self) -> float:
        """Time from trace start until the last rank goes idle."""
        return max((rs.finish_s for rs in self.rank_stats), default=0.0)

    @property
    def total_energy_j(self) -> float:
        """Energy across every replica, in joules."""
        return sum(rs.energy_j for rs in self.rank_stats)

    @property
    def output_tokens(self) -> int:
        """Tokens generated across every replica."""
        return sum(rs.output_tokens for rs in self.rank_stats)

    @property
    def prefill_tokens(self) -> int:
        """Prompt (and recomputed prefix) tokens prefilled across replicas."""
        return sum(rs.prefill_tokens for rs in self.rank_stats)

    @property
    def preemptions(self) -> int:
        """KV-pressure evictions across every replica."""
        return sum(rs.preemptions for rs in self.rank_stats)

    @property
    def cache_hits(self) -> int:
        """Prefix-cache admission hits across every replica."""
        return sum(rs.cache_hits for rs in self.rank_stats)

    @property
    def cache_misses(self) -> int:
        """Prefix-cache admission misses across every replica."""
        return sum(rs.cache_misses for rs in self.rank_stats)

    @property
    def cache_evictions(self) -> int:
        """Prefix-cache entry evictions across every replica."""
        return sum(rs.cache_evictions for rs in self.rank_stats)
