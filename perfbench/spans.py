"""In-memory spans around calls into the program's public layers.

The traced benchmark run wraps public functions and methods of the
``repro`` package at the call boundary (never editing ``src/``) and
records one span per call: name, start, end, parent span and run id.
Spans stay in memory; the worker writes them out after its measured
region.  Per-name totals are exact even when the stored span list is
capped.

A layer is the part of a span name before the first dot
(``routing.select`` belongs to ``routing``).  A span's self time is its
duration minus the time its child spans cover, so the self times of
all spans of one invocation add up to the root span's duration.

The same wrappers inject a slowdown for the benchmark's self-test:
``Recorder(slow={"routing.select": 1.5})`` makes every call of that
name take 1.5x its own time by spinning after it returns.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Recorder", "LAYER_CALLS", "instrument", "wrap_methods"]

#: Public call boundaries per span name: ``(module, attribute)`` where the
#: attribute is a module-level function or ``Class.method``.  Functions
#: are replaced in every ``repro`` module that imported them by name.
LAYER_CALLS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "quant.quantize": (
        ("repro.quant.integer", "IntegerCodec.quantize"),
        ("repro.quant.floating", "MinifloatCodec.quantize"),
    ),
    "kernels.lut_gemm": (("repro.kernels.lut_gemm", "lut_gemm"),),
    "kernels.gemm_cost": (
        ("repro.kernels.cost", "gemm_cost"),
        ("repro.kernels.cost", "batch_gemm_cost"),
    ),
    "model.inference_cost": (("repro.model.cost", "model_inference_cost"),),
    "model.prefill_chunk": (("repro.model.cost", "prefill_chunk_stats"),),
    "model.decode_segment": (
        ("repro.model.cost", "decode_segment_stats"),
        ("repro.model.cost", "decode_step_weight_stats"),
    ),
    "experiments.run_sweep": (("repro.experiments.sweep", "run_sweep"),),
    "experiments.tables": (
        ("repro.experiments.tables", "latency_table"),
        ("repro.experiments.tables", "energy_table"),
        ("repro.experiments.tables", "ablation_table"),
        ("repro.experiments.tables", "cluster_table"),
    ),
    "trace.generate": (("repro.serving.trace", "generate_trace"),),
    "engine.simulate": (("repro.serving.engine.driver", "simulate_trace"),),
    "engine.advance": (
        ("repro.serving.cluster", "Deployment.advance"),
        ("repro.serving.cluster", "Deployment.drain"),
    ),
    "engine.submit": (("repro.serving.cluster", "Deployment.submit"),),
    "cluster.simulate": (("repro.serving.cluster", "simulate_cluster"),),
    "routing.probe": (
        ("repro.serving.cluster", "Deployment.kv_occupancy"),
        ("repro.serving.cluster", "Deployment.queue_depth"),
    ),
    "autoscale.control": (("repro.serving.autoscale", "Autoscaler.control"),),
    "metrics.summary": (
        ("repro.serving.metrics", "summary"),
        ("repro.serving.metrics", "metrics_table"),
        ("repro.serving.metrics", "cluster_summary"),
        ("repro.serving.metrics", "cluster_rows"),
    ),
    "metrics.rows": (
        ("repro.serving.metrics", "record_rows"),
        ("repro.serving.trace", "trace_rows"),
    ),
    "obs.export": (("repro.obs.export", "write_chrome_trace"),),
    "io.write": (
        ("repro.experiments.io", "write_json"),
        ("repro.experiments.io", "write_csv"),
    ),
}


def _spin(seconds: float) -> None:
    """Busy-wait: sleeping would overshoot sub-millisecond delays."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Recorder:
    """Span stack, per-name totals and the stored span list of one run.

    ``enabled=False`` records nothing except calls named in ``slow``,
    which are still wrapped so the slowdown applies to untraced runs.
    """

    def __init__(self, run_id: str, enabled: bool = True,
                 slow: Optional[Dict[str, float]] = None,
                 keep: int = 50_000) -> None:
        self.run_id = run_id
        self.enabled = enabled
        #: Cleared at the end of the measured region: wrapped calls made
        #: afterwards (by the output checks) run unrecorded.
        self.active = True
        self.slow = dict(slow or {})
        self.keep = keep
        #: Stored spans: ``(span_id, parent_id, name, start_s, end_s)``.
        self.spans: List[tuple] = []
        self.dropped = 0
        #: name -> [calls, outermost inclusive seconds, self seconds]
        self.totals: Dict[str, list] = {}
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {}
        self._next_id = 0

    def wants(self, name: str) -> bool:
        """Whether calls named ``name`` need a wrapper in this run."""
        return self.enabled or name in self.slow

    def push(self, name: str, start: Optional[float] = None) -> list:
        """Open a span; returns the frame :meth:`pop` closes."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        frame = [span_id, parent, name,
                 time.perf_counter() if start is None else start, 0.0, depth]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list, end: Optional[float] = None) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        end = time.perf_counter() if end is None else end
        span_id, parent, name, start, child_s, depth = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        self._depth[name] = depth
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        if depth == 0:
            total[1] += duration
        total[2] += duration - child_s
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1
        return duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name`` (and its slowdown)."""
        factor = self.slow.get(name, 1.0)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            frame = recorder.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if factor != 1.0:
                    _spin((factor - 1.0) * (time.perf_counter() - frame[3]))
                recorder.pop(frame)

        return wrapper

    def calls(self, name: str) -> int:
        """Calls recorded under ``name``."""
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        """Seconds inside outermost spans of ``name`` (nesting of the
        same name is not double counted)."""
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        out: Dict[str, float] = {}
        for name, (_, _, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def dump(self) -> dict:
        """JSON-ready spans and totals of this run."""
        return {
            "run_id": self.run_id,
            "fields": ["span_id", "parent_id", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped": self.dropped,
            "totals": {
                name: {"calls": c, "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.totals.items())
            },
        }


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def instrument(recorder: Recorder) -> None:
    """Wrap the :data:`LAYER_CALLS` boundaries the recorder wants.

    Only modules already imported are instrumented, so a workload
    never pays the import of a layer it does not use.
    """
    for name, calls in LAYER_CALLS.items():
        if not recorder.wants(name):
            continue
        for module_name, attr in calls:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, recorder.wrap(name, getattr(cls, method)))
            else:
                original = getattr(module, attr)
                _replace_everywhere(original, recorder.wrap(name, original))


def wrap_methods(recorder: Recorder, name: str, obj,
                 methods: Iterable[str]) -> None:
    """Wrap bound methods of one instance (a delegating router or a
    recording tracer) in spans named ``name``."""
    if not recorder.wants(name):
        return
    for method in methods:
        setattr(obj, method, recorder.wrap(name, getattr(obj, method)))
