"""One invocation of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per measured invocation::

    python3 perfbench/workload.py WORKLOAD --seed N --input I --out DIR \\
        [--traced] [--slow NAME=FACTOR]

It builds the invocation's inputs from ``(seed, input)``, drives them
through the public ``repro`` API exactly as a user script would, writes
the workload's output files under ``DIR``, and only then (outside the
measured region) checks the outputs and derives the simulated metrics.
The last stdout line is one JSON object: monotonic-clock marks that
``run.py`` turns into ``wall_s`` / ``setup_s``, host and simulated
metrics, request counts and the list of failed checks.

``--traced`` wraps every layer boundary in spans (see ``spans.py``) and
adds the per-layer metrics; ``--slow`` injects a slowdown into one named
call for the benchmark's self-test.  A run the program aborts is
reported, not raised: every submitted request counts as failed and the
traceback goes to stderr, which ``run.py`` keeps.
"""

import time

T_MAIN = time.monotonic()
P_MAIN = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent

def load_workloads() -> dict:
    """The recorded workload definitions (sizes, rates, SLO limits)."""
    return json.loads((HERE / "workloads.json").read_text())


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th distinct input of a run with ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def trace_spec(shape: dict, num_requests: int, rate: float, seed: int):
    """A :class:`TraceSpec` for one workload's request shape."""
    from repro.serving.trace import TraceSpec

    shape = dict(shape)
    if shape.get("scenario") == "conversational":
        # Mean four turns per session: sessions scale with the trace.
        shape["sessions"] = max(1, round(num_requests / shape["turns_mean"]))
    return TraceSpec(num_requests=num_requests, arrival_rate_per_s=rate,
                     seed=seed, **shape)


def build_fleet(cfg: dict) -> list:
    """Fresh :class:`Deployment` objects for a cluster workload."""
    from repro.serving.cluster import Deployment
    from repro.serving.engine.config import ServingConfig

    deployments = []
    for count, model, scheme, ranks, tier in cfg["fleet"]:
        config = ServingConfig(model=model, scheme=scheme, num_ranks=ranks,
                               engine=cfg["engine"],
                               prefix_cache=cfg["prefix_cache"])
        for _ in range(count):
            deployments.append(Deployment(
                config, name=f"d{len(deployments)}-{model}", tier=tier))
    return deployments


class Invocation:
    """State of one measured invocation: marks, counts and results."""

    def __init__(self, args, cfg: dict, recorder: spans.Recorder) -> None:
        self.cfg = cfg
        self.seed = input_seed(args.seed, args.input)
        self.out = Path(args.out)
        self.rec = recorder
        self.t_ready = None
        self.t_end = None
        self.p_end = None
        self.lookups = 0
        self.profiler = None
        self.core_s = 0.0
        self.core_spans = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.sim = {}
        self.layer = {}

    def ready(self) -> None:
        """Mark the end of set-up: inputs and engines exist."""
        self.t_ready = time.monotonic()

    def end(self) -> None:
        """Mark the end of the measured region: last output written.

        Calls the checks make afterwards are not recorded as spans.
        """
        self.t_end = time.monotonic()
        self.p_end = time.perf_counter()
        self.rec.active = False

    def core(self, fn, *args, **kwargs):
        """Call the workload's simulate / sweep call, timing it."""
        mono = time.monotonic()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.core_s += time.perf_counter() - start
        self.core_spans.append((mono, time.monotonic()))
        return result

    def check(self, ok: bool, message: str) -> None:
        """Record ``message`` as a failed check unless ``ok``."""
        if not ok:
            self.checks.append(message)

    def output_bytes(self) -> int:
        """Bytes of every file the invocation wrote."""
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())


# -- shared statistics -------------------------------------------------------


def pct(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0 when empty."""
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def geomean(values) -> float:
    """Geometric mean; 0 when empty."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    return float(np.exp(np.log(values).mean())) if len(values) else 0.0


def littles_law_error(arrivals, finishes) -> float:
    """Relative gap between the time-averaged number in system and
    λ·W for one server group; ``inf`` if the in-system count ever goes
    negative (a finish before its arrival).

    ``L`` is integrated exactly from the arrival/finish step function
    over the group's busy horizon, independently of the mean latency.
    """
    import numpy as np

    arrivals = np.asarray(arrivals, dtype=float)
    finishes = np.asarray(finishes, dtype=float)
    if len(arrivals) == 0:
        return 0.0
    times = np.concatenate([arrivals, finishes])
    steps = np.concatenate([np.ones(len(arrivals)), -np.ones(len(finishes))])
    order = np.lexsort((-steps, times))  # arrivals first at equal times
    times, steps = times[order], steps[order]
    in_system = np.cumsum(steps)
    if in_system.min() < 0 or in_system[-1] != 0:
        return math.inf
    horizon = times[-1] - times[0]
    if horizon <= 0:
        return 0.0
    area = float(np.sum(in_system[:-1] * np.diff(times)))
    lam = len(arrivals) / horizon
    mean_latency = float(np.mean(finishes - arrivals))
    expected = lam * mean_latency
    return abs(area / horizon - expected) / expected if expected > 0 else 0.0


#: Relative tolerance of the Little's-law check: both sides integrate
#: the same timestamps, so only float rounding may separate them.
LITTLE_TOL = 1e-6


def serving_sims(inv: Invocation, records, submitted: int, makespan: float,
                 energy_j: float, rank_stats, groups, slo: dict) -> dict:
    """Checks and simulated metrics of one serving result.

    ``groups`` maps a record's rank to its Little's-law group (the
    deployment).  Latencies count from each request's scheduled arrival.
    """
    import numpy as np

    status = np.array([r.status for r in records])
    completed = [r for r in records if r.status == "completed"]
    n_done = len(completed)
    rejected = int(np.sum(status == "rejected"))
    failed = int(np.sum(status == "failed"))
    inv.check(n_done + rejected + failed == submitted,
              f"conservation: {n_done}+{rejected}+{failed} != {submitted}")
    inv.check(len({r.req_id for r in records}) == len(records),
              "duplicate request records")
    ttft = np.array([r.ttft_s for r in completed])
    tpot = np.array([r.tpot_s for r in completed if r.gen_tokens >= 2])
    latency = np.array([r.latency_s for r in completed])
    for label, values in (("ttft", ttft), ("tpot", tpot), ("latency", latency)):
        p50, p95, p99 = (pct(values, q) for q in (50, 95, 99))
        inv.check(p50 <= p95 <= p99, f"{label} percentiles out of order")
    by_group = {}
    for r in completed:
        arr, fin = by_group.setdefault(groups(r.rank), ([], []))
        arr.append(r.arrival_s)
        fin.append(r.finish_s)
    for group, (arr, fin) in sorted(by_group.items()):
        err = littles_law_error(arr, fin)
        inv.check(err <= LITTLE_TOL,
                  f"Little's law off by {err:.3g} on group {group}")
    out_tokens = sum(r.gen_tokens for r in completed)
    met = sum(1 for r in completed
              if r.ttft_s <= slo["ttft_s"] and r.tpot_s <= slo["tpot_s"])
    queue = np.array([r.queue_s for r in completed])
    decode_iters = sum(rs.decode_iterations for rs in rank_stats)
    thirds = np.array_split(
        np.array([r.queue_s for r in sorted(completed, key=lambda r: r.arrival_s)]),
        3)
    return {
        "completed": n_done,
        "rejected": rejected,
        "failed": failed,
        "sim_ttft_p50_s": pct(ttft, 50),
        "sim_ttft_p99_s": pct(ttft, 99),
        "sim_tpot_p50_s": pct(tpot, 50),
        "sim_tpot_p99_s": pct(tpot, 99),
        "sim_goodput_tok_per_s": out_tokens / makespan if makespan > 0 else 0.0,
        "sim_energy_per_token_mj": (
            1e3 * energy_j / out_tokens if out_tokens else 0.0),
        "sim_slo_attainment": met / submitted if submitted else 0.0,
        "queue_wait_p50_s": pct(queue, 50),
        "queue_wait_p99_s": pct(queue, 99),
        "batch_mean": (sum(rs.output_tokens for rs in rank_stats) / decode_iters
                       if decode_iters else 0.0),
        "preemptions": sum(rs.preemptions for rs in rank_stats),
        # Backlog growth: mean queue wait of the last third of arrivals
        # over the middle third.
        "backlog_growth": (float(thirds[2].mean() / thirds[1].mean())
                           if len(completed) >= 3 and thirds[1].mean() > 0
                           else 1.0),
    }


def cache_sims(rank_stats, prompt_tokens: int) -> dict:
    """Prefix-cache layer metrics summed over the replicas."""
    hits = sum(rs.cache_hits for rs in rank_stats)
    misses = sum(rs.cache_misses for rs in rank_stats)
    logical = sum(rs.kv_logical_bytes for rs in rank_stats)
    reserved = sum(rs.kv_reserved_bytes for rs in rank_stats)
    return {
        "cache.sim_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.sim_hit_tokens_frac": (
            sum(rs.cache_hit_tokens for rs in rank_stats) / prompt_tokens
            if prompt_tokens else 0.0),
        "cache.sim_evictions": sum(rs.cache_evictions for rs in rank_stats),
        "cache.sim_dedup_factor": logical / reserved if reserved else 0.0,
    }


def lut_vs_naive(models, trace, max_batch: int = 16) -> float:
    """Geomean cost-model speedup of LUT-GEMM over the naive PIM GEMM for
    the served models at the trace's mean request shape."""
    from repro.model.config import get_model_config
    from repro.model.cost import model_inference_cost
    from repro.model.policy import SchemePolicy
    from repro.pim.upmem import UpmemConfig, UpmemSystem

    ratios = []
    for model, scheme in sorted(set(models)):
        cost = {
            kernel: model_inference_cost(
                get_model_config(model), SchemePolicy(scheme), batch=max_batch,
                prefill_tokens=round(sum(r.prompt_tokens for r in trace) / len(trace)),
                decode_tokens=round(sum(r.gen_tokens for r in trace) / len(trace)),
                system=UpmemSystem(UpmemConfig(num_ranks=1)), kernel=kernel,
            ).total_s
            for kernel in ("naive_pim_gemm", "lut_gemm")
        }
        ratios.append(cost["naive_pim_gemm"] / cost["lut_gemm"])
    return geomean(ratios)


# -- workloads -----------------------------------------------------------------


def paper_kernels(inv: Invocation) -> None:
    """The paper's sweep (all models x schemes x ablation ladder) written
    as JSON, then functional LUT-GEMM on real decode-step operands."""
    import numpy as np

    from repro.experiments.io import write_json
    from repro.experiments.sweep import SweepSpec, run_sweep, spec_dict, stats_dict
    from repro.experiments.tables import ablation_table, energy_table, latency_table
    from repro.kernels import COST_KERNELS, gemm_cost, lut_gemm, quantize_gemm_operands
    from repro.model.config import get_model_config
    from repro.pim.buffer import BufferOverflowError
    from repro.pim.upmem import UpmemConfig, UpmemSystem
    from repro.quant import IntegerCodec, get_scheme, list_schemes

    cfg = inv.cfg
    rng = np.random.default_rng(inv.seed)
    lo, hi = cfg["decode_tokens_range"]
    schemes = tuple(list_schemes())
    # Prompt lengths move up by a seeded [0, jitter) tokens so the
    # simulated latencies depend on the seed; 2048 sits on the bank
    # capacity boundary of the larger models and is not moved, so every
    # seed has the same supported points.
    prefill_lens = tuple(
        length + int(rng.integers(jitter)) if jitter else length
        for length, jitter in zip(cfg["prefill_lens"], cfg["prefill_jitter"]))
    spec = SweepSpec(
        models=tuple(cfg["models"]), schemes=schemes, kernels=COST_KERNELS,
        batch_sizes=tuple(cfg["batch_sizes"]), prefill_lens=prefill_lens,
        decode_tokens=int(rng.integers(lo, hi + 1)),
        num_ranks=tuple(cfg["num_ranks"]),
    )
    m = cfg["functional_rows"]
    shapes = get_model_config(cfg["functional_model"]).projection_shapes()
    operands = {name: (rng.standard_normal((m, k)), rng.standard_normal((k, n)))
                for name, (k, n) in shapes.items()}
    system = UpmemSystem(UpmemConfig(num_ranks=1))
    inv.items = spec.grid_size
    inv.attempted = spec.grid_size + len(schemes) * len(shapes)
    inv.ready()

    rows = inv.core(run_sweep, spec)
    tables = {"latency": latency_table(rows), "energy": energy_table(rows),
              "ablation": ablation_table(rows)}
    write_json(str(inv.out / "sweep.json"),
               {"spec": spec_dict(spec), "rows": rows, "tables": tables})
    functional = []
    for scheme_name in schemes:
        scheme = get_scheme(scheme_name)
        for proj, (a, w) in operands.items():
            a_q, w_q = quantize_gemm_operands(a, w, scheme)
            try:
                res = lut_gemm(a_q, w_q, system=system)
                status = "ok"
            except BufferOverflowError:
                res, status = None, "unsupported"
            functional.append((scheme_name, proj, a_q, w_q, res, status))
    write_json(str(inv.out / "functional.json"), {"rows": [
        {"scheme": s, "projection": p, "m": m, "status": st,
         "stats": stats_dict(r.stats) if r is not None else None}
        for s, p, _, _, r, st in functional]})
    inv.end()

    # Checks and simulated metrics (outside the measured region).
    mismatches = 0
    lookups = 0
    for scheme_name, proj, a_q, w_q, res, status in functional:
        scheme = get_scheme(scheme_name)
        if scheme_name == "W8A8":
            inv.check(status == "unsupported", f"W8A8 lut_gemm {proj} ran")
        if res is None:
            continue
        lookups += res.stats.n_lookups
        k, n = shapes[proj]
        inv.check(gemm_cost(scheme, m, k, n, system=system) == res.stats,
                  f"gemm_cost != lut_gemm stats for {scheme_name} {proj}")
        if (isinstance(scheme.activation_codec, IntegerCodec)
                and isinstance(scheme.weight_codec, IntegerCodec)):
            ref = (a_q.codes - a_q.zero_point) @ w_q.codes
            if not np.array_equal(res.accumulator, ref):
                mismatches += 1
    inv.check(mismatches == 0, f"{mismatches} lut_gemm accumulators not bit-exact")
    inv.lookups = lookups
    inv.failed = mismatches
    by_point = {}
    for r in rows:
        key = (r["model"], r["scheme"], r["batch"], r["prefill_tokens"], r["num_ranks"])
        by_point.setdefault(key, {})[r["kernel"]] = r
        if r["scheme"] == "W8A8" and r["kernel"] != "naive_pim_gemm":
            inv.check(r["status"] == "unsupported", f"W8A8 sweep point ran: {key}")
    speedups = []
    for key, point in by_point.items():
        ok = [point[k]["total_s"] for k in COST_KERNELS if point[k]["status"] == "ok"]
        inv.check(all(x > y for x, y in zip(ok, ok[1:])),
                  f"naive > software_reorder > lut_gemm violated at {key}")
        if point["naive_pim_gemm"]["status"] == point["lut_gemm"]["status"] == "ok":
            speedups.append(point["naive_pim_gemm"]["total_s"]
                            / point["lut_gemm"]["total_s"])
    lut_rows = [r for r in rows if r["kernel"] == "lut_gemm" and r["status"] == "ok"]
    ttft = [r["prefill"]["latency"]["total_s"] for r in lut_rows]
    tpot = [r["decode"]["latency"]["total_s"] / r["decode_tokens"] for r in lut_rows]
    out_tokens = [r["batch"] * r["decode_tokens"] for r in lut_rows]
    inv.sim = {
        "sim_ttft_p50_s": pct(ttft, 50),
        "sim_ttft_p99_s": pct(ttft, 99),
        "sim_tpot_p50_s": pct(tpot, 50),
        "sim_tpot_p99_s": pct(tpot, 99),
        "sim_goodput_tok_per_s": sum(out_tokens) / sum(r["total_s"] for r in lut_rows),
        "sim_energy_per_token_mj": geomean([
            1e3 * r["decode"]["energy"]["total_j"] / t
            for r, t in zip(lut_rows, out_tokens)]),
        "sim_lut_vs_naive_speedup": geomean(speedups),
    }
    fig14 = {name: 0.0 for name in ("lut_load", "compute", "reorder", "dma", "host")}
    counts = {"n_lut_entry_pairs": 0, "dram_activations": 0, "wram_peak_bytes": 0}
    for r in lut_rows:
        for phase in ("prefill", "decode"):
            latency = r[phase]["latency"]
            for name in fig14:
                fig14[name] += latency[f"{name}_s"]
            counts["n_lut_entry_pairs"] += latency["n_lut_entry_pairs"]
            counts["dram_activations"] += latency["dram_activations"]
            counts["wram_peak_bytes"] = max(counts["wram_peak_bytes"],
                                            latency["wram_peak_bytes"])
    inv.layer = {
        **{f"pim.sim_{name}_s": value for name, value in fig14.items()},
        "pim.sim_lut_entry_pairs": counts["n_lut_entry_pairs"],
        "pim.sim_dram_activations": counts["dram_activations"],
        "pim.sim_wram_peak_bytes": counts["wram_peak_bytes"],
        "kernels.bitexact_mismatches": mismatches,
        "experiments.unsupported_points": sum(r["status"] != "ok" for r in rows),
    }


def serve_steady(inv: Invocation) -> None:
    """One SoA deployment under Poisson traffic at three fixed rates."""
    from repro.experiments.io import write_json
    from repro.serving.engine.config import ServingConfig
    from repro.serving.engine.driver import simulate_trace
    from repro.serving.metrics import metrics_table, summary
    from repro.serving.trace import generate_trace

    cfg = inv.cfg
    cal = cfg["calibrated"]
    n = cfg["requests_per_rate"]
    # One seed for all rates: the traces hold the same requests, with
    # arrival times scaled by the rate.
    traces = [generate_trace(trace_spec(cfg["trace"], n, rate, inv.seed))
              for rate in cal["arrival_rates_per_s"]]
    config = ServingConfig(**cfg["deployment"])
    inv.items = inv.attempted = n * len(traces)
    inv.ready()

    results = [inv.core(simulate_trace, trace, config) for trace in traces]
    write_json(str(inv.out / "serving.json"), {"runs": [
        {"arrival_rate_per_s": rate, "summary": summary(res),
         "metrics": metrics_table(res)}
        for rate, res in zip(cal["arrival_rates_per_s"], results)]})
    inv.end()

    slo = {"ttft_s": cal["slo_ttft_s"], "tpot_s": cal["slo_tpot_s"]}
    per_rate = [
        serving_sims(inv, res.records, n, res.makespan_s, res.total_energy_j,
                     res.rank_stats, lambda rank: "deployment", slo)
        for res in results
    ]
    inv.failed = sum(s["rejected"] + s["failed"] for s in per_rate)
    p99s = [s["sim_ttft_p99_s"] for s in per_rate]
    inv.check(all(a <= b for a, b in zip(p99s, p99s[1:])),
              f"p99 TTFT decreases as load rises: {p99s}")
    passing = [rate for rate, s in zip(cal["arrival_rates_per_s"], per_rate)
               if s["sim_slo_attainment"] >= cal["slo_share"]
               and s["backlog_growth"] <= cal["backlog_growth_max"]]
    at = cfg["rho"].index(cfg["report_rho"])
    report, res = per_rate[at], results[at]
    inv.sim = {k: v for k, v in report.items() if k.startswith("sim_")}
    inv.sim["sim_lut_vs_naive_speedup"] = lut_vs_naive(
        [(config.model, config.scheme)], traces[at], config.max_batch)
    stats = res.rank_stats
    inv.layer = {
        "slo.sim_max_rate_req_per_s": max(passing, default=0.0),
        "slo.sim_attainment": report["sim_slo_attainment"],
        **engine_sims(report, res.kv_capacity_bytes, stats, n),
        **cache_sims(stats, sum(r.prompt_tokens for r in traces[at])),
        "trace.requests": inv.items,
        "trace.prompt_tokens_mean": (
            sum(r.prompt_tokens for t in traces for r in t) / inv.items),
    }


def engine_sims(sims: dict, kv_capacity: int, rank_stats, submitted: int) -> dict:
    """Engine layer metrics of one serving result."""
    return {
        "engine.sim_queue_wait_p50_s": sims["queue_wait_p50_s"],
        "engine.sim_queue_wait_p99_s": sims["queue_wait_p99_s"],
        "engine.sim_batch_mean": sims["batch_mean"],
        "engine.sim_kv_peak_frac": max(
            (rs.kv_peak_bytes for rs in rank_stats), default=0) / kv_capacity,
        "engine.sim_preemptions": sims["preemptions"],
        "engine.submitted": submitted,
        "engine.completed": sims["completed"],
        "engine.rejected": sims["rejected"],
        "engine.failed": sims["failed"],
    }


def _cluster(inv: Invocation, chaos: bool) -> None:
    """Shared body of the two cluster workloads."""
    from repro.experiments.io import write_json
    from repro.experiments.tables import cluster_table
    from repro.serving.cluster import simulate_cluster
    from repro.serving.metrics import (
        cluster_rows, cluster_summary, record_rows)
    from repro.serving.routing import get_router
    from repro.serving.trace import generate_trace, trace_rows

    cfg = inv.cfg
    cal = cfg["calibrated"]
    n = cfg["requests"]
    spec = trace_spec(cfg["trace"], n, cal["arrival_rate_per_s"], inv.seed)
    trace = generate_trace(spec)
    deployments = build_fleet(cfg)
    router = (get_router(cfg["router"], seed=inv.seed) if cfg["router"] == "p2c"
              else get_router(cfg["router"]))
    spans.wrap_methods(inv.rec, "routing.select", router, ("select",))
    kwargs = {}
    tracer = None
    if chaos:
        from repro.obs import RecordingTracer, Tracer
        from repro.serving.autoscale import Autoscaler, AutoscalerConfig
        from repro.serving.faults import FaultPlan, RetryPolicy

        faults = cfg["faults"]
        horizon = max(r.arrival_s for r in trace)
        kwargs = {
            "faults": FaultPlan.sample(
                seed=inv.seed,
                ranks=range(sum(d.config.num_ranks for d in deployments)),
                horizon_s=horizon, crash_rate=faults["crash_rate"],
                stall_s=faults["stall_s"]),
            "retry_policy": RetryPolicy(
                max_retries=faults["retry_max"],
                backoff_base_s=faults["retry_backoff_s"], seed=inv.seed),
            "autoscaler": Autoscaler(AutoscalerConfig(
                max_replicas=cfg["autoscale"]["max_replicas"],
                interval_s=cfg["autoscale"]["interval_s"])),
        }
        tracer = RecordingTracer(cfg["trace_level"])
        # Every public hook of the tracer interface is a recording call.
        hooks = [name for name, value in vars(Tracer).items()
                 if callable(value) and not name.startswith("_")]
        spans.wrap_methods(inv.rec, "obs.record", tracer, hooks)
        kwargs["tracer"] = tracer
    if inv.rec.enabled:
        from repro.obs import SelfProfiler

        inv.profiler = kwargs["profiler"] = SelfProfiler()
    inv.items = inv.attempted = n
    inv.ready()

    res = inv.core(simulate_cluster, trace, deployments, router=router, **kwargs)
    rows = cluster_rows(res)
    table = cluster_table(rows)
    flat = cluster_summary(res)
    write_json(str(inv.out / "cluster.json"), {
        "trace_spec": {"num_requests": n, "seed": spec.seed,
                       "arrival_rate_per_s": spec.arrival_rate_per_s,
                       "scenario": spec.scenario},
        "summary": flat, "deployments": rows, "metrics": table,
        "scale_events": res.scale_events, "fault_events": res.fault_events,
        "requests": record_rows(res), "trace": trace_rows(trace),
    })
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(str(inv.out / "trace.json"), tracer)
    inv.end()

    owner = {}
    stats = []
    for index, dep in enumerate(res.deployments):
        stats.extend(dep.serving.rank_stats)
        for rs in dep.serving.rank_stats:
            owner[rs.rank] = index
    sims = serving_sims(inv, res.records, n, res.makespan_s, res.total_energy_j,
                        stats, owner.get, {"ttft_s": cal["slo_ttft_s"],
                                           "tpot_s": cal["slo_tpot_s"]})
    inv.failed = sims["rejected"] + sims["failed"]
    inv.sim = {k: v for k, v in sims.items() if k.startswith("sim_")}
    inv.sim["sim_lut_vs_naive_speedup"] = lut_vs_naive(
        [(d.config.model, d.config.scheme) for d in deployments], trace)
    # Session turns after the first should land where the session's
    # earlier turns (and so their cached prefix) live.
    first_owner = {}
    followers = stuck = 0
    for r in sorted(res.records, key=lambda r: (r.session_id, r.turn)):
        if r.session_id < 0 or r.rank not in owner:
            continue
        if r.turn == 0:
            first_owner[r.session_id] = owner[r.rank]
        elif r.session_id in first_owner:
            followers += 1
            stuck += owner[r.rank] == first_owner[r.session_id]
    busy = [rs.busy_s for rs in stats if rs.busy_s > 0]
    inv.layer = {
        "slo.sim_attainment": sims["sim_slo_attainment"],
        **engine_sims(sims, max(d.kv_capacity for d in deployments), stats, n),
        **cache_sims(stats, sum(r.prompt_tokens for r in trace)),
        "routing.sim_prefix_affinity": stuck / followers if followers else 0.0,
        "cluster.sim_load_imbalance": (
            max(busy) / (sum(busy) / len(busy)) if busy else 0.0),
        "faults.sim_crashes": flat["crashes"],
        "faults.sim_retries": flat["retries"],
        "faults.sim_failovers": flat["failovers"],
        "faults.sim_shed": flat["shed"],
        "faults.sim_recovery_time_s": flat["recovery_time_s"],
        "faults.sim_unavailability_s": flat["unavailability_s"],
        "autoscale.sim_scale_ups": flat["scale_ups"],
        "autoscale.sim_cold_start_s": flat["cold_start_s"],
        "obs.events": len(tracer.events) if tracer is not None else 0,
        "trace.requests": n,
        "trace.prompt_tokens_mean": sum(r.prompt_tokens for r in trace) / n,
    }
    if chaos:
        inv.layer["obs.trace_mb"] = (inv.out / "trace.json").stat().st_size / 1e6


def cluster_chat(inv: Invocation) -> None:
    """Fault-free chat fleet: least-KV routing, prefix cache, sessions."""
    _cluster(inv, chaos=False)


def cluster_chaos(inv: Invocation) -> None:
    """Bursty fleet with crashes, stalls, retries, autoscaling, p2c and
    the program's own full Chrome trace."""
    _cluster(inv, chaos=True)


WORKLOADS = {
    "paper_kernels": paper_kernels,
    "serve_steady": serve_steady,
    "cluster_chat": cluster_chat,
    "cluster_chaos": cluster_chaos,
}

#: Modules each workload imports during set-up (the layers it loads).
IMPORTS = {
    "paper_kernels": ("repro.experiments.sweep", "repro.experiments.io",
                      "repro.experiments.tables", "repro.kernels",
                      "repro.quant", "repro.model.cost"),
    "serve_steady": ("repro.serving.engine.driver", "repro.serving.metrics",
                     "repro.serving.trace", "repro.experiments.io",
                     "repro.model.cost"),
    "cluster_chat": ("repro.serving.cluster", "repro.serving.metrics",
                     "repro.serving.routing", "repro.serving.trace",
                     "repro.experiments.io", "repro.experiments.tables",
                     "repro.obs", "repro.model.cost"),
}
IMPORTS["cluster_chaos"] = IMPORTS["cluster_chat"] + (
    "repro.serving.autoscale", "repro.serving.faults")


def layer_metrics(inv: Invocation) -> dict:
    """Per-layer host metrics from the recorder's spans."""
    rec = inv.rec
    layers = rec.layer_self_s()
    lut_s = rec.inclusive_s("kernels.lut_gemm")
    simulate_s = (rec.inclusive_s("engine.simulate")
                  + rec.inclusive_s("cluster.simulate"))
    profile = inv.profiler
    phases = profile.phase_s if profile is not None else {}
    phase_calls = profile.phase_calls if profile is not None else {}
    out = {
        "quant.quantize_s": rec.inclusive_s("quant.quantize"),
        "quant.quantize_calls": rec.calls("quant.quantize"),
        "kernels.lut_gemm_s": lut_s,
        "kernels.lut_gemm_calls": rec.calls("kernels.lut_gemm"),
        "kernels.lookups_per_s": inv.lookups / lut_s if lut_s else 0.0,
        "kernels.gemm_cost_s": rec.inclusive_s("kernels.gemm_cost"),
        "kernels.gemm_cost_calls": rec.calls("kernels.gemm_cost"),
        "model.inference_cost_s": rec.inclusive_s("model.inference_cost"),
        "model.inference_cost_calls": rec.calls("model.inference_cost"),
        "model.prefill_chunk_s": rec.inclusive_s("model.prefill_chunk"),
        "model.prefill_chunk_calls": rec.calls("model.prefill_chunk"),
        "model.decode_segment_s": rec.inclusive_s("model.decode_segment"),
        "model.decode_segment_calls": rec.calls("model.decode_segment"),
        "experiments.run_sweep_s": rec.inclusive_s("experiments.run_sweep"),
        "experiments.tables_s": rec.inclusive_s("experiments.tables"),
        "trace.generate_s": rec.inclusive_s("trace.generate"),
        "engine.simulate_s": simulate_s,
        "engine.us_per_request": 1e6 * simulate_s / inv.items if simulate_s else 0.0,
        "routing.select_s": rec.inclusive_s("routing.select"),
        "routing.select_calls": rec.calls("routing.select"),
        "routing.probe_calls": rec.calls("routing.probe"),
        "cluster.self_s": layers.get("cluster", 0.0),
        "autoscale.control_s": rec.inclusive_s("autoscale.control"),
        "metrics.summary_s": rec.inclusive_s("metrics.summary"),
        "metrics.rows_s": rec.inclusive_s("metrics.rows"),
        "obs.record_overhead_s": rec.inclusive_s("obs.record"),
        "obs.export_s": rec.inclusive_s("obs.export"),
        "io.write_s": rec.inclusive_s("io.write"),
        "io.mb_written": inv.output_bytes() / 1e6,
    }
    for phase in ("admission", "prefill", "decode", "segment_costing"):
        out[f"engine.{phase}_s"] = phases.get(phase, 0.0)
        out[f"engine.{phase}_calls"] = phase_calls.get(phase, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return out


#: Layers whose self time the traced run reports; ``bench`` is the
#: benchmark's own share (interpreter start, imports, glue).
LAYERS = ("quant", "kernels", "model", "experiments", "trace", "engine",
          "routing", "cluster", "autoscale", "metrics", "obs", "io", "bench")


def parse_slow(items) -> dict:
    """``["name=factor", ...]`` as ``{name: factor}``."""
    slow = {}
    for item in items or ():
        name, _, factor = item.partition("=")
        slow[name] = float(factor)
    return slow


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--slow", action="append", metavar="NAME=FACTOR")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rec = spans.Recorder(f"{args.workload}-{args.seed}-{args.input}",
                         enabled=args.traced, slow=parse_slow(args.slow))
    root = rec.push("bench.invocation", start=P_MAIN)
    inv = Invocation(args, load_workloads()[args.workload], rec)
    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    t_imported = time.monotonic()
    spans.instrument(rec)
    aborted = None
    try:
        WORKLOADS[args.workload](inv)
    except Exception as exc:  # the program aborted the run: report it
        traceback.print_exc()
        aborted = f"{type(exc).__name__}: {exc}"
        inv.failed = inv.attempted = max(inv.attempted, 1)
    rec.pop(root, end=inv.p_end or time.perf_counter())
    result = {
        "t_main": T_MAIN,
        "t_imported": t_imported,
        "t_ready": inv.t_ready,
        "t_end": inv.t_end,
        "core_s": inv.core_s,
        "core_spans": inv.core_spans,
        "items": inv.items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_mb": inv.output_bytes() / 1e6,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "aborted": aborted,
        "checks": inv.checks,
        "sim": inv.sim,
        "layer": inv.layer,
        "input_seed": inv.seed,
        "numpy": sys.modules["numpy"].__version__,
    }
    if args.traced and aborted is None:
        result["layer"].update(layer_metrics(inv))
        (out / "spans.json").write_text(json.dumps(rec.dump()))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
