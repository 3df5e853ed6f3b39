"""Derive the serving workloads' offered load and SLO limits.

Offered load is a utilisation ρ of each deployment's service capacity,
computed once from the public cost model: a replica serves ``max_batch``
requests of the trace's mean shape (prompt and generation tokens) in
``model_inference_cost(batch=max_batch).total_s``, so capacity is
``replicas * max_batch / total_s`` summed over the fleet.  The SLO
limits are fixed multiples of the unloaded TTFT and TPOT of the
slowest served model at the same mean shape.

The benchmark reads only the numbers this script records under each
workload's ``calibrated`` key in ``workloads.json``, so a later change
to the cost model cannot silently move the offered load.  Re-running it
is a deliberate benchmark change::

    PYTHONPATH=src python3 perfbench/calibrate.py          # print
    PYTHONPATH=src python3 perfbench/calibrate.py --write  # record
"""

import argparse
import json
import sys

import workload

#: Calibration trace: long enough that the mean shape is stable.
CAL_REQUESTS = 20_000
CAL_SEED = 0
MAX_BATCH = 16


def mean_shape(shape: dict) -> dict:
    """Mean prompt and generation tokens of a long calibration trace."""
    from repro.serving.trace import generate_trace

    trace = generate_trace(workload.trace_spec(shape, CAL_REQUESTS, 1.0, CAL_SEED))
    return {
        "prompt_tokens": round(sum(r.prompt_tokens for r in trace) / len(trace)),
        "gen_tokens": round(sum(r.gen_tokens for r in trace) / len(trace)),
    }


def costs(model: str, scheme: str, shape: dict, batch: int):
    """``model_inference_cost`` of one replica at the mean shape."""
    from repro.model.config import get_model_config
    from repro.model.cost import model_inference_cost
    from repro.model.policy import SchemePolicy
    from repro.pim.upmem import UpmemConfig, UpmemSystem

    return model_inference_cost(
        get_model_config(model), SchemePolicy(scheme), batch=batch,
        prefill_tokens=shape["prompt_tokens"], decode_tokens=shape["gen_tokens"],
        system=UpmemSystem(UpmemConfig(num_ranks=1)),
    )


def calibrate(cfg: dict, fleet) -> dict:
    """Capacity, arrival rate(s) and SLO limits for one serving workload.

    ``fleet`` lists ``(replicas, model, scheme)`` entries.
    """
    from repro.serving.trace import TraceSpec

    shape = mean_shape(cfg["trace"])
    capacity = sum(
        replicas * MAX_BATCH / costs(model, scheme, shape, MAX_BATCH).total_s
        for replicas, model, scheme in fleet
    )
    unloaded = [costs(model, scheme, shape, 1) for _, model, scheme in fleet]
    ttft = max(c.prefill.latency_s for c in unloaded)
    tpot = max(c.decode.latency_s / shape["gen_tokens"] for c in unloaded)
    out = {
        "mean_shape": shape,
        "capacity_req_per_s": capacity,
        "unloaded_ttft_s": ttft,
        "unloaded_tpot_s": tpot,
        "slo_ttft_s": cfg["slo"]["ttft_multiple"] * ttft,
        "slo_tpot_s": cfg["slo"]["tpot_multiple"] * tpot,
        "slo_share": cfg["slo"]["share"],
        "backlog_growth_max": cfg["slo"]["backlog_growth_max"],
    }
    if isinstance(cfg["rho"], list):
        out["arrival_rates_per_s"] = [rho * capacity for rho in cfg["rho"]]
        return out
    rate = cfg["rho"] * capacity
    if cfg["trace"]["scenario"] == "bursty":
        # The MMPP's long-run rate is the base rate times the
        # dwell-weighted mean of the calm (1x) and burst multipliers.
        spec = TraceSpec()
        mean_multiplier = (
            (spec.calm_dwell_s + spec.burst_dwell_s * spec.burst_rate_multiplier)
            / (spec.calm_dwell_s + spec.burst_dwell_s))
        rate /= mean_multiplier
    out["arrival_rate_per_s"] = rate
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="record the numbers in workloads.json")
    args = parser.parse_args(argv)
    workloads = workload.load_workloads()
    for name, cfg in workloads.items():
        if name == "paper_kernels":
            continue
        if "deployment" in cfg:
            d = cfg["deployment"]
            fleet = [(d["num_ranks"], d["model"], d["scheme"])]
        else:
            fleet = [(count * ranks, model, scheme)
                     for count, model, scheme, ranks, _ in cfg["fleet"]]
        cfg["calibrated"] = calibrate(cfg, fleet)
        print(name, json.dumps(cfg["calibrated"]))
    if args.write:
        (workload.HERE / "workloads.json").write_text(
            json.dumps(workloads, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
