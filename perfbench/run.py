"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the workload is a fresh interpreter running
``perfbench/workload.py`` against the program in ``src/``; invocations
repeat (cycling over the run's distinct inputs) until ``--seconds``
have passed, one at a time.  With ``--trace 0`` the run reports the
end-to-end metrics: host timings, corrected for the shared CPU's
speed, as the median over invocations,
simulated (``sim_*``) values as the mean over the distinct inputs
(each input's values are deterministic, so averaging only narrows
the spread between seeds).
With ``--trace 1`` each traced invocation is paired with an untraced
one on the same input and the run reports the per-layer metrics plus
the tracing overhead.

The last stdout line is the JSON result (``correct``, ``attempted``,
``failed``, ``metrics``).  The lines before it print every metric with
its unit, ``failed_frac`` and the run's provenance; the full record,
with every raw per-invocation sample, each invocation's stderr and the
traced invocations' spans, is written under ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A single invocation that runs longer than this is killed and counted
#: as an aborted run; the whole run must end within 180 s.
INVOCATION_TIMEOUT_S = 150.0
#: Files of an invocation that outlive it: its stderr and its spans.
KEEP = ("stderr.txt", "spans.json")
#: The speed probe: fixed interpreter work (``PROBE_EVENTS`` heap
#: operations, ``PROBE_RECORDS`` JSON records), timed every
#: ``PROBE_INTERVAL_S`` seconds on the CPU the invocation runs on.  The
#: shared machine runs a process at one of two speeds, about 2x apart,
#: switching every few seconds and per CPU, often slow for minutes.
PROBE_EVENTS = 150
PROBE_RECORDS = 75
PROBE_INTERVAL_S = 0.025
#: The probe's duration on the uncontended machine the benchmark was
#: tuned on (2-vCPU Xeon VM); it scales every corrected host timing by
#: the same constant.
PROBE_REF_S = 3.8e-4


def benchmark_spec() -> dict:
    """The metric definitions in ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class _Event:
    """A small object, as the simulator keeps on its heaps."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def probe() -> float:
    """Time a fixed piece of interpreter work of the simulator's kind (a
    heap of small objects, then JSON-encoding small records); returns
    its duration in seconds."""
    start = time.perf_counter()
    heap = []
    for i in range(PROBE_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 1009, _Event(i, 2 * i)))
    while heap:
        event = heapq.heappop(heap)[1]
        event.a + event.b
    json.dumps([{"a": i, "b": [i, i + 1.5], "c": "x" * (i % 7)}
                for i in range(PROBE_RECORDS)])
    return time.perf_counter() - start


def mean_speed(probes, start: float, end: float) -> float:
    """Mean relative CPU speed over the probes taken in [start, end],
    or of the probe nearest to it if none was."""
    inside = [d for t, d in probes if start <= t <= end]
    if not inside and probes:
        inside = [min(probes, key=lambda p: abs(p[0] - (start + end) / 2))[1]]
    if not inside:
        return 1.0
    return statistics.fmean(PROBE_REF_S / d for d in inside)


def core_speed(probes, windows) -> float:
    """Mean relative CPU speed over the workload's core calls, each
    weighted by its duration."""
    total = sum(end - start for start, end in windows)
    if total <= 0:
        return 1.0
    return sum((end - start) * mean_speed(probes, start, end)
               for start, end in windows) / total


def invoke(workload: str, seed: int, index: int, out: Path, traced: bool,
           slow) -> dict:
    """Run one invocation in a fresh interpreter; returns its sample.

    While it runs, ``probe`` times the CPU they share every
    ``PROBE_INTERVAL_S``; the sample's ``speed`` holds the mean relative
    speed over its whole run, its set-up and its core calls.
    """
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), workload,
           "--seed", str(seed), "--input", str(index), "--out", str(out)]
    if traced:
        cmd.append("--traced")
    for item in slow or ():
        cmd += ["--slow", item]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probes = []
    code = None
    with open(out / "stdout.txt", "w") as stdout, \
            open(out / "stderr.txt", "w") as stderr:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                                stderr=stderr)
        try:
            while time.monotonic() - t_spawn < INVOCATION_TIMEOUT_S:
                try:
                    code = proc.wait(timeout=PROBE_INTERVAL_S)
                    break
                except subprocess.TimeoutExpired:
                    probes.append((time.monotonic(), probe()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    stdout = (out / "stdout.txt").read_text()
    if code is None:
        with open(out / "stderr.txt", "a") as stderr:
            stderr.write(f"timed out after {INVOCATION_TIMEOUT_S} s\n")
    # The invocation measured its own output; drop the bulky files so a
    # series of runs does not fill the disk.
    for path in out.iterdir():
        if path.name not in KEEP:
            path.unlink()
    sample = None
    if code == 0 and stdout.strip():
        try:
            sample = json.loads(stdout.strip().splitlines()[-1])
        except json.JSONDecodeError:
            sample = None
    if sample is None:
        return {"input": index, "traced": traced, "aborted":
                f"exit code {code}; stderr kept in {out / 'stderr.txt'}",
                "attempted": 0, "failed": 0, "checks": [], "sim": {},
                "layer": {}}
    sample["input"] = index
    sample["traced"] = traced
    if sample["aborted"] is None:
        sample["wall_s"] = sample["t_end"] - t_spawn
        sample["setup_s"] = sample["t_ready"] - t_spawn
        sample["startup_s"] = sample["t_main"] - t_spawn
        sample["import_s"] = sample["t_imported"] - t_spawn
        sample["probes"] = len(probes)
        sample["speed"] = {
            "wall": mean_speed(probes, t_spawn, sample["t_end"]),
            "setup": mean_speed(probes, t_spawn, sample["t_ready"]),
            "core": core_speed(probes, sample["core_spans"]),
        }
    return sample


def median(values):
    return statistics.median(values) if values else 0.0


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def end_to_end(samples) -> dict:
    """End-to-end metric values from untraced samples (but
    ``success_frac``, which needs the whole run's counts).

    Host timings are each invocation's measured times scaled by the
    CPU's relative speed over the same interval (see ``invoke``), then
    the median over the run's invocations.
    """
    firsts = {}
    for s in samples:
        firsts.setdefault(s["input"], s)
    values = {
        "wall_s": median([s["wall_s"] * s["speed"]["wall"] for s in samples]),
        "setup_s": median([s["setup_s"] * s["speed"]["setup"] for s in samples]),
        "items_per_wall_s": median([s["items"] / (s["core_s"] * s["speed"]["core"])
                                    for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "output_mb": median([s["output_mb"] for s in samples]),
    }
    for name in samples[0]["sim"]:
        values[name] = statistics.fmean([s["sim"][name] for s in firsts.values()])
    return values


def per_layer(pairs) -> dict:
    """Per-layer metric values from (untraced, traced) sample pairs."""
    traced = [t for _, t in pairs]
    values = {name: median([s["layer"][name] for s in traced])
              for name in traced[0]["layer"]}
    # The interpreter start before the worker's root span is benchmark
    # overhead too, so the layer self times add up to the traced wall.
    values["bench.self_s"] += median([s["startup_s"] for s in traced])
    values["bench.import_s"] = median([s["import_s"] for s in traced])
    values["bench.traced_wall_s"] = median([s["wall_s"] for s in traced])
    values["bench.trace_overhead_s"] = median(
        [t["wall_s"] - u["wall_s"] for u, t in pairs])
    return values


def self_time_gap(sample: dict) -> float:
    """Traced wall minus the sum of every layer's self time."""
    total = sum(v for k, v in sample["layer"].items() if k.endswith(".self_s"))
    return sample["wall_s"] - sample["startup_s"] - total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slow", action="append", metavar="NAME=FACTOR",
                        help="self-test only: slow one layer call by FACTOR")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its running invocation.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workload as worker

    workloads = worker.load_workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(workloads)}", file=sys.stderr)
        return 2
    # Invocations and the speed probe share one CPU, so the probe sees
    # the speed the invocation gets.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = benchmark_spec()
    cfg = workloads[args.workload]
    inputs = cfg["inputs"]
    run_dir = (ROOT / ".perfbench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    start = time.monotonic()
    samples, pairs = [], []
    count = 0
    # Every distinct input runs at least once (the simulated metrics are
    # their mean); further invocations only sharpen the host timings.
    while (count < (inputs if not args.trace else 1)
           or time.monotonic() - start < args.seconds):
        index = count % inputs
        base = run_dir / f"{count:03d}"
        plain = invoke(args.workload, args.seed, index, base / "plain",
                       False, args.slow)
        samples.append(plain)
        if args.trace:
            traced = invoke(args.workload, args.seed, index, base / "traced",
                            True, args.slow)
            samples.append(traced)
            pairs.append((plain, traced))
        count += 1
        if any(s["aborted"] for s in samples):
            break

    checks = []
    aborted = [s for s in samples if s["aborted"]]
    for s in samples:
        checks += [f"input {s['input']}: {c}" for c in s["checks"]]
    # Simulated values must repeat bit for bit on a repeated input.
    seen = {}
    for s in samples:
        if not s["aborted"]:
            first = seen.setdefault(s["input"], s["sim"])
            if first != s["sim"]:
                checks.append(f"input {s['input']}: sim_* values differ "
                              "between repeated invocations")
    if aborted:
        attempted = failed = max(sum(s["attempted"] for s in samples), 1)
        metrics = {}
    else:
        plain = [s for s in samples if not s["traced"]]
        attempted = sum(s["attempted"] for s in plain)
        failed = sum(s["failed"] for s in plain)
        if args.trace:
            for _, t in pairs:
                gap = self_time_gap(t)
                if abs(gap) > 1e-3:
                    checks.append(f"layer self times miss the traced wall "
                                  f"by {gap:.6f} s")
            values = per_layer(pairs)
            names = spec["per_layer"]
        else:
            values = end_to_end(plain)
            values["success_frac"] = 1.0 - failed / attempted
            names = spec["end_to_end"]
        # A layer the workload never calls reports 0 (its predicted change).
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in names}
    correct = not aborted and not checks

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": next((s["numpy"] for s in samples if "numpy" in s), None),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "invocations": len(samples),
        "workload_config": cfg,
        "checks_failed": checks,
        "aborted": [s["aborted"] for s in aborted],
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"provenance": provenance, "metrics": metrics, "samples": samples},
        indent=1))
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_frac':34s} {failed / attempted if attempted else 0.0:>16.6g}"
          f" ratio ({failed} of {attempted})")
    for message in checks + provenance["aborted"]:
        print(f"FAILED: {message}")
    print("provenance: " + json.dumps(
        {k: v for k, v in provenance.items() if k != "workload_config"}
        | {"calibrated": cfg.get("calibrated")}))
    print("samples: " + json.dumps({
        key: [s.get(key) for s in samples]
        for key in ("input", "traced", "wall_s", "setup_s", "core_s",
                    "speed", "peak_rss_mb", "output_mb")}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
