"""Self-test of the benchmark: contract, oracles and layer sensitivity.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The sensitivity test runs the real benchmark 22 times (about a minute
and a half on two cores).  Temporary files go under
``.perfbench_out/`` in the checkout.
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args):
    """Run ``run.py``; returns its result line and its ``result.json``."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    opts = dict(zip(args[::2], args[1::2]))
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{opts['--workload']}-seed{opts['--seed']}"
         f"-trace{opts['--trace']}" / "result.json").read_text())
    return result, record


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) < 3420
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workload.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    seen = set(names)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        assert metric["name"] not in seen
        seen.add(metric["name"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster_chat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recorder_self_times_add_up():
    rec = spans.Recorder("t")
    inner = rec.wrap("b.inner", lambda: sum(range(20000)))
    outer = rec.wrap("a.outer", lambda: [inner() for _ in range(3)])
    root = rec.push("bench.root")
    outer()
    total = rec.pop(root)
    assert rec.calls("b.inner") == 3 and rec.calls("a.outer") == 1
    assert sum(rec.layer_self_s().values()) == pytest.approx(total, abs=1e-9)
    assert rec.inclusive_s("a.outer") >= rec.inclusive_s("b.inner")


def test_slowdown_applies_to_the_named_call_only():
    rec = spans.Recorder("t", enabled=False, slow={"x.slow": 3.0})
    fast = rec.wrap("x.fast", lambda: sum(range(200000)))
    slow = rec.wrap("x.slow", lambda: sum(range(200000)))
    fast(), slow()
    assert rec.calls("x.fast") == 1 and rec.calls("x.slow") == 1
    assert not rec.wants("x.fast")


def test_speed_correction_averages_the_probes_of_each_window():
    ref = run.PROBE_REF_S
    # Fast (speed 1) during [0, 1], half speed during [1, 3].
    probes = [(0.5, ref), (1.5, 2 * ref), (2.5, 2 * ref)]
    assert run.mean_speed(probes, 0.0, 1.0) == pytest.approx(1.0)
    assert run.mean_speed(probes, 1.0, 3.0) == pytest.approx(0.5)
    assert run.mean_speed(probes, 0.6, 0.7) == pytest.approx(1.0)  # nearest
    assert run.mean_speed([], 0.0, 1.0) == 1.0
    assert run.core_speed(probes, [(0.0, 1.0), (1.0, 3.0)]) == pytest.approx(2 / 3)
    # One probe period of a steady CPU is timed near the reference.
    assert 0.05 < run.PROBE_REF_S / run.probe() < 20


def test_littles_law_check():
    assert workload.littles_law_error([0.0, 1.0, 2.0], [3.0, 2.5, 6.0]) < 1e-12
    assert workload.littles_law_error([0.0, 5.0], [1.0, 4.0]) == float("inf")


def _record(req_id, arrival, first, finish, status="completed", gen=4):
    return SimpleNamespace(
        req_id=req_id, rank=0, arrival_s=arrival, status=status,
        gen_tokens=gen, first_token_s=first, finish_s=finish,
        ttft_s=(first - arrival) if first is not None else 0.0,
        latency_s=(finish - arrival) if finish is not None else 0.0,
        tpot_s=((finish - first) / (gen - 1)) if finish is not None else 0.0,
        queue_s=0.0)


def _check_serving(records, submitted):
    inv = SimpleNamespace(checks=[])
    inv.check = lambda ok, msg: None if ok else inv.checks.append(msg)
    stats = [SimpleNamespace(output_tokens=8, decode_iterations=4,
                             preemptions=0)]
    sims = workload.serving_sims(inv, records, submitted, 10.0, 1.0, stats,
                                 lambda rank: rank,
                                 {"ttft_s": 1.0, "tpot_s": 1.0})
    return inv.checks, sims


def test_serving_checks_pass_on_consistent_records():
    records = [_record(0, 0.0, 0.5, 2.0), _record(1, 1.0, 1.2, 3.0),
               _record(2, 2.0, None, None, status="rejected")]
    checks, sims = _check_serving(records, submitted=3)
    assert checks == []
    assert sims["completed"] == 2 and sims["rejected"] == 1
    assert sims["sim_slo_attainment"] == pytest.approx(2 / 3)


def test_serving_checks_catch_lost_requests_and_bad_timestamps():
    records = [_record(0, 0.0, 0.5, 2.0), _record(1, 3.0, 1.0, 1.5)]
    checks, _ = _check_serving(records, submitted=3)
    assert any("conservation" in c for c in checks)
    assert any("Little's law" in c for c in checks)


def test_aborted_run_counts_every_request_as_failed(monkeypatch, capsys):
    import repro.serving.cluster as cluster

    def abort(*args, **kwargs):
        raise ValueError("access [0, 1) exceeds bank capacity 0")

    monkeypatch.setattr(cluster, "simulate_cluster", abort)
    out = ROOT / ".perfbench_out" / "selftest-abort"
    assert workload.main(["cluster_chat", "--seed", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert result["aborted"].startswith("ValueError: access")
    assert result["attempted"] == result["failed"] == 4000
    assert "exceeds bank capacity" in captured.err


def test_layer_sensitivity():
    """A 1.5x slower ``routing.select`` moves its per-layer metric and
    ``wall_s`` on ``cluster_chat``, where routing works, and leaves
    ``serve_steady``, where routing idles, within the ``wall_s`` bound.

    Normal and slowed runs alternate, and ``wall_s`` moves are compared
    pair by pair, so that drift in the machine's speed cancels.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    slow = ("--slow", "routing.select=1.5")

    def measure(name, rounds):
        """Per-round (normal, slowed) traced metrics and untraced walls."""
        pairs = []
        for _ in range(rounds):
            pair = []
            for extra in ((), slow):
                result, record = run_bench(
                    "--workload", name, "--seed", "7", "--seconds", "0",
                    "--trace", "1", *extra)
                assert result["correct"], record["provenance"]["checks_failed"]
                wall = next(s["wall_s"] for s in record["samples"]
                            if not s["traced"])
                pair.append((result["metrics"], wall))
            pairs.append(pair)
        return pairs

    pairs = measure("cluster_chat", 8)
    select_s = statistics.median(
        base["routing.select_s"]["value"] for (base, _), _ in pairs)
    slowed_s = statistics.median(
        slowed["routing.select_s"]["value"] for _, (slowed, _) in pairs)
    assert select_s > 0.1
    assert slowed_s > 1.3 * select_s
    moved = statistics.median(s_wall - b_wall for (_, b_wall), (_, s_wall) in pairs)
    assert moved > 0.25 * select_s

    pairs = measure("serve_steady", 3)
    for (base, b_wall), (slowed, s_wall) in pairs:
        assert base["routing.select_calls"]["value"] == 0
        assert slowed["routing.select_calls"]["value"] == 0
    moved = statistics.median(s_wall - b_wall for (_, b_wall), (_, s_wall) in pairs)
    idle_wall = statistics.median(b_wall for (_, b_wall), _ in pairs)
    assert abs(moved) / idle_wall <= bound
