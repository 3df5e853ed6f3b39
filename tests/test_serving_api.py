"""API-surface pin: the monolith split must not drop public names.

The serving engine lives in the ``repro.serving.engine`` package and
its public names are re-exported by ``repro.serving``; these tests
freeze that import contract, including the private engine internals
the replay oracle and the tests reach for in their submodules.
"""

import importlib

import pytest

#: The engine package's public surface — the names the retired scheduler
#: shim re-exported, so each former shim import needs only its module
#: path changed.
SCHEDULER_EXPORTS = (
    "ENGINES",
    "CacheEntry",
    "PrefixCache",
    "ServingConfig",
    "RequestRecord",
    "RankStats",
    "ServingResult",
    "simulate_trace",
)

PACKAGE_EXPORTS = SCHEDULER_EXPORTS + (
    # trace + policy layers
    "Request",
    "TraceSpec",
    "SCENARIOS",
    "generate_trace",
    "trace_rows",
    "rows_to_trace",
    "POLICIES",
    "SchedulingPolicy",
    "get_policy",
    # routing layer
    "ROUTERS",
    "RoutingPolicy",
    "RoundRobinRouter",
    "LeastKvRouter",
    "P2cRouter",
    "SloAffinityRouter",
    "get_router",
    # cluster layer
    "Deployment",
    "DeploymentResult",
    "Cluster",
    "ClusterResult",
    "simulate_cluster",
    "Autoscaler",
    "AutoscalerConfig",
    # metrics + CLI
    "record_rows",
    "metrics_table",
    "summary",
    "cluster_rows",
    "cluster_summary",
    "build_parser",
    "main",
)


@pytest.mark.parametrize("name", SCHEDULER_EXPORTS)
def test_scheduler_shim_exports(name):
    module = importlib.import_module("repro.serving.engine")
    assert hasattr(module, name)
    assert name in module.__all__


@pytest.mark.parametrize("name", PACKAGE_EXPORTS)
def test_package_exports(name):
    module = importlib.import_module("repro.serving")
    assert hasattr(module, name)
    assert name in module.__all__


def test_package_and_engine_are_same_objects():
    package = importlib.import_module("repro.serving")
    engine = importlib.import_module("repro.serving.engine")
    for name in SCHEDULER_EXPORTS:
        assert getattr(package, name) is getattr(engine, name)


def test_engine_package_layout():
    for submodule in ("cache", "config", "costs", "driver", "records",
                      "rank_engine", "soa_engine"):
        importlib.import_module(f"repro.serving.engine.{submodule}")


def test_private_engine_names_still_reachable():
    # The experiment layer and tests reach for the private spine.
    for submodule, name in (("costs", "_CostCache"),
                            ("rank_engine", "_RankEngine"),
                            ("rank_engine", "_RequestState")):
        module = importlib.import_module(f"repro.serving.engine.{submodule}")
        assert hasattr(module, name)
