"""Declarative scenarios and the parallel campaign runner.

This package turns the repository's hand-rolled experiment scripts into
a declarative engine:

* :mod:`repro.experiments.spec` -- :class:`ScenarioSpec`, a value-only
  description of one run (system, group size, workload, delay model,
  fault plan, crypto scale, seed);
* :mod:`repro.experiments.registry` -- the catalogue of named
  :class:`Scenario` definitions (the paper's Figures 6-8 plus
  beyond-the-paper stress scenarios), each a base spec with a sweep
  grid;
* :mod:`repro.experiments.runner` -- :func:`build_deployment`, the
  single place where a spec becomes a live system, and
  :func:`run_scenario` on top of it;
* :mod:`repro.experiments.campaign` -- :class:`Campaign`, which expands
  (system x sweep x repeat) grids and executes them in parallel with
  per-run deterministic seeds;
* :mod:`repro.experiments.store` -- an append-only JSONL
  :class:`ResultStore` feeding :mod:`repro.analysis` aggregation.

Quick tour::

    from repro.experiments import Campaign, ResultStore, get_scenario

    campaign = Campaign(get_scenario("fig7_throughput"), repeats=4)
    records = campaign.execute(jobs=4, store=ResultStore("results.jsonl"))
"""

from repro.experiments.campaign import (
    Campaign,
    RunRecord,
    RunTask,
    clamp_jobs,
    derive_seed,
)
from repro.experiments.registry import (
    Scenario,
    SweepPoint,
    UnknownScenarioError,
    get_scenario,
    register,
    scenario_names,
    scenarios,
)
from repro.experiments.runner import (
    AuditedRun,
    Deployment,
    RunResult,
    audit_scenario,
    build_deployment,
    build_ordering_group,
    observe_spec,
    pbft_fault_budget,
    run_ordering_spec,
    run_scenario,
    run_workload,
)
from repro.experiments.spec import (
    CALM_LAN,
    SPIKY_NET,
    BatchingSpec,
    DelaySpec,
    FaultEvent,
    ObsSpec,
    ScenarioSpec,
    ShardSpec,
    TransportSpec,
)
from repro.experiments.store import ResultStore

__all__ = [
    "AuditedRun",
    "BatchingSpec",
    "CALM_LAN",
    "Campaign",
    "DelaySpec",
    "Deployment",
    "FaultEvent",
    "ObsSpec",
    "ResultStore",
    "RunRecord",
    "RunResult",
    "RunTask",
    "SPIKY_NET",
    "Scenario",
    "ScenarioSpec",
    "ShardSpec",
    "SweepPoint",
    "TransportSpec",
    "UnknownScenarioError",
    "audit_scenario",
    "build_deployment",
    "build_ordering_group",
    "clamp_jobs",
    "derive_seed",
    "get_scenario",
    "observe_spec",
    "pbft_fault_budget",
    "register",
    "run_ordering_spec",
    "run_scenario",
    "run_workload",
    "scenario_names",
    "scenarios",
]
