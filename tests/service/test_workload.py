"""The closed-loop fleet on the simulator: completion, shedding, feeds."""

import pytest

from repro.experiments.runner import build_ordering_group, build_sharded_group
from repro.experiments.spec import ScenarioSpec, ShardSpec
from repro.service import OrderingGateway, ServiceSpec, ServiceWorkload
from repro.service.workload import zipf_cdf
from repro.sim.scheduler import Simulator


def run_fleet(service_spec, n_members=4, shards=None, seed=3):
    sim = Simulator(seed=seed)
    if shards:
        scenario = ScenarioSpec(
            system="fs-newtop",
            n_members=n_members,
            seed=seed,
            shard=ShardSpec(shards=shards, keyspace=32),
        )
        group = build_sharded_group(sim, scenario)
        workload = ServiceWorkload(OrderingGateway(sim, group, service_spec), keyspace=32)
    else:
        scenario = ScenarioSpec(system="fs-newtop", n_members=n_members, seed=seed)
        group = build_ordering_group(sim, scenario)
        workload = ServiceWorkload(OrderingGateway(sim, group, service_spec))
    workload.run(settle_ms=10_000.0)
    return workload


def test_zipf_cdf_is_monotone_and_skewed():
    cdf = zipf_cdf(8, 1.1)
    assert len(cdf) == 8
    assert cdf == sorted(cdf)
    # Rank 1 carries the largest single mass.
    assert cdf[0] > cdf[-1] - cdf[-2]
    # s=0 degenerates to uniform.
    flat = zipf_cdf(4, 0.0)
    assert flat == pytest.approx([1.0, 2.0, 3.0, 4.0])


def test_fleet_completes_with_a_clean_feed():
    workload = run_fleet(
        ServiceSpec(sessions=12, ops_per_session=3, think_ms=20.0, subscribers=2)
    )
    metrics = workload.service_metrics()
    assert metrics["service_sessions_done"] == 12
    assert metrics["service_gave_up"] == 0
    assert metrics["service_admitted"] == 36
    assert metrics["service_sequenced"] == 36
    assert metrics["service_stream_gaps"] == 0
    assert metrics["service_stream_mismatches"] == 0
    # Every admitted op reached every member (the recorder's view).
    assert workload.recorder.fully_delivered(workload.n_members) == 36


def test_sharded_fleet_keeps_both_feeds_gap_free():
    workload = run_fleet(
        ServiceSpec(
            sessions=20,
            ops_per_session=2,
            think_ms=15.0,
            subscribers=3,
            reconnect_every=7,
            keyspace=32,
        ),
        shards=2,
    )
    metrics = workload.service_metrics()
    assert metrics["service_sessions_done"] == 20
    assert metrics["service_stream_gaps"] == 0
    assert metrics["service_stream_mismatches"] == 0
    assert metrics["service_reconnects"] > 0  # resumption was exercised
    # Both shards sequenced something under zipf-keyed traffic.
    assert all(seq > 0 for seq in workload.gateway._next_seq)


def test_overload_sheds_via_429_without_feed_violations():
    workload = run_fleet(
        ServiceSpec(
            sessions=40,
            ops_per_session=2,
            think_ms=5.0,
            rate_limit_per_s=20.0,
            burst=2,
            max_inflight=4,
            max_retries=2,
            subscribers=2,
        )
    )
    metrics = workload.service_metrics()
    assert metrics["service_rejected"] > 0
    assert metrics["service_gave_up"] > 0  # the budget is deliberately tiny
    assert metrics["service_inflight_peak"] <= 4
    # Correctness among admitted ops is untouched by the shedding.
    assert metrics["service_stream_gaps"] == 0
    assert metrics["service_stream_mismatches"] == 0
    assert metrics["service_sequenced"] == metrics["service_admitted"]


def test_retries_eventually_succeed_with_headroom():
    # Rate-limited but with enough retries: everyone gets through.  One
    # shared client means the eight staggered sessions contend on a
    # single one-token bucket, so shedding is guaranteed.
    workload = run_fleet(
        ServiceSpec(
            clients=1,
            sessions=8,
            ops_per_session=2,
            think_ms=10.0,
            rate_limit_per_s=100.0,
            burst=1,
            max_retries=20,
        )
    )
    metrics = workload.service_metrics()
    assert metrics["service_sessions_done"] == 8
    assert metrics["service_gave_up"] == 0
    assert metrics["service_rejected_rate"] > 0  # shedding did happen


def test_fleet_runs_identically_shaped_on_both_spec_paths():
    # The runner path (spec.gateway) must produce the same fleet the
    # direct construction does -- the metrics integration contract.
    from repro.experiments.runner import run_scenario

    spec = ScenarioSpec(
        system="fs-newtop",
        n_members=4,
        seed=3,
        gateway=ServiceSpec(sessions=12, ops_per_session=3, think_ms=20.0),
        settle_ms=10_000.0,
    )
    metrics = run_scenario(spec).metrics
    direct = run_fleet(
        ServiceSpec(sessions=12, ops_per_session=3, think_ms=20.0)
    ).service_metrics()
    assert metrics["service_admitted"] == direct["service_admitted"]
    assert metrics["service_sequenced"] == direct["service_sequenced"]
    assert metrics["ordered"] == direct["service_sequenced"]


def test_runner_gateway_orders_with_the_spec_service():
    from repro.experiments.runner import build_deployment

    spec = ScenarioSpec(
        system="fs-newtop",
        n_members=4,
        service="asymmetric_total",
        gateway=ServiceSpec(sessions=2, ops_per_session=1),
    )
    deployment = build_deployment(spec)
    assert deployment.gateway.service == "asymmetric_total"
    deployment.close()
