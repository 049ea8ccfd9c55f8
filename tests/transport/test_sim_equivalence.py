"""Regression pins: the sim backend is byte-identical to pre-transport.

The transport refactor's hard promise is that the default simulator
path did not move: same construction, same rng streams, same event
order, same trace bytes.  The hashes below were captured on the
pre-refactor tree (fig6-style, batched, S=1 sharded and plain newtop
runs); any drift in these fingerprints means the refactor changed
simulated behaviour and must be treated as a bug, not re-pinned
casually.

Every run goes through the runner's own composition root
(:func:`~repro.experiments.runner.build_deployment` and
:func:`~repro.experiments.runner.run_workload`), so the pins cover
the construction real runs use.  The second half proves
:class:`~repro.transport.sim.SimTransport` is pure delegation: the
deployment's clock is the stock simulator, with nothing live attached.
"""

import pytest

from repro.experiments.runner import build_deployment, run_workload
from repro.experiments.spec import BatchingSpec, ScenarioSpec, ShardSpec
from repro.sim.scheduler import Simulator
from repro.transport import SimTransport

SPECS = {
    "fig6_style": ScenarioSpec(
        system="fs-newtop", n_members=3, messages_per_member=4,
        interval=40.0, message_size=3, seed=7, settle_ms=500.0,
    ),
    "batched": ScenarioSpec(
        system="fs-newtop", n_members=3, messages_per_member=4,
        interval=40.0, message_size=3, seed=11, settle_ms=500.0,
        batching=BatchingSpec(max_batch=4, max_delay_ms=6.0, max_inflight=2),
    ),
    "sharded_s1": ScenarioSpec(
        system="fs-newtop", n_members=4, messages_per_member=3,
        interval=50.0, message_size=3, seed=5, settle_ms=500.0,
        shard=ShardSpec(shards=1),
    ),
    "newtop": ScenarioSpec(
        system="newtop", n_members=3, messages_per_member=4,
        interval=40.0, message_size=3, seed=3, settle_ms=500.0,
    ),
}

#: Captured on the pre-refactor tree (commit 3c91bcd lineage), before
#: repro.transport existed.
PINNED = {
    "fig6_style": "4efb5369e033f6badc6040c8bb29abd0496ceb46d5c62b2be764aba9b7c93ec5",
    "batched": "8d215782c2c3ff637ba6c6c091024397911add54c202cb8bea847f5e3de3224d",
    "sharded_s1": "0080436c8420d2241fe52b3ac1342c05f4d64b55602eab25e8912c5b63697cd5",
    "newtop": "d1cef1736c5099d4a3f2197e9cf91ef5ed1bedad07c30119543a42ab83ff9a7c",
}


def _run_traced(spec: ScenarioSpec):
    """A measurement run of ``spec`` with its trace stored."""
    deployment = build_deployment(spec)
    # Measurement deployments mute the trace.  Assembly records nothing,
    # so switching it back on before the run captures the whole stream.
    deployment.clock.trace.enabled = True
    run_workload(spec, deployment)
    return deployment


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sim_traces_match_pre_refactor_pins(name):
    deployment = _run_traced(SPECS[name])
    assert deployment.clock.trace.fingerprint() == PINNED[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sim_transport_is_pure_delegation(name):
    deployment = _run_traced(SPECS[name])
    transport = deployment.transport
    assert isinstance(transport, SimTransport)
    assert type(deployment.clock) is Simulator
    assert deployment.clock is transport.simulator
    assert deployment.calibration is None
    assert deployment.hub is None and deployment.server is None
    assert deployment.clock.trace.fingerprint() == PINNED[name]


def test_sim_transport_exposes_the_simulator():
    transport = SimTransport(seed=3)
    assert isinstance(transport.simulator, Simulator)
    assert transport.clock is transport.simulator
    assert transport.wall_metrics() == {}
