"""``build_server`` assembles through the runner's composition root.

A served deployment must calibrate against the provider it signs with
and frame TCP with its own codec -- the two policies a separate copy of
the assembly once let drift.  No client traffic: the deployment is
built, inspected and closed without running the clock.
"""

import pytest

from repro.crypto.ed25519 import HAVE_ED25519
from repro.crypto.provider import CryptoSpec
from repro.experiments import TransportSpec, get_scenario
from repro.service.serve import build_server

pytestmark = pytest.mark.realtime


@pytest.mark.skipif(not HAVE_ED25519, reason="needs the fastcrypto extra (cryptography)")
def test_served_deployment_calibrates_and_frames_with_its_own_crypto():
    spec = get_scenario("svc_fleet_1k").base.replace(
        transport=TransportSpec(kind="asyncio", tcp=True),
        crypto=CryptoSpec("ed25519", "binwire"),
    )
    handle = build_server(spec, port=0)
    try:
        networks = [group.network for group in handle.gateway.group.shard_groups]
        assert len(networks) == spec.shard.shards
        assert all(network.tcp for network in networks)
        assert [network.codec for network in networks] == ["binwire"] * len(networks)
        assert handle.gateway.service == spec.service
        assert handle.deployment.calibration.scheme == "Ed25519Scheme"
    finally:
        handle.deployment.close()
