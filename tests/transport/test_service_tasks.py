"""A long run keeps only live service tasks.

A served deployment is one long clock run, and every TCP drain burst
spawns a service task.  Finished tasks must leave the clock's tracking
set, or the run accumulates one per burst until it ends.
"""

import asyncio

import pytest

from repro.transport.aio import AsyncioTransport

pytestmark = pytest.mark.realtime

SENDS = 1_000


class _Sink:
    def __init__(self) -> None:
        self.received = 0

    def deliver(self, envelope) -> None:
        self.received += 1


def test_finished_drain_tasks_are_not_retained():
    transport = AsyncioTransport(seed=1, tcp=True)
    clock = transport.aio_clock
    network = transport.make_network()
    sinks = {address: _Sink() for address in ("a", "b")}
    for address, sink in sinks.items():
        network.register(address, sink)
    box = {}

    async def sender() -> None:
        for i in range(SENDS):
            network.send("a", "b", i, size=8)
            # One send per burst: wait until it crossed the socket, so
            # each send spawns (and finishes) its own drain task.
            while sinks["b"].received <= i:
                await asyncio.sleep(0)
        box["peers"] = len(network._peers)
        box["tracked"] = len(clock._service_tasks)

    clock.add_starter(sender)
    clock.add_idle_check(lambda: "tracked" in box)
    try:
        clock.run(until=60_000.0)
    finally:
        transport.close()
    assert sinks["b"].received == SENDS
    # One pump per address and at most one live drain per peer; the
    # sender coroutine is a service task too.
    assert box["tracked"] <= len(sinks) + box["peers"] + 1
