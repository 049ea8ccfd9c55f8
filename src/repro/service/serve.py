"""The ``repro serve`` runtime: a live gateway on a real socket.

Builds the deployment a :class:`~repro.experiments.spec.ScenarioSpec`
describes -- on the asyncio transport, optionally sharded, optionally
over localhost TCP -- with an :class:`~repro.service.gateway.
OrderingGateway` in front of it and the stdlib HTTP/SSE server from
:mod:`repro.service.http` bound, prints the fleet's derived API keys,
and runs until interrupted.  See docs/SERVICE.md for the operator guide.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:
    from repro.experiments.runner import Deployment
    from repro.experiments.spec import ScenarioSpec


class ServeHandle:
    """What :func:`build_server` assembled, ready to run or inspect."""

    def __init__(self, deployment: "Deployment") -> None:
        self.deployment = deployment
        self.clock = deployment.clock
        self.gateway = deployment.gateway
        self.server = deployment.server

    def run(self, until_ms: float | None = None) -> None:
        """Serve until ``until_ms`` virtual ms, or until interrupted.

        A server must outlive quiescence -- an empty timer heap just
        means no client has called yet -- so an idle check keeps the
        clock alive until the window ends.
        """
        self.clock.add_idle_check(lambda: False)
        try:
            self.clock.run(until=until_ms)
        finally:
            self.deployment.close()


def build_server(
    spec: "ScenarioSpec", host: str = "127.0.0.1", port: int = 0
) -> ServeHandle:
    """Build the served deployment of a spec (the runner's
    :func:`~repro.experiments.runner.build_deployment` with ``serving``).

    The spec must carry a *live* transport (``repro serve`` forces the
    asyncio backend); its ``gateway`` field configures admission
    control (a default :class:`~repro.service.spec.ServiceSpec` when
    absent).  The server binds when the run starts; with ``port=0`` the
    kernel picks a free port, available as ``handle.server.port`` after
    binding.
    """
    # Imported lazily: repro.experiments imports this package's spec.
    from repro.experiments.runner import build_deployment

    return ServeHandle(build_deployment(spec, serving=True, host=host, port=port))


def describe(handle: ServeHandle) -> str:
    """The operator banner ``repro serve`` prints: endpoints and keys."""
    gateway = handle.gateway
    spec = gateway.spec
    lines = [
        f"ordering service: {gateway.shards} shard(s), "
        f"{len(gateway.group.member_ids)} members",
        f"admission: {spec.rate_limit_per_s:g} ops/s/client (burst {spec.burst}), "
        f"inflight cap {spec.max_inflight}",
        "endpoints: POST /v1/submit  GET /v1/stream  GET /v1/status  "
        "GET /metrics  GET /healthz",
        "api keys:",
    ]
    for client_id in gateway.registry.client_ids:
        lines.append(f"  {client_id}: {gateway.registry.key_of(client_id)}")
    return "\n".join(lines)
