"""The closed-loop client fleet driving the gateway in-process.

Where :class:`~repro.workloads.ordering.OrderingWorkload` injects the
paper's fixed-rate schedule straight into the group, this workload
models *users*: ``sessions`` independent clients that each submit an
operation through the :class:`~repro.service.gateway.OrderingGateway`,
wait until it comes back sequenced on the delivery feed, think for an
exponentially distributed while, and submit the next -- real arrival
dynamics, so admission control and backpressure are exercised by the
same traffic shape a served deployment sees.  Keys are drawn from a
zipf-skewed popularity distribution (the hot-key regime routers and
shards actually face), rejected submits honour the returned
``Retry-After`` hint, and a handful of streaming subscribers
continuously verify the feed: per-shard sequence numbers must be
gap-free, independent subscribers must agree on every ``(shard, seq)
-> op`` assignment, and a subscriber that reconnects mid-run must
resume from its last acked sequence number without loss.

Everything runs off the abstract clock, so the same fleet drives the
discrete-event simulator and the wall-clock asyncio transport -- and an
audited run feeds the eight invariant oracles exactly as the fixed-rate
workloads do.
"""

from __future__ import annotations

import bisect
import typing

from repro.service.gateway import DeliveryEvent, OrderingGateway
from repro.workloads.ordering import OrderingWorkload


def zipf_cdf(keyspace: int, s: float) -> list[float]:
    """Cumulative zipf weights over ``keyspace`` popularity ranks."""
    total = 0.0
    cdf = []
    for rank in range(1, keyspace + 1):
        total += 1.0 / (rank**s)
        cdf.append(total)
    return cdf


class _Session:
    """One closed-loop client: submit, await sequencing, think, repeat."""

    __slots__ = ("index", "api_key", "ops_done", "retries", "done", "gave_up")

    def __init__(self, index: int, api_key: str) -> None:
        self.index = index
        self.api_key = api_key
        self.ops_done = 0
        self.retries = 0  # for the *current* operation
        self.done = False
        self.gave_up = False


class _FeedChecker:
    """One streaming subscriber, continuously verifying the feed."""

    def __init__(self, workload: "ServiceWorkload", index: int) -> None:
        self.workload = workload
        self.index = index
        self.last_seq: dict[int, int] = {}
        self.events = 0
        self.gaps = 0
        self.mismatches = 0
        self.reconnects = 0
        self.subscription = None

    def attach(self) -> None:
        self.subscription = self.workload.gateway.subscribe(
            self.on_event, from_seq=dict(self.last_seq)
        )

    def on_event(self, event: DeliveryEvent) -> None:
        expected = self.last_seq.get(event.shard, 0) + 1
        if event.seq != expected:
            self.gaps += 1
        self.last_seq[event.shard] = event.seq
        reference = self.workload._feed_reference.setdefault(
            (event.shard, event.seq), event.op_id
        )
        if reference != event.op_id:
            self.mismatches += 1
        self.events += 1
        every = self.workload.service_spec.reconnect_every
        if every and self.events % every == 0:
            self.workload._schedule_reconnect(self)

    def reconnect(self) -> None:
        if self.subscription is not None:
            self.subscription.close()
        self.reconnects += 1
        self.attach()


class ServiceWorkload(OrderingWorkload):
    """Drives a gateway-fronted group with a closed-loop client fleet."""

    def __init__(
        self,
        gateway: OrderingGateway,
        message_size: int = 3,
        keyspace: int | None = None,
        kv_ops: bool = False,
    ) -> None:
        service_spec = gateway.spec
        super().__init__(
            gateway.sim,
            gateway.group,
            messages_per_member=service_spec.ops_per_session,
            interval=service_spec.think_ms,
            message_size=message_size,
            keyspace=keyspace if keyspace is not None else service_spec.keyspace,
        )
        self.service_spec = service_spec
        #: When the scenario runs the replicated KV application, submits
        #: carry an explicit well-formed ``"op"`` so the stores execute
        #: client-chosen operations instead of synthesised ones.
        self.kv_ops = kv_ops
        self.gateway = gateway
        self._rng = gateway.sim.rng("service")
        assert self.keys is not None
        self._zipf_cdf = zipf_cdf(len(self.keys), service_spec.zipf_s)
        keys = service_spec.clients
        registry = self.gateway.registry
        self.sessions = [
            _Session(i, registry.key_of(registry.client_ids[i % keys]))
            for i in range(service_spec.sessions)
        ]
        self.checkers = [
            _FeedChecker(self, j) for j in range(service_spec.subscribers)
        ]
        self._awaiting: dict[str, _Session] = {}
        self._feed_reference: dict[tuple[int, int], str] = {}
        self.unauthorized = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, settle_ms: float = 120_000.0) -> None:
        """Start the fleet, run to completion (or the deadline)."""
        self.gateway.on_member_delivery = self._on_member_delivery
        self.gateway.on_sequenced = self._on_sequenced
        for checker in self.checkers:
            checker.attach()
        spec = self.service_spec
        # Stagger arrivals over the ramp window (at least one think
        # window) so the fleet ramps up instead of stampeding the very
        # first millisecond.
        ramp = max(spec.ramp_ms, spec.think_ms)
        for session in self.sessions:
            self.sim.schedule(self._rng.uniform(0.0, ramp), self._submit, session)
        # Both clocks exit early once the fleet drains (heap exhaustion
        # on the simulator, quiescence on asyncio); the deadline is the
        # cap that keeps a stalled closed loop from spinning forever.
        deadline = (
            ramp
            + spec.ops_per_session * spec.think_ms * 3.0
            + spec.sessions * spec.ops_per_session * 20.0
            + settle_ms
        )
        self.sim.run(until=deadline, max_events=200_000_000)

    def _zipf_key(self) -> str:
        assert self.keys is not None
        point = self._rng.random() * self._zipf_cdf[-1]
        return self.keys[bisect.bisect_left(self._zipf_cdf, point)]

    def _submit(self, session: _Session) -> None:
        if session.done:
            return
        spec = self.service_spec
        key = self._zipf_key()
        payload: dict[str, typing.Any] = {
            "s": session.index,
            "n": session.ops_done,
            "b": bytes(self.message_size),
        }
        if self.kv_ops:
            payload["op"] = {
                "t": "put",
                "k": key,
                "v": [session.index, session.ops_done],
            }
        outcome = self.gateway.submit(session.api_key, payload=payload, key=key)
        if outcome.admitted:
            assert outcome.op_id is not None and outcome.shard is not None
            expected = (
                self.group.shard_size(outcome.shard)
                if hasattr(self.group, "shard_size")
                else self.n_members
            )
            self.recorder.sent(outcome.op_id, self.sim.now, expected=expected)
            self._awaiting[outcome.op_id] = session
            session.retries = 0
            return
        if outcome.status == 401:
            self.unauthorized += 1
            session.done = True
            session.gave_up = True
            return
        # 429 (rate-limited or overloaded): honour the retry hint.
        session.retries += 1
        if session.retries > spec.max_retries:
            session.done = True
            session.gave_up = True
            return
        retry_after = outcome.retry_after_ms or spec.retry_after_ms
        jitter = self._rng.uniform(0.0, retry_after * 0.5)
        self.sim.schedule(retry_after + jitter, self._submit, session)

    def _on_member_delivery(self, op_id: str, member: str, at: float) -> None:
        self.recorder.delivered(op_id, member, at)

    def _on_sequenced(self, event: DeliveryEvent) -> None:
        session = self._awaiting.pop(event.op_id, None)
        if session is None:
            return
        session.ops_done += 1
        if session.ops_done >= self.service_spec.ops_per_session:
            session.done = True
            return
        think = self._rng.expovariate(1.0 / self.service_spec.think_ms)
        self.sim.schedule(think, self._submit, session)

    def _schedule_reconnect(self, checker: _FeedChecker) -> None:
        if checker.subscription is not None:
            checker.subscription.close()
        self.sim.schedule(
            2.0 + self._rng.uniform(0.0, 4.0), checker.reconnect
        )

    def _hook_deliveries(self) -> None:  # pragma: no cover - gateway hooks
        raise NotImplementedError("the gateway owns the delivery hooks")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def fail_signal_count(self) -> int:
        if hasattr(self.group, "shard_groups"):
            return sum(
                shard_group.members[m].fs_process.signaled
                for shard_group in self.group.shard_groups
                for m in shard_group.member_ids
            )
        return super().fail_signal_count()

    def service_metrics(self) -> dict[str, float]:
        """Gateway admission metrics plus the fleet/feed verdicts."""
        metrics = self.gateway.service_metrics()
        metrics.update(
            {
                "service_sessions": float(len(self.sessions)),
                "service_sessions_done": float(
                    sum(1 for s in self.sessions if s.done and not s.gave_up)
                ),
                "service_gave_up": float(
                    sum(1 for s in self.sessions if s.gave_up)
                ),
                "service_unauthorized": float(self.unauthorized),
                "service_stream_gaps": float(
                    sum(c.gaps for c in self.checkers)
                ),
                "service_stream_mismatches": float(
                    sum(c.mismatches for c in self.checkers)
                ),
                "service_reconnects": float(
                    sum(c.reconnects for c in self.checkers)
                ),
            }
        )
        return metrics
