"""Real-time asyncio backend: wall-clock timers, queues and TCP.

This module runs the *unchanged* protocol object graph on an asyncio
event loop:

* :class:`AsyncioClock` -- a wall-clock implementation of the
  :class:`repro.transport.base.Clock` protocol.  Time is milliseconds
  since the run started (optionally scaled); timers live in the same
  ``(deadline, priority, seq)`` heap discipline as the simulator's, so
  everything due at a wakeup fires in deterministic order.
* :class:`AsyncioNetwork` -- a :class:`repro.net.network.Network`
  whose delivery hop goes through a per-member :class:`asyncio.Queue`
  drained by a pump task (or, with ``tcp=True``, through a localhost
  TCP connection speaking the canonical wire codec first).  Delay,
  jitter, FIFO, partitions and drop hooks are inherited: the
  ``DelaySpec``-built models run unchanged, sampling bounded per-link
  delays that are *added* to whatever the host costs.
* :class:`AsyncioTransport` -- the bundle the experiment runner builds
  from a ``TransportSpec``.

Determinism caveat: two wall-clock runs are *not* byte-identical -- the
host schedules them differently.  Equivalence with the simulated run is
checked at the invariant-oracle layer instead
(``tests/transport/test_differential.py``).
"""

from __future__ import annotations

import asyncio
import collections
import heapq
import random
import typing

from repro.net.delay import DelayModel
from repro.net.network import Network
from repro.sim.errors import SchedulingInPastError, SimulationLimitExceeded
from repro.sim.events import Event, EventHandle
from repro.sim.trace import TraceRecorder
from repro.transport.base import Transport
from repro.transport.wire import frame, read_frame, wire_codec


def backoff_delays(
    base_ms: float = 1.0,
    factor: float = 2.0,
    retries: int = 6,
    cap_ms: float = 50.0,
) -> list[float]:
    """The exponential reconnect schedule the TCP peers follow, in ms.

    Pure so the schedule itself is unit-testable without sleeping:
    ``base * factor^i`` capped at ``cap_ms``, one entry per retry.
    """
    if base_ms <= 0 or factor < 1.0 or retries < 0 or cap_ms < base_ms:
        raise ValueError(
            f"bad backoff shape: base={base_ms}, factor={factor}, "
            f"retries={retries}, cap={cap_ms}"
        )
    return [min(cap_ms, base_ms * factor**i) for i in range(retries)]


class AsyncioClock:
    """Wall-clock :class:`~repro.transport.base.Clock` on an event loop.

    ``now`` is milliseconds of (scaled) wall time since :meth:`run`
    first started the loop; before that it is ``0.0``, so construction-
    time scheduling uses absolute times exactly like the simulator.
    ``time_scale`` is wall seconds per virtual second -- ``0.5`` runs a
    scenario's virtual timeline at twice wall speed (host jitter is
    *not* scaled, so aggressive compression narrows real margins).

    Unlike the simulator, :meth:`schedule_at` *clamps* slightly-past
    deadlines to "now" instead of raising: wall time legitimately
    advances between computing a deadline and scheduling it.  Negative
    relative delays remain a logic error.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: TraceRecorder | None = None,
        loop: asyncio.AbstractEventLoop | None = None,
        time_scale: float = 1.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {time_scale}")
        self._seed = seed
        self.trace = trace if trace is not None else TraceRecorder()
        self._loop = loop
        self._owns_loop = False
        self._origin: float | None = None
        self._time_scale = time_scale
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._budget: int | None = None
        self._rng_streams: dict[str, random.Random] = {}
        self._wakeup: asyncio.TimerHandle | None = None
        self._wakeup_time: float | None = None
        self._failure: BaseException | None = None
        self._starters: list[typing.Callable[[], typing.Awaitable[None]]] = []
        self._idle_checks: list[typing.Callable[[], bool]] = []
        #: Live service tasks only: a finished task leaves the set, so a
        #: long served run does not accumulate one per TCP drain burst.
        self._service_tasks: set[asyncio.Task] = set()
        #: Wall seconds between the first :meth:`run` entry and the last
        #: :meth:`run` exit -- what "real elapsed" reports.
        self.wall_elapsed_s = 0.0
        #: How late timers fired relative to their deadlines, virtual ms.
        self.timer_lag_count = 0
        self.timer_lag_sum = 0.0
        self.timer_lag_max = 0.0
        #: Live metrics hub (:func:`repro.obs.spans.install_hub`).
        self.obs_hub = None
        #: Wall seconds of sustained quiescence before a run concludes.
        self.idle_grace_s = 0.05
        self._poll_s = 0.002

    # ------------------------------------------------------------------
    # loop plumbing
    # ------------------------------------------------------------------
    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
            self._owns_loop = True
        return self._loop

    def bind(self) -> None:
        """Fix the epoch: virtual 0.0 becomes the loop's current time."""
        if self._origin is None:
            self._origin = self.loop.time()

    def add_starter(
        self, starter: typing.Callable[[], typing.Awaitable[None]]
    ) -> None:
        """Register a coroutine factory started at the top of each run
        (queue pumps, TCP servers)."""
        self._starters.append(starter)

    def add_idle_check(self, check: typing.Callable[[], bool]) -> None:
        """Register a quiescence predicate; a run only concludes early
        when the timer heap is empty *and* every check returns True."""
        self._idle_checks.append(check)

    def spawn(self, coro: typing.Awaitable[None]) -> asyncio.Task:
        """Run a service coroutine for the remainder of the current run
        (cancelled when the run concludes).  Failures fail the run."""
        task = self.loop.create_task(coro)
        task.add_done_callback(self._service_done)
        self._service_tasks.add(task)
        return task

    def _service_done(self, task: asyncio.Task) -> None:
        self._service_tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.fail(exc)

    def fail(self, exc: BaseException) -> None:
        """Record a failure that aborts the current run (first one wins)."""
        if self._failure is None:
            self._failure = exc

    # ------------------------------------------------------------------
    # Clock protocol: time, randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._origin is None:
            return 0.0
        return (self.loop.time() - self._origin) * 1000.0 / self._time_scale

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def time_scale(self) -> float:
        return self._time_scale

    def rng(self, stream: str) -> random.Random:
        existing = self._rng_streams.get(stream)
        if existing is not None:
            return existing
        derived = random.Random(f"{self._seed}/{stream}")
        self._rng_streams[stream] = derived
        return derived

    # ------------------------------------------------------------------
    # Clock protocol: timers
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: typing.Callable[..., None],
        *args: typing.Any,
        priority: int = 0,
    ) -> EventHandle:
        if delay < 0:
            raise SchedulingInPastError(f"negative delay {delay!r}")
        return self._push(self.now + delay, priority, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: typing.Callable[..., None],
        *args: typing.Any,
        priority: int = 0,
    ) -> EventHandle:
        # Clamp, do not raise: wall time moves under the caller's feet.
        return self._push(max(time, self.now), priority, callback, args)

    def _push(
        self,
        time: float,
        priority: int,
        callback: typing.Callable[..., None],
        args: tuple,
    ) -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._rearm()
        return event

    def _rearm(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            if self._wakeup is not None:
                self._wakeup.cancel()
                self._wakeup = None
                self._wakeup_time = None
            return
        if self._origin is None:
            return  # run() arms once the epoch exists
        head = heap[0][0]
        if self._wakeup is not None:
            if self._wakeup_time is not None and self._wakeup_time <= head:
                return  # an earlier (or equal) wakeup already covers it
            self._wakeup.cancel()
        when = self._origin + (head / 1000.0) * self._time_scale
        self._wakeup = self.loop.call_at(when, self._fire_due)
        self._wakeup_time = head

    def _fire_due(self) -> None:
        self._wakeup = None
        self._wakeup_time = None
        heap = self._heap
        while heap and self._failure is None:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            now = self.now
            if entry[0] > now:
                break
            heapq.heappop(heap)
            lag = now - event.time
            self.timer_lag_count += 1
            self.timer_lag_sum += lag
            if lag > self.timer_lag_max:
                self.timer_lag_max = lag
            if self.obs_hub is not None:
                self.obs_hub.timer_lag_ms.observe(lag)
            self._events_processed += 1
            if self._budget is not None and self._events_processed > self._budget:
                self.fail(
                    SimulationLimitExceeded(
                        f"processed {self._events_processed} events; "
                        f"likely a non-terminating protocol loop"
                    )
                )
                return
            try:
                event.callback(*event.args)
            except BaseException as exc:  # surfaced by run()
                self.fail(exc)
                return
        self._rearm()

    # ------------------------------------------------------------------
    # Clock protocol: execution
    # ------------------------------------------------------------------
    def run(
        self, until: float | None = None, max_events: int | None = None
    ) -> None:
        """Drive the loop until ``until`` virtual ms, or quiescence.

        Quiescence -- no live timers and every registered idle check
        passing, sustained for ``idle_grace_s`` of wall time -- ends the
        run early, so a scenario with a generous settle window does not
        sleep through it on the wall clock.
        """
        loop = self.loop
        self.bind()
        self._budget = (
            None if max_events is None else self._events_processed + max_events
        )
        self._rearm()
        started_at = loop.time()
        try:
            loop.run_until_complete(self._supervise(until))
        finally:
            self.wall_elapsed_s += loop.time() - started_at
        if self._failure is not None:
            failure = self._failure
            self._failure = None
            raise failure

    async def _supervise(self, until: float | None) -> None:
        for starter in self._starters:
            self.spawn(starter())
        idle_since: float | None = None
        try:
            while True:
                if self._failure is not None:
                    return
                if until is not None and self.now >= until:
                    return
                if self._quiescent():
                    if idle_since is None:
                        idle_since = self.loop.time()
                    elif self.loop.time() - idle_since >= self.idle_grace_s:
                        return
                else:
                    idle_since = None
                await asyncio.sleep(self._poll_s)
        finally:
            tasks, self._service_tasks = self._service_tasks, set()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    def _quiescent(self) -> bool:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if heap:
            return False
        return all(check() for check in self._idle_checks)

    @property
    def timer_lag_mean(self) -> float:
        if not self.timer_lag_count:
            return 0.0
        return self.timer_lag_sum / self.timer_lag_count

    def close(self) -> None:
        if self._owns_loop and self._loop is not None and not self._loop.is_closed():
            self._loop.close()


class AsyncioNetwork(Network):
    """The stock network with an asyncio-native delivery hop.

    Delay sampling, FIFO clamping, partitions and drop hooks all run in
    the inherited :meth:`~repro.net.network.Network.send`; only the
    final hop differs.  Once a message's (virtual) delivery time
    arrives, it is enqueued on the destination member's
    :class:`asyncio.Queue` and handed to the endpoint by that member's
    pump task -- or, with ``tcp=True``, first crosses a localhost TCP
    connection as a wire-codec frame (``codec`` selects canonical or
    binwire; both ends of a run share one spec, so they always agree)
    and is enqueued by the destination's frame server.
    """

    def __init__(
        self,
        clock: AsyncioClock,
        default_delay: DelayModel | None = None,
        fifo: bool = True,
        name: str = "net",
        tcp: bool = False,
        codec: str = "canonical",
    ) -> None:
        super().__init__(clock, default_delay=default_delay, fifo=fifo, name=name)
        self.tcp = tcp
        self.codec = codec
        self._encode, self._decode = wire_codec(codec)
        self._clock = clock
        self._queues: dict[str, asyncio.Queue] = {}
        self._servers: dict[str, asyncio.base_events.Server] = {}
        self._ports: dict[str, int] = {}
        self._peers: dict[str, _TcpPeer] = {}
        self._conn_tasks: list[asyncio.Task] = []
        #: Messages past their delivery time but not yet handed to an
        #: endpoint (queued, on a socket, or in a pump's hands); the
        #: clock must not conclude quiescence while any are in transit.
        self._transit = 0
        clock.add_starter(self._start)
        clock.add_idle_check(self._idle)

    # -- wiring --------------------------------------------------------
    def register(self, address: str, endpoint) -> None:
        super().register(address, endpoint)
        if address not in self._queues:
            self._queues[address] = asyncio.Queue()

    def _idle(self) -> bool:
        if self._transit:
            return False
        return all(queue.empty() for queue in self._queues.values())

    async def _start(self) -> None:
        if self.tcp:
            for address in list(self._queues):
                if address not in self._servers:
                    server = await asyncio.start_server(
                        self._on_connection, host="127.0.0.1", port=0
                    )
                    self._servers[address] = server
                    self._ports[address] = server.sockets[0].getsockname()[1]
        for address in list(self._queues):
            self._clock.spawn(self._pump(address))

    # -- delivery ------------------------------------------------------
    def _deliver(self, envelope) -> None:
        if envelope.dst not in self._queues:
            self.stats.messages_dropped += 1
            return
        self._transit += 1
        if self.tcp:
            self._peer(envelope.dst).send(self._encode(envelope))
        else:
            self._queues[envelope.dst].put_nowait(envelope)

    async def _pump(self, address: str) -> None:
        queue = self._queues[address]
        while True:
            envelope = await queue.get()
            try:
                endpoint = self._endpoints.get(envelope.dst)
                if endpoint is None:
                    self.stats.messages_dropped += 1
                else:
                    self.stats.messages_delivered += 1
                    endpoint.deliver(envelope)
            finally:
                self._transit -= 1

    # -- TCP hop -------------------------------------------------------
    def _peer(self, dst: str) -> "_TcpPeer":
        peer = self._peers.get(dst)
        if peer is None:
            peer = _TcpPeer(self, dst)
            self._peers[dst] = peer
        return peer

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Inbound connections must outlive a single clock run -- a
        # workload calls run() repeatedly and the client side keeps its
        # connection across those calls -- so handlers are tracked here
        # and cancelled at network close(), not at run teardown.
        task = self._clock.loop.create_task(self._serve(reader, writer))
        task.add_done_callback(self._conn_done)
        self._conn_tasks.append(task)

    def _conn_done(self, task: asyncio.Task) -> None:
        if not task.cancelled():
            exc = task.exception()
            if exc is not None:
                self._clock.fail(exc)

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                data = await read_frame(reader)
                if data is None:
                    return
                envelope = self._decode(data)
                queue = self._queues.get(envelope.dst)
                if queue is None:
                    self.stats.messages_dropped += 1
                    self._transit -= 1
                else:
                    queue.put_nowait(envelope)
        finally:
            writer.close()

    async def port_of(self, address: str) -> int:
        """The frame server port of an address, once servers are up."""
        while address not in self._ports:
            if address not in self._queues:
                raise KeyError(f"no endpoint registered at {address!r}")
            await asyncio.sleep(0.001)
        return self._ports[address]

    def close(self) -> None:
        for peer in self._peers.values():
            peer.close()
        self._peers.clear()
        for server in self._servers.values():
            server.close()
        self._servers.clear()
        self._ports.clear()
        tasks = [task for task in self._conn_tasks if not task.done()]
        self._conn_tasks.clear()
        for task in tasks:
            task.cancel()
        loop = self._clock._loop
        if tasks and loop is not None and not loop.is_closed() and not loop.is_running():
            loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))


class _TcpPeer:
    """One outbound connection (lazily opened, retried with backoff)."""

    def __init__(self, network: AsyncioNetwork, dst: str) -> None:
        self.network = network
        self.dst = dst
        self.outbound: collections.deque[bytes] = collections.deque()
        self._writer: asyncio.StreamWriter | None = None
        self._task: asyncio.Task | None = None

    def send(self, payload: bytes) -> None:
        self.outbound.append(frame(payload))
        if self._task is None or self._task.done():
            self._task = self.network._clock.spawn(self._drain())

    async def _drain(self) -> None:
        writer = await self._connect()
        while self.outbound:
            while self.outbound:
                writer.write(self.outbound.popleft())
            await writer.drain()

    async def _connect(self) -> asyncio.StreamWriter:
        if self._writer is not None and not self._writer.is_closing():
            return self._writer
        port = await self.network.port_of(self.dst)
        last_error: OSError | None = None
        delays = backoff_delays()
        for attempt, delay_ms in enumerate(delays):
            try:
                _reader, writer = await asyncio.open_connection("127.0.0.1", port)
                self._writer = writer
                return writer
            except OSError as exc:
                last_error = exc
                if attempt + 1 < len(delays):
                    await asyncio.sleep(delay_ms / 1000.0)
        raise ConnectionError(
            f"cannot reach {self.dst!r} on 127.0.0.1:{port} "
            f"after {len(delays)} attempts"
        ) from last_error

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


class AsyncioTransport(Transport):
    """Wall-clock transport: an :class:`AsyncioClock` plus its networks."""

    kind = "asyncio"

    def __init__(
        self,
        seed: int = 0,
        trace: TraceRecorder | None = None,
        tcp: bool = False,
        time_scale: float = 1.0,
        loop: asyncio.AbstractEventLoop | None = None,
        codec: str = "canonical",
    ) -> None:
        super().__init__(
            AsyncioClock(seed=seed, trace=trace, loop=loop, time_scale=time_scale)
        )
        self.tcp = tcp
        self.codec = codec
        self._networks: list[AsyncioNetwork] = []

    @property
    def aio_clock(self) -> AsyncioClock:
        return self.clock  # type: ignore[return-value]

    def make_network(
        self,
        default_delay: DelayModel | None = None,
        name: str = "net",
    ) -> AsyncioNetwork:
        network = AsyncioNetwork(
            self.aio_clock,
            default_delay=default_delay,
            name=name,
            tcp=self.tcp,
            codec=self.codec,
        )
        self._networks.append(network)
        return network

    def wall_metrics(self) -> dict[str, float]:
        clock = self.aio_clock
        return {
            "wall_elapsed_s": clock.wall_elapsed_s,
            "timer_slack_mean_ms": clock.timer_lag_mean,
            "timer_slack_max_ms": clock.timer_lag_max,
        }

    def close(self) -> None:
        for network in self._networks:
            network.close()
        self.aio_clock.close()
