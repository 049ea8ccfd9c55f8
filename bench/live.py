"""The live workloads: a real ``repro serve`` child, real sockets.

One process, one thread, at most two connections at a time: a
keep-alive connection for submits (and the ``/metrics`` + ``/v1/status``
scrapes that bracket the timed phase) and one SSE stream.  The server
is the unmodified CLI, started in its own process group so every exit
path can kill it; with ``profile`` set it runs under ``python -m
cProfile`` and is stopped with SIGINT so the profile is written.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import pathlib
import pstats
import random
import re
import signal
import sys
import time
import typing

from bench import harness
from bench.harness import Op, PromDelta, percentile

READY_TIMEOUT_S = 60.0
#: An op with no SSE event this long after the last send is lost.
LOST_AFTER_S = 5.0
LATE_LIMIT_MS = 500.0
WARMUP_OPS = 10
_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)


class ServerGone(Exception):
    """The server closed a connection or exited mid-run."""


class PrefillStalled(ServerGone):
    """Set-up never finished: the fresh deployment stopped ordering."""


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` child process in its own process group."""

    def __init__(self, proc: asyncio.subprocess.Process, spawned_at: float) -> None:
        self.proc = proc
        self.pid = proc.pid
        self.spawned_at = spawned_at
        self.port = 0
        self.keys: list[tuple[str, str]] = []  # (client id, api key)

    @property
    def exited(self) -> bool:
        return self.proc.returncode is not None

    async def _await_banner(self) -> None:
        assert self.proc.stdout is not None
        while True:
            raw = await self.proc.stdout.readline()
            if not raw:
                raise ServerGone(f"server exited before binding (rc={self.proc.returncode})")
            line = raw.decode().rstrip()
            if line.startswith("  client-"):
                client, _, key = line.strip().partition(": ")
                self.keys.append((client, key))
            elif line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                return

    def cpu_ms(self) -> float:
        return harness.proc_cpu_ms(self.pid)

    def rss_kb(self) -> tuple[float, float]:
        return harness.proc_rss_kb(self.pid)

    async def stop(self, write_profile: bool) -> None:
        """End the child: SIGINT first when a profile must be written
        (cProfile dumps in a ``finally``), then SIGKILL the group."""
        if write_profile and not self.exited:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.pid, signal.SIGINT)
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self.proc.wait(), timeout=20.0)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.pid, signal.SIGKILL)
        await self.proc.wait()


@contextlib.asynccontextmanager
async def serve(
    args: typing.Sequence[str],
    seed: int,
    log: pathlib.Path,
    lifetime_s: float,
    profile: pathlib.Path | None = None,
):
    """Start ``python -m repro serve <args> --port 0``; yields once it
    has bound.  The group is killed on every way out of the block."""
    command = [sys.executable, "-u"]
    if profile is not None:
        command += ["-m", "cProfile", "-o", str(profile)]
    command += ["-m", "repro", "serve", *args, "--seed", str(seed),
                "--port", "0", "--for", f"{lifetime_s:g}"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(harness.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned_at = time.perf_counter()
    with log.open("ab") as stderr:
        proc = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, stderr=stderr,
            env=env, cwd=str(harness.ROOT), start_new_session=True,
        )
    server = Server(proc, spawned_at)
    try:
        await asyncio.wait_for(server._await_banner(), READY_TIMEOUT_S)
        yield server
    finally:
        await server.stop(write_profile=profile is not None)


# ----------------------------------------------------------------------
# the HTTP/SSE client
# ----------------------------------------------------------------------
class HttpConn:
    """A keep-alive HTTP/1.1 connection with pipelining."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self._buf = bytearray()

    @classmethod
    async def open(cls, port: int) -> "HttpConn":
        try:
            return cls(*await asyncio.open_connection("127.0.0.1", port))
        except OSError as exc:
            raise ServerGone(f"connect failed: {exc}") from exc

    @staticmethod
    def encode(method: str, path: str, key: str | None = None, body: bytes = b"") -> bytes:
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        if key is not None:
            head += f"X-API-Key: {key}\r\n"
        if body:
            head += f"Content-Length: {len(body)}\r\n"
        return head.encode() + b"\r\n" + body

    def send(self, data: bytes) -> None:
        if self.writer.is_closing():
            raise ServerGone("connection closed")
        self.writer.write(data)

    async def _fill(self) -> None:
        try:
            chunk = await self.reader.read(1 << 16)
        except ConnectionError as exc:
            raise ServerGone(str(exc)) from exc
        if not chunk:
            raise ServerGone("connection closed by server")
        self._buf += chunk

    async def response(self) -> tuple[int, bytes]:
        """The next pipelined response: (status, body)."""
        buf = self._buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            await self._fill()
        match = _CONTENT_LENGTH.search(buf, 0, end)
        total = end + 4 + (int(match.group(1)) if match else 0)
        while len(buf) < total:
            await self._fill()
        status = int(buf[9:12])
        body = bytes(buf[end + 4 : total])
        del buf[:total]
        return status, body

    async def request(self, method: str, path: str, key: str | None = None,
                      body: bytes = b"") -> tuple[int, bytes]:
        self.send(self.encode(method, path, key, body))
        return await self.response()

    async def read_events(self, on_event, limit: int | None = None) -> int:
        """After ``GET /v1/stream``: skip the response head, then call
        ``on_event(document, received_at)`` per SSE event until
        ``limit`` events or EOF.  Returns the number read."""
        buf = self._buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            await self._fill()
        if int(buf[9:12]) != 200:
            raise ServerGone(f"stream refused: {bytes(buf[:end])!r}")
        del buf[: end + 4]
        seen = 0
        while limit is None or seen < limit:
            while (end := buf.find(b"\n\n")) < 0:
                try:
                    await self._fill()
                except ServerGone:
                    return seen
            received_at = time.perf_counter()
            block = bytes(buf[:end])
            del buf[: end + 2]
            at = block.find(b"data: ")
            if at < 0 or block.startswith(b"event: error"):
                continue  # the retry: preamble
            on_event(json.loads(block[at + 6 :]), received_at)
            seen += 1
        return seen

    def close(self) -> None:
        self.writer.close()


def _submit_bytes(op: Op, key: str) -> bytes:
    body = json.dumps({"payload": op.payload, "key": op.key}).encode()
    return HttpConn.encode("POST", "/v1/submit", key, body)


# ----------------------------------------------------------------------
# one server lifetime of an ordering workload
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Phase:
    """What one server lifetime measured (set-up, then a timed phase)."""

    setup_s: float = 0.0
    attempted: int = 0
    delivered: int = 0
    failed: int = 0
    late: int = 0
    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    #: The server's own submit -> sequenced time, echoed on each event.
    sequenced_ms: list[float] = dataclasses.field(default_factory=list)
    generator_late_ms: list[float] = dataclasses.field(default_factory=list)
    span_s: float = 0.0
    server_cpu_ms: float = 0.0
    client_cpu_ms: float = 0.0
    rss_growth_kb: float = 0.0
    peak_rss_kb: float = 0.0
    errors: list[str] = dataclasses.field(default_factory=list)
    #: Why earlier attempts at this lifetime's set-up were thrown away.
    setup_retries: list[str] = dataclasses.field(default_factory=list)
    prom: PromDelta | None = None


class _Feed:
    """The SSE consumer: records every event, checks the feed itself."""

    def __init__(self) -> None:
        self.events: dict[str, tuple[float, dict]] = {}
        self.next_seq: dict[int, int] = {}
        self.duplicates = 0
        self.out_of_order = 0
        self.arrived = asyncio.Semaphore(0)

    def on_event(self, event: dict, received_at: float) -> None:
        shard = event["shard"]
        expected = self.next_seq.get(shard, 0) + 1
        if event["seq"] != expected:
            self.out_of_order += 1
        self.next_seq[shard] = max(expected, event["seq"])
        if event["op_id"] in self.events:
            self.duplicates += 1
        self.events[event["op_id"]] = (received_at, event)
        self.arrived.release()


async def _submit_all(
    conn: HttpConn, server: Server, feed: _Feed, ops: list[Op], window: int | None
) -> tuple[dict[int, float], dict[int, float], dict[int, str]]:
    """Send ``ops`` -- open loop on their due times when ``window`` is
    None, else closed loop with ``window`` outstanding -- and read every
    response.  Returns (due-or-sent time, generator lateness, op id) by
    op index; stops early if the server goes away."""
    started: dict[int, float] = {}
    lateness: dict[int, float] = {}
    op_ids: dict[int, str] = {}
    awaiting: asyncio.Queue[int | None] = asyncio.Queue()

    async def read_responses() -> None:
        while (index := await awaiting.get()) is not None:
            status, body = await conn.response()
            if status == 202:
                op_ids[index] = json.loads(body)["op_id"]
            else:
                feed.arrived.release()  # a refusal frees its window slot too

    reader = asyncio.ensure_future(read_responses())
    t0 = time.perf_counter()
    try:
        for _ in range(window or 0):
            feed.arrived.release()
        for op in ops:
            if window is None:
                due = t0 + op.due_s
                if (delay := due - time.perf_counter()) > 0:
                    await asyncio.sleep(delay)
                started[op.index] = due
                lateness[op.index] = (time.perf_counter() - due) * 1000.0
            else:
                try:
                    await asyncio.wait_for(feed.arrived.acquire(), LOST_AFTER_S)
                except asyncio.TimeoutError:
                    break  # the window is full of lost ops: stop issuing
                started[op.index] = time.perf_counter()
            if reader.done():
                break  # the server went away; the rest is never sent
            awaiting.put_nowait(op.index)
            conn.send(_submit_bytes(op, server.keys[op.client][1]))
        awaiting.put_nowait(None)
        await reader
    except ServerGone:
        pass
    finally:
        reader.cancel()
        with contextlib.suppress(asyncio.CancelledError, ServerGone):
            await reader
    return started, lateness, op_ids


async def _drain(feed: _Feed, op_ids: typing.Collection[str], last_send: float) -> None:
    """Wait until every admitted op has its event, or ``LOST_AFTER_S``."""
    while not all(op_id in feed.events for op_id in op_ids):
        if time.perf_counter() - last_send > LOST_AFTER_S:
            return
        await asyncio.sleep(0.005)


async def ordering_lifetime(server: Server, ops: list[Op], window: int | None) -> Phase:
    """Warm one fresh deployment up, run ``ops`` through it, check every
    output.  An empty ``ops`` measures set-up only."""
    phase = Phase(attempted=len(ops))
    feed = _Feed()
    try:
        conn = await HttpConn.open(server.port)
        stream = await HttpConn.open(server.port)
    except ServerGone as exc:
        phase.failed = phase.late = len(ops)
        phase.errors.append(f"server went away before the run: {exc}")
        return phase
    cursors = ",".join(f"{shard}:0" for shard in range(FLEET_SHARDS))
    stream.send(HttpConn.encode("GET", f"/v1/stream?from={cursors}", server.keys[0][1]))
    consumer = asyncio.ensure_future(stream.read_events(feed.on_event))
    try:
        warm = harness.make_ops(-1, WARMUP_OPS)
        _, _, warm_ids = await _submit_all(conn, server, feed, warm, 4)
        await _drain(feed, warm_ids.values(), time.perf_counter())
        while not feed.arrived.locked():  # forget the warm-up's arrivals
            await feed.arrived.acquire()
        phase.setup_s = time.perf_counter() - server.spawned_at
        if not ops:
            return phase
        before = (await conn.request("GET", "/metrics"))[1].decode()
        cpu0, (rss0, _) = server.cpu_ms(), server.rss_kb()
        client0 = time.process_time()
        first = time.perf_counter()

        started, lateness, op_ids = await _submit_all(conn, server, feed, ops, window)
        await _drain(feed, op_ids.values(), time.perf_counter())

        phase.client_cpu_ms = (time.process_time() - client0) * 1000.0
        if server.exited:
            raise ServerGone(f"server exited (rc={server.proc.returncode})")
        phase.server_cpu_ms = server.cpu_ms() - cpu0
        rss1, hwm = server.rss_kb()
        phase.rss_growth_kb, phase.peak_rss_kb = rss1 - rss0, hwm
        after = (await conn.request("GET", "/metrics"))[1].decode()
        phase.prom = PromDelta(before, after)
        status = json.loads((await conn.request("GET", "/v1/status", server.keys[0][1]))[1])
    except ServerGone as exc:
        # Whatever was not confirmed delivered counts as failed -- here
        # that is the whole phase: a dead server cannot vouch for any op.
        phase.failed = phase.late = len(ops)
        phase.errors.append(f"server went away mid-run: {exc}")
        return phase
    finally:
        consumer.cancel()
        with contextlib.suppress(asyncio.CancelledError, ServerGone):
            await consumer
        conn.close()
        stream.close()

    # -- outputs ---------------------------------------------------------
    phase.generator_late_ms = list(lateness.values())
    last_event = first
    for op in ops:
        op_id = op_ids.get(op.index)
        arrival = feed.events.get(op_id) if op_id is not None else None
        if arrival is None:
            phase.failed += 1  # never sent, refused, or admitted and lost
            phase.late += 1
            continue
        received_at, event = arrival
        if event["client"] != server.keys[op.client][0] or event["key"] != op.key:
            phase.failed += 1
            phase.errors.append(f"{op_id}: echoed client/key differ from the submit")
            continue
        phase.delivered += 1
        latency = (received_at - started[op.index]) * 1000.0
        phase.latencies_ms.append(latency)
        phase.sequenced_ms.append(event["delivered_at"] - event["submitted_at"])
        phase.late += latency > LATE_LIMIT_MS
        last_event = max(last_event, received_at)
    phase.span_s = last_event - first
    if phase.failed:
        phase.errors.append(f"{phase.failed} of {len(ops)} ops refused, lost or wrong")
    if feed.duplicates or feed.out_of_order:
        phase.failed += feed.duplicates + feed.out_of_order
        phase.errors.append(
            f"feed: {feed.duplicates} duplicate, {feed.out_of_order} out-of-order seq"
        )
    expected = WARMUP_OPS + phase.delivered
    if not status["admitted"] == status["sequenced"] == expected:
        phase.errors.append(
            f"status admitted={status['admitted']} sequenced={status['sequenced']}, "
            f"delivered {expected}"
        )
    if any(status["rejected"].values()):
        phase.errors.append(f"status rejected={status['rejected']}")
    if fail_signals := phase.prom.value("repro_fso_fail_signals_total"):
        phase.errors.append(f"{fail_signals:g} spurious fail-signals")
    return phase


# ----------------------------------------------------------------------
# the gateway-edge lifetime
# ----------------------------------------------------------------------
EDGE_PREFILL = 120
#: A profiled server orders ~10 ops/s, so a 16-op chunk can need more
#: than ``LOST_AFTER_S``.
PREFILL_TIMEOUT_S = 10.0
_EDGE_STATUSES = (401, 200, 200, 404) * 16


async def _prefill(conn: HttpConn, server: Server, ops: list[Op]) -> list[str]:
    """Order ``ops`` in chunks the default token buckets admit (burst 20
    per client, four clients), polling ``/v1/status`` until each chunk
    is sequenced.  Returns the op ids."""
    op_ids = []
    for at in range(0, len(ops), 16):
        for op in ops[at : at + 16]:
            status, body = await conn.request(
                "POST", "/v1/submit", server.keys[op.client][1],
                json.dumps({"payload": op.payload, "key": op.key}).encode(),
            )
            if status != 202:
                raise ServerGone(f"prefill submit refused: {status} {body!r}")
            op_ids.append(json.loads(body)["op_id"])
        give_up = time.perf_counter() + PREFILL_TIMEOUT_S
        while True:
            _, body = await conn.request("GET", "/v1/status", server.keys[0][1])
            if json.loads(body)["sequenced"] >= len(op_ids):
                break
            if time.perf_counter() > give_up:
                text = (await conn.request("GET", "/metrics"))[1].decode()
                signals = PromDelta("", text).value("repro_fso_fail_signals_total")
                raise PrefillStalled(
                    f"prefill stalled at {json.loads(body)['sequenced']} of {len(op_ids)} "
                    f"sequenced, {signals:g} fail-signals"
                )
            await asyncio.sleep(0.01)
    return op_ids


async def _replay(server: Server, op_ids: list[str]) -> bool:
    """Open the feed from the start, read the prefilled events, close."""
    stream = await HttpConn.open(server.port)
    events: list[dict] = []
    try:
        stream.send(HttpConn.encode("GET", "/v1/stream?from=0:0", server.keys[0][1]))
        await stream.read_events(lambda event, _at: events.append(event), len(op_ids))
    finally:
        stream.close()
    return [e["seq"] for e in events] == list(range(1, len(op_ids) + 1)) and [
        e["op_id"] for e in events
    ] == op_ids


async def edge_lifetime(server: Server, seed: int, seconds: float) -> Phase:
    """Prefill the feed, then hammer the gateway's read side: cycles of
    two pipelined 64-request rounds and one full SSE replay."""
    phase = Phase()
    rng = random.Random(f"bench/edge/{seed}")
    bad_key = f"sk-{rng.getrandbits(128):032x}"
    good_key = server.keys[0][1]
    round_bytes = 16 * (
        HttpConn.encode("POST", "/v1/submit", bad_key, b'{"payload": 1, "key": "k-0"}')
        + HttpConn.encode("GET", "/healthz")
        + HttpConn.encode("GET", "/v1/status", good_key)
        + HttpConn.encode("GET", "/nope")
    )
    try:
        conn = await HttpConn.open(server.port)
    except ServerGone as exc:
        phase.attempted = phase.failed = 1
        phase.errors.append(f"server went away before the run: {exc}")
        return phase
    rounds = 0
    try:
        op_ids = await _prefill(conn, server, harness.make_ops(seed, EDGE_PREFILL))
        phase.setup_s = time.perf_counter() - server.spawned_at
        if seconds <= 0:
            return phase
        before = (await conn.request("GET", "/metrics"))[1].decode()
        cpu0, (rss0, _) = server.cpu_ms(), server.rss_kb()
        client0 = time.process_time()
        first = time.perf_counter()
        # The latency sample is one *cycle* -- two pipelined rounds and
        # the replay between them: a round that follows a replay costs
        # ~1 ms more than one that does not, and a median over a 50/50
        # mix of the two would flip between the modes from run to run.
        while (now := time.perf_counter()) - first < seconds:
            for _ in range(2):
                conn.send(round_bytes)
                for expected in _EDGE_STATUSES:
                    status, _body = await conn.response()
                    phase.failed += status != expected
            phase.failed += not await _replay(server, op_ids)
            phase.latencies_ms.append((time.perf_counter() - now) * 1000.0)
            rounds += 2
            phase.attempted += 2 * len(_EDGE_STATUSES) + 1
        phase.span_s = time.perf_counter() - first
        phase.client_cpu_ms = (time.process_time() - client0) * 1000.0
        phase.server_cpu_ms = server.cpu_ms() - cpu0
        rss1, hwm = server.rss_kb()
        phase.rss_growth_kb, phase.peak_rss_kb = rss1 - rss0, hwm
        after = (await conn.request("GET", "/metrics"))[1].decode()
        phase.prom = PromDelta(before, after)
        status = json.loads((await conn.request("GET", "/v1/status", good_key))[1])
    except PrefillStalled:
        raise
    except ServerGone as exc:
        phase.attempted = max(phase.attempted, 1)
        phase.failed = phase.attempted
        phase.errors.append(f"server went away mid-run: {exc}")
        return phase
    finally:
        conn.close()
    phase.delivered = phase.attempted - phase.failed
    if phase.failed:
        phase.errors.append(f"{phase.failed} requests got the wrong status or replay")
    if not status["admitted"] == status["sequenced"] == EDGE_PREFILL:
        phase.errors.append(f"status moved during a read-only phase: {status}")
    if status["rejected"]["auth"] != 16 * rounds:
        phase.errors.append(
            f"rejected.auth={status['rejected']['auth']}, sent {16 * rounds} bad keys"
        )
    if fail_signals := phase.prom.value("repro_fso_fail_signals_total"):
        phase.errors.append(f"{fail_signals:g} spurious fail-signals")
    return phase


# ----------------------------------------------------------------------
# the three live workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LiveWorkload:
    serve_args: tuple[str, ...]
    #: Ordered ops per server lifetime.  Heap growth (~210 KB/op in
    #: process, ~570 KB/op over TCP at HEAD) stretches gen-2 GC pauses
    #: past the calibrated 100 ms delta, and every pair then
    #: fail-signals: first seen after 273 ops over TCP and 371 in
    #: process, so a lifetime stops well short of that (README findings).
    lifetime_ops: int
    rate_per_s: float | None  # open loop when set
    window: int | None  # closed loop when set
    tail_cap: float


_FLEET = ("--scenario", "svc_fleet_1k", "--transport", "asyncio",
          "--crypto", "ed25519:binwire")
FLEET_SHARDS = 2
WORKLOADS = {
    "svc_open_tcp": LiveWorkload((*_FLEET, "--tcp"), 120, 12.0, None, 0.95),
    "svc_closed": LiveWorkload(_FLEET, 240, None, 32, 0.95),
    "svc_edge": LiveWorkload(
        ("--transport", "asyncio", "--crypto", "ed25519:binwire"), EDGE_PREFILL, None, None, 0.9
    ),
}
#: cProfile makes the server ~2.5x slower per op, so a traced open loop
#: (and its unprofiled reference phase) offers this share of the rate:
#: utilisation stays where the untraced run has it instead of saturating.
TRACED_RATE_SCALE = 0.4


async def _lifetimes(
    name: str, seed: int, budget_s: float, out: pathlib.Path, profiled: bool,
    rate_scale: float = 1.0,
) -> tuple[list[Phase], list[pathlib.Path]]:
    """Fresh server lifetimes until ``budget_s`` of timed phase is used
    (``budget_s == 0``: one set-up-only lifetime)."""
    spec = WORKLOADS[name]
    rate = spec.rate_per_s * rate_scale if spec.rate_per_s else None
    phases: list[Phase] = []
    profiles: list[pathlib.Path] = []
    stalls: list[str] = []
    used = last = 0.0
    while not phases or budget_s - used >= (1.0 if rate else max(last, 1.0)):
        remaining = budget_s - used
        profile = out / f"{name}-{len(profiles)}{'' if budget_s else '-startup'}.prof"
        async with serve(
            spec.serve_args, seed, out / "server.log",
            lifetime_s=remaining + 60.0, profile=profile if profiled else None,
        ) as server:
            if name == "svc_edge":
                try:
                    phase = await edge_lifetime(server, seed, remaining)
                except PrefillStalled as exc:
                    # Seen once in ~90 fresh 4-member deployments at HEAD:
                    # ordering stops during prefill.  No timed op has been
                    # attempted yet, so set-up is retried once on a fresh
                    # server and the stall is reported with the result.
                    stalls.append(str(exc))
                    if len(stalls) == 1:
                        continue
                    phase = Phase(attempted=1, failed=1, errors=[f"set-up failed twice: {exc}"])
                phase.setup_retries, stalls = stalls, []
                last = remaining
            else:
                count = spec.lifetime_ops if budget_s else 0
                if rate:
                    count = min(count, round(remaining * rate))
                ops = harness.make_ops(f"{seed}/{len(phases)}", count, rate)
                phase = await ordering_lifetime(server, ops, spec.window)
                # The open loop's plan is exact; the closed loop's
                # duration is whatever the server sustained.
                last = count / rate if rate else phase.span_s
        if profiled:
            profiles.append(profile)
        phases.append(phase)
        used += last
        if not budget_s or phase.errors:
            break
    return phases, profiles


def _end_to_end(phases: list[Phase], tail_cap: float) -> tuple[dict, dict]:
    """End-to-end metrics (all but ``setup_s``) and their detail, pooled
    over the given lifetimes."""
    latencies = [ms for p in phases for ms in p.latencies_ms]
    delivered = max(1, sum(p.delivered for p in phases))
    tail_q = harness.tail_quantile(len(latencies), tail_cap)
    end_to_end = {
        "e2e_p50_ms": percentile(latencies, 0.5),
        "e2e_tail_ms": percentile(latencies, tail_q),
        "ops_per_s": delivered / max(1e-9, sum(p.span_s for p in phases)),
        "cpu_ms_per_op": sum(p.server_cpu_ms for p in phases) / delivered,
        "peak_rss_mb": harness.median([p.peak_rss_kb for p in phases]) / 1024.0,
    }
    detail = {
        "latency_samples": len(latencies),
        "tail_percentile": tail_q,
        "latency_ladder_ms": {
            f"p{q * 100:g}": round(percentile(latencies, q), 3)
            for q in (0.5, 0.75, 0.9, 0.95, 0.99)
        },
        "rss_kb_per_op": sum(p.rss_growth_kb for p in phases) / delivered,
        "client_cpu_ms_per_op": sum(p.client_cpu_ms for p in phases) / delivered,
        "calibrated_delta_ms": harness.median(
            [p.prom.value("repro_calibrated_delta_ms") for p in phases if p.prom]
        ),
    }
    return end_to_end, detail


def _guards(phases: list[Phase]) -> dict[str, float]:
    """The absolute-bound guards over every lifetime of a run."""
    attempted = max(1, sum(p.attempted for p in phases))
    late_gen = [ms for p in phases for ms in p.generator_late_ms]
    return {
        # The latency limit belongs to the open loop: a closed window of 32
        # sits at 32 / throughput by construction.
        "late_share": sum(p.late for p in phases) / attempted if late_gen else 0.0,
        "failed_share": sum(p.failed for p in phases) / attempted,
        "fail_signals": sum(
            p.prom.value("repro_fso_fail_signals_total") for p in phases if p.prom
        ),
        "generator_late_p99_ms": percentile(late_gen, 0.99),
    }


def _counter_metrics(phases: list[Phase], pooled: dict, detail: dict) -> dict[str, float]:
    """The ``/metrics``-derived per-layer metrics, summed over phases."""
    proms = [p.prom for p in phases if p.prom is not None]
    ops = max(1, sum(p.delivered for p in phases))

    def total(series: str, **labels: str) -> float:
        return sum(prom.value(series, **labels) for prom in proms)

    def per_op(series: str) -> float:
        return total(series) / ops

    flushes = total("repro_batch_flush_outputs_count")
    timers = total("repro_timer_lag_ms_count")
    decisions = total("repro_gateway_admission_total")
    sequenced_p50 = harness.median([ms for p in phases for ms in p.sequenced_ms])
    return {
        "crypto.sign.signs_per_op": per_op("repro_fso_sign_ms_count"),
        "crypto.sign.verifies_per_op": per_op("repro_fso_verify_ms_count"),
        "core.fso.countersigns_per_op": per_op("repro_fso_countersign_ms_count"),
        "crypto.sign.sign_busy_ms_per_op": per_op("repro_fso_sign_ms_sum"),
        "crypto.sign.verify_busy_ms_per_op": per_op("repro_fso_verify_ms_sum"),
        "core.fso.countersign_busy_ms_per_op": per_op("repro_fso_countersign_ms_sum"),
        "core.batching.outputs_per_flush": (
            total("repro_batch_flush_outputs_sum") / flushes if flushes else 0.0
        ),
        "core.batching.deferrals_per_op": per_op("repro_batch_deferrals_total"),
        "shard.barrier_commits_per_op": per_op("repro_shard_barrier_commit_total"),
        "transport.timers_per_op": timers / ops,
        "transport.timer_lag_mean_ms": (
            total("repro_timer_lag_ms_sum") / timers if timers else 0.0
        ),
        "transport.timer_lag_p99_ms": harness.median(
            [p.quantile("repro_timer_lag_ms", 0.99) for p in proms]
        ),
        "transport.calibrated_delta_ms": detail["calibrated_delta_ms"],
        "service.sequenced_p50_ms": sequenced_p50,
        "service.edge_overhead_ms": (
            pooled["e2e_p50_ms"] - sequenced_p50 if sequenced_p50 else 0.0
        ),
        "service.admission_refused_share": (
            1.0 - total("repro_gateway_admission_total", outcome="accepted") / decisions
            if decisions else 0.0
        ),
        "process.rss_kb_per_op": detail["rss_kb_per_op"],
        "bench.client_cpu_ms_per_op": detail["client_cpu_ms_per_op"],
    }


async def run(name: str, seed: int, seconds: float, traced: bool, out: pathlib.Path) -> dict:
    """One live workload, untraced (end-to-end metrics) or traced
    (per-layer metrics from profiled server lifetimes)."""
    spec = WORKLOADS[name]
    result: dict = {"workload": name}
    (out / "server.log").unlink(missing_ok=True)
    if not traced:
        phases, _ = await _lifetimes(name, seed, seconds, out, profiled=False)
        setups = [p.setup_s for p in phases if p.setup_s]
        while len(setups) < harness.SETUP_SAMPLES and not any(p.errors for p in phases):
            (extra,), _ = await _lifetimes(name, seed, 0.0, out, profiled=False)
            if extra.errors or not extra.setup_s:
                phases.append(extra)
                break
            setups.append(extra.setup_s)
        end_to_end, detail = _end_to_end(phases, spec.tail_cap)
        end_to_end = {"setup_s": harness.median(setups), **end_to_end}
        detail.update(
            lifetimes=len(phases),
            setup_samples=len(setups),
        )
        guards = _guards(phases)
        result.update(end_to_end=end_to_end, guards=guards, detail=detail)
    else:
        (startup,), startup_profiles = await _lifetimes(name, seed, 0.0, out, profiled=True)
        reference, _ = await _lifetimes(
            name, seed, seconds * harness.REFERENCE_SHARE, out, False, TRACED_RATE_SCALE
        )
        profiled, profiles = await _lifetimes(
            name, seed, seconds * (1.0 - harness.REFERENCE_SHARE), out, True, TRACED_RATE_SCALE
        )
        phases = [startup, *reference, *profiled]
        pooled, detail = _end_to_end(profiled, spec.tail_cap)
        base, _ = _end_to_end(reference, spec.tail_cap)
        guards = _guards(profiled)
        per_layer = _counter_metrics(profiled, pooled, detail)
        per_layer["bench.generator_late_p99_ms"] = guards["generator_late_p99_ms"]
        per_layer["bench.trace_overhead_ratio"] = (
            pooled["cpu_ms_per_op"] / base["cpu_ms_per_op"] if base["cpu_ms_per_op"] else 0.0
        )
        buckets: dict[str, tuple[float, int]] = {}
        if not any(p.errors for p in phases):
            startup_buckets = harness.bucket_profile(pstats.Stats(str(startup_profiles[0])).stats)
            for profile in profiles:
                served = harness.subtract_buckets(
                    harness.bucket_profile(pstats.Stats(str(profile)).stats), startup_buckets
                )
                for layer, (seconds_, calls) in served.items():
                    have = buckets.get(layer, (0.0, 0))
                    buckets[layer] = (have[0] + seconds_, have[1] + calls)
        ops = max(1, sum(p.delivered for p in profiled))
        for layer in harness.LAYERS:
            per_layer[f"{layer}.self_ms_per_op"] = buckets.get(layer, (0.0, 0))[0] * 1000.0 / ops
        detail["traced_cpu_ms_per_op"] = pooled["cpu_ms_per_op"]
        detail["reference_cpu_ms_per_op"] = base["cpu_ms_per_op"]
        result.update(per_layer=per_layer, guards=guards, detail=detail, buckets=buckets, ops=ops)
    result["detail"]["setup_retries"] = [why for p in phases for why in p.setup_retries]
    result["attempted"] = max(1, sum(p.attempted for p in phases))
    result["failed"] = sum(p.failed for p in phases)
    result["errors"] = [error for p in phases for error in p.errors]
    return result
