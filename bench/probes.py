"""Direct probes: short timed loops over public functions.

Each probe times one layer's hot function on seed-generated inputs and
reports microseconds per call -- the same ground the 14 ``repro bench``
micro/mini benches cover, restated under layer names so a change to one
layer shows in that layer's probe and nowhere else.  A probe runs
batches for ``BUDGET_S`` and reports the median batch, so one scheduling
hiccup cannot move it.
"""

from __future__ import annotations

import asyncio
import random
import time
import typing

from bench import harness
from repro import perf
from repro.app.kvstore import KvStore
from repro.corba import Node, ObjectRef, Servant
from repro.core.messages import FsOutput
from repro.crypto.binwire import binwire_decode, binwire_encode
from repro.crypto.canonical import canonical_encode
from repro.crypto.ed25519 import Ed25519Scheme
from repro.crypto.signing import HmacScheme, RsaScheme, SignatureScheme
from repro.experiments import ScenarioSpec, build_ordering_group
from repro.net import ConstantDelay, Network
from repro.service.gateway import DeliveryEvent, OrderingGateway
from repro.service.http import format_sse, read_request, render_response
from repro.service.ratelimit import RateLimiter
from repro.sim import Simulator
from repro.transport.wire import frame, wire_decode, wire_encode

BUDGET_S = 0.15

#: A probe body: run one batch, return how many calls it made.  ``setup``
#: work (building fresh inputs) happens outside the timed call.
Batch = typing.Callable[[], int]


def _us_per_call(make_batch: typing.Callable[[int], Batch]) -> float:
    """Median microseconds per call over batches filling ``BUDGET_S``."""
    samples = []
    deadline = time.perf_counter() + BUDGET_S
    index = 0
    while not samples or time.perf_counter() < deadline:
        batch = make_batch(index)
        started = time.perf_counter()
        calls = batch()
        samples.append((time.perf_counter() - started) * 1e6 / calls)
        index += 1
    return harness.median(samples)


def _message(seed: int, i: int) -> FsOutput:
    """A representative double-signed multicast payload."""
    return FsOutput(
        fs_id="bench.gc", input_seq=i, output_idx=0,
        target=ObjectRef(node="bench-node", key="bench.inv"),
        method="multicast", args=("group", "symmetric_total", f"payload-{seed}-{i}"),
    )


def _sign_verify(scheme: SignatureScheme, seed: int, calls: int) -> float:
    private, public = scheme.generate(random.Random(seed))

    def make(index: int) -> Batch:
        def batch() -> int:
            for i in range(calls):
                data = b"bench-%d-%d-%d" % (seed, index, i)
                if not scheme.verify(public, data, scheme.sign(private, data)):
                    raise AssertionError("signature did not verify")
            return calls
        return batch

    return _us_per_call(make)


def _encode_fresh(encode: typing.Callable[[typing.Any], bytes], seed: int) -> float:
    def make(index: int) -> Batch:
        messages = [_message(seed, index * 500 + i) for i in range(500)]
        perf.clear_caches()

        def batch() -> int:
            for message in messages:
                encode(message)
            return len(messages)
        return batch

    return _us_per_call(make)


def _repeat(fn: typing.Callable[[], typing.Any], calls: int) -> float:
    def make(_index: int) -> Batch:
        def batch() -> int:
            for _ in range(calls):
                fn()
            return calls
        return batch

    return _us_per_call(make)


def _wire_roundtrip(seed: int) -> float:
    def make(index: int) -> Batch:
        messages = [_message(seed, index * 200 + i) for i in range(200)]
        perf.clear_caches()

        def batch() -> int:
            for message in messages:
                if wire_decode(frame(wire_encode(message))[4:]) != message:
                    raise AssertionError("wire round-trip changed the message")
            return len(messages)
        return batch

    return _us_per_call(make)


def _sim_events() -> float:
    def make(_index: int) -> Batch:
        sim = Simulator(seed=7, trace=None)
        sim.trace.enabled = False

        def batch() -> int:
            for i in range(20_000):
                sim.schedule(i * 0.01, int)
            sim.run_until_idle()
            return sim.events_processed
        return batch

    return _us_per_call(make)


class _Echo(Servant):
    def echo(self, value: typing.Any) -> typing.Any:
        return value


def _corba_invoke(seed: int) -> float:
    def make(_index: int) -> Batch:
        sim = Simulator(seed=seed, trace=None)
        sim.trace.enabled = False
        net = Network(sim, default_delay=ConstantDelay(1.0))
        caller, callee = Node(sim, "probe-1", net), Node(sim, "probe-2", net)
        ref = callee.activate("echo", _Echo())
        replies: list = []

        def batch() -> int:
            for i in range(500):
                caller.orb.invoke(ref, "echo", i, on_reply=replies.append)
            sim.run_until_idle()
            if len(replies) != 500:
                raise AssertionError(f"{len(replies)} of 500 invocations replied")
            return 500
        return batch

    return _us_per_call(make)


def _read_request(seed: int) -> float:
    body = b'{"payload": "%d", "key": "k-3"}' % seed
    raw = (
        b"POST /v1/submit HTTP/1.1\r\nHost: bench\r\nX-API-Key: sk-probe\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )
    loop = asyncio.new_event_loop()

    async def parse_many() -> int:
        for _ in range(200):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            request = await read_request(reader)
            if request is None or request.body != body:
                raise AssertionError("request did not parse back")
        return 200

    try:
        return _us_per_call(lambda _index: lambda: loop.run_until_complete(parse_many()))
    finally:
        loop.close()


def _submit_refused(seed: int) -> float:
    sim = Simulator(seed=seed, trace=None)
    sim.trace.enabled = False
    spec = ScenarioSpec(system="newtop", n_members=2, seed=seed)
    gateway = OrderingGateway(sim, build_ordering_group(sim, spec))

    def refused() -> None:
        if gateway.submit("sk-not-a-key", payload=1, key="k-0").status != 401:
            raise AssertionError("a bad key was admitted")

    return _repeat(refused, 2000)


def _kv_apply(seed: int) -> float:
    rng = random.Random(seed)
    ops = [
        {"t": rng.choice(("put", "put", "cas", "del")), "k": f"k-{rng.randrange(64)}",
         "v": rng.randrange(1 << 30), "expect": rng.randrange(4)}
        for _ in range(1000)
    ]

    def make(_index: int) -> Batch:
        store = KvStore()

        def batch() -> int:
            for i, op in enumerate(ops):
                store.apply(op, f"m-{i}")
            return len(ops)
        return batch

    return _us_per_call(make)


def run(seed: int) -> dict[str, float]:
    """Every probe, keyed by its per-layer metric name."""
    message = _message(seed, 0)
    encoded = binwire_encode(message)
    event = DeliveryEvent(
        seq=1, shard=0, op_id="op-00000001", client="client-0", key="k-3",
        submitted_at=1.25, delivered_at=41.5,
    )
    limiter = RateLimiter(20, 200.0)
    clock = iter(range(1 << 40))
    results = {
        "crypto.sign.rsa_sign_verify_us": _sign_verify(RsaScheme(bits=256), seed, 20),
        "crypto.sign.ed25519_sign_verify_us": _sign_verify(Ed25519Scheme(), seed, 200),
        "crypto.sign.hmac_sign_verify_us": _sign_verify(HmacScheme(), seed, 500),
        "crypto.codec.canonical_encode_fresh_us": _encode_fresh(canonical_encode, seed),
        "crypto.codec.canonical_encode_cached_us": _repeat(lambda: canonical_encode(message), 5000),
        "crypto.codec.binwire_encode_fresh_us": _encode_fresh(binwire_encode, seed),
        "crypto.codec.binwire_decode_us": _repeat(lambda: binwire_decode(encoded), 500),
        "transport.wire_frame_roundtrip_us": _wire_roundtrip(seed),
        "sim.schedule_drain_us_per_event": _sim_events(),
        "corba.invoke_us": _corba_invoke(seed),
        "service.read_request_us": _read_request(seed),
        "service.render_response_us": _repeat(
            lambda: render_response(202, {"status": 202, "op_id": "op-1", "shard": 0}), 2000
        ),
        "service.format_sse_us": _repeat(lambda: format_sse(event), 2000),
        "service.submit_refused_us": _submit_refused(seed),
        "service.ratelimit_take_us": _repeat(
            lambda: limiter.try_take("client-0", float(next(clock))), 5000
        ),
        "app.kv_apply_us": _kv_apply(seed),
    }
    perf.clear_caches()
    assert set(results) == set(harness.PROBES)
    return results
