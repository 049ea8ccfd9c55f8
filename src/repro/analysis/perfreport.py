"""Fixed benchmark suite behind ``repro bench`` and the CI perf gate.

The suite covers the layers the fast-path caches touch:

* micro -- canonical encoding (fresh and memoised), HMAC and RSA
  sign/verify, and the bare simulator event loop;
* macro -- "mini" fig-6/fig-7 style runs of the full FS-NewTOP stack
  (small groups, few messages, so the whole suite stays CI-sized).

Every benchmark reports ``ops``, ``wall_s`` and ``ops_per_s`` (events
per second for the macro runs).  Reports serialise to JSON;
:func:`compare` diffs a report against a committed baseline with a
relative tolerance band, which is what ``repro bench --check
benchmarks/perf_baseline.json`` and the ``perf-gate`` CI job consume.

Numbers are machine-dependent by nature: refresh the baseline with
``repro bench --update benchmarks/perf_baseline.json`` when the fleet
or the code legitimately changes speed (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import platform
import random
import time
import typing

from repro import perf
from repro.corba.orb import ObjectRef
from repro.core.messages import FsOutput
from repro.crypto.binwire import binwire_encode
from repro.crypto.canonical import canonical_encode
from repro.crypto.ed25519 import HAVE_ED25519
from repro.crypto.provider import CryptoSpec
from repro.crypto.signing import HmacScheme, RsaScheme
from repro.experiments.spec import BatchingSpec, ScenarioSpec, ShardSpec
from repro.sim.scheduler import Simulator

#: Report schema version (bump on incompatible layout changes).
REPORT_VERSION = 1


@dataclasses.dataclass(frozen=True, slots=True)
class BenchResult:
    """One benchmark's measurement."""

    name: str
    ops: int
    wall_s: float

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "ops": self.ops,
            "wall_s": round(self.wall_s, 6),
            "ops_per_s": round(self.ops_per_s, 3),
        }


# ----------------------------------------------------------------------
# the benchmarks
# ----------------------------------------------------------------------
def _bench_message(i: int) -> FsOutput:
    """A representative double-signed multicast payload."""
    return FsOutput(
        fs_id="bench.gc",
        input_seq=i,
        output_idx=0,
        target=ObjectRef(node="bench-node", key="bench.inv"),
        method="multicast",
        args=("group", "symmetric_total", f"payload-{i}"),
    )


def _bench_encode_fresh() -> int:
    """Canonical-encode distinct messages (the cache-miss path)."""
    messages = [_bench_message(i) for i in range(4000)]
    perf.clear_caches()
    for message in messages:
        canonical_encode(message)
    return len(messages)


def _bench_encode_cached() -> int:
    """Re-encode one message (the multicast fan-out hit path)."""
    message = _bench_message(0)
    ops = 100_000
    for __ in range(ops):
        canonical_encode(message)
    return ops


def _bench_hmac_sign_verify() -> int:
    """HMAC sign+verify pairs over distinct payloads (no memo hits)."""
    scheme = HmacScheme()
    private, public = scheme.generate(random.Random(1))
    ops = 5000
    for i in range(ops):
        data = b"bench-payload-%d" % i
        value = scheme.sign(private, data)
        assert scheme.verify(public, data, value)
    return ops


def _bench_binwire_encode_fresh() -> int:
    """Binwire-encode distinct messages (the compact codec's miss path)."""
    messages = [_bench_message(i) for i in range(4000)]
    perf.clear_caches()
    for message in messages:
        binwire_encode(message)
    return len(messages)


def _bench_ed25519_sign_verify() -> int:
    """Ed25519 sign+verify pairs (the ``fastcrypto`` provider)."""
    from repro.crypto.ed25519 import Ed25519Scheme

    scheme = Ed25519Scheme()
    private, public = scheme.generate(random.Random(1))
    ops = 5000
    for i in range(ops):
        data = b"bench-payload-%d" % i
        value = scheme.sign(private, data)
        assert scheme.verify(public, data, value)
    return ops


def _bench_rsa_sign_verify() -> int:
    """From-scratch RSA sign+verify pairs (256-bit, era-style keys)."""
    scheme = RsaScheme(bits=256)
    private, public = scheme.generate(random.Random(1))
    ops = 300
    for i in range(ops):
        data = b"bench-payload-%d" % i
        value = scheme.sign(private, data)
        assert scheme.verify(public, data, value)
    return ops


def _bench_sim_events() -> int:
    """Bare scheduler throughput: schedule and drain no-op events."""
    sim = Simulator(seed=7, trace=None)
    sim.trace.enabled = False
    ops = 100_000

    def noop() -> None:
        pass

    for i in range(ops):
        sim.schedule(i * 0.01, noop)
    sim.run_until_idle()
    return sim.events_processed


#: Mini versions of the figure scenarios: same stack, same shape,
#: CI-sized.  fig6 is the latency configuration (larger payloads, calm
#: LAN); fig7 the small-message throughput configuration.
FIG6_MINI_SPEC = ScenarioSpec(
    system="fs-newtop",
    n_members=4,
    messages_per_member=20,
    interval=100.0,
    message_size=256,
    seed=1,
    settle_ms=10_000.0,
)
FIG7_MINI_SPEC = ScenarioSpec(
    system="fs-newtop",
    n_members=8,
    messages_per_member=8,
    interval=150.0,
    message_size=3,
    seed=1,
    settle_ms=10_000.0,
)
#: The same fig-7 shape driven hard (10ms per-member interval) through
#: the *batched* compare path -- the macro benchmark of the batching
#: layer's host-time cost.  Its simulated-time win is asserted by
#: benchmarks/test_scale_batching.py; here we gate the wall-clock.
SCALE_BATCHED_MINI_SPEC = ScenarioSpec(
    system="fs-newtop",
    n_members=8,
    messages_per_member=8,
    interval=10.0,
    message_size=3,
    seed=1,
    settle_ms=10_000.0,
    batching=BatchingSpec(max_batch=8, max_delay_ms=4.0, max_inflight=4),
)
#: The unbatched control of the same high-rate configuration.
SCALE_UNBATCHED_MINI_SPEC = SCALE_BATCHED_MINI_SPEC.replace(batching=None)
#: The batched high-rate shape deployed as four 2-member shards: the
#: wall-clock cost of the sharded facade (router, agents, S group
#: builds) on shard-local keyed traffic.  Its simulated-time win is
#: asserted by benchmarks/test_scale_sharding.py; here we gate host
#: time.
SCALE_SHARD4_MINI_SPEC = SCALE_BATCHED_MINI_SPEC.replace(
    shard=ShardSpec(shards=4)
)
#: A two-shard run where a fifth of writes cross shards -- the
#: two-phase barrier (reserve/commit multicasts plus holdback) on the
#: host-time hot path.
SCALE_SHARD_XS_MINI_SPEC = SCALE_BATCHED_MINI_SPEC.replace(
    shard=ShardSpec(shards=2, cross_shard_ratio=0.2)
)
#: The batched high-rate shape on the fast crypto engine: ed25519
#: signatures over compact binwire signing bytes.  Simulated time uses
#: the ed25519 provider cost table, so this gates both the host-time
#: cost of the native scheme and the codec's encoding cost.  Suite
#: membership is conditional on the ``fastcrypto`` extra being
#: importable (the default CI jobs run the pure-python fallback).
SCALE_CRYPTO_MINI_SPEC = SCALE_BATCHED_MINI_SPEC.replace(
    crypto=CryptoSpec(provider="ed25519", codec="binwire")
)


def _run_mini(spec: ScenarioSpec) -> int:
    from repro.experiments.runner import build_deployment, run_workload

    perf.clear_caches()
    return run_workload(spec, build_deployment(spec)).sim.events_processed


def _bench_fig6_mini() -> int:
    return _run_mini(FIG6_MINI_SPEC)


def _bench_fig7_mini() -> int:
    return _run_mini(FIG7_MINI_SPEC)


def _bench_scale_batched_mini() -> int:
    return _run_mini(SCALE_BATCHED_MINI_SPEC)


def _bench_scale_unbatched_mini() -> int:
    return _run_mini(SCALE_UNBATCHED_MINI_SPEC)


def _bench_scale_shard4_mini() -> int:
    return _run_mini(SCALE_SHARD4_MINI_SPEC)


def _bench_scale_shard_xs_mini() -> int:
    return _run_mini(SCALE_SHARD_XS_MINI_SPEC)


def _bench_scale_crypto_mini() -> int:
    return _run_mini(SCALE_CRYPTO_MINI_SPEC)


#: The fixed suite, in execution order.  Values return the op count.
#: The ed25519-backed entries join only when the ``fastcrypto`` extra
#: is importable; the committed baseline includes them, so a perf-gate
#: host without the extra fails loudly ("missing") rather than
#: silently dropping crypto coverage.
SUITE: dict[str, typing.Callable[[], int]] = {
    "encode_fresh": _bench_encode_fresh,
    "encode_cached": _bench_encode_cached,
    "binwire_encode_fresh": _bench_binwire_encode_fresh,
    "hmac_sign_verify": _bench_hmac_sign_verify,
    "rsa_sign_verify": _bench_rsa_sign_verify,
    "sim_events": _bench_sim_events,
    "fig6_mini": _bench_fig6_mini,
    "fig7_mini": _bench_fig7_mini,
    "scale_batched_mini": _bench_scale_batched_mini,
    "scale_unbatched_mini": _bench_scale_unbatched_mini,
    "scale_shard4_mini": _bench_scale_shard4_mini,
    "scale_shard_xs_mini": _bench_scale_shard_xs_mini,
}
if HAVE_ED25519:
    SUITE["ed25519_sign_verify"] = _bench_ed25519_sign_verify
    SUITE["scale_crypto_mini"] = _bench_scale_crypto_mini


def run_suite(
    names: typing.Iterable[str] | None = None,
    repeats: int = 1,
    progress: typing.Callable[[str], None] | None = None,
) -> dict[str, BenchResult]:
    """Run (a subset of) the suite; best-of-``repeats`` per benchmark.

    Best-of is the right aggregate for a regression gate: the minimum
    wall-clock is the least noisy estimate of what the code *can* do.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    selected = list(SUITE) if names is None else list(names)
    unknown = [n for n in selected if n not in SUITE]
    if unknown:
        raise KeyError(f"unknown benchmarks: {', '.join(unknown)}")
    results: dict[str, BenchResult] = {}
    for name in selected:
        fn = SUITE[name]
        best: BenchResult | None = None
        for __ in range(repeats):
            perf.clear_caches()
            start = time.perf_counter()
            ops = fn()
            wall = time.perf_counter() - start
            result = BenchResult(name=name, ops=ops, wall_s=wall)
            if best is None or result.wall_s < best.wall_s:
                best = result
        results[name] = best
        if progress is not None:
            progress(
                f"{name:<18} {best.ops:>8} ops  {best.wall_s:8.3f}s  "
                f"{best.ops_per_s:12.1f} ops/s"
            )
    return results


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def build_report(results: dict[str, BenchResult]) -> dict:
    """JSON-able report for storage and baseline comparison."""
    return {
        "version": REPORT_VERSION,
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "benchmarks": {name: r.to_dict() for name, r in results.items()},
    }


def write_report(report: dict, path: str | pathlib.Path) -> pathlib.Path:
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def load_report(path: str | pathlib.Path) -> dict:
    return json.loads(pathlib.Path(path).read_text())


@dataclasses.dataclass(frozen=True, slots=True)
class Comparison:
    """One benchmark's verdict against the baseline.

    ``ratio`` is current/baseline throughput (ops/s): 1.0 means equal,
    below ``1 - tolerance`` is a regression.  ``status`` is one of
    ``ok``, ``regression``, ``missing`` (in baseline but not measured
    -- treated as failure so a silently dropped benchmark cannot hide a
    regression) and ``new`` (measured but not yet in the baseline).
    """

    name: str
    status: str
    ratio: float | None = None
    current_ops_per_s: float | None = None
    baseline_ops_per_s: float | None = None

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "missing")

    def render(self) -> str:
        if self.ratio is None:
            return f"{self.name:<18} {self.status}"
        return (
            f"{self.name:<18} {self.status:<10} "
            f"{self.current_ops_per_s:12.1f} vs {self.baseline_ops_per_s:12.1f} ops/s "
            f"(x{self.ratio:.2f})"
        )


def compare(report: dict, baseline: dict, tolerance: float = 0.25) -> list[Comparison]:
    """Diff a report against a baseline with a relative tolerance band."""
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    current = report.get("benchmarks", {})
    base = baseline.get("benchmarks", {})
    out: list[Comparison] = []
    for name in base:
        if name not in current:
            out.append(Comparison(name=name, status="missing"))
            continue
        cur_rate = float(current[name]["ops_per_s"])
        base_rate = float(base[name]["ops_per_s"])
        ratio = cur_rate / base_rate if base_rate > 0 else float("inf")
        status = "regression" if ratio < 1.0 - tolerance else "ok"
        out.append(
            Comparison(
                name=name,
                status=status,
                ratio=ratio,
                current_ops_per_s=cur_rate,
                baseline_ops_per_s=base_rate,
            )
        )
    for name in current:
        if name not in base:
            out.append(Comparison(name=name, status="new"))
    return out


def check_passed(comparisons: list[Comparison]) -> bool:
    return not any(c.failed for c in comparisons)
