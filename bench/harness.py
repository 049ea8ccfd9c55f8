"""Pure helpers of the benchmark: the metric catalogue, seeded input
generation, the percentile rule, Prometheus deltas, profile-to-layer
attribution and ``/proc`` readers.

Nothing here opens a socket or starts a process, so
``bench/tests/test_harness.py`` can pin every rule in well under a
second.  The program under test is only ever observed from outside:
this module reads what it already exports (``/metrics`` text, a
``cProfile`` dump, ``/proc/<pid>``) and never patches it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import platform
import random
import typing

from repro.analysis.metrics import percentile
from repro.obs.prom import parse as parse_prom

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> unit.  Every workload reports all of
#: them from its untraced run (BENCHMARK.json fixes direction + bound).
END_TO_END = {
    "setup_s": "s",
    "e2e_p50_ms": "ms",
    "e2e_tail_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Guards an untraced run also prints and ``compare.py`` checks with an
#: *absolute* bound: all are 0 on a healthy HEAD, so a relative bound
#: (the only kind BENCHMARK.json can hold) would be meaningless.
GUARDS = {
    # name: (unit, absolute bound by which B may exceed A)
    "late_share": ("share", 0.02),
    "failed_share": ("share", 0.005),
    "fail_signals": ("count", 0.0),
    "generator_late_p99_ms": ("ms", 20.0),
}

#: Profile buckets, one per layer (module name under ``src/repro``).
LAYERS = (
    "service", "shard", "core.fso", "core.batching", "core.inbox",
    "core.other", "crypto.sign", "crypto.codec", "perf", "corba", "newtop",
    "net", "transport", "sim", "app", "obs", "invariants", "experiments",
    "stdlib.asyncio", "stdlib.json", "stdlib.other", "unattributed",
)

#: Counter-derived per-layer metrics (deltas over the timed phase).
COUNTERS = {
    "crypto.sign.signs_per_op": "count",
    "crypto.sign.verifies_per_op": "count",
    "core.fso.countersigns_per_op": "count",
    "crypto.sign.sign_busy_ms_per_op": "ms",
    "crypto.sign.verify_busy_ms_per_op": "ms",
    "core.fso.countersign_busy_ms_per_op": "ms",
    "core.batching.outputs_per_flush": "count",
    "core.batching.deferrals_per_op": "count",
    "shard.barrier_commits_per_op": "count",
    "transport.timers_per_op": "count",
    "transport.timer_lag_mean_ms": "ms",
    "transport.timer_lag_p99_ms": "ms",
    "transport.calibrated_delta_ms": "ms",
    "service.sequenced_p50_ms": "ms",
    "service.edge_overhead_ms": "ms",
    "service.admission_refused_share": "share",
    "net.messages_per_op": "count",
    "net.bytes_per_op": "B",
    "newtop.view_changes": "count",
    "newtop.host_ms_per_op": "ms",
    "sim.latency_mean_sim_ms": "ms",
    "sim.throughput_msgs_per_sim_s": "1/s",
    "core.fso.host_overhead_ratio": "ratio",
    "core.fso.sim_latency_overhead_ratio": "ratio",
    "app.ops_applied": "count",
    "app.checkpoints": "count",
    "invariants.violations": "count",
    "process.rss_kb_per_op": "KB",
}

#: Direct probes: timed loops over public functions (bench/probes.py).
PROBES = (
    "crypto.sign.rsa_sign_verify_us",
    "crypto.sign.ed25519_sign_verify_us",
    "crypto.sign.hmac_sign_verify_us",
    "crypto.codec.canonical_encode_fresh_us",
    "crypto.codec.canonical_encode_cached_us",
    "crypto.codec.binwire_encode_fresh_us",
    "crypto.codec.binwire_decode_us",
    "transport.wire_frame_roundtrip_us",
    "sim.schedule_drain_us_per_event",
    "corba.invoke_us",
    "service.read_request_us",
    "service.render_response_us",
    "service.format_sse_us",
    "service.submit_refused_us",
    "service.ratelimit_take_us",
    "app.kv_apply_us",
)

#: The four process-wide memo caches of ``repro.perf`` (sim_order only).
CACHES = ("encode_cache", "countersign_cache", "wire_size_cache", "binwire_cache")

#: Set-ups measured per untraced run (``setup_s`` is their median).
SETUP_SAMPLES = 3
#: A traced invocation spends this share of ``--seconds`` on an
#: unprofiled reference phase (the base of bench.trace_overhead_ratio).
REFERENCE_SHARE = 0.25

HEALTH = {
    "bench.generator_late_p99_ms": "ms",
    "bench.client_cpu_ms_per_op": "ms",
    "bench.trace_overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{layer}.self_ms_per_op": "ms" for layer in LAYERS}
    units.update(COUNTERS)
    units.update({name: "us" for name in PROBES})
    units.update({f"perf.{c}_hit_ratio": "ratio" for c in CACHES})
    units.update(HEALTH)
    return units


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def tail_quantile(samples: int, cap: float = 0.999, beyond: int = 10) -> float:
    """The highest ladder percentile <= ``cap`` that leaves at least
    ``beyond`` samples above it; the median when none does."""
    for q in _LADDER:
        if q <= cap and samples * (1.0 - q) >= beyond - 1e-9:
            return q
    return 0.5


def median(values: typing.Sequence[float]) -> float:
    return percentile(values, 0.5)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class Op:
    """One client operation the generator will submit."""

    index: int
    due_s: float  # offset from the timed phase's start (open loop)
    client: int  # index into the server's API keys
    key: str
    payload: str


def make_ops(
    seed: int | str,
    count: int,
    rate_per_s: float | None = None,
    clients: int = 4,
    keyspace: int = 64,
    zipf_s: float = 1.1,
    payload_bytes: int = 24,
) -> list[Op]:
    """The workload a seed denotes: Zipf keys, random payloads, API
    keys round-robin and (open loop) a fixed-interval due schedule."""
    rng = random.Random(f"bench/ops/{seed}")
    weights = [1.0 / (rank**zipf_s) for rank in range(1, keyspace + 1)]
    keys = rng.choices(range(keyspace), weights=weights, k=count)
    return [
        Op(
            index=i,
            due_s=(i / rate_per_s) if rate_per_s else 0.0,
            client=i % clients,
            key=f"k-{keys[i]}",
            payload=rng.randbytes(payload_bytes).hex(),
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Prometheus deltas
# ----------------------------------------------------------------------
class PromDelta:
    """What ``/metrics`` counted between two scrapes.

    Counters and histogram series subtract; gauges report the later
    value.  Series are addressed by family name; labelled series of one
    family (``scheme=...``, ``outcome=...``) are summed unless a label
    filter is given.
    """

    def __init__(self, before: str, after: str) -> None:
        self._before = self._flatten(parse_prom(before))
        families = parse_prom(after)
        self._after = self._flatten(families)
        self._gauges = {
            name for name, family in families.items() if family["type"] == "gauge"
        }

    @staticmethod
    def _flatten(families: dict) -> dict:
        flat: dict = {}
        for family in families.values():
            for series, labels, value in family["samples"]:
                flat[(series, tuple(sorted(labels.items())))] = value
        return flat

    def _series(self, series: str, **labels: str) -> list[tuple[dict, float]]:
        wanted = labels.items()
        out = []
        for (name, label_items), value in self._after.items():
            if name != series:
                continue
            have = dict(label_items)
            if any(have.get(k) != v for k, v in wanted):
                continue
            if series not in self._gauges:
                value -= self._before.get((name, label_items), 0.0)
            out.append((have, value))
        return out

    def value(self, series: str, **labels: str) -> float:
        """Delta of a counter (or ``_sum``/``_count`` series) -- or the
        current value of a gauge -- summed over matching label sets."""
        return sum(v for _labels, v in self._series(series, **labels))

    def mean(self, histogram: str) -> float:
        count = self.value(f"{histogram}_count")
        return self.value(f"{histogram}_sum") / count if count else 0.0

    def quantile(self, histogram: str, q: float) -> float:
        """Nearest-rank quantile over the *delta* of a histogram's
        cumulative buckets: the upper bound of the first bucket whose
        cumulative delta reaches ``ceil(q * n)`` (the obs layer's own
        convention, so the error is one bucket width)."""
        buckets: dict[float, float] = {}
        for labels, value in self._series(f"{histogram}_bucket"):
            bound = math.inf if labels["le"] == "+Inf" else float(labels["le"])
            buckets[bound] = buckets.get(bound, 0.0) + value
        total = buckets.get(math.inf, 0.0)
        if total <= 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        finite = [b for b in sorted(buckets) if not math.isinf(b)]
        for bound in finite:
            if buckets[bound] >= rank:
                return bound
        return finite[-1] if finite else 0.0


# ----------------------------------------------------------------------
# profile -> layer attribution
# ----------------------------------------------------------------------
#: Waiting in the selector is wall time, not work: cProfile's default
#: timer is the wall clock, so an idle server "spends" most of its life
#: here.  Kept out of every layer bucket.
IDLE = "idle"
_IDLE_BUILTINS = ("'poll' of 'select.", "built-in method select.", "time.sleep")

_CRYPTO_CODEC = ("canonical.py", "binwire.py", "digest.py")
_CORE_OWN = {"fso.py": "core.fso", "batching.py": "core.batching", "inbox.py": "core.inbox"}
_DRIVERS = ("workloads", "analysis", "adversary", "baselines", "cli.py", "__main__.py")


def layer_of(path: str) -> str | None:
    """The layer bucket a source file belongs to (``None`` for a C
    builtin, whose time is charged to its callers instead)."""
    if path == "~":
        return None
    parts = pathlib.PurePath(path).parts
    if "repro" in parts[:-1]:
        # The last "repro" component: a checkout may itself be named so.
        package = max(i for i, part in enumerate(parts[:-1]) if part == "repro")
        head, leaf = parts[package + 1], parts[-1]
        if head == "crypto":
            return "crypto.codec" if leaf in _CRYPTO_CODEC else "crypto.sign"
        if head == "core":
            return _CORE_OWN.get(leaf, "core.other")
        if head == "fsnewtop":
            return "core.other"
        if head == "perf.py":
            return "perf"
        if head in _DRIVERS or head in ("__init__.py", "_version.py"):
            return "experiments"
        return head
    if "cryptography" in parts:
        return "crypto.sign"  # the ed25519 provider's backend
    if "asyncio" in parts or parts[-1] == "selectors.py":
        return "stdlib.asyncio"
    if "json" in parts:
        return "stdlib.json"
    if path.startswith("<") and not path.startswith("<frozen"):
        return "unattributed"  # <string>: the profiler's own exec shim
    return "stdlib.other"


def bucket_profile(stats: dict) -> dict[str, tuple[float, int]]:
    """Self seconds and call counts per layer from ``pstats.Stats.stats``.

    A Python function's self time goes to its file's layer.  A C
    builtin has no file: its self time is split over its callers using
    the profile's caller edges (each edge records the time spent in the
    callee *on behalf of that caller*); builtins called by builtins are
    pushed further up, and what reaches no Python caller is
    ``unattributed``.
    """
    buckets = {layer: [0.0, 0] for layer in (*LAYERS, IDLE)}

    def charge(func: tuple, seconds: float, calls: int, depth: int = 0) -> None:
        layer = layer_of(func[0])
        if layer is not None:
            buckets[layer][0] += seconds
            buckets[layer][1] += calls
            return
        callers = stats[func][4] if func in stats else {}
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0 or depth >= 8:
            buckets["unattributed"][0] += seconds
            buckets["unattributed"][1] += calls
            return
        for caller, edge in callers.items():
            share = edge[2] / edge_total
            charge(caller, seconds * share, round(calls * share), depth + 1)

    for func, (_cc, ncalls, self_s, _cum, _callers) in stats.items():
        if func[0] == "~" and any(mark in func[2] for mark in _IDLE_BUILTINS):
            buckets[IDLE][0] += self_s
            buckets[IDLE][1] += ncalls
        else:
            charge(func, self_s, ncalls)
    return {layer: (value[0], value[1]) for layer, value in buckets.items()}


def subtract_buckets(
    whole: dict[str, tuple[float, int]], startup: dict[str, tuple[float, int]]
) -> dict[str, tuple[float, int]]:
    """A server lifetime's buckets minus a start-up-only lifetime's:
    what the served operations cost, without import and calibration."""
    out = {}
    for layer, (seconds, calls) in whole.items():
        base_s, base_calls = startup.get(layer, (0.0, 0))
        out[layer] = (max(0.0, seconds - base_s), max(0, calls - base_calls))
    return out


# ----------------------------------------------------------------------
# /proc and host meta
# ----------------------------------------------------------------------
_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def proc_cpu_ms(pid: int | str = "self") -> float:
    """utime + stime of a process, ms (``/proc/<pid>/stat``)."""
    text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_MS


def proc_rss_kb(pid: int | str = "self") -> tuple[float, float]:
    """(VmRSS, VmHWM) of a process, KB (``/proc/<pid>/status``)."""
    rss = hwm = 0.0
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            rss = float(line.split()[1])
        elif line.startswith("VmHWM:"):
            hwm = float(line.split()[1])
    return rss, hwm


def host_meta(seed: int) -> dict:
    """Where and on what a result was measured."""
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"  # the driver's checkout is not a git repository
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit,
        "seed": seed,
    }
