"""The sim-path workload: engine v1 exactly as the paper, in process.

``sim_order`` runs the fig-7 shape (8 members, 3-byte messages, rsa +
canonical, unbatched) on the discrete-event clock through the public
``run_scenario`` / ``audit_scenario``: no sockets, no asyncio.  One
*rep* orders 40 messages (~1.3 s of host time at HEAD); the timed
segment is as many reps as fit in ``--seconds`` (~15), each on its own
derived seed and each the same amount of work.

Host time is reported from the *best* rep, the rule ``repro bench``
already follows ("the minimum wall-clock is the least noisy estimate of
what the code can do").  On a shared guest a CPU-bound rep is only ever
slowed by its neighbours -- a pure spin loop here alternates between a
fast mode and one 1.3-1.5x slower, in stretches of seconds to a whole
run -- so the median reports the neighbours.  The two latency metrics
are the *simulated* delivery latency, the paper's own figure: the same
for a seed whatever the host does.
"""

from __future__ import annotations

import contextlib
import cProfile
import pathlib
import pstats
import subprocess
import sys
import time

from bench import harness
from repro import perf
from repro.experiments import ObsSpec, ScenarioSpec, audit_scenario, get_scenario, run_scenario

REP = ScenarioSpec(
    system="fs-newtop", n_members=8, messages_per_member=5,
    interval=150.0, message_size=3, settle_ms=10_000.0,
)
REP_OPS = REP.n_members * REP.messages_per_member
_WARMUP = REP.replace(n_members=4, messages_per_member=5)
_RECOVER_MESSAGES = 40
ORACLES = 8


def warm_up(seed: int) -> None:
    """What set-up pays after import: one small run through every layer."""
    run_scenario(_WARMUP.replace(seed=seed))


def _setup_s(seed: int) -> float:
    """Spawn -> import -> warm-up -> exit of a fresh interpreter: the
    start-up a ``repro run`` user waits for before any ordering."""
    code = (
        f"import sys; sys.path[:0] = [{str(harness.ROOT)!r}, {str(harness.SRC)!r}]; "
        f"from bench import simpath; simpath.warm_up({seed})"
    )
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=harness.ROOT)
    return time.perf_counter() - started


class _Reps:
    """Timed repetitions of one spec, with their output checks."""

    def __init__(self) -> None:
        self.ms_per_op: list[float] = []
        self.cpu_ms_per_op: list[float] = []
        self.sim_latency_mean_ms: list[float] = []
        self.sim_latency_p95_ms: list[float] = []
        self.wall_s = 0.0
        self.cpu_ms = 0.0
        self.ordered = 0
        self.attempted = 0
        self.fail_signals = 0.0
        self.errors: list[str] = []
        self.first_metrics: dict[str, float] = {}

    def run(self, spec: ScenarioSpec, profiler: cProfile.Profile | None = None) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if profiler is not None:
            profiler.enable()
        try:
            metrics = run_scenario(spec).metrics
        finally:
            if profiler is not None:
                profiler.disable()
        wall = time.perf_counter() - wall0
        cpu_ms = (time.process_time() - cpu0) * 1000.0
        self.cpu_ms += cpu_ms
        self.wall_s += wall
        expected = spec.n_members * spec.messages_per_member
        self.attempted += expected
        self.ordered += int(metrics["ordered"])
        self.ms_per_op.append(wall * 1000.0 / expected)
        self.cpu_ms_per_op.append(cpu_ms / expected)
        self.sim_latency_mean_ms.append(metrics["latency_mean_ms"])
        self.sim_latency_p95_ms.append(metrics["latency_p95_ms"])
        if metrics["ordered"] != expected:
            self.errors.append(f"seed {spec.seed}: ordered {metrics['ordered']:g} of {expected}")
        if metrics.get("fail_signals"):
            self.fail_signals += metrics["fail_signals"]
            self.errors.append(f"seed {spec.seed}: {metrics['fail_signals']:g} fail-signals")
        if not self.first_metrics:
            self.first_metrics = metrics

    def fill(self, base: ScenarioSpec, first_seed: int, budget_s: float,
             profiler: cProfile.Profile | None = None) -> None:
        """Reps on consecutive seeds while another one still fits."""
        last = 0.0
        while not self.ms_per_op or self.wall_s + last <= budget_s:
            before = self.wall_s
            self.run(base.replace(seed=first_seed + len(self.ms_per_op)), profiler)
            last = self.wall_s - before


def _recover(seed: int):
    """The crash -> state transfer -> rejoin segment, fully audited."""
    spec = get_scenario("app_kv_recover").base.replace(
        messages_per_member=_RECOVER_MESSAGES, seed=seed
    )
    audited = audit_scenario(spec, scenario="bench_recover")
    errors = []
    if not audited.report.ok or len(audited.report.verdicts) != ORACLES:
        errors.append(
            f"recover segment: {len(audited.report.violations)} violations, "
            f"{len(audited.report.verdicts)} oracles"
        )
    return audited, errors


@contextlib.contextmanager
def _cache_stats():
    """Snapshot each memo cache's hit/miss counters just before the
    runner clears it (``IdentityCache.clear`` zeroes them)."""
    names = {id(getattr(perf, name)): name for name in harness.CACHES}
    seen = {name: [0, 0] for name in harness.CACHES}
    original = perf.IdentityCache.clear

    def clear(cache: perf.IdentityCache) -> None:
        name = names.get(id(cache))
        if name is not None:
            stats = cache.stats
            seen[name][0] += stats.hits
            seen[name][1] += stats.lookups
        original(cache)

    perf.IdentityCache.clear = clear
    try:
        yield seen
    finally:
        perf.IdentityCache.clear = original


def run(seed: int, seconds: float, traced: bool, out: pathlib.Path) -> dict:
    base_seed = seed * 1000
    result: dict = {"workload": "sim_order"}
    errors: list[str] = []
    if not traced:
        setups = [_setup_s(seed) for _ in range(harness.SETUP_SAMPLES)]
        warm_up(seed)
        main = _Reps()
        main.fill(REP, base_seed, seconds)
        _audited, recover_errors = _recover(seed)
        result["end_to_end"] = {
            "setup_s": harness.median(setups),
            "e2e_p50_ms": harness.median(main.sim_latency_mean_ms),
            "e2e_tail_ms": harness.median(main.sim_latency_p95_ms),
            "ops_per_s": 1000.0 / min(main.ms_per_op),
            "cpu_ms_per_op": min(main.cpu_ms_per_op),
            "peak_rss_mb": harness.proc_rss_kb()[1] / 1024.0,
        }
        result["detail"] = {
            "reps": len(main.ms_per_op),
            "latency_samples": len(main.ms_per_op) * REP_OPS * REP.n_members,
            "setup_samples": len(setups),
            "median_rep_ms_per_op": harness.median(main.ms_per_op),
            "rep_ms_per_op": [round(ms, 2) for ms in main.ms_per_op],
        }
        phases = [main]
    else:
        warm_up(seed)
        baseline = _Reps()
        baseline.run(REP.replace(system="newtop", seed=base_seed))
        # The reference reps carry the obs hub (flight recorder off):
        # its overhead is <3% of a rep and it is the only public source
        # of verify/countersign counts on the sim path.
        reference = _Reps()
        reference.fill(
            REP.replace(obs=ObsSpec(enabled=True, flight=False)),
            base_seed + 500, seconds * harness.REFERENCE_SHARE,
        )
        main = _Reps()
        profiler = cProfile.Profile()
        with _cache_stats() as caches:
            main.fill(REP, base_seed, seconds * (1.0 - harness.REFERENCE_SHARE), profiler)
        profile = out / "sim_order.prof"
        profiler.dump_stats(profile)
        audited, recover_errors = _recover(seed)
        phases = [baseline, reference, main]

        ops = max(1, main.ordered)
        counted, fs, nt = reference.first_metrics, main.first_metrics, baseline.first_metrics
        ref_ms_per_op = harness.median(reference.ms_per_op)
        per_layer = {
            "crypto.sign.signs_per_op": counted.get("obs_sign_count", 0.0) / REP_OPS,
            "crypto.sign.verifies_per_op": counted.get("obs_verify_count", 0.0) / REP_OPS,
            "core.fso.countersigns_per_op": counted.get("obs_countersign_count", 0.0) / REP_OPS,
            "net.messages_per_op": fs["network_messages"] / REP_OPS,
            "net.bytes_per_op": fs["network_bytes"] / REP_OPS,
            "newtop.view_changes": fs["view_changes"],
            "newtop.host_ms_per_op": baseline.ms_per_op[0],
            "sim.latency_mean_sim_ms": fs["latency_mean_ms"],
            "sim.throughput_msgs_per_sim_s": fs["throughput_msgs_per_s"],
            "core.fso.host_overhead_ratio": ref_ms_per_op / baseline.ms_per_op[0],
            "core.fso.sim_latency_overhead_ratio": fs["latency_mean_ms"] / nt["latency_mean_ms"],
            "app.ops_applied": audited.result.metrics["app_ops_applied"],
            "app.checkpoints": audited.result.metrics["app_checkpoints"],
            "invariants.violations": float(len(audited.report.violations)),
            "bench.trace_overhead_ratio": (
                (main.cpu_ms / ops) / (reference.cpu_ms / reference.ordered)
            ),
        }
        for name, (hits, lookups) in caches.items():
            per_layer[f"perf.{name}_hit_ratio"] = hits / lookups if lookups else 0.0
        buckets = harness.bucket_profile(pstats.Stats(str(profile)).stats)
        for layer in harness.LAYERS:
            per_layer[f"{layer}.self_ms_per_op"] = buckets[layer][0] * 1000.0 / ops
        result.update(per_layer=per_layer, buckets=buckets, ops=ops)
        result["detail"] = {
            "reps": len(main.ms_per_op),
            "traced_cpu_ms_per_op": main.cpu_ms / ops,
            "reference_cpu_ms_per_op": reference.cpu_ms / reference.ordered,
        }
    for reps in phases:
        errors += reps.errors
    errors += recover_errors
    attempted = sum(reps.attempted for reps in phases)
    failed = sum(reps.attempted - reps.ordered for reps in phases)
    result["guards"] = {
        "late_share": 0.0,
        "failed_share": failed / attempted,
        "fail_signals": sum(reps.fail_signals for reps in phases),
        "generator_late_p99_ms": 0.0,
    }
    result.update(attempted=attempted, failed=failed, errors=errors)
    return result
