"""The benchmark's own rules, pinned without sockets or child processes."""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT)]  # src/ is already importable under tier-1's PYTHONPATH

from bench import harness  # noqa: E402


def test_tail_quantile_is_highest_percentile_with_ten_samples_beyond():
    assert harness.tail_quantile(240) == 0.95  # 12 beyond p95, 2.4 beyond p99
    assert harness.tail_quantile(199) == 0.9
    assert harness.tail_quantile(200) == 0.95
    assert harness.tail_quantile(1000) == 0.99
    assert harness.tail_quantile(10_000) == 0.999
    assert harness.tail_quantile(3584, cap=0.99) == 0.99  # a workload's fixed cap
    assert harness.tail_quantile(720, cap=0.95) == 0.95
    assert harness.tail_quantile(7) == 0.5  # nothing supportable: the median


def test_seed_fixes_schedule_keys_and_payloads():
    first = harness.make_ops(7, 240, rate_per_s=12.0)
    again = harness.make_ops(7, 240, rate_per_s=12.0)
    other = harness.make_ops(8, 240, rate_per_s=12.0)
    assert first == again
    assert [op.key for op in first] != [op.key for op in other]
    assert [op.due_s for op in first] == [i / 12.0 for i in range(240)]
    assert [op.client for op in first[:5]] == [0, 1, 2, 3, 0]
    # Zipf(1.1) over 64 keys: the head key dominates, the tail is present.
    keys = [op.key for op in harness.make_ops(7, 5000)]
    assert keys.count("k-0") > keys.count("k-1") > keys.count("k-9")
    assert len(set(keys)) > 40


_BEFORE = """\
# TYPE repro_fso_fail_signals_total counter
repro_fso_fail_signals_total 0
# TYPE repro_calibrated_delta_ms gauge
repro_calibrated_delta_ms 100
# TYPE repro_gateway_admission_total counter
repro_gateway_admission_total{outcome="accepted"} 10
repro_gateway_admission_total{outcome="unauthorized"} 0
# TYPE repro_timer_lag_ms histogram
repro_timer_lag_ms_bucket{le="1"} 90
repro_timer_lag_ms_bucket{le="2"} 100
repro_timer_lag_ms_bucket{le="64"} 100
repro_timer_lag_ms_bucket{le="+Inf"} 100
repro_timer_lag_ms_sum 80
repro_timer_lag_ms_count 100
"""
_AFTER = """\
# TYPE repro_fso_fail_signals_total counter
repro_fso_fail_signals_total 2
# TYPE repro_calibrated_delta_ms gauge
repro_calibrated_delta_ms 100
# TYPE repro_gateway_admission_total counter
repro_gateway_admission_total{outcome="accepted"} 250
repro_gateway_admission_total{outcome="unauthorized"} 60
# TYPE repro_timer_lag_ms histogram
repro_timer_lag_ms_bucket{le="1"} 280
repro_timer_lag_ms_bucket{le="2"} 297
repro_timer_lag_ms_bucket{le="64"} 300
repro_timer_lag_ms_bucket{le="+Inf"} 300
repro_timer_lag_ms_sum 480
repro_timer_lag_ms_count 300
"""


def test_prom_delta_counters_gauges_and_histogram_quantiles():
    delta = harness.PromDelta(_BEFORE, _AFTER)
    assert delta.value("repro_fso_fail_signals_total") == 2
    assert delta.value("repro_calibrated_delta_ms") == 100  # a gauge: not subtracted
    assert delta.value("repro_gateway_admission_total") == 300  # summed over labels
    assert delta.value("repro_gateway_admission_total", outcome="accepted") == 240
    assert delta.value("repro_timer_lag_ms_count") == 200
    assert delta.mean("repro_timer_lag_ms") == 2.0
    # Of the 200 new observations 190 are <= 1, 197 <= 2, all <= 64:
    # the before-scrape's own tail must not leak into the phase's p99.
    assert delta.quantile("repro_timer_lag_ms", 0.5) == 1.0
    assert delta.quantile("repro_timer_lag_ms", 0.95) == 1.0
    assert delta.quantile("repro_timer_lag_ms", 0.99) == 64.0
    assert delta.quantile("repro_no_such_histogram", 0.99) == 0.0


def test_layer_of_maps_source_paths_to_layer_buckets():
    src = "/some/checkout/repro/src/repro"  # a checkout may itself be named repro
    assert harness.layer_of(f"{src}/core/fso.py") == "core.fso"
    assert harness.layer_of(f"{src}/core/messages.py") == "core.other"
    assert harness.layer_of(f"{src}/fsnewtop/system.py") == "core.other"
    assert harness.layer_of(f"{src}/crypto/binwire.py") == "crypto.codec"
    assert harness.layer_of(f"{src}/crypto/ed25519.py") == "crypto.sign"
    assert harness.layer_of(f"{src}/perf.py") == "perf"
    assert harness.layer_of(f"{src}/transport/aio.py") == "transport"
    assert harness.layer_of(f"{src}/workloads/ordering.py") == "experiments"
    assert harness.layer_of("/usr/lib/python3.11/asyncio/base_events.py") == "stdlib.asyncio"
    assert harness.layer_of("/usr/lib/python3.11/json/encoder.py") == "stdlib.json"
    assert harness.layer_of("/usr/lib/python3.11/heapq.py") == "stdlib.other"
    assert harness.layer_of("/x/site-packages/cryptography/utils.py") == "crypto.sign"
    assert harness.layer_of("~") is None
    assert set(map(harness.layer_of, [f"{src}/{m}/x.py" for m in (
        "service", "shard", "corba", "newtop", "net", "sim", "app", "obs", "invariants",
    )])) <= set(harness.LAYERS)


def test_builtin_self_time_is_charged_to_callers_by_edge_weight():
    # pstats layout: func -> (cc, nc, tottime, cumtime, {caller: (cc, nc, tt, ct)})
    fso = ("/r/src/repro/core/fso.py", 10, "sign")
    wire = ("/r/src/repro/transport/wire.py", 20, "frame")
    loop = ("/usr/lib/python3.11/asyncio/base_events.py", 1, "run_forever")
    pack = ("~", 0, "<built-in method _struct.pack>")
    sort = ("~", 0, "<built-in method builtins.sorted>")
    poll = ("~", 0, "<method 'poll' of 'select.epoll' objects>")
    root = ("~", 0, "<built-in method builtins.exec>")
    stats = {
        fso: (5, 5, 1.0, 2.0, {loop: (5, 5, 1.0, 2.0)}),
        wire: (5, 5, 0.5, 1.0, {loop: (5, 5, 0.5, 1.0)}),
        loop: (1, 1, 0.25, 9.0, {root: (1, 1, 0.25, 9.0)}),
        # 4 s of struct.pack: 3 s on behalf of wire.frame, 1 s for fso.sign.
        pack: (40, 40, 4.0, 4.0, {wire: (30, 30, 3.0, 3.0), fso: (10, 10, 1.0, 1.0)}),
        # sorted() is only ever called by struct.pack here (builtin -> builtin):
        # pushed up through pack's callers in the same 3:1 split.
        sort: (4, 4, 2.0, 2.0, {pack: (4, 4, 2.0, 2.0)}),
        poll: (9, 9, 30.0, 30.0, {loop: (9, 9, 30.0, 30.0)}),
        root: (1, 1, 0.125, 40.0, {}),
    }
    buckets = harness.bucket_profile(stats)
    assert buckets["core.fso"][0] == 1.0 + 1.0 + 0.5
    assert buckets["transport"][0] == 0.5 + 3.0 + 1.5
    assert buckets["stdlib.asyncio"][0] == 0.25
    assert buckets[harness.IDLE][0] == 30.0  # waiting is no layer's work
    assert buckets["unattributed"][0] == 0.125  # exec has no caller to charge
    busy = sum(seconds for layer, (seconds, _) in buckets.items() if layer != harness.IDLE)
    assert busy == sum(entry[2] for entry in stats.values()) - 30.0
    served = harness.subtract_buckets(buckets, {"core.fso": (0.5, 3), "transport": (9.0, 1)})
    assert served["core.fso"][0] == 2.0 and served["transport"][0] == 0.0


def test_benchmark_json_names_exactly_the_metrics_the_harness_reports():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == harness.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in config["end_to_end"])
    assert config["paths"] == ["bench"] and config["command"][-1] == "bench/run.py"
