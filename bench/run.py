#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --workload svc_open_tcp --seed 1            # end-to-end metrics
    python3 bench/run.py --workload svc_open_tcp --seed 1 --trace 1  # per-layer metrics
    python3 bench/run.py --seed 1                                    # all four workloads

Prints every metric by name with its unit, writes ``result.json`` (and,
traced, ``spans.json`` plus the raw ``.prof`` files) under ``--out``,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
the metrics BENCHMARK.json names for that mode.  Exit 1 when an output
check failed, 2 when the program under test is not there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import signal
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent), str(BENCH_DIR.parent / "src")]

WORKLOADS = ("svc_open_tcp", "svc_closed", "svc_edge", "sim_order")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(config["run_seconds"]),
                        help="length of the timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: profiled run reporting the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", type=pathlib.Path, default=BENCH_DIR / "out",
                        help="results go to OUT/<workload>-seed<N>-trace<T>/ (default: bench/out)")
    return parser.parse_args(argv)


def _run_one(name: str, args: argparse.Namespace) -> dict:
    from bench import harness, live, probes, simpath
    from repro.experiments import get_scenario

    traced = bool(args.trace)
    out = args.out / f"{name}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    meta = harness.host_meta(args.seed)
    if name == "sim_order":
        result = simpath.run(args.seed, args.seconds, traced, out)
        meta["link_delay"] = simpath.REP.delay.to_dict()
    else:
        result = asyncio.run(live.run(name, args.seed, args.seconds, traced, out))
        meta["link_delay"] = get_scenario("svc_fleet_1k").base.delay.to_dict()
    result["meta"] = meta
    result["claim"] = None
    result["correct"] = not result["errors"]
    if traced:
        units = harness.per_layer_units()
        result["per_layer"].update(probes.run(args.seed))
        # A metric with no meaning on this workload reads 0.
        result["per_layer"] = {n: float(result["per_layer"].get(n, 0.0)) for n in units}
        buckets = result.pop("buckets")
        ops = result.pop("ops")
        spans = [
            {"name": layer, "parent": name, "self_ms": seconds * 1000.0, "calls": calls}
            for layer, (seconds, calls) in buckets.items()
        ]
        (out / "spans.json").write_text(
            json.dumps({"workload": name, "ops": ops, "spans": spans}, indent=1)
        )
        layer_sum = sum(result["per_layer"][f"{layer}.self_ms_per_op"] for layer in harness.LAYERS)
        cpu = result["detail"].get("traced_cpu_ms_per_op", 0.0)
        result["detail"]["layer_sum_ms_per_op"] = layer_sum
        result["detail"]["layer_sum_over_cpu"] = layer_sum / cpu if cpu else 0.0
        result["detail"]["unattributed_share"] = (
            result["per_layer"]["unattributed.self_ms_per_op"] / layer_sum if layer_sum else 0.0
        )
        metrics, section = result["per_layer"], units
    else:
        metrics, section = result["end_to_end"], harness.END_TO_END
    (out / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    print(f"== {name}  seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"({meta['nproc']} cpus, load {meta['loadavg_1m']:.2f}, {meta['commit'][:12]})")
    for metric, unit in section.items():
        print(f"  {metric:<46} {metrics[metric]:>14.4f} {unit}")
    for metric, value in result["guards"].items():
        print(f"  {metric:<46} {value:>14.4f} {harness.GUARDS[metric][0]}")
    for key, value in result["detail"].items():
        print(f"  [{key}] {value:.4f}" if isinstance(value, float) else f"  [{key}] {value}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}  -> {out}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")
    if result["guards"]["generator_late_p99_ms"] > harness.GUARDS["generator_late_p99_ms"][1]:
        print("  INVALID: the load generator ran late (generator_late_p99_ms > 20)")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in section.items()},
    }
    print(json.dumps(line))
    return result


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        from repro.crypto.ed25519 import HAVE_ED25519
    except ImportError as exc:
        print(f"error: the program under test is not importable from src/: {exc}", file=sys.stderr)
        return 2
    if not HAVE_ED25519:
        # Every live workload names ed25519; the provider seam would
        # silently fall back to pure-python hmac and measure another system.
        print("error: repro.crypto.ed25519.HAVE_ED25519 is false -- install "
              "'cryptography'; refusing to benchmark a fallback", file=sys.stderr)
        return 2

    def _terminate(signum, _frame):  # unwind through every finally: servers die
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    names = (args.workload,) if args.workload else WORKLOADS
    results = [_run_one(name, args) for name in names]
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
