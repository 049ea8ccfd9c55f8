#!/usr/bin/env python3
"""Compare two result sets against the benchmark's own bounds.

    python3 bench/compare.py bench/out/A bench/out/B

A result set is a directory holding any number of ``result.json`` files
(one per ``run.py`` invocation, found recursively).  For every
(workload, end-to-end metric) pair the medians of the two sets are
compared under the relative bound BENCHMARK.json fixes; the guards
(``late_share`` ...) under their absolute bounds; and the deterministic
sim-path counts of traced runs must agree exactly, seed by seed.  One
row per pair, every ratio with its base; exit 1 on any breach.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent), str(BENCH_DIR.parent / "src")]

#: Counts of the simulated execution: equal seeds must give equal values
#: (a difference is a protocol change, not a speed-up).
EXACT = (
    "sim.latency_mean_sim_ms", "sim.throughput_msgs_per_sim_s",
    "net.messages_per_op", "net.bytes_per_op", "newtop.view_changes",
    "crypto.sign.signs_per_op", "crypto.sign.verifies_per_op",
    "core.fso.sim_latency_overhead_ratio",
)


def load(directory: pathlib.Path) -> dict[str, list[dict]]:
    """Results of one set, by workload."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("result.json")):
        result = json.loads(path.read_text())
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / centre if centre else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(set_a: dict, set_b: dict, config: dict, guards: dict) -> tuple[list[str], int]:
    rows = [
        f"{'workload':<13} {'metric':<22} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'worse by':>9} {'bound':>7} {'spread A':>9}  verdict"
    ]
    breaches = 0
    for workload in (w["name"] for w in config["workloads"]):
        runs_a = [r for r in set_a.get(workload, []) if "end_to_end" in r]
        runs_b = [r for r in set_b.get(workload, []) if "end_to_end" in r]
        if not runs_a or not runs_b:
            continue
        for metric in config["end_to_end"]:
            name = metric["name"]
            a = [r["end_to_end"][name] for r in runs_a]
            b = [r["end_to_end"][name] for r in runs_b]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = worse_by(med_a, med_b, metric["better"])
            if worse > metric["bound"]:
                verdict = "BREACH"
                breaches += 1
            elif spread(a) > metric["bound"]:
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "ok"
            rows.append(
                f"{workload:<13} {name:<22} {med_a:>12.4f} {med_b:>12.4f} "
                f"{med_b / med_a if med_a else 0.0:>6.3f}x {worse:>+9.1%} "
                f"{metric['bound']:>7.0%} {spread(a):>9.1%}  {verdict} "
                f"(base A = {med_a:.4g} {metric['unit']})"
            )
        for name, (unit, bound) in guards.items():
            med_a = statistics.median(r["guards"][name] for r in runs_a)
            med_b = statistics.median(r["guards"][name] for r in runs_b)
            breach = med_b - med_a > bound
            breaches += breach
            rows.append(
                f"{workload:<13} {name:<22} {med_a:>12.4f} {med_b:>12.4f} "
                f"{'':>7} {med_b - med_a:>+9.4f} {bound:>7g} {'':>9}  "
                f"{'BREACH' if breach else 'ok'} (absolute, {unit})"
            )
        wrong = sum(not r["correct"] for r in runs_a + runs_b)
        if wrong:
            breaches += 1
            rows.append(f"{workload:<13} {wrong} run(s) failed an output check  BREACH")
    traced_a = {r["meta"]["seed"]: r for r in set_a.get("sim_order", []) if "per_layer" in r}
    traced_b = {r["meta"]["seed"]: r for r in set_b.get("sim_order", []) if "per_layer" in r}
    for seed in sorted(traced_a.keys() & traced_b.keys()):
        for name in EXACT:
            a, b = traced_a[seed]["per_layer"][name], traced_b[seed]["per_layer"][name]
            if a != b:
                breaches += 1
                rows.append(
                    f"sim_order     {name} seed {seed}: {a!r} != {b!r}  BREACH (must repeat exactly)"
                )
        rows.append(f"sim_order     deterministic counts, seed {seed}: {len(EXACT)} compared")
    return rows, breaches


def main(argv: list[str] | None = None) -> int:
    from bench.harness import GUARDS

    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    set_a, set_b = (load(pathlib.Path(arg)) for arg in args)
    rows, breaches = compare(set_a, set_b, config, GUARDS)
    print("\n".join(rows))
    if len(rows) == 1:
        print("error: no workload has untraced results in both sets", file=sys.stderr)
        return 2
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
