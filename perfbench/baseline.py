"""Measure the baseline: two sets, each running every workload of
BENCHMARK.json over seeds 0-9 with tracing off, then once traced at seed 0;
all written to one JSON file.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every end-to-end metric a set records the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile spread as a
share of the median, which must stay within the metric's bound in
BENCHMARK.json. The file also records whether the second set's medians are
no worse than the first's by more than the bound, and whether the two traced
runs' `.calls` counts match exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(10))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def measure_set(bench: dict, workloads: list[str], seeds: list[int]) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        all_correct = True
        for seed in seeds:
            env, result = run(workload, seed, bench["run_seconds"], 0)
            all_correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                             "bound": bounds[name], "values": vals}
            print(f"  {name:12s} median {med:.4f} spread {summary[name]['spread']:.3f}"
                  f" (bound {bounds[name]})", flush=True)
        _, traced = run(workload, seeds[0], bench["run_seconds"], 1)
        report[workload] = {
            "seeds": seeds, "all_correct": all_correct, "env": env, "end_to_end": summary,
            "per_layer": {
                "seed": seeds[0], "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    return report


def agreement(bench: dict, first: dict, second: dict) -> dict:
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out = {}
    for workload, a in first.items():
        b = second[workload]
        rows = {}
        for name, sa in a["end_to_end"].items():
            m1, m2, bound = sa["median"], b["end_to_end"][name]["median"], sa["bound"]
            worse = m2 > m1 * (1 + bound) if better[name] == "lower" else m2 < m1 * (1 - bound)
            rows[name] = {"second_over_first": m2 / m1, "within_bound": not worse}
        calls = {k: v for k, v in a["per_layer"]["metrics"].items() if k.endswith(".calls")}
        other = {k: v for k, v in b["per_layer"]["metrics"].items() if k.endswith(".calls")}
        out[workload] = {"medians": rows, "calls_match": calls == other}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    first = measure_set(bench, workloads, SEEDS)
    second = measure_set(bench, workloads, SEEDS)
    report = {"run_seconds": bench["run_seconds"], "sets": [first, second],
              "agreement": agreement(bench, first, second)}
    print(json.dumps(report["agreement"], indent=1))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
