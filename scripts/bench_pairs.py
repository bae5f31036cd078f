#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarized into BENCH_<label>.json.

    python3 scripts/bench_pairs.py --base REV --label L --workload W --seeds A-B [--seconds 20]
    python3 scripts/bench_pairs.py --base REV --label L --workload W --seeds A-B --ops N

The base tree is REV extracted with `git archive`; the change tree is a copy
of the working tree's tracked and untracked, not ignored, files. Both trees
sit side by side in one temporary directory (under $TMPDIR) at the same path
length, since the directory depth moves perfbench's peak_rss_mb. For each
seed one pair runs, each tree's own `perfbench/run.py --trace 0`, and the
side that runs first alternates from pair to pair.

BENCH_<label>.json at the repository root holds one entry per workload, so
runs of several workloads under one label share a file; a new run replaces
its workload's entry. An entry records every run (its `correct`, `attempted`,
`ok_frac` and metrics, or why it produced no result; no run is dropped),
both trees' `src_sha256` and `src_lines` (the line total of `src/riff/*.py`,
as `wc -l` counts it), the environment line, and per end-to-end metric the
medians and quartiles of each side, the parent's interquartile range and the
number of pairs the change wins. `gain_shown` applies the claim rule: the
change wins at least nine tenths of all pairs, ties counting for neither,
and its median is better than the parent's by more than the parent's
interquartile range.

With --ops N a run is no perfbench run: each tree's workload runs its set-up
and operations 0..N-1 in one fresh interpreter (BLAS pinned as perfbench
pins it), checks each operation's outputs as perfbench does, and records
`ru_maxrss` as peak_rss_mb. A fixed count makes the memory reading
independent of how many operations fit in a timed run. Its entry is keyed
`W --ops N`, beside the workload's timed entry.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")

# Run in a tree's root as `python -c OPS_CHILD WORKLOAD SEED N`; it prints
# perfbench's environment and result lines, so run_record reads it unchanged.
OPS_CHILD = """
import json, os, resource, shutil, sys, tempfile
sys.path.insert(0, "perfbench")
import run
os.environ.update(run.BLAS_ENV)
import numpy
import workloads

name, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workload = workloads.WORKLOADS[name]
state = workload.setup(seed)
failed = 0
for k in range(n):
    run_dir = tempfile.mkdtemp(prefix="bench_ops_")
    try:
        out = workload.outputs(state, workload.run(state, k, run_dir)[1], run_dir)
        found = workload.check(out)
        if k == 0 and seed == workloads.GOLDEN_SEED:
            found += workloads.golden_problems(name, out)
    except Exception as exc:
        found = [repr(exc)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if found:
        failed += 1
        print(f"op {k}: {found}", file=sys.stderr)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
env = {"python": sys.version.split()[0], "numpy": numpy.__version__, "src_sha256": run.source_digest(),
       "blas_env": run.BLAS_ENV, "workload": name, "seed": seed, "ops": n}
print(json.dumps({"env": env}))
print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                  "metrics": {"peak_rss_mb": {"value": peak, "unit": "MB"}}}))
"""


def parse_seeds(text: str) -> list[int]:
    """`A-B` (inclusive) or a single seed."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def parse_output(stdout: str) -> tuple[dict | None, dict | None]:
    """(environment line, result line) of one perfbench run's stdout, each
    None when the run printed none."""
    env = result = None
    for line in stdout.splitlines():
        if line.startswith('{"env"'):
            env = json.loads(line)["env"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    return env, result


def run_record(seed: int, side: str, position: int, stdout: str, error: str | None) -> dict:
    """One run as recorded: its result, or why it has none."""
    env, result = parse_output(stdout)
    record = {"seed": seed, "side": side, "ran": "first" if position == 0 else "second",
              "src_sha256": env["src_sha256"] if env else None}
    if result is None:
        return {**record, "correct": False, "error": error or "no result line"}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**record, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "ok_frac": metrics.get("ok_frac"), "metrics": metrics}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric, the statistics of the pairs in which both sides have it.
    `better` maps a metric to "lower" or "higher"; wins and the claim rule
    are given only for metrics it names."""
    by_seed = {(r["seed"], r["side"]): r for r in runs}
    seeds = sorted({r["seed"] for r in runs})
    names = sorted({name for r in runs for name in r.get("metrics", {})})
    out = {}
    for name in names:
        pairs = [
            (by_seed[s, "base"]["metrics"][name], by_seed[s, "head"]["metrics"][name])
            for s in seeds
            if all(name in by_seed.get((s, side), {}).get("metrics", {}) for side in SIDES)
        ]
        if not pairs:
            continue
        base_q, head_q = quartiles([b for b, _ in pairs]), quartiles([h for _, h in pairs])
        entry = {
            "pairs": len(pairs),
            "base": {"q1": base_q[0], "median": base_q[1], "q3": base_q[2]},
            "head": {"q1": head_q[0], "median": head_q[1], "q3": head_q[2]},
            "parent_iqr": base_q[2] - base_q[0],
            "change": (head_q[1] - base_q[1]) / base_q[1] if base_q[1] else None,
        }
        if name in better:
            sign = -1.0 if better[name] == "lower" else 1.0
            wins = sum(sign * (h - b) > 0 for b, h in pairs)
            gap = sign * (head_q[1] - base_q[1])
            entry.update(better=better[name], wins=wins,
                         gain_shown=wins >= 0.9 * len(pairs) and gap > entry["parent_iqr"])
        out[name] = entry
    return out


def workload_entry(runs: list[dict], better: dict[str, str], base_rev: str, seconds: float | None,
                   env: dict | None) -> dict:
    """A workload's entry in BENCH_<label>.json; `seconds` is None for --ops runs."""
    sha = {side: sorted({r["src_sha256"] for r in runs if r["side"] == side and r["src_sha256"]})
           for side in SIDES}
    return {
        "base_rev": base_rev,
        "seconds": seconds,
        "seeds": sorted({r["seed"] for r in runs}),
        "src_sha256": sha,
        "env": env,
        "incorrect_runs": sum(not r["correct"] for r in runs),
        "runs": runs,
        "metrics": summarize(runs, better),
    }


def write_bench(path: str, label: str, workload: str, entry: dict) -> dict:
    """Write `entry` as `workload`'s entry of the BENCH file at `path`,
    keeping the other workloads' entries."""
    bench = {"label": label, "workloads": {}}
    if os.path.exists(path):
        with open(path) as f:
            bench = json.load(f)
        if bench.get("label") != label:
            raise ValueError(f"{path} holds label {bench.get('label')!r}, not {label!r}")
    bench["workloads"][workload] = entry
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return bench


def end_to_end_directions() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def extract_base(rev: str, dest: str) -> str:
    """Extract `rev` into `dest` with git archive; returns the full revision."""
    full = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()
    os.makedirs(dest)
    archive = dest + ".tar"
    with open(archive, "wb") as f:
        subprocess.run(["git", "archive", full], cwd=ROOT, stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)
    return full


def copy_working_tree(dest: str) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files."""
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, check=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def src_lines(tree: str) -> int:
    """The line total of `tree`'s src/riff/*.py, as `wc -l` counts it: newlines."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "riff", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def entry_name(workload: str, ops: int | None) -> str:
    """The key of a run's entry in the BENCH file."""
    return workload if ops is None else f"{workload} --ops {ops}"


def run_perfbench(tree: str, workload: str, seed: int, seconds: float,
                  ops: int | None = None) -> tuple[str, str | None]:
    """(stdout, error or None) of one `perfbench/run.py --trace 0` run in
    `tree`, or with `ops` of one OPS_CHILD run of that many operations."""
    if ops is None:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    else:
        cmd = [sys.executable, "-c", OPS_CHILD, workload, str(seed), str(ops)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    error = None if done.returncode == 0 else f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    return done.stdout, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--ops", type=int, help="record peak_rss_mb after operations 0..N-1 instead")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be positive")

    runs, env = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side, "riff") for side in SIDES}
        base_rev = extract_base(args.base, trees["base"])
        copy_working_tree(trees["head"])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                stdout, error = run_perfbench(trees[side], args.workload, seed, args.seconds, args.ops)
                record = run_record(seed, side, position, stdout, error)
                env = env or parse_output(stdout)[0]
                runs.append(record)
                metrics = record.get("metrics", {})
                shown = {m: metrics[m] for m in ("run_s", "pretrain_s", "finetune_s", "peak_rss_mb") if m in metrics}
                print(f"seed {seed} {side}: correct={record['correct']} {shown}", flush=True)
    seconds = args.seconds if args.ops is None else None
    entry = workload_entry(runs, end_to_end_directions(), base_rev, seconds, env)
    entry["src_lines"] = lines
    if args.ops is not None:
        entry["ops"] = args.ops
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    write_bench(path, args.label, entry_name(args.workload, args.ops), entry)
    for name, m in entry["metrics"].items():
        print(f"{name}: {m['base']['median']:.6g} -> {m['head']['median']:.6g} "
              f"(wins {m.get('wins')}/{m['pairs']}, parent IQR {m['parent_iqr']:.3g}, "
              f"gain shown {m.get('gain_shown')})")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
