"""One fresh interpreter of a benchmark run; started by run.py, not by hand.

Protocol on standard output, one JSON object per line:
  {"ready": {...}}   after set-up, just before the first timed call;
  {"result": {...}}  after the operations (the main worker only).
A probe worker exits after its ready line; run.py times each worker from
spawn to ready line, which is the set-up time including interpreter start.
Every time reported is scaled to the nominal machine speed (see speed.py);
the wall-clock medians ride along in the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from speed import SpeedSampler


def emit(kind: str, payload) -> None:
    sys.stdout.write(json.dumps({kind: payload}) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    sampler = SpeedSampler()
    sampler.start()
    begin = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--runs-dir", required=True, help="directory for run directories")
    args = parser.parse_args(argv)

    # speed.py imported numpy before the sampler could time a slice; riff and
    # the workload are imported here, inside the sampled part of set-up. The
    # speed factor of [begin, ready) scales the whole spawn -> ready time,
    # interpreter start and numpy import included (run.py).
    import numpy as np
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up spans count too: the augment rewriter is pretrained there
    state = workload.setup(args.seed)
    if tracer is not None:
        tracer.uninstall()
    ready = time.perf_counter()
    setup_scale = sampler.scaled(begin, ready) / (ready - begin)
    emit("ready", {
        "setup_scale": setup_scale,
        "phases": {k: sampler.scaled(*span) for k, span in state.phases.items()},
        "numpy": np.__version__,
    })
    if args.probe:
        sampler.stop()
        return 0

    problems: list[str] = []
    attempted = failed = 0

    def record(k, trace_with=None, expect=None):
        """Run and check operation k; returns (phase intervals, outputs),
        both None if it raised."""
        nonlocal attempted, failed
        attempted += 1
        run_dir = os.path.join(args.runs_dir, f"op{k}" + ("-traced" if trace_with else ""))
        os.makedirs(run_dir, exist_ok=True)
        try:
            if trace_with is not None:
                trace_with.install()
            try:
                times, product = workload.run(state, k, run_dir)
            finally:
                if trace_with is not None:
                    trace_with.uninstall()
            out = workload.outputs(state, product, run_dir)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc()
            times = out = None
            found = ["operation raised"]
        else:
            found = workload.check(out)
            if k == 0 and state.seed == workloads.GOLDEN_SEED:
                found += workloads.golden_problems(workload.name, out)
            if expect is not None and out != expect:
                found.append("traced outputs differ from untraced outputs")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if found:
            failed += 1
            problems.extend(f"op {k}: {p}" for p in found)
        return times, out

    metrics = wall = spans = None
    if tracer is not None:
        times, out = record(0)
        traced_times, _ = record(0, tracer, expect=out)
        if times is not None and traced_times is not None:
            t0, t1 = traced_times["run_s"]
            traced_s = sampler.scaled(t0, t1)
            # span times read at the nominal speed, like every other time
            tracer.set_speed([(begin, ready, setup_scale), (t0, t1, traced_s / (t1 - t0))])
            metrics = tracing.layer_metrics(tracer, sampler.scaled(*times["run_s"]), traced_s)
            spans = {"functions": tracer.summary(), "counters": dict(tracer.counters)}
    else:
        scaled: dict[str, list[float]] = {}
        walls: dict[str, list[float]] = {}
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < args.seconds:
            times, _ = record(k)
            for key, (t0, t1) in (times or {}).items():
                scaled.setdefault(key, []).append(sampler.scaled(t0, t1))
                walls.setdefault(key, []).append(t1 - t0)
            k += 1
        if scaled:
            metrics = {key: statistics.median(v) for key, v in scaled.items()}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wall = {key: statistics.median(v) for key, v in walls.items()}
    sampler.stop()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    emit("result", {"attempted": attempted, "failed": failed, "metrics": metrics, "wall": wall,
                    "spans": spans})
    return 0


if __name__ == "__main__":
    sys.exit(main())
