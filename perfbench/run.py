"""riff benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload recipe --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): recipe, augment, oracle. Every worker is a
fresh interpreter with BLAS pinned to one thread, run one after another, so
the run is single-process and single-threaded while it measures.

With --trace 0 the result holds the end-to-end metrics:
  setup_s      median over fresh interpreters of spawn -> ready for the first
               timed call (imports, task and corpus generation; on augment
               also rewriter pretraining)
  run_s        median wall time of one operation of the workload
  pretrain_s   rewriter pretraining (pretrain_mle): in the recipe; in set-up
               on augment; the anchor rewriter on oracle
  finetune_s   fine-tuning: finetune_paraphraser incl. validation and
               checkpoint writes on recipe; train_classifier_augmented on
               augment; exact KL-penalized ascent on oracle
  peak_rss_mb  ru_maxrss of the measuring interpreter at exit
  ok_frac      share of attempted operations that neither raised nor failed
               the output check
Times are scaled to a nominal machine speed measured while they run (see
speed.py); the wall-clock medians are printed with the environment.
Operations repeat until --seconds have passed (at least one). With --trace 1
one operation runs untraced and then traced, and the result holds the
per-layer metrics of tracer.py, after a line with every traced function's
calls, inclusive and self seconds. The line before the result records the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUNS_ROOT = os.path.join(ROOT, ".perfbench_tmp")
DEADLINE_S = 170.0
SETUP_REPEATS = {"recipe": 5, "augment": 3, "oracle": 5}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {
    "setup_s": "s", "run_s": "s", "pretrain_s": "s", "finetune_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "frac",
}


class WorkerError(Exception):
    pass


def spawn(args, probe: bool, runs_dir: str, deadline: float):
    """Run one worker to completion; returns (seconds to ready, ready, result)."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--runs-dir", runs_dir,
    ] + (["--probe"] if probe else [])
    env = dict(os.environ, **BLAS_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready_s = ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith('{"ready"') and ready is None:
                ready_s = time.perf_counter() - start
                ready = json.loads(line)["ready"]
            elif line.startswith('{"result"'):
                result = json.loads(line)["result"]
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (not probe and result is None):
        raise WorkerError(f"worker exited with code {code}")
    return ready_s, ready, result


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "riff")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return digest.hexdigest()[:16]


def git_head() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, numpy_version: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_head": git_head(),
        "src_sha256": source_digest(),
        "blas_env": BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "riff", "__init__.py")):
        print(f"no riff sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    runs_dir = os.path.join(RUNS_ROOT, str(os.getpid()))
    try:
        setups, readies = [], []
        for _ in range(0 if args.trace else SETUP_REPEATS[args.workload] - 1):
            ready_s, ready, _ = spawn(args, True, runs_dir, deadline)
            setups.append(ready_s * ready["setup_scale"])
            readies.append(ready)
        ready_s, ready, result = spawn(args, False, runs_dir, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        if os.path.isdir(RUNS_ROOT) and not os.listdir(RUNS_ROOT):
            os.rmdir(RUNS_ROOT)
    setups.append(ready_s * ready["setup_scale"])
    readies.append(ready)
    pretrains = [r["phases"]["pretrain_s"] for r in readies if "pretrain_s" in r["phases"]]

    measured = result["metrics"]
    if measured is None:
        print("benchmark failed: no operation completed", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        import tracer

        metrics = {k: {"value": measured[k], "unit": u} for k, u in tracer.PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": measured["run_s"],
            "pretrain_s": statistics.median(pretrains) if pretrains else measured["pretrain_s"],
            "finetune_s": measured["finetune_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    if result["spans"] is not None:
        print(json.dumps({"spans": result["spans"]}))
    print(json.dumps({"env": environment(args, ready["numpy"]), "wall": result["wall"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
