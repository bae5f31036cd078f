"""Re-record golden.json: the outputs of operation 0 of `recipe` and `augment`
at the default seed. The benchmark fails a default-seed run whose rewrite ids
differ from these, or whose metric rows differ by more than 1e-9.

    python3 perfbench/record_golden.py

Re-record only for a change that is meant to alter the outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from workloads import GOLDEN_PATH, GOLDEN_SEED, ROOT, WORKLOADS


def main() -> int:
    golden = {}
    for name in ("recipe", "augment"):
        workload = WORKLOADS[name]
        state = workload.setup(GOLDEN_SEED)
        run_dir = os.path.join(ROOT, ".perfbench_tmp", "golden", name)
        os.makedirs(run_dir, exist_ok=True)
        try:
            _, product = workload.run(state, 0, run_dir)
            out = workload.outputs(state, product, run_dir)
        finally:
            shutil.rmtree(os.path.dirname(run_dir), ignore_errors=True)
        problems = workload.check(out)
        if problems:
            print(f"{name}: not recording outputs that fail the check: {problems}", file=sys.stderr)
            return 1
        golden[name] = {"seed": GOLDEN_SEED, "rewrites": out["rewrites"], "rows": out["rows"]}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden, f)
        f.write("\n")
    print(f"recorded {', '.join(golden)} to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
