"""The pure part of scripts/bench_pairs.py on canned perfbench result lines:
statistics, win counting, the BENCH file's shape, and runs that fail."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"pretrain_s": "lower", "ok_frac": "higher"}


def canned_stdout(sha: str, pretrain_s: float, correct: bool = True, attempted: int = 40) -> str:
    """What perfbench/run.py --trace 0 prints: the environment line, then the result line."""
    failed = 0 if correct else 1
    env = {"env": {"python": "3.11", "src_sha256": sha, "workload": "oracle"}, "wall": {"run_s": 0.2}}
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {
            "pretrain_s": {"value": pretrain_s, "unit": "s"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": 40.0, "unit": "MB"},
        },
    }
    return "worker chatter\n" + json.dumps(env) + "\n" + json.dumps(result) + "\n"


def canned_runs(base_values, head_values, incorrect=()):
    runs = []
    for k, (b, h) in enumerate(zip(base_values, head_values)):
        seed = 100 + k
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for position, side in enumerate(order):
            value, sha = (b, "parent") if side == "base" else (h, "change")
            stdout = canned_stdout(sha, value, correct=(seed, side) not in incorrect)
            runs.append(bench_pairs.run_record(seed, side, position, stdout, None))
    return runs


def test_seed_ranges_are_inclusive():
    assert bench_pairs.parse_seeds("101-110") == list(range(101, 111))
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError, match="empty seed range"):
        bench_pairs.parse_seeds("5-3")


def test_a_run_record_keeps_the_result_line_and_the_source_digest():
    record = bench_pairs.run_record(3, "head", 1, canned_stdout("abc", 0.07, attempted=22), None)
    assert record == {
        "seed": 3, "side": "head", "ran": "second", "src_sha256": "abc", "correct": True,
        "attempted": 22, "failed": 0, "ok_frac": 1.0,
        "metrics": {"pretrain_s": 0.07, "ok_frac": 1.0, "peak_rss_mb": 40.0},
    }


def test_statistics_wins_and_the_claim_rule():
    base = [0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18, 0.19]
    head = [0.07] * 9 + [0.19]  # the last pair is a tie: it counts for neither side
    stats = bench_pairs.summarize(canned_runs(base, head), BETTER)
    p = stats["pretrain_s"]
    assert p["pairs"] == 10 and p["wins"] == 9 and p["better"] == "lower"
    assert p["base"] == pytest.approx({"q1": 0.1225, "median": 0.145, "q3": 0.1675})
    assert p["head"] == pytest.approx({"q1": 0.07, "median": 0.07, "q3": 0.07})
    assert p["parent_iqr"] == pytest.approx(0.045)
    assert p["change"] == pytest.approx(0.07 / 0.145 - 1.0)
    assert p["gain_shown"] is True
    # a metric BENCHMARK.json does not rank gets statistics but no wins
    assert "wins" not in stats["peak_rss_mb"] and stats["peak_rss_mb"]["parent_iqr"] == 0.0
    assert stats["ok_frac"]["wins"] == 0 and stats["ok_frac"]["gain_shown"] is False


def test_the_claim_rule_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    base = [0.10, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18, 0.19]
    eight_wins = bench_pairs.summarize(canned_runs(base, [0.05] * 8 + [0.2, 0.2]), BETTER)["pretrain_s"]
    assert eight_wins["wins"] == 8 and eight_wins["gain_shown"] is False
    # every pair won, but the medians differ by less than the parent's IQR (0.045)
    small_gap = bench_pairs.summarize(canned_runs(base, [b - 0.01 for b in base]), BETTER)["pretrain_s"]
    assert small_gap["wins"] == 10 and small_gap["gain_shown"] is False


def test_an_incorrect_run_is_recorded_and_counted_never_dropped():
    base, head = [0.10, 0.12, 0.14], [0.08, 0.09, 0.10]
    runs = canned_runs(base, head, incorrect={(101, "head")})
    entry = bench_pairs.workload_entry(runs, BETTER, "abc123", 20.0, {"python": "3.11"})
    bad = [r for r in entry["runs"] if not r["correct"]]
    assert len(entry["runs"]) == 6 and entry["incorrect_runs"] == 1
    assert bad == [{
        "seed": 101, "side": "head", "ran": "first", "src_sha256": "change", "correct": False,
        "attempted": 40, "failed": 1, "ok_frac": 39 / 40,
        "metrics": {"pretrain_s": 0.09, "ok_frac": 39 / 40, "peak_rss_mb": 40.0},
    }]
    # its metrics still count: the pair is in the statistics
    assert entry["metrics"]["pretrain_s"]["pairs"] == 3
    assert entry["metrics"]["ok_frac"]["head"]["q1"] < 1.0


def test_a_run_without_a_result_is_recorded_with_its_error_and_left_out_of_the_pairs():
    runs = canned_runs([0.10, 0.12], [0.08, 0.09])
    runs.append(bench_pairs.run_record(102, "base", 0, "partial output\n", "exit 1: benchmark failed"))
    runs.append(bench_pairs.run_record(102, "head", 1, canned_stdout("change", 0.07), None))
    entry = bench_pairs.workload_entry(runs, BETTER, "abc123", 20.0, None)
    assert {"seed": 102, "side": "base", "ran": "first", "src_sha256": None, "correct": False,
            "error": "exit 1: benchmark failed"} in entry["runs"]
    assert entry["incorrect_runs"] == 1 and entry["seeds"] == [100, 101, 102]
    assert entry["metrics"]["pretrain_s"]["pairs"] == 2


def test_the_bench_file_holds_one_entry_per_workload(tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    runs = canned_runs([0.10, 0.12], [0.08, 0.09])
    oracle = bench_pairs.workload_entry(runs, BETTER, "abc123", 20.0, {"python": "3.11"})
    bench_pairs.write_bench(path, "x", "oracle", oracle)
    bench_pairs.write_bench(path, "x", "recipe", oracle)
    bench = json.loads(pathlib.Path(path).read_text())
    assert bench["label"] == "x" and sorted(bench["workloads"]) == ["oracle", "recipe"]
    entry = bench["workloads"]["oracle"]
    assert sorted(entry) == ["base_rev", "env", "incorrect_runs", "metrics", "runs", "seconds", "seeds",
                             "src_sha256"]
    assert entry["src_sha256"] == {"base": ["parent"], "head": ["change"]}
    assert sorted(entry["metrics"]["pretrain_s"]) == [
        "base", "better", "change", "gain_shown", "head", "pairs", "parent_iqr", "wins"]
    with pytest.raises(ValueError, match="holds label 'x', not 'y'"):
        bench_pairs.write_bench(path, "y", "oracle", oracle)


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "riff"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "b.py").write_text("y = 2\nz = 3")  # no final newline: wc -l counts 1
    (package / "empty.py").write_text("")
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not counted\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "d.py").write_text("not counted\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 4
    assert bench_pairs.src_lines(str(tmp_path / "missing")) == 0


FAKE_RUN = """
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def source_digest():
    return "fake"
"""

FAKE_WORKLOADS = """
import os

GOLDEN_SEED = 0
BAD_OP = 2


class Fake:
    def setup(self, seed):
        return {"seed": seed, "threads": os.environ["OPENBLAS_NUM_THREADS"]}

    def run(self, state, k, run_dir):
        assert os.path.isdir(run_dir)
        if k == BAD_OP:
            raise RuntimeError("planted")
        return {}, k

    def outputs(self, state, product, run_dir):
        return {"k": product, "threads": state["threads"]}

    def check(self, out):
        return [] if out["threads"] == "1" and out["k"] != 3 else ["bad output"]


def golden_problems(name, out):
    return ["golden"] if out["k"] != 0 else []


WORKLOADS = {"fake": Fake()}
"""


def test_an_ops_run_counts_its_operations_and_reads_peak_rss_in_a_fresh_interpreter(tmp_path):
    # OPS_CHILD drives a stand-in perfbench: operation 2 raises and operation 3 fails its check
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    (tmp_path / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
    stdout, error = bench_pairs.run_perfbench(str(tmp_path), "fake", 0, 20.0, ops=5)
    assert error is None
    record = bench_pairs.run_record(0, "base", 0, stdout, error)
    assert record["src_sha256"] == "fake" and record["correct"] is False
    assert record["attempted"] == 5 and record["failed"] == 2
    assert sorted(record["metrics"]) == ["peak_rss_mb"] and 1.0 < record["metrics"]["peak_rss_mb"] < 1e4
    assert bench_pairs.parse_output(stdout)[0]["ops"] == 5


def test_ops_runs_are_summarized_like_timed_runs_under_their_own_entry():
    def ops_stdout(sha, peak):
        env = {"env": {"python": "3.11", "src_sha256": sha, "ops": 20}}
        result = {"correct": True, "attempted": 20, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": peak, "unit": "MB"}}}
        return json.dumps(env) + "\n" + json.dumps(result) + "\n"

    base, head = [38.9, 39.0, 38.8, 39.1], [38.95, 38.9, 38.9, 39.0]
    runs = [bench_pairs.run_record(k, side, 0, ops_stdout(side, value), None)
            for k, pair in enumerate(zip(base, head)) for side, value in zip(("base", "head"), pair)]
    stats = bench_pairs.summarize(runs, {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert stats["pairs"] == 4 and stats["wins"] == 2 and stats["gain_shown"] is False
    assert stats["base"]["median"] == pytest.approx(38.95) and stats["head"]["median"] == pytest.approx(38.925)
    assert bench_pairs.entry_name("augment", 20) == "augment --ops 20"
    assert bench_pairs.entry_name("augment", None) == "augment"
