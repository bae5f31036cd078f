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


def test_the_summary_prints_each_metric_and_the_source_line_counts_as_base_to_head():
    entry = bench_pairs.workload_entry(canned_runs([0.10, 0.12], [0.08, 0.09]), BETTER, "abc123", 20.0, None)
    entry["src_lines"] = {"base": 3313, "head": 3291}
    entry["src_code_lines"] = {"base": 2243, "head": 2230}
    assert bench_pairs.summary_lines(entry) == [
        "ok_frac: 1 -> 1 (wins 0/2, parent IQR 0, gain shown False, regression None)",
        "peak_rss_mb: 40 -> 40 (wins None/2, parent IQR 0, gain shown None, regression None)",
        "pretrain_s: 0.11 -> 0.085 (wins 2/2, parent IQR 0.01, gain shown True, regression None)",
        "src_lines: 3313 -> 3291",
        "src_code_lines: 2243 -> 2230",
    ]


def test_the_regression_verdict_applies_each_metrics_bound_to_the_medians_and_the_parent_spread():
    bounds = {"pretrain_s": 0.1, "ok_frac": 0.01}
    base = [0.100, 0.101, 0.102, 0.103, 0.104]  # parent IQR 0.002, 2 % of its median 0.102

    def verdict(head, bound=bounds):
        return bench_pairs.summarize(canned_runs(base, head), BETTER, bound)["pretrain_s"]["regression"]

    assert verdict([b * 1.05 for b in base]) == "none"  # 5 % slower, inside the 10 % bound
    assert verdict([b * 1.15 for b in base]) == "beyond bound"
    assert verdict([b * 0.5 for b in base]) == "none"  # faster is never a regression
    # with a 1 % bound the parent's 2 % spread is too wide to tell, unless every pair is won
    assert verdict([b * 1.005 for b in base], {"pretrain_s": 0.01}) == "unresolved"
    assert verdict([b * 0.995 for b in base], {"pretrain_s": 0.01}) == "none"
    assert verdict([b * 1.02 for b in base], {"pretrain_s": 0.01}) == "beyond bound"
    # a higher-is-better metric regresses when it falls; a metric without a bound gets no verdict
    stats = bench_pairs.summarize(canned_runs(base, base, incorrect={(100, "head"), (101, "head")}), BETTER, bounds)
    assert stats["ok_frac"]["head"]["median"] == 1.0 and stats["ok_frac"]["regression"] == "none"
    entry = bench_pairs.workload_entry(
        canned_runs(base, base, incorrect={(k, "head") for k in range(100, 103)}), BETTER, "abc", 20.0, None, bounds)
    assert entry["metrics"]["ok_frac"]["regression"] == "beyond bound"
    assert "regression" not in entry["metrics"]["peak_rss_mb"]
    assert "regression beyond bound" in bench_pairs.summary_lines({**entry, "src_lines": {"base": 1, "head": 1},
                                                                    "src_code_lines": {"base": 1, "head": 1}})[0]


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


CODE_MODULE = '''"""Module docstring,

on three lines."""

# a comment
import os  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Method docstring
        on two lines."""
        if os.sep:
            """A string that opens no definition is code."""
            # an indented comment
        return """a string
        over two lines"""
'''


def test_src_code_lines_skip_blank_comment_and_docstring_lines(tmp_path):
    package = tmp_path / "src" / "riff"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(CODE_MODULE)
    (package / "b.py").write_text("y = 2\nz = 3")  # no final newline
    (package / "sub" / "c.py").write_text("not_counted = 1\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "d.py").write_text("not_counted = 1\n")
    # import, class, def, if, the if's string, the return's two lines; y and z
    assert bench_pairs.src_code_lines(str(tmp_path)) == 9
    assert bench_pairs.src_code_lines(str(tmp_path / "missing")) == 0


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


def test_a_tier1_run_records_its_wall_seconds_and_pass_count_from_the_summary_line():
    clean = bench_pairs.tier1_record(5, "base", 0, "....... [ 99%]\n.. [100%]\n772 passed in 19.14s\n", None, 20.4)
    assert clean == {
        "seed": 5, "side": "base", "ran": "first", "src_sha256": None, "correct": True,
        "attempted": 772, "failed": 0, "ok_frac": None, "metrics": {"tier1_s": 20.4, "tier1_passed": 772},
    }
    failing = "F.. [100%]\n=== short test summary info ===\nFAILED tests/t.py::x\n" \
              "==== 1 failed, 770 passed, 2 warnings, 1 error in 21.0s ====\n"
    bad = bench_pairs.tier1_record(5, "head", 1, failing, "exit 1: ...", 22.0)
    assert bad["correct"] is False and bad["ran"] == "second"
    assert (bad["attempted"], bad["failed"], bad["metrics"]) == (772, 2, {"tier1_s": 22.0, "tier1_passed": 770})
    # no summary line: the run is recorded with its error and has no metrics
    crashed = bench_pairs.tier1_record(6, "head", 0, "ImportError: boom\n", "exit 4: ImportError", 1.0)
    assert crashed == {"seed": 6, "side": "head", "ran": "first", "src_sha256": None, "correct": False,
                       "error": "exit 4: ImportError"}


def test_tier1_pairs_are_summarized_with_their_own_directions():
    runs = []
    for k, (base, head) in enumerate([(20.0, 18.0), (21.0, 18.5), (20.5, 21.5)]):
        for position, (side, seconds, passed) in enumerate((("base", base, 772), ("head", head, 775))):
            stdout = f"...\n{passed} passed in {seconds}s\n"
            runs.append(bench_pairs.tier1_record(k, side, position, stdout, None, seconds))
    stats = bench_pairs.summarize(runs, bench_pairs.TIER1_BETTER)
    assert stats["tier1_s"]["wins"] == 2 and stats["tier1_s"]["better"] == "lower"
    assert stats["tier1_passed"]["wins"] == 3 and stats["tier1_passed"]["head"]["median"] == 775
