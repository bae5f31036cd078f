import csv
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import mp_objective_derivative, stacked_central_diffs, tiny_policy
import riff
from riff import cli, training
from riff.classifier import ClassifierParams, TuningMode
from riff.cli import (
    ORACLE_FD_STEP,
    ConfigError,
    load_config,
    oracle_check,
    oracle_sweep,
    summarize_runs,
    sweep_instance,
)
from riff.numerics import max_relative_error, richardson_grad
from riff.oracle import enumerate_sequences, exact_gradient, exact_kl_gradient, exact_objectives
from riff.policy import PolicyParams, TokenSeq
from riff.training import read_metrics_csv

ROOT = pathlib.Path(__file__).resolve().parents[1]


def fast_config(tmp_path, **overrides):
    config = {
        "name": "t",
        "task_vocab_size": 16,
        "task_pool": 32,
        "shots": 4,
        "policy_max_len": 18,
        "policy_embed_dim": 6,
        "policy_hidden_dim": 8,
        "pretrain_pool": 16,
        "pretrain_epochs": 2,
        "classifier_warmup_steps": 10,
        "classifier_embed_dim": 8,
        "m": 4,
        "steps": 4,
        "batch_size": 4,
        "checkpoint_interval": 2,
        "seed": 0,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_load_config_applies_defaults():
    config = load_config({})
    assert config.estimator == "mml"
    assert config.regime == "klon"
    assert config.decoder == "mixed"
    assert config.normalize is True
    assert config.m == 8
    assert config.checkpoint_interval == 8
    assert config.top_p == 0.99


def test_load_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown config field 'stepz'"):
        load_config({"stepz": 10})


def test_load_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="estimator"):
        load_config({"estimator": "zigzag"})


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["riff-finetune", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_config_field_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"frobnicate": 1}))
    rc = cli.main(["riff-finetune", "--config", str(path)])
    assert rc == 2
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["oracle-check", "--instances", "0"], "--instances must be at least 1, got 0"),
    (["oracle-check", "--instances", "-2"], "--instances must be at least 1, got -2"),
    (["grid", "--seeds", "a,b"], "--seeds .*'a'"),
    (["riff-finetune", "--config", {"shots": 0}], "'shots' must be at least 1, got 0"),
    (["train-classifier", "--config", {"shots": -3}], "'shots' must be at least 1, got -3"),
    (["riff-finetune", "--config", {"top_p": 0.0}], r"top_p must lie in \(0, 1\]"),
    (["riff-finetune", "--config", {"temperature": 0.0, "m": 0}], "temperature must be positive"),
    (["riff-finetune", "--config", {"diversity_penalty": -1.0}], "diversity_penalty must be nonnegative"),
    (["riff-finetune", "--config", {"repetition_penalty": 0.5}], "repetition_penalty must be at least 1"),
    (["riff-finetune", "--config", {"lr": -1.0}], "lr must be nonnegative, got -1.0"),
    (["train-classifier", "--config", {"weight_decay": -0.1}], "weight_decay must be nonnegative, got -0.1"),
    (["riff-finetune", "--config", {"policy_max_len": 0}], "'policy_max_len': max_len must be positive"),
    (["riff-finetune", "--config", {"num_labels": 1}], "'num_labels': need at least two .* labels"),
    (["riff-finetune", "--config", {"lora_rank": 99}], r"'lora_rank': lora rank must lie in \[1, embed_dim\]"),
    (["riff-finetune", "--config", {"task_vocab_size": 6}], "'task_vocab_size': vocabulary of 6 too small"),
    (["pretrain", "--config", {"pretrain_epochs": -3}], "'pretrain_epochs' must be at least 0, got -3"),
    (["pretrain", "--config", {"pretrain_lr": -0.5}], "'pretrain_lr' must be at least 0, got -0.5"),
    (["riff-finetune", "--config", {"classifier_warmup_steps": -1}],
     "'classifier_warmup_steps' must be at least 0, got -1"),
    (["riff-finetune", "--config", {"classifier_warmup_lr": -0.01}],
     "'classifier_warmup_lr' must be at least 0, got -0.01"),
    (["riff-finetune", "--config", {"steps": 4}],
     "steps must be at least checkpoint_interval, got steps 4 and checkpoint_interval 8"),
    (["train-classifier", "--config", {"steps": 4}],
     "steps must be at least checkpoint_interval, got steps 4 and checkpoint_interval 8"),
    (["riff-finetune", "--config", {"pretrain_pool": 0}],
     "'pretrain_pool' must be at least 1 without a policy_checkpoint, got 0"),
    (["riff-finetune", "--config", {"policy_checkpoint": "no/such/policy.ckpt"}],
     "'policy_checkpoint': no checkpoint file at no/such/policy.ckpt"),
    (["riff-finetune", "--config", {"classifier_checkpoint": "no/such/classifier.ckpt"}],
     "'classifier_checkpoint': no checkpoint file at no/such/classifier.ckpt"),
    (["riff-finetune", "--config", {"task_pool": 10}],
     "'task_pool' and 'shots': a task_pool of 10 gives 5 examples of some label, and shots 16 needs 32"),
    (["riff-finetune", "--config", {"m": 0}], "config field 'm' must be at least 1 for riff-finetune, got 0"),
    (["evaluate", "--config", {"m": 0}], "config field 'm' must be at least 1 for evaluate, got 0"),
], ids=["instances_0", "instances_negative", "seeds_not_int", "shots_0", "shots_negative",
        "top_p_0", "temperature_0_with_m_0", "diversity_penalty_negative", "repetition_penalty_below_1",
        "lr_negative", "weight_decay_negative", "policy_max_len_0", "num_labels_1", "lora_rank_over_embed_dim",
        "task_vocab_size_too_small", "pretrain_epochs_negative", "pretrain_lr_negative",
        "classifier_warmup_steps_negative", "classifier_warmup_lr_negative",
        "steps_below_checkpoint_interval", "train_classifier_steps_below_checkpoint_interval",
        "pretrain_pool_0", "policy_checkpoint_missing",
        "classifier_checkpoint_missing", "task_pool_too_small_for_shots", "finetune_m_0", "evaluate_m_0"])
def test_invalid_settings_exit_2_naming_the_field(tmp_path, capsys, argv, message):
    if isinstance(argv[-1], dict):
        (tmp_path / "config.json").write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(tmp_path / "config.json")]
    assert cli.main(["--out", str(tmp_path / "runs"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and re.search(message, err)
    assert not (tmp_path / "runs").exists()


NON_FINITE_FIELDS = ("lr", "pretrain_lr", "classifier_warmup_lr", "weight_decay", "beta", "lora_alpha",
                     "temperature", "diversity_penalty", "repetition_penalty")


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("key", NON_FINITE_FIELDS)
def test_a_non_finite_float_exits_2_naming_the_field(tmp_path, capsys, key, value):
    # json writes NaN and Infinity, and json.load reads them back as floats
    config = fast_config(tmp_path, **{key: value})
    assert ("NaN" if value != value else "Infinity") in pathlib.Path(config).read_text()
    assert cli.main(["--out", str(tmp_path / "runs"), "riff-finetune", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and f"config field {key!r} must be finite" in err
    assert not (tmp_path / "runs").exists()


def test_oracle_check_rejects_fewer_than_one_instance():
    with pytest.raises(ConfigError, match="--instances"):
        oracle_check(seed=0, instances=0)


def test_oracle_check_passes_and_exits_zero(capsys):
    rc = cli.main(["oracle-check", "--seed", "7", "--instances", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out


def test_oracle_check_names_its_worst_instance(capsys):
    assert cli.main(["oracle-check", "--seed", "7", "--instances", "3"]) == 0
    out = capsys.readouterr().out
    named = re.search(r"worst: instance (\d+) of 3, parameter coordinate (\d+): analytic (\S+), richardson (\S+)\n", out)
    k, i = int(named[1]), int(named[2])
    assert f"reproduce: riff oracle-check --seed 7 --instances {k}\n" in out
    # instance k of the sweep is the last of a k-instance sweep from the same seed
    rng = np.random.default_rng(7)
    for _ in range(k):
        policy, x, reward_fn, max_len = sweep_instance(rng)
    analytic = exact_gradient(policy, x, reward_fn, max_len)
    fd = richardson_grad(lambda flats: exact_objectives(policy, flats, x, reward_fn, max_len), policy.flat,
                         ORACLE_FD_STEP)
    assert float(named[3]) == analytic[i] and float(named[4]) == fd[i]
    assert max_relative_error(analytic[i], fd[i]) == max_relative_error(analytic, fd) == oracle_check(7, 3)
    assert oracle_sweep(7, k) == oracle_sweep(7, 3)


def _sweep_errors(sub_seed, h):
    """The analytic gradient of oracle_check's instance for a one-instance
    sub-seed, and its stacked central differences at step h."""
    policy, x, reward_fn, max_len = sweep_instance(np.random.default_rng(sub_seed))
    analytic = exact_gradient(policy, x, reward_fn, max_len)
    return (policy, x, reward_fn, max_len), analytic, stacked_central_diffs(policy, x, reward_fn, max_len, h)


def test_oracle_check_error_is_small():
    worst = oracle_check(seed=11, instances=2)
    assert worst < 1e-3
    # the Richardson anchor at ORACLE_FD_STEP; exact
    assert worst == 1.3190084515826543e-09
    # central differences at h=1e-5 from the stacked objective, bitwise
    rng = np.random.default_rng(11)
    central = 0.0
    for _ in range(2):
        policy, x, reward_fn, max_len = sweep_instance(rng)
        fd = stacked_central_diffs(policy, x, reward_fn, max_len, 1e-5)
        central = max(central, max_relative_error(exact_gradient(policy, x, reward_fn, max_len), fd))
    assert central == 1.0076840677121656e-07


def test_exact_kl_gradient_matches_the_richardson_anchor_on_sweep_draws():
    # the KL objective through the same stacked Richardson path as the sweep:
    # 200 sweep draws, each against its own random anchor, at three betas
    rng = np.random.default_rng(0)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="unterminated tail mass")
        for k in range(200):
            policy, x, reward_fn, max_len = sweep_instance(rng)
            anchor = PolicyParams(policy.cfg)
            anchor.pv.values[:] = np.random.default_rng([0, k]).normal(0.0, 0.6, anchor.pv.size)
            for beta in (0.1, 0.6, 2.5):
                analytic = exact_kl_gradient(policy, anchor, x, reward_fn, beta, max_len)
                fd = richardson_grad(
                    lambda flats: exact_objectives(policy, flats, x, reward_fn, max_len, anchor, beta),
                    policy.flat,
                    ORACLE_FD_STEP,
                )
                worst = max(worst, max_relative_error(analytic, fd))
    assert worst < 1e-5


# One-instance sweeps whose central differences at h=1e-5 failed the 1e-3 check:
# perfbench oracle seed 0 operation 71, seed 26 operation 34 and seed 111 operation 58.
CENTRAL_FAILURES = [612235909, 993958342, 424899586]


@pytest.mark.parametrize("sub_seed", CENTRAL_FAILURES)
def test_oracle_check_passes_where_central_differences_failed(sub_seed):
    assert oracle_check(sub_seed, 1) < 1e-3
    _, analytic, central = _sweep_errors(sub_seed, 1e-5)
    assert max_relative_error(analytic, central) >= 1e-3


@pytest.mark.parametrize("sub_seed", CENTRAL_FAILURES)
def test_richardson_anchor_beats_central_differences_against_mpmath(sub_seed):
    instance, analytic, central = _sweep_errors(sub_seed, 1e-5)
    policy, x, reward_fn, max_len = instance
    richardson = richardson_grad(
        lambda flats: exact_objectives(policy, flats, x, reward_fn, max_len), policy.flat, ORACLE_FD_STEP
    )
    scale = np.maximum(np.abs(analytic), np.abs(central))
    failed = np.flatnonzero((scale >= 1e-8) & (np.abs(analytic - central) >= 1e-3 * scale))
    assert failed.size
    for i in failed:
        exact = mp_objective_derivative(policy, x, reward_fn, max_len, int(i))
        assert abs(richardson[i] - exact) < abs(central[i] - exact)
        assert abs(analytic[i] - exact) < 1e-9 * abs(exact)  # the gradient under check is right


def test_riff_and_oracle_check_never_import_mpmath():
    # tests reach for mpmath; the program must not, as setup time counts imports
    script = """if True:
        import sys
        import riff, riff.cli
        riff.cli.oracle_check(0, 1)
        print("mpmath" in sys.modules)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_oracle_check_leaves_no_warnings_filter_behind():
    before = list(warnings.filters)
    oracle_check(seed=11, instances=1)
    assert warnings.filters == before
    # pyproject ignores this warning suite-wide, so turn it back on here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        enumerate_sequences(tiny_policy(seed=4, vocab=4, max_len=3), TokenSeq.from_content([1]))
    assert any("unterminated tail mass" in str(w.message) for w in caught)


def test_write_manifest_interrupted_keeps_old_file(tmp_path):
    config = load_config({})
    cli.write_manifest(str(tmp_path), config, {}, {}, time.perf_counter())
    path = tmp_path / "manifest.json"
    first = path.read_text()
    bad = replace(config, name=object())  # json.dump fails part-way through
    with pytest.raises(TypeError):
        cli.write_manifest(str(tmp_path), bad, {}, {}, time.perf_counter())
    assert path.read_text() == first
    assert sorted(f.name for f in tmp_path.iterdir()) == ["manifest.json"]


def test_riff_finetune_writes_run_artifacts(tmp_path, capsys):
    config = fast_config(tmp_path)
    rc = cli.main(["--out", str(tmp_path / "runs"), "riff-finetune", "--config", config])
    assert rc == 0
    run_dir = tmp_path / "runs" / "t" / "0"
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "policy_best.ckpt").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    # manifest config reparses to an equivalent run configuration
    reparsed = load_config(manifest["config"])
    assert reparsed == load_config(json.loads(open(config).read()))
    assert manifest["protocol"]["num_checkpoints"] == 2
    assert len(manifest["files"]) == 3


def test_run_dir_honors_env_var(tmp_path, monkeypatch):
    config = fast_config(tmp_path, name="envrun")
    monkeypatch.setenv("RIFF_OUT", str(tmp_path / "envroot"))
    rc = cli.main(["riff-finetune", "--config", config])
    assert rc == 0
    assert (tmp_path / "envroot" / "envrun" / "0" / "metrics.csv").exists()


def test_train_classifier_command(tmp_path):
    config = fast_config(tmp_path, name="clsrun", tuning_mode="head", m=2)
    rc = cli.main(["--out", str(tmp_path / "runs"), "train-classifier", "--config", config])
    assert rc == 0
    run_dir = tmp_path / "runs" / "clsrun" / "0"
    assert (run_dir / "classifier_best.ckpt").exists()
    rows = read_metrics_csv(run_dir / "metrics.csv")
    assert any(r["metric"] == training.METRIC_INCL for r in rows)


def test_manifest_records_the_riff_python_and_numpy_versions(tmp_path):
    config = fast_config(tmp_path, name="vrun", tuning_mode="lora", m=0)
    assert cli.main(["--out", str(tmp_path / "runs"), "train-classifier", "--config", config]) == 0
    manifest = json.loads((tmp_path / "runs" / "vrun" / "0" / "manifest.json").read_text())
    assert manifest["versions"] == {
        "riff": riff.__version__, "python": platform.python_version(), "numpy": np.__version__,
    }


def test_manifest_records_the_commands_wall_time(tmp_path):
    config = fast_config(tmp_path, name="wrun", tuning_mode="lora", m=0)
    start = time.perf_counter()
    assert cli.main(["--out", str(tmp_path / "runs"), "train-classifier", "--config", config]) == 0
    elapsed = time.perf_counter() - start
    run_dir = tmp_path / "runs" / "wrun" / "0"
    assert 0.0 < json.loads((run_dir / "manifest.json").read_text())["wall_s"] <= elapsed
    # the wall time goes to the manifest only; the metric rows are the run's as before
    metrics = {r["metric"] for r in read_metrics_csv(run_dir / "metrics.csv")}
    assert metrics == {"loss", training.METRIC_INCL}


def test_warmed_classifier_is_its_last_warmup_step_whatever_the_checkpoint_interval():
    # 12 warmup steps at checkpoint_interval 8: the warmed classifier is the step-12 one, not step 8's
    config = load_config({"classifier_warmup_steps": 12, "checkpoint_interval": 8})
    task = cli.build_task(config)
    split = cli.build_split(config, task)
    warmed = cli.warmed_classifier(config, task, split)
    init = ClassifierParams.init_random(cli.classifier_config(config), TuningMode.ALL, seed=59)
    cfg = training.RunConfig(steps=12, lr=0.01, checkpoint_interval=4, seed=0)
    step4, step8, step12 = training.train_classifier_augmented(init, None, task, split, 0, TuningMode.ALL, cfg)
    assert np.array_equal(warmed.flat, step12.params.flat)
    assert not np.array_equal(warmed.flat, step8.params.flat)


def test_soft_prompt_mode_defaults_prompt_length():
    config = cli.load_config({"tuning_mode": "soft_prompt"})
    assert cli.classifier_config(config).prompt_len == 5
    explicit = cli.load_config({"tuning_mode": "soft_prompt", "prompt_len": 3})
    assert cli.classifier_config(explicit).prompt_len == 3


def test_train_classifier_soft_prompt_mode(tmp_path):
    config = fast_config(tmp_path, name="sprun", tuning_mode="soft_prompt", m=0)
    rc = cli.main(["--out", str(tmp_path / "runs"), "train-classifier", "--config", config])
    assert rc == 0
    from riff.classifier import TuningMode, load_classifier

    best = load_classifier(tmp_path / "runs" / "sprun" / "0" / "classifier_best.ckpt")
    assert best.mode is TuningMode.SOFT_PROMPT
    assert best.cfg.prompt_len == 5


def test_pretrain_command(tmp_path):
    config = fast_config(tmp_path, name="prerun")
    rc = cli.main(["--out", str(tmp_path / "runs"), "pretrain", "--config", config])
    assert rc == 0
    assert (tmp_path / "runs" / "prerun" / "0" / "policy_pretrained.ckpt").exists()


# Recorded at the commit before format_groups stopped building a mask. The
# config warms the classifier until it separates the labels, so that a change
# to scoring or ensembling moves these rows: at the default fast_config every
# example is predicted label 0 and every accuracy reads 0.5.
EVAL_OVERRIDES = {"classifier_warmup_steps": 40, "classifier_warmup_lr": 0.05, "pretrain_epochs": 10}
PINNED_EVAL_ROWS = [
    (0, "validation", "plain_acc", 0.625),
    (0, "validation", "ensemble_acc_incl", 0.75),
    (0, "validation", "ensemble_acc_excl", 0.625),
    (0, "test", "plain_acc", 0.9375),
    (0, "test", "ensemble_acc_incl", 0.9375),
    (0, "test", "ensemble_acc_excl", 0.625),
    (0, "test", "lexical_diversity", 0.8274570783641024),
    (0, "test", "pairwise_lexical_diversity", 0.7120562886187887),
]


def test_evaluate_command(tmp_path, capsys):
    config = fast_config(tmp_path, name="evalrun", **EVAL_OVERRIDES)
    rc = cli.main(["--out", str(tmp_path / "runs"), "evaluate", "--config", config])
    assert rc == 0
    out = capsys.readouterr().out
    assert "validation" in out and "test" in out
    rows = read_metrics_csv(tmp_path / "runs" / "evalrun" / "0" / "eval_metrics.csv")
    assert [(r["step"], r["split"], r["metric"], r["value"]) for r in rows] == PINNED_EVAL_ROWS
    accuracies = [r["value"] for r in rows if "acc" in r["metric"]]
    assert len(accuracies) == 6 and 0.5 not in accuracies


def test_grid_cardinality_is_axis_product(tmp_path, capsys):
    config = fast_config(tmp_path, steps=2, checkpoint_interval=2, classifier_warmup_steps=4,
                         pretrain_epochs=1, m=2, beta=0.3)
    rc = cli.main(
        [
            "--out", str(tmp_path / "runs"),
            "grid", "--config", config,
            "--estimators", "mml,pg",
            "--regimes", "on",
            "--decoders", "beam",
            "--normalize", "both",
            "--seeds", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "grid: 4 cells x 1 seeds = 4 runs" in out
    names = sorted(os.listdir(tmp_path / "runs"))
    assert names == ["mml-on-beam", "mml-on-beam-z", "pg-on-beam", "pg-on-beam-z"]
    for name in names:
        assert (tmp_path / "runs" / name / "0" / "metrics.csv").exists()
        # a configured beta holds in every cell
        assert json.loads((tmp_path / "runs" / name / "0" / "manifest.json").read_text())["config"]["beta"] == 0.3


@pytest.mark.parametrize("overrides, message", [
    ({"decoder": "beam", "m": 3}, "mixed decoding needs an even m"),
    ({"decoder": "beam", "m": 0}, "config field 'm' must be at least 1 for riff-finetune, got 0"),
], ids=["odd_m_for_mixed", "m_0"])
def test_grid_checks_every_cell_before_the_first_run(tmp_path, capsys, overrides, message):
    # the mml-on-beam cell is valid, and runs first; the mixed cell or every cell is not
    config = fast_config(tmp_path, **overrides)
    argv = ["--out", str(tmp_path / "runs"), "grid", "--config", config, "--estimators", "mml",
            "--regimes", "on", "--decoders", "beam,mixed", "--normalize", "off"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_grid_rejects_unknown_axis_value(tmp_path, capsys):
    rc = cli.main(["grid", "--estimators", "mml,quantum", "--seeds", "0"])
    assert rc == 2
    assert "quantum" in capsys.readouterr().err
    # a repeated value would run its cells twice into one run directory
    for axis, values, message in (
        ("--estimators", "mml, pg,mml", "repeated estimator 'mml'"),
        ("--regimes", "on,on", "repeated regime 'on'"),
        ("--decoders", "beam,top_p,beam", "repeated decoder 'beam'"),
        ("--seeds", "3,03", "repeated seed 3"),
    ):
        rc = cli.main(["--out", str(tmp_path), "grid", axis, values])
        assert rc == 2
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_report_recomputation_matches_summary(tmp_path, capsys):
    config = fast_config(tmp_path, name="reprun", steps=4, checkpoint_interval=2)
    root = tmp_path / "runs"
    for seed in (0, 1):
        path = tmp_path / f"cfg{seed}.json"
        data = json.loads(open(config).read())
        data["seed"] = seed
        path.write_text(json.dumps(data))
        assert cli.main(["--out", str(root), "riff-finetune", "--config", str(path)]) == 0
    run_dirs = [str(root / "reprun" / str(s)) for s in (0, 1)]
    table = summarize_runs(run_dirs, training.METRIC_EXCL)
    assert len(table) == 1 and table[0]["seeds"] == 2
    bests = []
    trajs = []
    for rd in run_dirs:
        rows = [
            r for r in read_metrics_csv(os.path.join(rd, "metrics.csv"))
            if r["metric"] == training.METRIC_EXCL and r["step"] > 0
        ]
        values = [r["value"] for r in rows]
        bests.append(max(values))
        trajs.append(np.mean(values))
    assert table[0]["best_mean"] == pytest.approx(np.mean(bests))
    assert table[0]["best_std"] == pytest.approx(np.std(bests))
    assert table[0]["traj_mean"] == pytest.approx(np.mean(trajs))
    rc = cli.main(["report", str(root), "--csv", str(tmp_path / "summary.csv")])
    assert rc == 0
    assert (tmp_path / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "reprun" in out


def test_report_skips_files_in_root_and_quotes_csv_fields(tmp_path, capsys):
    root = tmp_path / "runs"
    for seed, acc in ((0, 0.5), (1, 0.75)):
        run_dir = root / "lr=0.1,m=8" / str(seed)
        run_dir.mkdir(parents=True)
        training.write_metrics_csv(run_dir / "metrics.csv", [(8, "validation", training.METRIC_EXCL, acc)])
    summary = root / "summary.csv"
    assert cli.main(["report", str(root), "--csv", str(summary)]) == 0
    # the summary now sits in the root; a later report reads past it
    assert cli.main(["report", str(root)]) == 0
    assert "lr=0.1,m=8" in capsys.readouterr().out
    with open(summary, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["name", "seeds", "best_mean", "best_std", "traj_mean"]
    assert rows[1] == ["lr=0.1,m=8", "2", "0.625", "0.125", "0.625"]


@pytest.mark.parametrize("field, value, message", [
    ("normalize", "no", "'normalize' must be bool"),
    ("normalize", 1, "'normalize' must be bool"),
    ("shots", "abc", "'shots' must be int"),
    ("m", "8", "'m' must be int"),
    ("steps", True, "'steps' must be int"),
    ("task_vocab_size", 2.5, "'task_vocab_size' must be int"),
    ("lr", "x", "'lr' must be float"),
    ("lr", False, "'lr' must be float"),
    ("tuning_mode", 3, "'tuning_mode' must be str"),
    ("beta", "0.1", "'beta' must be float or null"),
    ("policy_checkpoint", 7, "'policy_checkpoint' must be str or null"),
])
def test_load_config_rejects_wrong_types_naming_the_field(field, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config({field: value})


def test_load_config_accepts_ints_for_floats_and_null_where_allowed():
    config = load_config({"lr": 1, "beta": None, "classifier_checkpoint": None, "top_p": 1})
    assert config.lr == 1 and config.beta is None and config.classifier_checkpoint is None
    assert load_config({"beta": 0}).beta == 0


def test_report_flags_incomplete_runs(tmp_path, capsys):
    empty = tmp_path / "incomplete" / "run" / "0"
    empty.mkdir(parents=True)
    rc = cli.main(["report", str(tmp_path / "incomplete")])
    assert rc == 0
    assert "incomplete" in capsys.readouterr().out


def test_report_names_a_finished_run_without_rows_of_its_metric(tmp_path, capsys):
    config = fast_config(tmp_path, name="clsrun", tuning_mode="head", m=2)
    root = tmp_path / "runs"
    assert cli.main(["--out", str(root), "train-classifier", "--config", config]) == 0
    capsys.readouterr()
    # a train-classifier run validates with ensemble_acc_incl, not report's default metric
    assert cli.main(["report", str(root)]) == 0
    out = capsys.readouterr().out
    assert f"{root / 'clsrun' / '0'} (no {training.METRIC_EXCL} rows)" in out
    assert "incomplete" not in out
    assert cli.main(["report", str(root), "--metric", training.METRIC_INCL]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert row.split()[:2] == ["clsrun", "1"]


def test_commands_never_import_numpy_ma(tmp_path):
    # numpy.ma costs about 1.6 MB of resident memory; np.unique without return_index imports it
    config = fast_config(tmp_path, m=2)
    commands = [
        ["riff-finetune", "--config", config],
        ["train-classifier", "--config", config],
        ["evaluate", "--config", config],
        ["oracle-check", "--instances", "1"],
    ]
    script = f"""if True:
        import sys
        from riff import cli
        for args in {commands!r}:
            assert cli.main(["--out", {str(tmp_path / "runs")!r}, *args]) == 0, args
        print("numpy.ma" in sys.modules)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "False"


def test_single_seed_identical_runs_zero_std(tmp_path):
    config = fast_config(tmp_path, name="same")
    root_a = tmp_path / "ra"
    root_b = tmp_path / "rb"
    assert cli.main(["--out", str(root_a), "riff-finetune", "--config", config]) == 0
    assert cli.main(["--out", str(root_b), "riff-finetune", "--config", config]) == 0
    a = (root_a / "same" / "0" / "metrics.csv").read_text()
    b = (root_b / "same" / "0" / "metrics.csv").read_text()
    assert a == b
