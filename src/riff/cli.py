"""Experiment front door.

Subcommands: pretrain, riff-finetune, train-classifier, evaluate,
oracle-check, grid, report. Each run owns a directory
<out_root>/<name>/<seed>/ holding manifest.json, metrics.csv, and
checkpoints. The output root comes from --out or the RIFF_OUT env var.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import platform
import sys
import time
import warnings
from collections.abc import Callable
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import __version__
from . import classifier as clf
from . import data, metrics, oracle, training
from .checkpoint import atomic_write, file_hash
from .numerics import relative_errors, richardson_grad
from .policy import (
    Padded,
    PolicyConfig,
    PolicyParams,
    TokenSeq,
    load_policy,
    pretrain_mle,
    save_policy,
    unpad,
)
from .training import RunConfig


class ConfigError(Exception):
    pass


CONFIG_DEFAULTS = {
    "name": "run",
    # synthetic task
    "task_vocab_size": 20,
    "num_labels": 2,
    "shots": 16,
    "task_pool": 128,
    "task_seed": 0,
    # rewriter
    "policy_embed_dim": 12,
    "policy_hidden_dim": 24,
    "policy_max_len": 24,
    "pretrain_pool": 128,
    "pretrain_epochs": 20,
    "pretrain_lr": 0.02,
    # classifier
    "classifier_embed_dim": 16,
    "tuning_mode": "all",
    "prompt_len": 0,
    "lora_rank": 2,
    "lora_alpha": 32.0,
    "cls_hidden": 16,
    "classifier_warmup_steps": 200,
    "classifier_warmup_lr": 0.01,
    # checkpoints to reuse instead of building fresh models
    "policy_checkpoint": None,
    "classifier_checkpoint": None,
}

# fields whose default is None, with the type a set value must have
NULLABLE = {"beta": float, "policy_checkpoint": str, "classifier_checkpoint": str}


def _type_ok(value, want) -> bool:
    """isinstance, except that a float field takes an int and a bool is no number."""
    types = (int, float) if want is float else want
    return isinstance(value, types) and (want is bool or not isinstance(value, bool))


def load_config(source) -> dict:
    """Merge a config dict or JSON file over the defaults; unknown keys and
    type mismatches are configuration errors naming the field."""
    if isinstance(source, dict):
        raw = dict(source)
    else:
        if not os.path.exists(source):
            raise ConfigError(f"config file not found: {source}")
        try:
            with open(source, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    run_fields = set(RunConfig.__dataclass_fields__)
    merged = dict(CONFIG_DEFAULTS)
    merged.update({f: getattr(RunConfig(), f) for f in run_fields})
    for key, value in raw.items():
        if key not in merged:
            raise ConfigError(f"unknown config field {key!r}")
        want = NULLABLE.get(key, type(merged[key]))
        if not (_type_ok(value, want) or (value is None and key in NULLABLE)):
            kind = want.__name__ + (" or null" if key in NULLABLE else "")
            raise ConfigError(f"config field {key!r} must be {kind}, got {value!r}")
        merged[key] = value
    try:
        run_cfg = run_config_of(merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    merged.update(run_cfg.to_dict())
    if merged["tuning_mode"] not in {m.value for m in clf.TuningMode}:
        raise ConfigError(f"unknown tuning_mode {merged['tuning_mode']!r}")
    for key, low in (("shots", 1), ("pretrain_epochs", 0), ("pretrain_lr", 0),
                     ("classifier_warmup_steps", 0), ("classifier_warmup_lr", 0)):
        if merged[key] < low:
            raise ConfigError(f"config field {key!r} must be at least {low}, got {merged[key]}")
    if error := _shape_error(merged):
        # the defaults pass: name a set field that fails on its own, else one whose default passes
        alone = [k for k in raw if _shape_error({**CONFIG_DEFAULTS, k: raw[k]})]
        fixes = [k for k in raw if k in CONFIG_DEFAULTS and not _shape_error({**merged, k: CONFIG_DEFAULTS[k]})]
        raise ConfigError(f"config field {(alone or fixes or sorted(raw))[0]!r}: {error}")
    _check_inputs(merged)
    return merged


def _check_inputs(config: dict) -> None:
    """Reject, before any run directory exists, what a command would only
    fail on after warming up or pretraining."""
    warmup, interval = config["classifier_warmup_steps"], config["checkpoint_interval"]
    if not config["classifier_checkpoint"] and 0 < warmup < interval:  # warmup selects its last checkpoint
        raise ConfigError(
            f"config field 'classifier_warmup_steps' must be 0 or at least checkpoint_interval ({interval}), "
            f"got {warmup}"
        )
    if not config["policy_checkpoint"] and config["pretrain_pool"] < 1:
        raise ConfigError(
            "config field 'pretrain_pool' must be at least 1 without a policy_checkpoint, "
            f"got {config['pretrain_pool']}"
        )
    for key in ("policy_checkpoint", "classifier_checkpoint"):
        if config[key] and not os.path.isfile(config[key]):
            raise ConfigError(f"config field {key!r}: no checkpoint file at {config[key]}")
    # gen_synthetic_task deals labels round-robin, so its rarest label has pool // num_labels examples
    per_label = config["task_pool"] // config["num_labels"]
    if per_label < 2 * config["shots"]:
        raise ConfigError(
            f"config fields 'task_pool' and 'shots': a task_pool of {config['task_pool']} gives "
            f"{max(per_label, 0)} examples of some label, and shots {config['shots']} needs {2 * config['shots']}"
        )


def _shape_error(config: dict) -> str | None:
    """What the model configs and the task's vocabulary bound reject in `config`, if anything."""
    try:
        policy_config(config)
        classifier_config(config)
        data.gen_synthetic_task(config["task_vocab_size"], config["num_labels"], 0, 0, 0)
    except ValueError as exc:
        return str(exc)
    return None


def _experiment(args, decoding: str | None = None):
    """A command's config, its run config, the task and the few-shot split.
    A `decoding` command (named for the error) needs at least one rewrite per input."""
    config = load_config(args.config)
    if decoding and config["m"] < 1:
        raise ConfigError(f"config field 'm' must be at least 1 for {decoding}, got {config['m']}")
    task = build_task(config)
    return config, run_config_of(config), task, build_split(config, task)


def run_config_of(config: dict) -> RunConfig:
    return RunConfig.from_dict({f: config[f] for f in RunConfig.__dataclass_fields__})


def out_root(args) -> str:
    return args.out or os.environ.get("RIFF_OUT", "runs_out")


def run_dir_of(root: str, name: str, seed: int) -> str:
    return os.path.join(root, name, str(seed))


def build_task(config: dict) -> data.SyntheticTask:
    return data.gen_synthetic_task(
        config["task_vocab_size"],
        config["num_labels"],
        config["task_pool"],
        config["task_pool"] // 2,
        config["task_seed"],
    )


def build_split(config: dict, task: data.SyntheticTask) -> training.FewShotSplit:
    return training.fewshot_split(task.train, config["shots"], config["seed"])


def policy_config(config: dict) -> PolicyConfig:
    return PolicyConfig(
        vocab_size=config["task_vocab_size"],
        embed_dim=config["policy_embed_dim"],
        hidden_dim=config["policy_hidden_dim"],
        max_len=config["policy_max_len"],
    )


def classifier_config(config: dict) -> clf.ClassifierConfig:
    prompt_len = config["prompt_len"]
    if config["tuning_mode"] == "soft_prompt" and prompt_len == 0:
        prompt_len = 5  # desk-scale default prompt length
    return clf.ClassifierConfig(
        vocab_size=config["task_vocab_size"],
        num_labels=config["num_labels"],
        embed_dim=config["classifier_embed_dim"],
        prompt_len=prompt_len,
        lora_rank=config["lora_rank"],
        lora_alpha=config["lora_alpha"],
        cls_hidden=config["cls_hidden"],
    )


def pretrained_policy(config: dict) -> PolicyParams:
    """Rewriter pretrained on rule-based rewrite targets of a synthetic pool
    disjoint from the task split."""
    if config["policy_checkpoint"]:
        return load_policy(config["policy_checkpoint"])
    pool = data.gen_synthetic_task(
        config["task_vocab_size"],
        config["num_labels"],
        config["pretrain_pool"],
        0,
        config["task_seed"] + 7919,
    )
    corpus = data.gen_rewriter_corpus(pool.train, config["num_labels"], config["task_seed"] + 104729)
    init = PolicyParams.init_random(policy_config(config), seed=config["seed"] + 31)
    return pretrain_mle(
        init, corpus, epochs=config["pretrain_epochs"], lr=config["pretrain_lr"],
        seed=config["seed"] + 47,
    )


def warmed_classifier(config: dict, task, split) -> clf.ClassifierParams:
    """Classifier given plain supervised warmup so rewrite rewards carry signal."""
    if config["classifier_checkpoint"]:
        return clf.load_classifier(config["classifier_checkpoint"])
    params = clf.ClassifierParams.init_random(
        classifier_config(config), clf.TuningMode(config["tuning_mode"]), seed=config["seed"] + 59
    )
    if config["classifier_warmup_steps"] > 0:
        warm_cfg = replace(
            run_config_of(config),
            steps=config["classifier_warmup_steps"],
            lr=config["classifier_warmup_lr"],
        )
        checkpoints = training.train_classifier_augmented(
            params, None, task, split, m=0, mode=params.mode, cfg=warm_cfg
        )
        params = checkpoints[-1].params.copy()
    return params


def write_manifest(run_dir: str, config: dict, plan: dict, files: dict, started: float) -> None:
    """Write manifest.json; `wall_s` is the wall time from `started` (a
    time.perf_counter() reading taken when the command began) to this write."""
    os.makedirs(run_dir, exist_ok=True)
    manifest = {
        "config": config,
        "seed": config["seed"],
        "protocol": plan,
        "files": files,
        "versions": {"riff": __version__, "python": platform.python_version(), "numpy": np.__version__},
        "wall_s": time.perf_counter() - started,
    }
    with atomic_write(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


def cmd_pretrain(args) -> int:
    config = load_config(args.config)
    run_dir = run_dir_of(out_root(args), config["name"], config["seed"])
    os.makedirs(run_dir, exist_ok=True)
    policy = pretrained_policy(config)
    path = os.path.join(run_dir, "policy_pretrained.ckpt")
    save_policy(path, policy)
    plan = {"pretrain_epochs": config["pretrain_epochs"], "pretrain_pool": config["pretrain_pool"]}
    write_manifest(run_dir, config, plan, {"policy_pretrained": file_hash(path)}, args.started)
    print(f"pretrained rewriter saved to {path}")
    return 0


def cmd_riff_finetune(args) -> int:
    config, cfg, task, split = _experiment(args, decoding="riff-finetune")
    run_dir = run_dir_of(out_root(args), config["name"], config["seed"])
    os.makedirs(run_dir, exist_ok=True)
    classifier = warmed_classifier(config, task, split)
    clf_path = os.path.join(run_dir, "classifier_frozen.ckpt")
    clf.save_classifier(clf_path, classifier)
    policy = pretrained_policy(config)
    pre_path = os.path.join(run_dir, "policy_pretrained.ckpt")
    save_policy(pre_path, policy)
    checkpoints = training.finetune_paraphraser(policy, classifier, task, split, cfg, run_dir)
    best = training.select_best_checkpoint(checkpoints, training.METRIC_EXCL)
    best_path = os.path.join(run_dir, "policy_best.ckpt")
    save_policy(best_path, best.params)
    files = {
        "classifier_frozen": file_hash(clf_path),
        "policy_pretrained": file_hash(pre_path),
        "policy_best": file_hash(best_path),
    }
    write_manifest(run_dir, config, training.protocol_plan(cfg, len(split.train)), files, args.started)
    print(
        f"finetuned rewriter: best checkpoint step {best.step} "
        f"ensemble accuracy {best.metrics[training.METRIC_EXCL]:.3f} -> {best_path}"
    )
    return 0


def cmd_train_classifier(args) -> int:
    config, cfg, task, split = _experiment(args)
    run_dir = run_dir_of(out_root(args), config["name"], config["seed"])
    os.makedirs(run_dir, exist_ok=True)
    policy = pretrained_policy(config) if cfg.m > 0 else None
    mode = clf.TuningMode(config["tuning_mode"])
    params = clf.ClassifierParams.init_random(classifier_config(config), mode, seed=config["seed"] + 59)
    checkpoints = training.train_classifier_augmented(
        params, policy, task, split, cfg.m, mode, cfg, run_dir
    )
    best = training.select_best_checkpoint(checkpoints, training.METRIC_INCL)
    best_path = os.path.join(run_dir, "classifier_best.ckpt")
    clf.save_classifier(best_path, best.params)
    write_manifest(
        run_dir, config, training.protocol_plan(cfg, len(split.train)),
        {"classifier_best": file_hash(best_path)}, args.started,
    )
    print(
        f"trained classifier ({mode.value}): best checkpoint step {best.step} "
        f"ensemble accuracy {best.metrics[training.METRIC_INCL]:.3f} -> {best_path}"
    )
    return 0


def cmd_evaluate(args) -> int:
    config, cfg, task, split = _experiment(args, decoding="evaluate")
    classifier = warmed_classifier(config, task, split)
    policy = pretrained_policy(config)
    verbalizer = clf.Verbalizer(task.verbalizer_ids)
    rows = []
    rewrites = {}
    for name, examples in (("validation", split.validation), ("test", task.test)):
        plain = training.plain_accuracy(classifier, task.template, verbalizer, examples)
        # one decode per example serves both ensembles and the diversity rows
        rewrites[name] = training.decode_rewrites(policy, examples, cfg.m, cfg)
        counts = training.group_counts(task.template, classifier.cfg.vocab_size, examples, rewrites[name])
        incl, excl = training.ensemble_accuracies(classifier, verbalizer, examples, counts)
        rows.extend(
            [
                (0, name, "plain_acc", plain),
                (0, name, training.METRIC_INCL, incl),
                (0, name, training.METRIC_EXCL, excl),
            ]
        )
        print(f"{name}: plain {plain:.3f} ensemble+orig {incl:.3f} ensemble-only {excl:.3f}")
    ld_values = []
    pld_values = []
    decoded = unpad(Padded(*(a[: 16 * cfg.m] for a in rewrites["test"])))  # the first 16 test groups
    for k, ex in enumerate(task.test[:16]):
        zs = [data.strip_scaffold(z) for z in decoded[k * cfg.m : (k + 1) * cfg.m]]
        zs = [z for z in zs if len(z.content) > 0]
        if len(zs) >= 2:
            ld_values.extend(metrics.lexical_diversity(ex.x.content, z.content) for z in zs)
            pld_values.append(metrics.pairwise_ld([z.content for z in zs]))
    if ld_values:
        rows.append((0, "test", "lexical_diversity", float(np.mean(ld_values))))
        rows.append((0, "test", "pairwise_lexical_diversity", float(np.mean(pld_values))))
        print(
            f"rewrite diversity: LD {np.mean(ld_values):.3f} PLD {np.mean(pld_values):.3f}"
        )
    run_dir = run_dir_of(out_root(args), config["name"], config["seed"])
    os.makedirs(run_dir, exist_ok=True)
    training.write_metrics_csv(os.path.join(run_dir, "eval_metrics.csv"), rows)
    return 0


# Step of the sweep's Richardson anchor. Against 50-digit mpmath derivatives of
# the exact objective on 252 sweep instances, the median and worst errors were
# lowest for h in 2e-3..3e-3: rounding grows as 1/h, the truncation as h^4.
ORACLE_FD_STEP = 2e-3


def sweep_instance(rng: np.random.Generator) -> tuple[PolicyParams, TokenSeq, Callable[[TokenSeq], float], int]:
    """One random tiny oracle_check instance: a policy, an input, a deterministic
    memoized reward keyed by the rewrite's ids, and max_len, drawn in that order."""
    vocab = int(rng.integers(3, 5))
    max_len = int(rng.integers(3, 5))
    pcfg = PolicyConfig(vocab_size=vocab, embed_dim=4, hidden_dim=5, max_len=max_len)
    policy = PolicyParams.init_random(pcfg, seed=int(rng.integers(2**31)), scale=0.6)
    x = TokenSeq.from_content([int(rng.integers(1, vocab)) for _ in range(3)])
    table_seed = int(rng.integers(2**31))
    memo: dict[tuple[int, ...], float] = {}

    def reward_fn(z):
        if z.ids not in memo:
            memo[z.ids] = float(-2.0 * np.random.default_rng([table_seed, *z.ids]).random())
        return memo[z.ids]

    return policy, x, reward_fn, max_len


class SweepWorst(NamedTuple):
    """A sweep's largest relative gradient error, its 0-based instance and coordinate, and both values there."""

    error: float
    instance: int
    coordinate: int
    analytic: float
    richardson: float


def oracle_sweep(seed: int, instances: int) -> SweepWorst:
    """Gradient anchor sweep: the exact posterior-weighted gradient against
    Richardson-extrapolated central differences of the exact objective at
    h = ORACLE_FD_STEP, on random tiny instances. Each instance's 4P perturbed
    parameter vectors are evaluated as one block by oracle.exact_objectives.
    (The acceptance criteria keep plain central differences at h = 1e-5.)
    Instance k is drawn after instances 0..k-1, so a sweep of k + 1 instances
    ends on it.

    Random policies carry large unterminated tail mass by construction; the
    objective excludes it consistently, so the tail warning is muted here.
    """
    if instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {instances}")
    rng = np.random.default_rng(seed)
    worst = None
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="unterminated tail mass")
        for k in range(instances):
            policy, x, reward_fn, max_len = sweep_instance(rng)
            analytic = oracle.exact_gradient(policy, x, reward_fn, max_len)
            fd = richardson_grad(
                lambda flats: oracle.exact_objectives(policy, flats, x, reward_fn, max_len),
                policy.flat,
                ORACLE_FD_STEP,
            )
            errors = relative_errors(analytic, fd)
            i = int(np.argmax(errors))
            if worst is None or errors[i] > worst.error:
                worst = SweepWorst(float(errors[i]), k, i, float(analytic[i]), float(fd[i]))
    return worst


def oracle_check(seed: int, instances: int = 20) -> float:
    """The largest relative gradient error of oracle_sweep(seed, instances)."""
    return oracle_sweep(seed, instances).error


def cmd_oracle_check(args) -> int:
    worst = oracle_sweep(args.seed, args.instances)
    print(f"max relative gradient error over {args.instances} instances: {worst.error:.3e}")
    print(f"worst: instance {worst.instance + 1} of {args.instances}, parameter coordinate {worst.coordinate}: "
          f"analytic {worst.analytic!r}, richardson {worst.richardson!r}")
    print(f"reproduce: riff oracle-check --seed {args.seed} --instances {worst.instance + 1}")
    if worst.error < 1e-3:
        print("oracle check passed")
        return 0
    print("oracle check FAILED", file=sys.stderr)
    return 1


def parse_axis(text: str, allowed, axis_name: str) -> list[str]:
    values = [v.strip() for v in text.split(",") if v.strip()]
    for v in values:
        if v not in allowed:
            raise ConfigError(f"unknown {axis_name} {v!r}")
    if not values:
        raise ConfigError(f"empty {axis_name} axis")
    return values


def cmd_grid(args) -> int:
    config = load_config(args.config) if args.config else load_config({})
    estimators = parse_axis(args.estimators, training.ESTIMATORS, "estimator")
    regimes = parse_axis(args.regimes, training.REGIMES, "regime")
    decoders = parse_axis(args.decoders, training.DECODERS, "decoder")
    if args.normalize == "both":
        normalize_axis = [False, True]
    elif args.normalize in ("on", "off"):
        normalize_axis = [args.normalize == "on"]
    else:
        raise ConfigError(f"normalize must be on, off or both, got {args.normalize!r}")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be comma-separated integers: {exc}") from exc
    if not seeds:
        raise ConfigError("empty seed list")
    # a repeated value would run its cells twice into the same run directories
    for axis_name, values in {"estimator": estimators, "regime": regimes, "decoder": decoders, "seed": seeds}.items():
        for v in [v for i, v in enumerate(values) if v in values[:i]][:1]:
            raise ConfigError(f"repeated {axis_name} {v!r}")
    cells = list(itertools.product(estimators, regimes, decoders, normalize_axis))
    print(f"grid: {len(cells)} cells x {len(seeds)} seeds = {len(cells) * len(seeds)} runs")
    for estimator, regime, decoder, normalize in cells:
        name = f"{estimator}-{regime}-{decoder}" + ("-z" if normalize else "")
        for seed in seeds:
            cell_config = {**config, "name": name, "estimator": estimator, "regime": regime,
                           "decoder": decoder, "normalize": normalize, "beta": None, "seed": seed}
            cmd_riff_finetune(argparse.Namespace(config=cell_config, out=args.out, started=time.perf_counter()))
    return 0


def summarize_runs(run_dirs, metric: str) -> list[dict]:
    """Aggregate metric CSVs: per run name, best-checkpoint accuracy averaged
    over seeds (with std) and the mean over all checkpoints."""
    by_name: dict[str, list[tuple[float, float]]] = {}
    flagged: list[str] = []
    for run_dir in run_dirs:
        name = os.path.basename(os.path.dirname(os.path.abspath(run_dir)))
        path = os.path.join(run_dir, "metrics.csv")
        if not os.path.exists(path):
            flagged.append(f"{run_dir} (incomplete)")
            continue
        rows = [
            r
            for r in training.read_metrics_csv(path)
            if r["metric"] == metric and r["split"] == "validation" and r["step"] > 0
        ]
        if not rows:
            flagged.append(f"{run_dir} (no {metric} rows)")
            continue
        values = [r["value"] for r in rows]
        by_name.setdefault(name, []).append((max(values), float(np.mean(values))))
    table = []
    for name in sorted(by_name):
        bests = [b for b, _ in by_name[name]]
        trajs = [t for _, t in by_name[name]]
        table.append(
            {
                "name": name,
                "seeds": len(bests),
                "best_mean": float(np.mean(bests)),
                "best_std": float(np.std(bests)),
                "traj_mean": float(np.mean(trajs)),
            }
        )
    for label in flagged:
        table.append(
            {"name": label, "seeds": 0, "best_mean": float("nan"),
             "best_std": float("nan"), "traj_mean": float("nan")}
        )
    return table


def cmd_report(args) -> int:
    run_dirs = []
    for target in args.run_dirs:
        if os.path.exists(os.path.join(target, "metrics.csv")):
            run_dirs.append(target)
            continue
        for name in sorted(os.listdir(target)) if os.path.isdir(target) else []:
            group = os.path.join(target, name)
            # files in the root, such as a summary written by --csv, are not run groups
            for seed in sorted(os.listdir(group)) if os.path.isdir(group) else []:
                candidate = os.path.join(group, seed)
                if os.path.isdir(candidate):
                    run_dirs.append(candidate)
    if not run_dirs:
        print("no completed runs found", file=sys.stderr)
        return 1
    table = summarize_runs(run_dirs, args.metric)
    header = f"{'run':<28} {'seeds':>5} {'best':>8} {'std':>8} {'traj':>8}"
    print(header)
    print("-" * len(header))
    for row in table:
        print(
            f"{row['name']:<28} {row['seeds']:>5} {row['best_mean']:>8.3f} "
            f"{row['best_std']:>8.3f} {row['traj_mean']:>8.3f}"
        )
    if args.csv:
        fields = ["name", "seeds", "best_mean", "best_std", "traj_mean"]
        with atomic_write(args.csv, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(fields)
            writer.writerows([row[k] for k in fields] for row in table)
        print(f"summary written to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riff")
    parser.add_argument("--out", default=None, help="output root (default: $RIFF_OUT or runs_out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="pretrain the rewriter on rule-based rewrite targets")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("riff-finetune", help="reward-guided rewriter fine-tuning")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_riff_finetune)

    p = sub.add_parser("train-classifier", help="paraphrase-augmented classifier training")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("evaluate", help="accuracy and rewrite-diversity report")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle-check", help="exact-gradient vs finite-difference sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("grid", help="run the estimator/regime/decoder grid")
    p.add_argument("--config", default=None)
    p.add_argument("--estimators", default="mml,pg")
    p.add_argument("--regimes", default="on,off,klon")
    p.add_argument("--decoders", default="beam,top_p,mixed")
    p.add_argument("--normalize", default="both")
    p.add_argument("--seeds", default="0")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("report", help="aggregate run metrics into a summary table")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--metric", default=training.METRIC_EXCL)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    args.started = started
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
