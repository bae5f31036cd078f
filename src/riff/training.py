"""Training loops: reward-guided rewriter fine-tuning, paraphrase-augmented
classifier training, checkpointing, best-checkpoint selection, and ensemble
inference.

The rewriter loop draws fresh samples every step (never cached); classifier
training generates rewrites once before the first epoch and must hit that
cache on every later access. One thread mutates parameters; checkpoint
evaluation only reads frozen copies.
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import classifier as clf
from . import estimators as est
from .checkpoint import params_hash
from .data import Example, SyntheticTask, TaskTemplate, format_input, strip_scaffold
from .decoding import DecodeConfig, decode_samples, diverse_beam
from .optim import AdamConfig, AdamW
from .policy import (
    PolicyParams,
    TokenSeq,
    save_policy,
    seq_logprobs,
    snapshot,
    weighted_seq_grad,
)
from .policy import seq_logprob  # noqa: F401  perfbench/test_perfbench.py reads training.seq_logprob

ESTIMATORS = ("mml", "pg")
REGIMES = ("on", "off", "klon")
DECODERS = ("beam", "top_p", "mixed")
DEFAULT_BETA = {"mml": 0.1, "pg": 0.6}

METRIC_EXCL = "ensemble_acc_excl"
METRIC_INCL = "ensemble_acc_incl"


class CacheMiss(Exception):
    """Raised when classifier training asks for rewrites that were never
    generated up front; regenerating mid-training is a bug by design."""


@dataclass(frozen=True)
class FewShotSplit:
    train: tuple[Example, ...]
    validation: tuple[Example, ...]
    seed: int


def fewshot_split(examples, n: int, seed: int) -> FewShotSplit:
    """Disjoint per-label samples of size n for train and validation."""
    by_label: dict[int, list[Example]] = {}
    for ex in examples:
        by_label.setdefault(ex.y, []).append(ex)
    rng = np.random.default_rng(seed)
    train: list[Example] = []
    validation: list[Example] = []
    for label in sorted(by_label):
        group = by_label[label]
        if len(group) < 2 * n:
            raise ValueError(
                f"label {label} has only {len(group)} examples, need {2 * n}"
            )
        perm = rng.permutation(len(group))
        train.extend(group[i] for i in perm[:n])
        validation.extend(group[i] for i in perm[n : 2 * n])
    return FewShotSplit(tuple(train), tuple(validation), seed)


@dataclass
class Checkpoint:
    step: int
    params: object
    path: str | None
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RunConfig:
    """One cell of the estimator grid plus optimizer and decoding knobs.

    Defaults are the recommended recipe: posterior-weighted gradients with the
    KL-penalized regime, mixed decoding, and reward standardization.
    """

    estimator: str = "mml"
    regime: str = "klon"
    decoder: str = "mixed"
    normalize: bool = True
    m: int = 8
    beta: float | None = None
    lr: float = 1e-3
    steps: int = 64
    batch_size: int = 8
    checkpoint_interval: int = 8
    weight_decay: float = 1e-4
    top_p: float = 0.99
    temperature: float = 0.7
    diversity_penalty: float = 3.0
    repetition_penalty: float = 10.0
    seed: int = 0

    def validate(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.decoder == "mixed" and self.m % 2 != 0:
            raise ValueError("mixed decoding needs an even m")
        if self.steps < 1 or self.batch_size < 1 or self.checkpoint_interval < 1:
            raise ValueError("steps, batch_size and checkpoint_interval must be positive")
        if self.beta is not None and self.beta < 0:
            raise ValueError("beta must be nonnegative")

    def resolved_beta(self) -> float:
        return DEFAULT_BETA[self.estimator] if self.beta is None else self.beta

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown run config field {sorted(unknown)[0]!r}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


def decode_config(cfg: RunConfig, seed: int) -> DecodeConfig:
    return DecodeConfig(
        m=cfg.m,
        top_p=cfg.top_p,
        temperature=cfg.temperature,
        diversity_penalty=cfg.diversity_penalty,
        repetition_penalty=cfg.repetition_penalty,
        seed=seed,
    )


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def protocol_plan(cfg: RunConfig, n_train: int) -> dict:
    """Derived schedule arithmetic recorded in every manifest."""
    steps_per_epoch = max(1, n_train // cfg.batch_size)
    return {
        "train_examples": n_train,
        "steps_per_epoch": steps_per_epoch,
        "epochs": cfg.steps / steps_per_epoch,
        "num_checkpoints": cfg.steps // cfg.checkpoint_interval,
    }


def ensemble_scores(score_fn, x: TokenSeq, paraphrases, include_original: bool) -> np.ndarray:
    """Per-label ensemble score: original score (if included) plus the mean
    rewrite score."""
    paraphrases = list(paraphrases)
    if not include_original and not paraphrases:
        raise ValueError("exclusion-mode ensemble needs at least one rewrite")
    total = None
    if include_original:
        total = np.asarray(score_fn(x), dtype=np.float64).copy()
    if paraphrases:
        mean = np.zeros_like(np.asarray(score_fn(paraphrases[0]), dtype=np.float64))
        for z in paraphrases:
            mean += np.asarray(score_fn(z), dtype=np.float64)
        mean /= len(paraphrases)
        total = mean if total is None else total + mean
    return total


def ensemble_predict(score_fn, x: TokenSeq, paraphrases, include_original: bool) -> int:
    """Argmax label of the ensemble score; ties break toward the lower label."""
    return int(np.argmax(ensemble_scores(score_fn, x, paraphrases, include_original)))


def make_score_fn(classifier: clf.ClassifierParams, template: TaskTemplate, verbalizer):
    """Label scorer over raw (untemplated) sequences, scaffold-stripped."""

    def score(z: TokenSeq) -> np.ndarray:
        formatted = format_input(template, template.instruction, strip_scaffold(z))
        return clf.score_labels(classifier, formatted, verbalizer)

    return score


def make_reward_fn(
    classifier: clf.ClassifierParams, template: TaskTemplate, verbalizer, y: int
):
    def reward_of(z: TokenSeq) -> float:
        formatted = format_input(template, template.instruction, strip_scaffold(z))
        return clf.reward(classifier, formatted, y, verbalizer)

    return reward_of


def evaluate_ensemble_accuracy(
    policy: PolicyParams,
    classifier: clf.ClassifierParams,
    task_template: TaskTemplate,
    verbalizer,
    examples,
    m: int,
    include_original: bool,
    cfg: RunConfig,
    eval_seed: int,
) -> float:
    """Ensemble accuracy with test-style decoding (always diverse beam)."""
    examples = list(examples)
    score = make_score_fn(classifier, task_template, verbalizer)
    correct = 0
    for ex in examples:
        dc = decode_config(replace(cfg, m=m), derive_seed(eval_seed, ex.uid))
        paraphrases = diverse_beam(policy, ex.x, dc)
        pred = ensemble_predict(score, ex.x, paraphrases, include_original)
        correct += int(pred == ex.y)
    return correct / len(examples)


def plain_accuracy(classifier, template, verbalizer, examples) -> float:
    examples = list(examples)
    score = make_score_fn(classifier, template, verbalizer)
    preds = [int(np.argmax(score(ex.x))) for ex in examples]
    return float(np.mean([p == ex.y for p, ex in zip(preds, examples)]))


def _example_gradient(
    policy: PolicyParams,
    fixed: PolicyParams,
    ex: Example,
    reward_fn,
    cfg: RunConfig,
    step: int,
) -> tuple[np.ndarray, dict]:
    """Assembled objective gradient for one example at one step."""
    sample_policy = fixed if cfg.regime == "off" else policy
    dc = decode_config(cfg, derive_seed(cfg.seed, step, ex.uid))
    seqs = decode_samples(sample_policy, ex.x, cfg.decoder, dc)
    raw_rewards = np.array([reward_fn(z) for z in seqs])
    rewards = est.normalize_rewards(raw_rewards) if cfg.normalize else raw_rewards
    cur = seq_logprobs(policy, ex.x, seqs)
    fixed_lp = seq_logprobs(fixed, ex.x, seqs)
    batch = est.SampleBatch(tuple(seqs), cur, rewards, fixed_lp)
    if cfg.regime == "off":
        coeffs = est.offpolicy_coefficients(batch, cfg.estimator)
    elif cfg.estimator == "mml":
        coeffs = est.mml_coefficients(batch)
    else:
        coeffs = est.pg_coefficients(batch)
    weights = coeffs.phi
    if cfg.regime == "klon":
        # the KL correction of est.kl_penalized_gradient, folded into the weights
        weights = weights - cfg.resolved_beta() * (cur - fixed_lp + 1.0) / batch.m
    grad = weighted_seq_grad(policy, ex.x, seqs, weights)
    info = {"mean_reward": float(raw_rewards.mean()), "clamp_events": coeffs.clamp_events}
    return grad, info


def finetune_paraphraser(
    policy: PolicyParams,
    classifier: clf.ClassifierParams,
    task: SyntheticTask,
    split: FewShotSplit,
    cfg: RunConfig,
    run_dir: str | None = None,
) -> list[Checkpoint]:
    """Reward-guided fine-tuning of the rewriter against a frozen classifier.

    Samples are drawn fresh at every step (from the frozen snapshot when
    off-policy, from the live policy otherwise). Checkpoints are emitted every
    checkpoint_interval steps with exclusion-mode ensemble validation
    accuracy; a step-0 baseline row is logged but not checkpointed.
    """
    cfg.validate()
    if cfg.m < 1:
        raise ValueError("rewriter fine-tuning needs at least one sample per input")
    policy = policy.copy()
    fixed = snapshot(policy)
    verbalizer = clf.Verbalizer(task.verbalizer_ids)
    reward_fns = {
        ex.uid: make_reward_fn(classifier, task.template, verbalizer, ex.y)
        for ex in split.train
    }
    opt = AdamW(policy.flat.size, AdamConfig(lr=cfg.lr, weight_decay=cfg.weight_decay))
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xBA7C4))
    rows: list[tuple[int, str, str, float]] = []

    def validation_accuracy(step: int) -> float:
        return evaluate_ensemble_accuracy(
            policy, classifier, task.template, verbalizer, split.validation,
            cfg.m, False, cfg, derive_seed(cfg.seed, 0xEA1, step),
        )

    rows.append((0, "validation", METRIC_EXCL, validation_accuracy(0)))
    checkpoints: list[Checkpoint] = []
    order: list[int] = []
    for step in range(1, cfg.steps + 1):
        while len(order) < cfg.batch_size:
            order.extend(rng.permutation(len(split.train)))
        batch_idx, order = order[: cfg.batch_size], order[cfg.batch_size :]
        total = np.zeros(policy.flat.size)
        mean_reward = 0.0
        clamp_events = 0
        for idx in batch_idx:
            ex = split.train[idx]
            grad, info = _example_gradient(policy, fixed, ex, reward_fns[ex.uid], cfg, step)
            total += grad
            mean_reward += info["mean_reward"]
            clamp_events += info["clamp_events"]
        total /= len(batch_idx)
        opt.step(policy.flat, -total)
        rows.append((step, "train", "mean_reward", mean_reward / len(batch_idx)))
        if clamp_events:
            rows.append((step, "train", "is_clamp_events", float(clamp_events)))
        if step % cfg.checkpoint_interval == 0:
            frozen = snapshot(policy)
            acc = validation_accuracy(step)
            path = None
            if run_dir is not None:
                os.makedirs(os.path.join(run_dir, "checkpoints"), exist_ok=True)
                path = os.path.join(run_dir, "checkpoints", f"policy_step{step:05d}.ckpt")
                save_policy(path, frozen)
            checkpoints.append(Checkpoint(step, frozen, path, {METRIC_EXCL: acc}))
            rows.append((step, "validation", METRIC_EXCL, acc))
    if run_dir is not None:
        write_metrics_csv(os.path.join(run_dir, "metrics.csv"), rows)
    return checkpoints


def generate_paraphrase_cache(
    policy: PolicyParams, examples, m: int, cfg: RunConfig, cache_seed: int
) -> dict[tuple[str, int], list[TokenSeq]]:
    """Test-style rewrites for every example, generated once and keyed by
    (policy hash, example uid)."""
    key = params_hash(policy.flat)
    cache: dict[tuple[str, int], list[TokenSeq]] = {}
    for ex in examples:
        dc = decode_config(replace(cfg, m=m), derive_seed(cache_seed, ex.uid))
        cache[(key, ex.uid)] = diverse_beam(policy, ex.x, dc)
    return cache


def cached_paraphrases(cache, policy_key: str, uid: int) -> list[TokenSeq]:
    try:
        return cache[(policy_key, uid)]
    except KeyError:
        raise CacheMiss(
            f"no cached rewrites for example {uid} under policy {policy_key}; "
            "rewrites must be generated before the first epoch"
        ) from None


def augmented_example_grad(
    classifier: clf.ClassifierParams,
    ex: Example,
    paraphrases,
    template: TaskTemplate,
    verbalizer,
    mode: clf.TuningMode,
) -> np.ndarray:
    """Gradient of log P(y|x) + (1/m) sum_j log P(y|z_j) under the mode mask."""
    formatted = format_input(template, template.instruction, ex.x)
    grad = clf.classifier_grad(classifier, formatted, ex.y, verbalizer, mode)
    paraphrases = list(paraphrases)
    if paraphrases:
        para_grad = np.zeros_like(grad)
        for z in paraphrases:
            fz = format_input(template, template.instruction, strip_scaffold(z))
            para_grad += clf.classifier_grad(classifier, fz, ex.y, verbalizer, mode)
        grad = grad + para_grad / len(paraphrases)
    return grad


def augmented_example_loss(
    classifier: clf.ClassifierParams,
    ex: Example,
    paraphrases,
    template: TaskTemplate,
    verbalizer,
    mode: clf.TuningMode,
) -> float:
    formatted = format_input(template, template.instruction, ex.x)
    loss = -float(clf.score_labels(classifier, formatted, verbalizer, mode)[ex.y])
    paraphrases = list(paraphrases)
    if paraphrases:
        para = 0.0
        for z in paraphrases:
            fz = format_input(template, template.instruction, strip_scaffold(z))
            para += -float(clf.score_labels(classifier, fz, verbalizer, mode)[ex.y])
        loss += para / len(paraphrases)
    return loss


def train_classifier_augmented(
    classifier: clf.ClassifierParams,
    policy: PolicyParams | None,
    task: SyntheticTask,
    split: FewShotSplit,
    m: int,
    mode: clf.TuningMode,
    cfg: RunConfig,
    run_dir: str | None = None,
) -> list[Checkpoint]:
    """Paraphrase-augmented classifier training with a frozen rewriter.

    Rewrites for every training example are generated once before the first
    epoch and cached; any later cache miss raises. m == 0 degenerates to plain
    supervised training and skips generation entirely.
    """
    cfg.validate()
    if m > 0 and policy is None:
        raise ValueError("augmented training needs a rewriter policy")
    classifier = classifier.copy()
    verbalizer = clf.Verbalizer(task.verbalizer_ids)
    mask = clf.trainable_mask(classifier, mode)
    cache: dict = {}
    policy_key = ""
    if m > 0:
        policy_key = params_hash(policy.flat)
        cache = generate_paraphrase_cache(
            policy, split.train, m, cfg, derive_seed(cfg.seed, 0xCAC4E)
        )
    opt = AdamW(classifier.flat.size, AdamConfig(lr=cfg.lr, weight_decay=cfg.weight_decay))
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xC1A55))
    rows: list[tuple[int, str, str, float]] = []
    checkpoints: list[Checkpoint] = []

    def validation_accuracy(step: int) -> float:
        if m > 0:
            return evaluate_ensemble_accuracy(
                policy, classifier, task.template, verbalizer, split.validation,
                m, True, cfg, derive_seed(cfg.seed, 0xEA2, step),
            )
        return plain_accuracy(classifier, task.template, verbalizer, split.validation)

    rows.append((0, "validation", METRIC_INCL, validation_accuracy(0)))
    order: list[int] = []
    for step in range(1, cfg.steps + 1):
        while len(order) < cfg.batch_size:
            order.extend(rng.permutation(len(split.train)))
        batch_idx, order = order[: cfg.batch_size], order[cfg.batch_size :]
        total = np.zeros(classifier.flat.size)
        loss = 0.0
        for idx in batch_idx:
            ex = split.train[idx]
            paraphrases = cached_paraphrases(cache, policy_key, ex.uid) if m > 0 else []
            total += augmented_example_grad(classifier, ex, paraphrases, task.template, verbalizer, mode)
            loss += augmented_example_loss(classifier, ex, paraphrases, task.template, verbalizer, mode)
        total /= len(batch_idx)
        opt.step(classifier.flat, -total, trainable=mask)
        rows.append((step, "train", "loss", loss / len(batch_idx)))
        if step % cfg.checkpoint_interval == 0:
            frozen = classifier.copy()
            frozen.pv.freeze()
            acc = validation_accuracy(step)
            path = None
            if run_dir is not None:
                os.makedirs(os.path.join(run_dir, "checkpoints"), exist_ok=True)
                path = os.path.join(run_dir, "checkpoints", f"classifier_step{step:05d}.ckpt")
                clf.save_classifier(path, frozen)
            checkpoints.append(Checkpoint(step, frozen, path, {METRIC_INCL: acc}))
            rows.append((step, "validation", METRIC_INCL, acc))
    if run_dir is not None:
        write_metrics_csv(os.path.join(run_dir, "metrics.csv"), rows)
    return checkpoints


def select_best_checkpoint(checkpoints, metric: str) -> Checkpoint:
    """Checkpoint maximizing the stored validation metric; ties go to the
    earliest step."""
    if not checkpoints:
        raise ValueError("no checkpoints to select from")
    best = checkpoints[0]
    for ck in checkpoints[1:]:
        if ck.metrics[metric] > best.metrics[metric]:
            best = ck
    return best


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "split", "metric", "value"])
        for step, split_name, metric, value in rows:
            writer.writerow([step, split_name, metric, repr(float(value))])


def read_metrics_csv(path) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        return [
            {
                "step": int(row["step"]),
                "split": row["split"],
                "metric": row["metric"],
                "value": float(row["value"]),
            }
            for row in reader
        ]
