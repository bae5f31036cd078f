"""Training loops: reward-guided rewriter fine-tuning, paraphrase-augmented
classifier training, checkpointing, best-checkpoint selection, and ensemble
inference.

The rewriter loop draws fresh samples every step (never cached); classifier
training generates and formats rewrites once, before the first step, and
scores each step's inputs and rewrites in one batched classifier call. One
thread mutates parameters; checkpoint evaluation only reads frozen copies.
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import classifier as clf
from . import estimators as est
from .checkpoint import atomic_write, params_hash
from .data import Example, Padded, RowError, SyntheticTask, TaskTemplate, format_rewrites, pad
from .decoding import DecodeConfig, decode_batch, diverse_beam_batch
from .estimators import DEFAULT_BETA, ESTIMATORS, REGIMES
from .numerics import log_softmax_rows
from .optim import AdamConfig, AdamW
from .policy import (
    PolicyParams,
    TokenSeq,
    path_logprobs,
    save_policy,
    snapshot,
    transition_logits_batch,
    unpad,
    weighted_seq_grads,
)
from .policy import seq_logprob  # noqa: F401  perfbench/test_perfbench.py reads training.seq_logprob

DECODERS = ("beam", "top_p", "mixed")

METRIC_EXCL = "ensemble_acc_excl"
METRIC_INCL = "ensemble_acc_incl"


@dataclass(frozen=True)
class FewShotSplit:
    train: tuple[Example, ...]
    validation: tuple[Example, ...]
    seed: int


def fewshot_split(examples, n: int, seed: int) -> FewShotSplit:
    """Disjoint per-label samples of size n for train and validation."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
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
        for name in ("m", "beta", "lr", "weight_decay"):  # beta None is the estimator default
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.decoder == "mixed" and self.m % 2 != 0:
            raise ValueError("mixed decoding needs an even m")
        if self.steps < 1 or self.batch_size < 1 or self.checkpoint_interval < 1:
            raise ValueError("steps, batch_size and checkpoint_interval must be positive")
        if self.steps < self.checkpoint_interval:  # else no checkpoint is ever taken
            raise ValueError(
                f"steps must be at least checkpoint_interval, got steps {self.steps} "
                f"and checkpoint_interval {self.checkpoint_interval}"
            )
        decode_config(replace(self, m=self.m or 1), self.seed)  # DecodeConfig checks the decoding knobs

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


def combine_group(scores, include_original: bool) -> np.ndarray:
    """Per-label ensemble scores of a (..., rows, labels) stack of example groups,
    whose row 0 holds the original input's label scores and rows 1.. its rewrites':
    the original score (if included) plus the mean rewrite score."""
    scores = np.asarray(scores, dtype=np.float64)
    rows = scores.shape[-2]
    if not include_original and rows < 2:
        raise ValueError("exclusion-mode ensemble needs at least one rewrite")
    if rows < 2:
        return scores[..., 0, :].copy()
    mean = scores[..., 1:, :].sum(axis=-2) / (rows - 1)
    return scores[..., 0, :] + mean if include_original else mean


def decode_rewrites(policy: PolicyParams, examples, m: int, cfg: RunConfig) -> Padded:
    """Test-style rewrites (diverse beam, m per input, input-major) of all
    examples from one stacked forward and one batched beam. Diverse beam
    reads no seed, so rewrites depend only on the policy and input."""
    logits = transition_logits_batch(policy, [ex.x for ex in examples])[0]
    return diverse_beam_batch(policy, logits, decode_config(replace(cfg, m=m), cfg.seed))


def _row_name(j: int) -> str:
    """Row j of an example group: the input, then its rewrites from 1."""
    return "input" if j == 0 else f"rewrite {j}"


def format_groups(template: TaskTemplate, examples, rewrites: Padded | None) -> Padded:
    """Each example's input followed by its m rewrites (input-major rows of
    `rewrites`; none without), formatted by one format_rewrites call into
    (example, row, position) arrays. A row too long for the template raises
    a ValueError naming the example and the row."""
    n = len(examples)
    parts = [(slice(0, 1), pad([ex.x for ex in examples]))]
    if rewrites is not None:
        parts.append((slice(1, None), rewrites))
    m = sum(len(part.ids) for _, part in parts) // n - 1
    width = max(part.ids.shape[1] for _, part in parts)
    ids = np.zeros((n, m + 1, width), dtype=np.intp)
    for group_rows, part in parts:
        ids[:, group_rows, : part.ids.shape[1]] = part.ids.reshape(n, -1, part.ids.shape[1])
    try:
        formatted = format_rewrites(template, ids.reshape(n * (m + 1), width))
    except RowError as exc:
        uid = examples[exc.row // (m + 1)].uid
        raise ValueError(f"{_row_name(exc.row % (m + 1))} of example {uid}: {exc.reason}") from exc
    return Padded(*(a.reshape(n, m + 1, -1) for a in formatted))


def ensemble_accuracies(
    classifier: clf.ClassifierParams, verbalizer, examples, groups: Padded
) -> tuple[float, float]:
    """Ensemble accuracy with and without the original input, from the
    (example, row, position) arrays of format_groups.

    A group's width is its widest row. All groups of one width are cut at it
    and share one classifier call, in order of each width's first appearance.
    Groups are never re-padded: the attention normalizer sums over the padded
    key axis, and numpy groups that sum by row length, so a wider padding can
    change the last bits. Within one width each group scores bitwise as it
    would alone. A bad row raises a ValueError naming the example and row."""
    ids, valid = groups
    n, rows = ids.shape[:2]
    if len(examples) != n:
        raise ValueError(f"{len(examples)} examples for {n} example groups")
    widths = valid.sum(axis=2).max(axis=1)
    scores = np.empty((n, rows, classifier.cfg.num_labels))
    for width in dict.fromkeys(widths.tolist()):
        members = np.flatnonzero(widths == width)
        cut = Padded(*(a[members, :, :width].reshape(-1, width) for a in (ids, valid)))
        try:
            logp = clf.label_logprobs_batch(classifier, cut, verbalizer)
        except RowError as exc:
            k, j = divmod(exc.row, rows)
            raise ValueError(f"{_row_name(j)} of example {examples[members[k]].uid}: {exc.reason}") from exc
        scores[members] = logp.reshape(len(members), rows, -1)
    labels = [ex.y for ex in examples]
    incl, excl = (np.mean(combine_group(scores, inc).argmax(axis=-1) == labels) for inc in (True, False))
    return float(incl), float(excl)


def evaluate_ensemble_accuracy(
    policy: PolicyParams, classifier: clf.ClassifierParams, task_template: TaskTemplate, verbalizer,
    examples, m: int, include_original: bool, cfg: RunConfig,
) -> float:
    """Ensemble accuracy with test-style decoding (always diverse beam)."""
    examples = list(examples)
    rewrites = decode_rewrites(policy, examples, m, cfg)
    groups = format_groups(task_template, examples, rewrites)
    incl, excl = ensemble_accuracies(classifier, verbalizer, examples, groups)
    return incl if include_original else excl


def plain_accuracy(classifier, template, verbalizer, examples) -> float:
    examples = list(examples)
    scores = clf.label_logprobs_batch(
        classifier, format_rewrites(template, [ex.x for ex in examples]), verbalizer
    )
    return float(np.mean(np.argmax(scores, axis=1) == [ex.y for ex in examples]))


def _batches(n: int, batch_size: int, rng):
    """Endless minibatches of indices into n examples, refilled with a fresh
    permutation whenever fewer than batch_size remain."""
    order: list[int] = []
    while True:
        while len(order) < batch_size:
            order.extend(rng.permutation(n))
        yield order[:batch_size]
        order = order[batch_size:]


class _RunLog:
    """Metric rows and checkpoints of one training run. With a run directory,
    each checkpoint is saved to checkpoints/<kind>_step<step>.ckpt by `save`
    and the rows go to metrics.csv on close."""

    def __init__(self, run_dir: str | None, kind: str, save, metric: str):
        self.run_dir, self.kind, self.save, self.metric = run_dir, kind, save, metric
        self.rows: list[tuple[int, str, str, float]] = []
        self.checkpoints: list[Checkpoint] = []

    def validation(self, step: int, acc: float, frozen=None) -> None:
        """Log a validation row; with `frozen` params, keep them as a checkpoint."""
        if frozen is not None:
            path = None
            if self.run_dir is not None:
                os.makedirs(os.path.join(self.run_dir, "checkpoints"), exist_ok=True)
                path = os.path.join(self.run_dir, "checkpoints", f"{self.kind}_step{step:05d}.ckpt")
                self.save(path, frozen)
            self.checkpoints.append(Checkpoint(step, frozen, path, {self.metric: acc}))
        self.rows.append((step, "validation", self.metric, acc))

    def close(self) -> list[Checkpoint]:
        if self.run_dir is not None:
            write_metrics_csv(os.path.join(self.run_dir, "metrics.csv"), self.rows)
        return self.checkpoints


def _sample_rewards(batch, rewrites: Padded, reward_fn, step: int) -> np.ndarray:
    """(B, m) raw rewards of the minibatch's rewrites (rows input-major, m
    per example) from one `reward_fn(rewrites, ys)` call; a RowError from it
    is re-raised naming the example whose rewrite is bad."""
    m = len(rewrites.ids) // len(batch)
    try:
        scores = reward_fn(rewrites, np.repeat([ex.y for ex in batch], m))
    except RowError as exc:
        raise ValueError(f"rewrite of example {batch[exc.row // m].uid} at step {step}: {exc.reason}") from exc
    return np.asarray(scores, dtype=np.float64).reshape(len(batch), m)


def _minibatch_gradient(policy, fixed, batch, reward_fn, cfg: RunConfig, step: int):
    """(mean objective gradient, mean raw reward, clamp events) of a minibatch
    at one step: one stacked forward per policy, one batch decode into one
    padded rewrite array, one reward call, one log-prob gather per table
    stack and one stacked backward whose rows are summed in batch order,
    bitwise a running sum of per-example gradients. Reward standardization
    and the coefficients take the (B, m) arrays in one call each, and a bad
    row's error names its example and the step."""
    xs = [ex.x for ex in batch]
    logits, acts = transition_logits_batch(policy, xs)
    fixed_logits = transition_logits_batch(fixed, xs)[0]
    table, fixed_table = log_softmax_rows(logits), log_softmax_rows(fixed_logits)
    # off-policy samples come from the frozen snapshot; diverse beam reads no seed
    sampler = (fixed, fixed_logits, fixed_table) if cfg.regime == "off" else (policy, logits, table)
    seeds = [derive_seed(cfg.seed, step, ex.uid) for ex in batch]
    rewrites = decode_batch(sampler[0], cfg.decoder, *sampler[1:], seeds, decode_config(cfg, 0))
    raw = _sample_rewards(batch, rewrites, reward_fn, step)
    cur = path_logprobs(table, rewrites).reshape(raw.shape)
    fixed_lp = path_logprobs(fixed_table, rewrites).reshape(raw.shape)
    rewards = est.normalize_rewards(raw) if cfg.normalize else raw
    try:
        weights, clamp_events = est.coefficients(
            cur, fixed_lp, rewards, cfg.estimator, cfg.regime, cfg.resolved_beta()
        )
    except RowError as exc:
        raise ValueError(f"example {batch[exc.row].uid} at step {step}: {exc.reason}") from exc
    mean_reward = float(raw.mean(axis=1).cumsum()[-1])  # a running sum, in batch order
    total = np.zeros(policy.flat.size)
    for ex, grad in zip(batch, weighted_seq_grads(policy, pad(xs), rewrites, weights.ravel(), (logits, acts))):
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite gradient for example {ex.uid} at step {step}")
        total += grad
    return total / len(batch), mean_reward / len(batch), clamp_events


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
    opt = AdamW(policy.flat.size, AdamConfig(lr=cfg.lr, weight_decay=cfg.weight_decay))
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xBA7C4))
    log = _RunLog(run_dir, "policy", save_policy, METRIC_EXCL)

    def validation_accuracy() -> float:
        return evaluate_ensemble_accuracy(
            policy, classifier, task.template, verbalizer, split.validation, cfg.m, False, cfg
        )

    def reward_fn(rewrites: Padded, ys) -> np.ndarray:
        return clf.rewards(classifier, format_rewrites(task.template, rewrites.ids), ys, verbalizer)

    log.validation(0, validation_accuracy())
    batches = _batches(len(split.train), cfg.batch_size, rng)
    for step, batch_idx in zip(range(1, cfg.steps + 1), batches):
        batch = [split.train[idx] for idx in batch_idx]
        grad, reward, clamps = _minibatch_gradient(policy, fixed, batch, reward_fn, cfg, step)
        opt.step(policy.flat, -grad)
        log.rows.append((step, "train", "mean_reward", reward))
        if clamps:
            log.rows.append((step, "train", "is_clamp_events", float(clamps)))
        if step % cfg.checkpoint_interval == 0:
            frozen = snapshot(policy)
            log.validation(step, validation_accuracy(), frozen)
    return log.close()


def generate_paraphrase_cache(
    policy: PolicyParams, examples, m: int, cfg: RunConfig, cache_seed: int
) -> dict[tuple[str, int], list[TokenSeq]]:
    """Test-style rewrites for every example, generated once and keyed by
    (policy hash, example uid). Diverse beam reads no seed, so `cache_seed`
    does not change the rewrites."""
    key = params_hash(policy.flat)
    examples = list(examples)
    rewrites = unpad(decode_rewrites(policy, examples, m, cfg))
    return {(key, ex.uid): rewrites[k * m : (k + 1) * m] for k, ex in enumerate(examples)}


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

    Rewrites for every example are decoded and formatted once, before the
    first step, into (example, row, position) arrays. m == 0 degenerates to
    plain supervised training and skips decoding. A step is one weighted
    classifier call over the inputs (weight 1/B) and their rewrites
    (1/(B m)), which returns the loss with the gradient. Validation rewrites
    are decoded once: the rewriter is frozen and diverse beam reads no seed.
    """
    cfg.validate()
    if m > 0 and policy is None:
        raise ValueError("augmented training needs a rewriter policy")
    classifier = classifier.copy()
    verbalizer = clf.Verbalizer(task.verbalizer_ids)
    mask = clf.trainable_mask(classifier, mode)
    rewrites = decode_rewrites(policy, split.train, m, cfg) if m > 0 else None
    ids, valid = format_groups(task.template, split.train, rewrites)
    if m > 0:
        validation_groups = format_groups(
            task.template, split.validation, decode_rewrites(policy, split.validation, m, cfg)
        )
    lengths = valid.sum(axis=2)
    labels = np.array([ex.y for ex in split.train])
    opt = AdamW(classifier.flat.size, AdamConfig(lr=cfg.lr, weight_decay=cfg.weight_decay))
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xC1A55))
    log = _RunLog(run_dir, "classifier", clf.save_classifier, METRIC_INCL)

    def validation_accuracy() -> float:
        if m > 0:
            return ensemble_accuracies(classifier, verbalizer, split.validation, validation_groups)[0]
        return plain_accuracy(classifier, task.template, verbalizer, split.validation)

    log.validation(0, validation_accuracy())
    batches = _batches(len(split.train), cfg.batch_size, rng)
    for step, batch_idx in zip(range(1, cfg.steps + 1), batches):
        b = len(batch_idx)
        weights = ([1.0 / b] + [1.0 / (b * m) for _ in range(m)]) * b
        # cut to the batch's own widest row, the rows are exactly pad() of the batch's sequences
        width = lengths[batch_idx].max()
        seqs = Padded(*(a[batch_idx, :, :width].reshape(-1, width) for a in (ids, valid)))
        ys = np.repeat(labels[batch_idx], m + 1)
        try:
            value, grad = clf.weighted_label_grad(classifier, seqs, ys, weights, verbalizer, mode)
        except RowError as exc:
            uid = split.train[batch_idx[exc.row // (m + 1)]].uid
            what = _row_name(exc.row % (m + 1))
            raise ValueError(f"{what} of example {uid} at step {step}: {exc.reason}") from exc
        opt.step(classifier.flat, -grad, trainable=mask)
        log.rows.append((step, "train", "loss", -value))
        if step % cfg.checkpoint_interval == 0:
            frozen = classifier.copy()
            frozen.pv.freeze()
            log.validation(step, validation_accuracy(), frozen)
    return log.close()


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
    with atomic_write(path, "w", newline="", encoding="utf-8") as f:
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
