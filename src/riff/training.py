"""Training loops: reward-guided rewriter fine-tuning, paraphrase-augmented
classifier training, checkpointing, best-checkpoint selection, and ensemble
inference.

The rewriter loop draws fresh samples every step (never cached); classifier
training generates and counts rewrites once, before the first step, and
scores each step's inputs and rewrites in one batched classifier call. One
thread mutates parameters; checkpoint evaluation only reads frozen copies.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import classifier as clf
from . import estimators as est
from .checkpoint import atomic_write, params_hash
from .data import Example, RowError, SyntheticTask, TaskTemplate, formatted_counts
from .decoding import DecodeConfig, decode_batch, diverse_beam_batch
from .estimators import DEFAULT_BETA, ESTIMATORS, REGIMES
from .optim import AdamConfig, AdamW
from .policy import (
    Padded,
    PolicyParams,
    TokenSeq,
    _count_logits,
    _forward,
    check_output_rows,
    input_counts,
    pad,
    path_logprobs,
    save_policy,
    snapshot,
    transition_forward,
    transition_logits,
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
        """Raise a ValueError naming the first bad field; every float field,
        a subclass's too, must be finite."""
        for f in fields(self):
            if isinstance(value := getattr(self, f.name), float) and not math.isfinite(value):
                raise ValueError(f"config field {f.name!r} must be finite, got {value}")
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
    logits = transition_logits(policy, [ex.x for ex in examples])
    return diverse_beam_batch(policy, logits, decode_config(replace(cfg, m=m), cfg.seed))


def _row_name(j: int) -> str:
    """Row j of an example group: the input, then its rewrites from 1."""
    return "input" if j == 0 else f"rewrite {j}"


def group_counts(
    template: TaskTemplate, vocab_size: int, examples, rewrites: Padded | None, inputs: np.ndarray | None = None
) -> np.ndarray:
    """(example, row, V) token counts of each example's formatted input
    followed by its m formatted rewrites (input-major rows of `rewrites`;
    none without), all the classifier reads of them. The inputs' rows are
    counted by one formatted_counts call, or are `inputs` when the caller
    has counted them (row 0 of a group_counts of the same examples), and
    the rewrites' by one more. A bad row raises a ValueError naming the
    example and the row."""
    n = len(examples)
    if inputs is None:
        inputs = _counted(template, vocab_size, pad([ex.x for ex in examples]).ids, examples, 0)
    m = 0 if rewrites is None else len(rewrites.ids) // n
    counts = np.empty((n, 1 + m, vocab_size))
    counts[:, 0] = inputs
    if m:
        counts[:, 1:] = _counted(template, vocab_size, rewrites.ids, examples, 1).reshape(n, m, vocab_size)
    return counts


def _counted(template: TaskTemplate, vocab_size: int, ids: np.ndarray, examples, first: int) -> np.ndarray:
    """formatted_counts of input-major id rows, the same number per example: rows
    first, first + 1, ... of each example's group. A bad row raises a ValueError
    naming the example and the row."""
    try:
        return formatted_counts(template, ids, vocab_size)
    except RowError as exc:
        k, j = divmod(exc.row, len(ids) // len(examples))
        raise ValueError(f"{_row_name(first + j)} of example {examples[k].uid}: {exc.reason}") from exc


def ensemble_accuracies(
    classifier: clf.ClassifierParams, verbalizer, examples, counts: np.ndarray
) -> tuple[float, float]:
    """Ensemble accuracy with and without the original input, from the
    group_counts of the examples, scored by one classifier call. A row's
    scores depend on its token counts alone, so each group scores as it
    would alone."""
    return _ensemble_accuracies(lambda rows: clf.label_logprobs_batch(classifier, rows, verbalizer), examples, counts)


def _ensemble_accuracies(score, examples, counts: np.ndarray) -> tuple[float, float]:
    """ensemble_accuracies scored by one call of `score`, which maps (rows, V)
    count rows to their label log-probs: a run's prebuilt LabelPath.logprobs."""
    n, rows, v = counts.shape
    if len(examples) != n:
        raise ValueError(f"{len(examples)} examples for {n} example groups")
    scores = score(counts.reshape(n * rows, v)).reshape(n, rows, -1)
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
    counts = group_counts(task_template, classifier.cfg.vocab_size, examples, rewrites)
    incl, excl = ensemble_accuracies(classifier, verbalizer, examples, counts)
    return incl if include_original else excl


def _plain_accuracy(classifier, verbalizer, examples, counts: np.ndarray) -> float:
    """Accuracy on the examples' inputs alone, row 0 of their group_counts."""
    scores = clf.label_logprobs_batch(classifier, counts[:, 0], verbalizer)
    return float(np.mean(np.argmax(scores, axis=1) == [ex.y for ex in examples]))


def plain_accuracy(classifier, template, verbalizer, examples) -> float:
    examples = list(examples)
    counts = group_counts(template, classifier.cfg.vocab_size, examples, None)
    return _plain_accuracy(classifier, verbalizer, examples, counts)


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


def _anchor_tables(fixed: PolicyParams, examples):
    """(fixed, raw transition logits, log-softmax tables, input count rows)
    of the frozen snapshot for each example, stacked; the policy's own
    forward reads the same count rows. The snapshot never changes and an
    input's rows do not depend on its batch or padding, so they are built
    once per run and each step gathers its batch's rows."""
    fwd = transition_forward(fixed, [ex.x for ex in examples])
    return fixed, fwd.logits, fwd.table, fwd.inputs


def _minibatch_gradient(policy, anchor, batch, reward_fn, cfg: RunConfig, step: int):
    """(mean objective gradient, mean raw reward, clamp events) of a minibatch
    at one step, given the batch's rows of `_anchor_tables`: one stacked
    forward of the policy from the count rows, one batch decode into one
    padded rewrite array with its cells and log-probs under the sampler's
    tables, one row check, one reward call, one log-prob gather from the
    other table stack and one stacked backward over the decoder's cells,
    whose rows are checked finite in one pass and summed by one reduction in
    batch order, bitwise a running sum of per-example gradients from 0.0.
    Reward standardization and the coefficients take the (B, m) arrays in
    one call each, and a bad row's error names its example and the step."""
    fwd = _forward(policy, anchor[3])
    # off-policy samples come from the frozen snapshot; diverse beam reads no seed
    sampler = anchor[:3] if cfg.regime == "off" else (policy, fwd.logits, fwd.table)
    seeds = [derive_seed(cfg.seed, step, ex.uid) for ex in batch]
    rewrites, cells, lps = decode_batch(sampler[0], cfg.decoder, *sampler[1:], seeds, decode_config(cfg, 0))
    check_output_rows(rewrites, policy.cfg)
    raw = _sample_rewards(batch, rewrites, reward_fn, step)
    # the sampler's log-probs come with its rows; the other table's are gathered at their cells
    pair = (path_logprobs(fwd.table, cells), lps) if cfg.regime == "off" else (lps, path_logprobs(anchor[2], cells))
    cur, fixed_lp = (lp.reshape(raw.shape) for lp in pair)
    rewards = est.normalize_rewards(raw) if cfg.normalize else raw
    try:
        weights, clamp_events = est.coefficients(
            cur, fixed_lp, rewards, cfg.estimator, cfg.regime, cfg.resolved_beta()
        )
    except RowError as exc:
        raise ValueError(f"example {batch[exc.row].uid} at step {step}: {exc.reason}") from exc
    mean_reward = float(raw.mean(axis=1).cumsum()[-1])  # a running sum, in batch order
    grads = weighted_seq_grads(policy, fwd, cells, weights.ravel())
    finite = np.isfinite(grads).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite gradient for example {batch[np.argmin(finite)].uid} at step {step}")
    total = np.add.reduce(grads, axis=0, initial=0.0)
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
    accuracy; a step-0 baseline row is logged but not checkpointed. What is
    fixed for the run is built before step 1: the training inputs' count
    rows with the snapshot's tables, the validation inputs' count rows for
    the rewriter and for the classifier, and the frozen classifier's label
    path, which every reward call and validation pass reads.
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
    path = clf.LabelPath(classifier, verbalizer)
    # the validation inputs' count rows, the rewriter's and the classifier's, are built once
    xs = [ex.x for ex in split.validation]
    inputs = input_counts(xs, policy.cfg.vocab_size)
    lengths, beam = inputs.sum(axis=-1, keepdims=True), decode_config(cfg, cfg.seed)
    own = _counted(task.template, classifier.cfg.vocab_size, pad(xs).ids, split.validation, 0)

    def validation_accuracy() -> float:
        rewrites = diverse_beam_batch(policy, _count_logits(policy, inputs, lengths), beam)
        counts = group_counts(task.template, classifier.cfg.vocab_size, split.validation, rewrites, own)
        if path.mode is not classifier.mode:  # the pooled head scores (CLS_HEAD), which keeps nothing across calls
            return ensemble_accuracies(classifier, verbalizer, split.validation, counts)[1]
        return _ensemble_accuracies(path.logprobs, split.validation, counts)[1]

    def reward_fn(rewrites: Padded, ys) -> np.ndarray:
        return path.rewards(formatted_counts(task.template, rewrites.ids, classifier.cfg.vocab_size), ys)

    log.validation(0, validation_accuracy())
    run = _anchor_tables(fixed, split.train)
    batches = _batches(len(split.train), cfg.batch_size, rng)
    for step, batch_idx in zip(range(1, cfg.steps + 1), batches):
        batch = [split.train[idx] for idx in batch_idx]
        anchor = (fixed, *(rows[batch_idx] for rows in run[1:]))
        grad, reward, clamps = _minibatch_gradient(policy, anchor, batch, reward_fn, cfg, step)
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

    Before the first step, rewrites for every training and validation
    example are decoded once and counted into (example, row, V)
    token counts, the classifier's whole input, checked as they are
    counted: a bad row raises there, naming its example and row. The labels
    and the verbalizer are checked once too; a bad label raises naming its
    example. m == 0 degenerates to plain supervised training and skips
    decoding. A step slices its batch's count rows and makes one classifier
    kernel call over the inputs (weight 1/B) and their rewrites (1/(B m)),
    which returns the loss with the gradient of the mode's trainable
    entries, the entries AdamW steps. Rewrites are decoded once because the
    rewriter is frozen and diverse beam reads no seed.
    """
    cfg.validate()
    if m > 0 and policy is None:
        raise ValueError("augmented training needs a rewriter policy")
    classifier = classifier.copy()
    verbalizer = clf.Verbalizer(task.verbalizer_ids)

    def counted(examples) -> np.ndarray:
        rewrites = decode_rewrites(policy, examples, m, cfg) if m > 0 else None
        return group_counts(task.template, classifier.cfg.vocab_size, examples, rewrites)

    counts, validation = counted(split.train), counted(split.validation)
    try:
        ys = clf._check_labels(classifier, [ex.y for ex in split.train], verbalizer, mode)
    except RowError as exc:
        raise ValueError(f"example {split.train[exc.row].uid}: {exc.reason}") from exc
    labels = np.repeat(ys[:, None], m + 1, axis=1)
    trained = np.flatnonzero(clf.trainable_mask(classifier, mode))
    opt = AdamW(len(trained), AdamConfig(lr=cfg.lr, weight_decay=cfg.weight_decay))
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xC1A55))
    log = _RunLog(run_dir, "classifier", clf.save_classifier, METRIC_INCL)

    def validation_accuracy() -> float:
        if m > 0:
            return ensemble_accuracies(classifier, verbalizer, split.validation, validation)[0]
        return _plain_accuracy(classifier, verbalizer, split.validation, validation)

    log.validation(0, validation_accuracy())
    b = cfg.batch_size  # every minibatch holds exactly batch_size examples
    weights = np.array(([1.0 / b] + [1.0 / (b * m) for _ in range(m)]) * b)
    batches = _batches(len(split.train), b, rng)
    for step, batch_idx in zip(range(1, cfg.steps + 1), batches):
        rows = counts[batch_idx].reshape(-1, counts.shape[2])
        value, grad, _ = clf._kernel(classifier, rows, labels[batch_idx].ravel(), weights, verbalizer, mode)
        flat = classifier.flat[trained]
        opt.step(flat, -grad)
        classifier.flat[trained] = flat
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
