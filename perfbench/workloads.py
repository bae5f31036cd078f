"""The benchmark's three workloads.

Each workload has a set-up (done once per interpreter, before the first
timed call) and an operation that the worker repeats; both report their
phases as (start, end) `time.perf_counter` pairs. Operation k draws its
inputs from `op_seed(seed, k)`; operation 0 uses the workload seed itself, so
the golden values recorded for the default seed apply to it.

- recipe: the criterion-7 recipe (classifier warmup, rewriter pretraining,
  KL-anchored mml fine-tuning with mixed decoding, ensemble validation) for
  one split seed, writing a run directory. Loads the rewriter and the
  decoders; the frozen classifier only scores rewards.
- augment: `train_classifier_augmented` in lora mode with m=8 cached
  diverse-beam rewrites from a frozen pretrained rewriter. Loads the
  classifier forward and backward; decoding runs once plus validation.
- oracle: the `cli.oracle_check` sweep; a tiny rewriter pretrained as the
  KL anchor; the exact KL-penalized gradient against central differences at
  beta 0.1 and 0.6 with that anchor; then exact KL-penalized gradient
  ascent. Enumerates the rewriter's whole output space and runs thousands
  of finite-difference objective evaluations; no decoding, no classifier.

All riff calls go through module attributes (`training.finetune_paraphraser`),
so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))  # the riff of the checkout under test

from riff import classifier as clf  # noqa: E402
from riff import checkpoint, cli, data, decoding, numerics, oracle, optim, policy, training  # noqa: E402
from riff.classifier import TuningMode  # noqa: E402
from riff.policy import PolicyConfig, PolicyParams, TokenSeq  # noqa: E402

GOLDEN_SEED = 0
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_TOLERANCE = 1e-9

TASK_VOCAB = 20
POLICY_CFG = PolicyConfig(vocab_size=TASK_VOCAB, embed_dim=12, hidden_dim=24, max_len=24)


def op_seed(seed: int, k: int) -> int:
    return seed if k == 0 else int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class State:
    seed: int
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)
    objects: dict = field(default_factory=dict)


def _rewriter_corpus():
    """The rewrite-target corpus `riff pretrain` uses at default settings."""
    pool = data.gen_synthetic_task(TASK_VOCAB, 2, 128, 0, 7919)
    return data.gen_rewriter_corpus(pool.train, 2, 104729)


def _pretrain(corpus, seed: int) -> PolicyParams:
    init = PolicyParams.init_random(POLICY_CFG, seed=seed + 31)
    return policy.pretrain_mle(init, corpus, epochs=20, lr=0.02, seed=seed + 47)


def _rows(run_dir: str) -> list[list]:
    return [
        [r["step"], r["split"], r["metric"], r["value"]]
        for r in training.read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
    ]


def _check_rows(rows, last_step: int) -> list[str]:
    problems = []
    for step, split, metric, value in rows:
        if not math.isfinite(value):
            problems.append(f"non-finite {metric} at step {step}")
        if metric.startswith("ensemble_acc") and not 0.0 <= value <= 1.0:
            problems.append(f"{metric} {value} outside [0, 1] at step {step}")
    steps = {row[0] for row in rows}
    if 0 not in steps or last_step not in steps:
        problems.append(f"metric rows miss step 0 or step {last_step}")
    return problems


def _check_rewrites(rewrites, expected: int, cfg: PolicyConfig) -> list[str]:
    problems = []
    if len(rewrites) != expected:
        problems.append(f"{len(rewrites)} rewrites, expected {expected}")
    for ids in rewrites:
        try:
            policy.check_output_seq(TokenSeq(tuple(ids)), cfg)
        except ValueError as exc:
            problems.append(f"malformed rewrite {ids}: {exc}")
    return problems


def golden_problems(name: str, out: dict) -> list[str]:
    """Compare default-seed outputs with the values recorded in golden.json."""
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        golden = json.load(f).get(name)
    if golden is None:
        return []
    problems = []
    if out["rewrites"] != golden["rewrites"]:
        problems.append("rewrite ids differ from golden")
    if len(out["rows"]) != len(golden["rows"]):
        problems.append(f"{len(out['rows'])} metric rows, golden has {len(golden['rows'])}")
    for got, want in zip(out["rows"], golden["rows"]):
        if got[:3] != want[:3] or abs(got[3] - want[3]) > GOLDEN_TOLERANCE:
            problems.append(f"metric row {got} differs from golden {want}")
            break
    return problems


class Recipe:
    name = "recipe"
    steps = 96

    def setup(self, seed: int) -> State:
        state = State(seed)
        state.objects["task"] = data.gen_synthetic_task(TASK_VOCAB, 2, 128, 64, 0)
        state.objects["corpus"] = _rewriter_corpus()
        return state

    def run(self, state: State, k: int, run_dir: str):
        s = op_seed(state.seed, k)
        task = state.objects["task"]
        split = training.fewshot_split(task.train, 16, s)
        cfg = training.RunConfig(
            estimator="mml", regime="klon", decoder="mixed", normalize=True,
            m=8, lr=2e-3, steps=self.steps, batch_size=8, checkpoint_interval=8, seed=s,
        )
        t0 = time.perf_counter()
        cparams = clf.ClassifierParams.init_random(
            clf.ClassifierConfig(vocab_size=TASK_VOCAB, num_labels=2, embed_dim=16),
            TuningMode.ALL, seed=59 + s,
        )
        warm_cfg = training.RunConfig(steps=200, lr=0.01, batch_size=8, checkpoint_interval=200, seed=s)
        warm = training.train_classifier_augmented(
            cparams, None, task, split, m=0, mode=TuningMode.ALL, cfg=warm_cfg
        )
        classifier = warm[-1].params.copy()
        t1 = time.perf_counter()
        rewriter = _pretrain(state.objects["corpus"], s)
        t2 = time.perf_counter()
        checkpoints = training.finetune_paraphraser(rewriter, classifier, task, split, cfg, run_dir)
        t3 = time.perf_counter()
        times = {"run_s": (t0, t3), "pretrain_s": (t1, t2), "finetune_s": (t2, t3)}
        return times, (split, cfg, checkpoints)

    def outputs(self, state: State, product, run_dir: str) -> dict:
        """Rewrites of the validation inputs by the best checkpoint (what a
        user keeps), the metric rows, and whether its file reloads bitwise."""
        split, cfg, checkpoints = product
        best = training.select_best_checkpoint(checkpoints, training.METRIC_EXCL)
        rewrites = []
        for ex in split.validation:
            dc = training.decode_config(cfg, training.derive_seed(cfg.seed, 0x7E57, ex.uid))
            rewrites.extend(list(z.ids) for z in decoding.diverse_beam(best.params, ex.x, dc))
        reloaded = policy.load_policy(best.path)
        return {
            "rewrites": rewrites,
            "rows": _rows(run_dir),
            "best_reloads": bool(np.array_equal(reloaded.flat, best.params.flat)),
            "expected_rewrites": len(split.validation) * cfg.m,
        }

    def check(self, out: dict) -> list[str]:
        problems = _check_rewrites(out["rewrites"], out["expected_rewrites"], POLICY_CFG)
        problems += _check_rows(out["rows"], self.steps)
        if not out["best_reloads"]:
            problems.append("best checkpoint file does not reload bitwise")
        return problems


class Augment:
    name = "augment"
    steps = 200
    m = 8

    def setup(self, seed: int) -> State:
        state = State(seed)
        state.objects["task"] = data.gen_synthetic_task(TASK_VOCAB, 2, 128, 64, 0)
        corpus = _rewriter_corpus()
        t0 = time.perf_counter()
        state.objects["rewriter"] = _pretrain(corpus, seed)
        state.phases["pretrain_s"] = (t0, time.perf_counter())
        return state

    def run(self, state: State, k: int, run_dir: str):
        s = op_seed(state.seed, k)
        task = state.objects["task"]
        split = training.fewshot_split(task.train, 16, s)
        cfg = training.RunConfig(lr=0.01, steps=self.steps, m=self.m, seed=s)
        t0 = time.perf_counter()
        params = clf.ClassifierParams.init_random(
            clf.ClassifierConfig(vocab_size=TASK_VOCAB, num_labels=2), TuningMode.LORA, seed=s + 59
        )
        t1 = time.perf_counter()
        checkpoints = training.train_classifier_augmented(
            params, state.objects["rewriter"], task, split, self.m, TuningMode.LORA, cfg, run_dir
        )
        t2 = time.perf_counter()
        return {"run_s": (t0, t2), "finetune_s": (t1, t2)}, (split, cfg, checkpoints)

    def outputs(self, state: State, product, run_dir: str) -> dict:
        """The cached training rewrites (regenerated the way training made
        them) and the metric rows."""
        split, cfg, _ = product
        rewriter = state.objects["rewriter"]
        cache = training.generate_paraphrase_cache(
            rewriter, split.train, self.m, cfg, training.derive_seed(cfg.seed, 0xCAC4E)
        )
        key = checkpoint.params_hash(rewriter.flat)
        rewrites = [list(z.ids) for ex in split.train for z in cache[(key, ex.uid)]]
        return {
            "rewrites": rewrites,
            "rows": _rows(run_dir),
            "expected_rewrites": len(split.train) * self.m,
        }

    def check(self, out: dict) -> list[str]:
        problems = _check_rewrites(out["rewrites"], out["expected_rewrites"], POLICY_CFG)
        return problems + _check_rows(out["rows"], self.steps)


# Shape classes of `cli.oracle_check` instances: (vocab size, max_len).
SWEEP_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4))
ANCHOR_CFG = PolicyConfig(vocab_size=4, embed_dim=4, hidden_dim=5, max_len=4)


def sweep_seeds(seed: int, per_shape: int) -> list[int]:
    """Seeds for one-instance `cli.oracle_check` calls, `per_shape` of each
    shape class. Enumeration cost grows about sixfold from the smallest
    class to the largest, so a plain sweep's cost swings with the seed; an
    equal count per class keeps the work of a run fixed. The shape is read
    off the first two draws, the order in which `oracle_check` draws it."""
    rng = np.random.default_rng(seed)
    picked: dict[tuple[int, int], list[int]] = {shape: [] for shape in SWEEP_SHAPES}
    while any(len(v) < per_shape for v in picked.values()):
        candidate = int(rng.integers(2**31))
        probe = np.random.default_rng(candidate)
        shape = (int(probe.integers(3, 5)), int(probe.integers(3, 5)))
        if len(picked[shape]) < per_shape:
            picked[shape].append(candidate)
    return [s for shape in SWEEP_SHAPES for s in picked[shape]]


def table_reward(table_seed: int):
    """Deterministic reward in (-2, 0] keyed by sequence ids, memoized."""
    memo: dict[tuple[int, ...], float] = {}

    def reward_fn(z: TokenSeq) -> float:
        if z.ids not in memo:
            memo[z.ids] = float(-2.0 * np.random.default_rng([table_seed, *z.ids]).random())
        return memo[z.ids]

    return reward_fn


class Oracle:
    name = "oracle"
    per_shape = 2
    pretrain_pairs = 16
    pretrain_epochs = 150
    finetune_steps = 30
    finetune_inputs = 2

    def setup(self, seed: int) -> State:
        return State(seed)

    def run(self, state: State, k: int, run_dir: str):
        s = op_seed(state.seed, k)
        rng = np.random.default_rng([s, 0xA7C])
        pairs = []
        for _ in range(self.pretrain_pairs):
            content = [int(t) for t in rng.integers(1, ANCHOR_CFG.vocab_size, size=int(rng.integers(1, 4)))]
            pairs.append((TokenSeq.from_content(content), TokenSeq.from_content(content[::-1])))
        init = PolicyParams.init_random(ANCHOR_CFG, seed=int(rng.integers(2**31)), scale=0.6)
        start = PolicyParams.init_random(ANCHOR_CFG, seed=int(rng.integers(2**31)), scale=0.6)
        reward_fn = table_reward(int(rng.integers(2**31)))
        xs = [x for x, _ in pairs[: self.finetune_inputs]]
        t0 = time.perf_counter()
        sweep_worst = max(cli.oracle_check(sub, instances=1) for sub in sweep_seeds(s, self.per_shape))
        t1 = time.perf_counter()
        # the anchor: a tiny rewriter pretrained on a reversal corpus
        anchor = policy.pretrain_mle(init, pairs, epochs=self.pretrain_epochs, lr=0.05, batch_size=4, seed=s)
        t2 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="unterminated tail mass")
            # criterion 2 against the pretrained anchor, at a random policy: a
            # peaked policy has gradient entries near the error floor, where
            # central differences lose their digits to rounding
            x = xs[0]
            kl_worst = 0.0
            for beta in (0.1, 0.6):
                analytic = oracle.exact_kl_gradient(start, anchor, x, reward_fn, beta)

                def objective(flat, beta=beta):
                    probe = PolicyParams(start.cfg)
                    probe.pv.values[:] = flat
                    return oracle.exact_kl_objective(probe, anchor, x, reward_fn, beta)

                fd = numerics.finite_diff_grad(objective, start.flat, h=1e-5)
                kl_worst = max(kl_worst, numerics.max_relative_error(analytic, fd))
            plain = oracle.exact_gradient(start, x, reward_fn)
            beta0_bitwise = bool(np.array_equal(
                oracle.exact_kl_gradient(start, anchor, x, reward_fn, 0.0), plain))
            t3 = time.perf_counter()
            # exact KL-penalized gradient ascent from there
            current = start.copy()
            opt = optim.AdamW(current.flat.size, optim.AdamConfig(lr=0.05))
            for _ in range(self.finetune_steps):
                grad = sum(oracle.exact_kl_gradient(current, anchor, x, reward_fn, 0.1) for x in xs)
                opt.step(current.flat, -grad)
            t4 = time.perf_counter()
            gain = sum(
                oracle.exact_kl_objective(current, anchor, x, reward_fn, 0.1)
                - oracle.exact_kl_objective(start, anchor, x, reward_fn, 0.1)
                for x in xs
            )
        t5 = time.perf_counter()
        times = {"run_s": (t0, t5), "pretrain_s": (t1, t2), "finetune_s": (t3, t4)}
        product = {
            "sweep_worst": sweep_worst,
            "kl_worst": kl_worst,
            "beta0_bitwise": beta0_bitwise,
            "objective_gain": float(gain),
        }
        return times, product

    def outputs(self, state: State, product, run_dir: str) -> dict:
        return dict(product)

    def check(self, out: dict) -> list[str]:
        problems = []
        for key in ("sweep_worst", "kl_worst"):
            if not out[key] < 1e-3:
                problems.append(f"{key} relative gradient error {out[key]:.3e} >= 1e-3")
        if not out["beta0_bitwise"]:
            problems.append("beta=0 KL gradient differs from the plain exact gradient")
        if not out["objective_gain"] > 0.0:
            problems.append(f"exact ascent changed the objective by {out['objective_gain']:.3e}")
        return problems


WORKLOADS = {w.name: w for w in (Recipe(), Augment(), Oracle())}
