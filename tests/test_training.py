import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assemble_gradient,
    decode_one,
    format_input,
    kl_penalized_gradient,
    max_scaled_error,
    reference_diverse_beam,
    reference_example_gradient,
    reference_seq_logprob,
    reference_seq_logprob_grad,
    rewrite_ids,
    table_reward,
    tiny_classifier,
    token_counts,
)
from riff import classifier as clf
from riff import training
from riff.checkpoint import params_hash
from riff import estimators as est
from riff.data import Example, gen_synthetic_task, strip_scaffold
from riff.optim import AdamConfig, AdamW
from riff.policy import Padded, PolicyConfig, PolicyParams, TokenSeq, pad, snapshot, unpad
from riff.vocab import FIRST_CONTENT_ID
from riff.training import (
    Checkpoint,
    RunConfig,
    combine_group,
    derive_seed,
    fewshot_split,
    finetune_paraphraser,
    generate_paraphrase_cache,
    protocol_plan,
    read_metrics_csv,
    select_best_checkpoint,
    train_classifier_augmented,
    write_metrics_csv,
)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def small_task(seed=0, n=64):
    return gen_synthetic_task(20, 2, n, 0, seed=seed)


def test_fewshot_split_counts_and_disjointness():
    task = small_task()
    split = fewshot_split(task.train, 4, seed=1)
    assert len(split.train) == 8 and len(split.validation) == 8
    for side in (split.train, split.validation):
        for label in (0, 1):
            assert sum(1 for ex in side if ex.y == label) == 4
    train_ids = {ex.uid for ex in split.train}
    assert train_ids.isdisjoint({ex.uid for ex in split.validation})


def test_fewshot_split_single_shot():
    task = small_task()
    split = fewshot_split(task.train, 1, seed=0)
    assert len(split.train) == 2 and len(split.validation) == 2


@pytest.mark.parametrize("n", [0, -3])
def test_fewshot_split_rejects_fewer_than_one_shot(n):
    with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
        fewshot_split(small_task().train, n, seed=0)


def test_fewshot_split_deterministic():
    task = small_task()
    a = fewshot_split(task.train, 4, seed=9)
    b = fewshot_split(task.train, 4, seed=9)
    assert [ex.uid for ex in a.train] == [ex.uid for ex in b.train]
    assert [ex.uid for ex in a.validation] == [ex.uid for ex in b.validation]


def test_fewshot_split_insufficient_names_label():
    examples = [Example(uid=i, x=TokenSeq.from_content([4]), y=i % 2) for i in range(7)]
    # label 0 has 4 examples, label 1 only 3: the error names the short label
    with pytest.raises(ValueError, match="label 1"):
        fewshot_split(examples, 2, seed=0)


def test_run_config_validation():
    with pytest.raises(ValueError, match="estimator"):
        RunConfig(estimator="reinvented").validate()
    with pytest.raises(ValueError, match="regime"):
        RunConfig(regime="offline").validate()
    with pytest.raises(ValueError, match="even"):
        RunConfig(decoder="mixed", m=3).validate()
    with pytest.raises(ValueError, match="unknown run config field"):
        RunConfig.from_dict({"estimatr": "mml"})
    cfg = RunConfig.from_dict(RunConfig().to_dict())
    assert cfg == RunConfig()


def test_run_config_default_betas():
    assert RunConfig(estimator="mml").resolved_beta() == 0.1
    assert RunConfig(estimator="pg").resolved_beta() == 0.6
    assert RunConfig(beta=0.25).resolved_beta() == 0.25


def test_protocol_plan_shared_arithmetic():
    # 128 shots x 2 labels at batch 8 gives 32 steps per epoch; 1120 steps is
    # 35 epochs and 140 checkpoints at interval 8
    cfg = RunConfig(steps=1120, batch_size=8, checkpoint_interval=8)
    plan = protocol_plan(cfg, 256)
    assert plan["steps_per_epoch"] == 32
    assert plan["epochs"] == 35
    assert plan["num_checkpoints"] == 140


def test_adamw_zero_lr_keeps_params_bitwise():
    params = np.random.default_rng(0).normal(size=10)
    before = params.copy()
    opt = AdamW(10, AdamConfig(lr=0.0))
    opt.step(params, np.ones(10))
    assert np.array_equal(params, before)


@pytest.mark.parametrize("mode", list(clf.TuningMode))
def test_augmented_training_leaves_every_frozen_entry_bitwise_initial(mode):
    # AdamW steps only the trainable entries, with decay; under ALL the prompt
    # table lies between trained segments, so those entries are not contiguous
    task, split, _, policy = make_pipeline()
    classifier = tiny_classifier(seed=5, vocab=20, embed=8, prompt_len=2, mode=mode)
    cfg = RunConfig(m=2, lr=0.05, weight_decay=0.5, steps=4, batch_size=4, checkpoint_interval=2, seed=3)
    checkpoints = train_classifier_augmented(classifier, policy, task, split, m=2, mode=mode, cfg=cfg)
    frozen = ~clf.trainable_mask(classifier, mode)
    assert len(checkpoints) == 2
    for ck in checkpoints:
        assert np.array_equal(ck.params.flat[frozen], classifier.flat[frozen])
        assert np.array_equal(ck.params.flat, classifier.flat) == (mode is clf.TuningMode.NONE)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adamw_rejects_non_finite_gradient_untouched(bad):
    params = np.array([0.5, -1.0, 2.0])
    opt = AdamW(3, AdamConfig(lr=0.1))
    opt.step(params, np.array([0.1, 0.2, 0.3]))
    before = (params.copy(), opt.m.copy(), opt.v.copy(), opt.vmax.copy(), opt.t)
    with pytest.raises(ValueError, match="optimizer step 2"):
        opt.step(params, np.array([0.0, bad, 0.0]))
    assert np.array_equal(params, before[0])
    assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
    assert np.array_equal(opt.vmax, before[3]) and opt.t == before[4]


def make_pipeline(seed=0, shots=4):
    task = small_task()
    split = fewshot_split(task.train, shots, seed=seed)
    classifier = tiny_classifier(seed=5, vocab=20, embed=8)
    pcfg = PolicyConfig(vocab_size=20, embed_dim=6, hidden_dim=8, max_len=10)
    policy = PolicyParams.init_random(pcfg, seed=7)
    return task, split, classifier, policy


def test_finetune_zero_lr_checkpoints_equal_initial():
    task, split, classifier, policy = make_pipeline()
    cfg = RunConfig(m=4, decoder="beam", lr=0.0, steps=4, batch_size=4, checkpoint_interval=2, seed=0)
    checkpoints = finetune_paraphraser(policy, classifier, task, split, cfg)
    assert len(checkpoints) == 2
    for ck in checkpoints:
        assert np.array_equal(ck.params.flat, policy.flat)


def test_finetune_checkpoint_cadence():
    task, split, classifier, policy = make_pipeline()
    cfg = RunConfig(m=2, decoder="beam", lr=1e-3, steps=6, batch_size=2, checkpoint_interval=3, seed=0)
    checkpoints = finetune_paraphraser(policy, classifier, task, split, cfg)
    assert [ck.step for ck in checkpoints] == [3, 6]
    cfg_single = RunConfig(m=2, decoder="beam", lr=1e-3, steps=3, batch_size=2, checkpoint_interval=3, seed=0)
    assert [ck.step for ck in finetune_paraphraser(policy, classifier, task, split, cfg_single)] == [3]


def test_finetune_rejects_bad_config_before_stepping():
    task, split, classifier, policy = make_pipeline()
    cfg = RunConfig(decoder="mixed", m=5)
    with pytest.raises(ValueError, match="even"):
        finetune_paraphraser(policy, classifier, task, split, cfg)


def test_finetune_metrics_deterministic_per_seed(tmp_path):
    task, split, classifier, policy = make_pipeline()
    cfg = RunConfig(m=4, lr=2e-3, steps=4, batch_size=4, checkpoint_interval=2, seed=3)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    finetune_paraphraser(policy, classifier, task, split, cfg, run_dir=str(dir_a))
    finetune_paraphraser(policy, classifier, task, split, cfg, run_dir=str(dir_b))
    assert (dir_a / "metrics.csv").read_text() == (dir_b / "metrics.csv").read_text()


def test_finetune_off_policy_regime_runs():
    task, split, classifier, policy = make_pipeline()
    cfg = RunConfig(regime="off", estimator="pg", decoder="top_p", normalize=False,
                    m=4, lr=1e-3, steps=2, batch_size=2, checkpoint_interval=2, seed=1)
    checkpoints = finetune_paraphraser(policy, classifier, task, split, cfg)
    assert len(checkpoints) == 1


def test_finetune_names_the_example_with_a_non_finite_gradient(monkeypatch):
    task, split, classifier, policy = make_pipeline()
    bad = {split.train[3].x: split.train[3].uid, split.train[6].x: split.train[6].uid}
    assert len(bad) == 2
    kernel, poisoned_uids = training.weighted_seq_grads, []

    def poisoned(params, inputs, rows, weights, transition):
        grads = kernel(params, inputs, rows, weights, transition)
        for row, x in zip(grads, unpad(inputs)):
            if x in bad:
                row[-len(poisoned_uids)] = np.inf if poisoned_uids else np.nan  # entry 0, then the last
                poisoned_uids.append(bad[x])
        return grads

    monkeypatch.setattr(training, "weighted_seq_grads", poisoned)
    # one batch holds every training example, so step 1 reaches both bad ones;
    # the first of them in batch order is named
    cfg = RunConfig(m=2, decoder="beam", steps=2, batch_size=len(split.train), checkpoint_interval=2)
    with pytest.raises(ValueError, match="non-finite gradient for example") as info:
        finetune_paraphraser(policy, classifier, task, split, cfg)
    assert len(poisoned_uids) == 2
    assert str(info.value) == f"non-finite gradient for example {poisoned_uids[0]} at step 1"


@pytest.mark.parametrize("regime,decoder", [("on", "top_p"), ("off", "beam")])
def test_finetune_backward_over_the_steps_table_equals_its_own_forward(monkeypatch, regime, decoder):
    task, split, classifier, policy = make_pipeline()
    kernel = training.weighted_seq_grads
    compared = []

    def both(params, inputs, rows, weights, transition):
        grads = kernel(params, inputs, rows, weights, transition)
        assert np.array_equal(grads, kernel(params, inputs, rows, weights))
        compared.append(len(grads))
        return grads

    monkeypatch.setattr(training, "weighted_seq_grads", both)
    cfg = RunConfig(regime=regime, decoder=decoder, m=3, steps=2, batch_size=4, checkpoint_interval=2, seed=2)
    finetune_paraphraser(policy, classifier, task, split, cfg)
    assert compared == [4, 4]


def finetune_reward_fn(monkeypatch, task, split, classifier, policy):
    """The batch reward call finetune_paraphraser hands its fine-tune steps."""
    calls = []

    def record(policy, fixed, batch, reward_fn, cfg, step):
        calls.append(reward_fn)
        return np.zeros(policy.flat.size), 0.0, 0

    with monkeypatch.context() as patch:
        patch.setattr(training, "_minibatch_gradient", record)
        cfg = RunConfig(m=2, decoder="beam", steps=1, batch_size=2, checkpoint_interval=1)
        finetune_paraphraser(policy, classifier, task, split, cfg)
    return calls[0]


def per_example_rewards(classifier, task, ex, zs):
    """clf.rewards of one example's rewrites, formatted one sequence at a time."""
    formatted = [format_input(task.template, task.template.instruction, strip_scaffold(z)) for z in zs]
    return clf.rewards(classifier, token_counts(classifier, formatted), ex.y, clf.Verbalizer(task.verbalizer_ids))


@pytest.mark.parametrize("mode", [clf.TuningMode.ALL, clf.TuningMode.LORA,
                                  clf.TuningMode.SOFT_PROMPT, clf.TuningMode.CLS_HEAD])
def test_minibatch_rewards_equal_per_example_rewards(monkeypatch, mode):
    task, split, _, policy = make_pipeline()
    classifier = tiny_classifier(seed=5, vocab=20, embed=8, prompt_len=3, mode=mode)
    gen = np.random.default_rng(2)
    for name in ("lora_b_q", "lora_b_v"):  # adapters that change the scores under LORA
        classifier.seg(name)[:] = gen.normal(0.0, 0.3, classifier.seg(name).shape)
    reward_fn = finetune_reward_fn(monkeypatch, task, split, classifier, policy)
    batch = list(split.train)
    cfg = RunConfig(m=6, decoder="mixed", seed=3)
    samples = [decode_one(policy, ex.x, "mixed", training.decode_config(cfg, ex.uid)) for ex in batch]
    got = training._sample_rewards(batch, pad([z for zs in samples for z in zs]), reward_fn, step=1)
    for ex, zs, rewards in zip(batch, samples, got):
        assert max_scaled_error(rewards, per_example_rewards(classifier, task, ex, zs)) <= 1e-12


def test_minibatch_rewards_score_every_rewrite_in_one_forward(monkeypatch):
    task, split, classifier, policy = make_pipeline()
    reward_fn = finetune_reward_fn(monkeypatch, task, split, classifier, policy)
    a, b = [ex for ex in split.train if ex.y == 0][:2]
    c = next(ex for ex in split.train if ex.y == 1)
    z1, z2, z3 = (TokenSeq.from_content(content) for content in ([4, 6], [5, 7, 9], [8]))
    samples = [[z1, z2, z1], [z2, z3, z3], [z1, z1, z3]]
    rows = []
    kernel = clf._MaskRowPass

    def counted(params, ids, *args):
        rows.append(len(ids))
        return kernel(params, ids, *args)

    monkeypatch.setattr(clf, "_MaskRowPass", counted)
    got = training._sample_rewards([a, b, c], pad([z for zs in samples for z in zs]), reward_fn, step=1)
    assert rows == [9]  # one forward, one row per rewrite, repeated ones included
    for ex, zs, rewards in zip([a, b, c], samples, got):
        assert max_scaled_error(rewards, per_example_rewards(classifier, task, ex, zs)) <= 1e-12
    assert got[0][0] == got[0][2] and got[0][1] == got[1][0]


@pytest.mark.parametrize("content, reason", [
    ([5] * 60, "formatted input of 67 tokens exceeds the 64 limit"),
    ([4, 25], "token id 25 out of range for vocabulary of size 20"),
])
def test_reward_errors_name_the_example_and_step(monkeypatch, content, reason):
    task, split, classifier, policy = make_pipeline()
    reward_fn = finetune_reward_fn(monkeypatch, task, split, classifier, policy)
    good, bad = split.train[0], split.train[5]
    samples = [TokenSeq.from_content([4, 6]), TokenSeq.from_content([7])] * 2
    samples[3] = TokenSeq.from_content(content)  # the second of the bad example's two rewrites
    with pytest.raises(ValueError, match=f"^rewrite of example {bad.uid} at step 2: {reason}$"):
        training._sample_rewards([good, bad], pad(samples), reward_fn, step=2)


@pytest.mark.parametrize("case, message", [
    ("nan", "non-finite log-probs or rewards"),
    ("no_mass", "degenerate batch: no posterior mass"),
    ("mass_off", "posterior coefficients must sum to 1"),
])
def test_coefficient_errors_name_the_example_and_step(monkeypatch, case, message):
    _, split, _, policy = make_pipeline()
    bad = next(ex for ex in split.train if ex.y == 1)
    batch = [ex for ex in split.train if ex.y == 0][:2] + [bad]
    # only the bad example (the one with label 1) gets this reward
    bad_reward = np.nan if case == "nan" else -1000.0

    def reward_fn(seqs, ys):
        return np.where(np.asarray(ys) == bad.y, bad_reward, -1.0)

    if case != "nan":
        shift = -np.inf if case == "no_mass" else 1.0
        exact = est.log_normalizers
        # the bad example's posterior weights are all below -500; nobody else's are
        monkeypatch.setattr(est, "log_normalizers", lambda w: exact(w) + np.where(w.max(axis=1) < -500, shift, 0.0))
    cfg = RunConfig(m=2, decoder="beam", normalize=False)
    anchor = training._anchor_tables(snapshot(policy), batch)
    with pytest.raises(ValueError, match=f"^example {bad.uid} at step 4: {message}$"):
        training._minibatch_gradient(policy, anchor, batch, reward_fn, cfg, step=4)


@pytest.mark.parametrize("estimator", training.ESTIMATORS)
@pytest.mark.parametrize("regime", training.REGIMES)
def test_example_gradient_equals_reference_assembly(estimator, regime):
    _, split, _, policy = make_pipeline()
    fixed = snapshot(policy)
    policy.flat[:] += np.random.default_rng(3).normal(0.0, 0.3, policy.flat.size)
    cfg = RunConfig(estimator=estimator, regime=regime, decoder="mixed", m=6, seed=4)
    reward_fn = table_reward(17)
    for ex in split.train[:3]:
        got, _, _ = training._minibatch_gradient(
            policy, training._anchor_tables(fixed, [ex]), [ex],
            lambda rows, _: [reward_fn(z) for z in unpad(rows)], cfg, step=2,
        )
        # the same samples, scored and differentiated one sequence at a time
        dc = training.decode_config(cfg, derive_seed(cfg.seed, 2, ex.uid))
        seqs = decode_one(fixed if regime == "off" else policy, ex.x, "mixed", dc)
        rewards = est.normalize_rewards([reward_fn(z) for z in seqs])
        cur = np.array([reference_seq_logprob(policy, ex.x, z) for z in seqs])
        fixed_lp = np.array([reference_seq_logprob(fixed, ex.x, z) for z in seqs])
        grads = [reference_seq_logprob_grad(policy, ex.x, z) for z in seqs]
        # the KL term comes from the reference assembly, not from the fold
        base_regime = "off" if regime == "off" else "on"
        phi, _ = est.coefficients(cur, fixed_lp, rewards, estimator, base_regime, 0.0)
        want = assemble_gradient(phi, grads)
        if regime == "klon":
            want = kl_penalized_gradient(cur, fixed_lp, grads, want, cfg.resolved_beta())
        assert max_scaled_error(got, want) < 1e-12


@pytest.mark.parametrize("decoder", training.DECODERS)
@pytest.mark.parametrize("estimator", training.ESTIMATORS)
@pytest.mark.parametrize("regime", training.REGIMES)
def test_minibatch_gradient_is_the_mean_of_per_example_references(estimator, regime, decoder):
    _, split, _, policy = make_pipeline()
    fixed = snapshot(policy)
    policy.flat[:] += np.random.default_rng(5).normal(0.0, 0.3, policy.flat.size)
    cfg = RunConfig(estimator=estimator, regime=regime, decoder=decoder, m=6, seed=8)
    reward_fn = table_reward(23)
    batch = list(split.train[:5])
    # the anchor rows the fine-tune loop gathers for this batch from its whole-split tables
    _, logits, tables = training._anchor_tables(fixed, split.train)
    got, got_reward, got_events = training._minibatch_gradient(
        policy, (fixed, logits[:5], tables[:5]), batch,
        lambda rows, _: [reward_fn(z) for z in unpad(rows)], cfg, step=3,
    )
    # one table, decode and backward per example, summed in batch order
    want, reward, events = np.zeros(policy.flat.size), 0.0, 0
    for ex in batch:
        grad, mean_reward, clamp_events = reference_example_gradient(
            policy, fixed, ex, lambda seqs: [reward_fn(z) for z in seqs], cfg, 3
        )
        want += grad
        reward += mean_reward
        events += clamp_events
    want /= len(batch)
    assert got.tobytes() == want.tobytes()
    assert got_reward == reward / len(batch) and got_events == events


def test_minibatch_gradient_sums_its_rows_from_positive_zero(monkeypatch):
    # an entry that is -0.0 in every row sums to +0.0, as a running sum from 0.0 does
    _, split, _, policy = make_pipeline()
    kernel, seen = training.weighted_seq_grads, []

    def signed_zero(*args):
        grads = kernel(*args)
        grads[:, 0] = -0.0
        seen.append(grads.copy())
        return grads

    monkeypatch.setattr(training, "weighted_seq_grads", signed_zero)
    batch, reward_fn = list(split.train[:3]), table_reward(23)
    got, _, _ = training._minibatch_gradient(
        policy, training._anchor_tables(snapshot(policy), batch), batch,
        lambda rows, _: [reward_fn(z) for z in unpad(rows)], RunConfig(m=2, decoder="beam"), step=1,
    )
    want = np.zeros(policy.flat.size)
    for row in seen[0]:
        want += row
    want /= len(batch)
    assert got.tobytes() == want.tobytes()
    assert got[0] == 0.0 and not np.signbit(got[0])


# Recorded from the per-token rewriter (one step_logits call per decoder step
# and per log-prob term, one backward per sample) before the transition-table
# kernel replaced it: per checkpoint, the mixed rewrites of two training inputs.
PINNED_REWRITES = [
    [(0,), (4, 0), (3, 16, 0), (11, 13, 9, 4, 1, 17, 4, 6, 0)],
    [(0,), (4, 0), (19, 15, 6, 16, 11, 13, 6, 19, 3, 0), (6, 17, 13, 4, 9, 2, 15, 12, 5, 0)],
    [(0,), (10, 0), (1, 2, 7, 0), (12, 12, 4, 10, 5, 4, 12, 15, 4, 0)],
    [(0,), (10, 0), (16, 6, 0), (13, 3, 10, 6, 4, 9, 0)],
    [(0,), (10, 0), (6, 10, 10, 0), (6, 6, 7, 10, 0)],
    [(0,), (10, 0), (15, 10, 11, 0), (8, 14, 10, 18, 13, 0)],
]
PINNED_ROWS = [
    (0, "validation", "ensemble_acc_excl", 0.5),
    (1, "train", "mean_reward", -0.7089221302321189),
    (2, "train", "mean_reward", -0.7089114697984837),
    (2, "validation", "ensemble_acc_excl", 0.5),
    (3, "train", "mean_reward", -0.714253142257235),
    (4, "train", "mean_reward", -0.7152082728791587),
    (4, "validation", "ensemble_acc_excl", 0.5),
    (5, "train", "mean_reward", -0.7905097865004991),
    (6, "train", "mean_reward", -0.6176963932123918),
    (6, "validation", "ensemble_acc_excl", 0.5),
]


def test_finetune_reproduces_pinned_run(tmp_path):
    task, split, classifier, policy = make_pipeline(seed=2)
    cfg = RunConfig(estimator="mml", regime="klon", decoder="mixed", m=4, lr=0.05, steps=6,
                    batch_size=4, checkpoint_interval=2, seed=11)
    checkpoints = finetune_paraphraser(policy, classifier, task, split, cfg, run_dir=str(tmp_path))
    rewrites = []
    for ck in checkpoints:
        for ex in split.train[:2]:
            dc = training.decode_config(cfg, derive_seed(cfg.seed, ck.step, ex.uid))
            rewrites.append([z.ids for z in decode_one(ck.params, ex.x, "mixed", dc)])
    assert rewrites == PINNED_REWRITES
    rows = read_metrics_csv(tmp_path / "metrics.csv")
    assert [(r["step"], r["split"], r["metric"]) for r in rows] == [r[:3] for r in PINNED_ROWS]
    for got, want in zip(rows, PINNED_ROWS):
        assert got["value"] == pytest.approx(want[3], rel=0, abs=1e-9)


# Recorded from the per-sequence classifier path (one forward and one backward
# per input and per rewrite, the loss from separate forwards, validation
# rewrites decoded at every checkpoint) before the batched label-path kernel.
PINNED_CLASSIFIER_ROWS = [
    (0, "validation", "ensemble_acc_incl", 0.5),
    (1, "train", "loss", 1.4403817422049154),
    (2, "train", "loss", 1.413447407009093),
    (2, "validation", "ensemble_acc_incl", 0.625),
    (3, "train", "loss", 1.1329291042877632),
    (4, "train", "loss", 2.144198359830126),
    (4, "validation", "ensemble_acc_incl", 0.5),
    (5, "train", "loss", 0.7763986005925749),
    (6, "train", "loss", 1.1368122736412771),
    (6, "validation", "ensemble_acc_incl", 0.5),
]


def test_lora_augmented_training_reproduces_pinned_run(tmp_path):
    task, split, _, policy = make_pipeline()
    classifier = tiny_classifier(seed=5, vocab=20, embed=8, mode=clf.TuningMode.LORA)
    cfg = RunConfig(m=2, lr=0.1, steps=6, batch_size=4, checkpoint_interval=2, seed=3)
    checkpoints = train_classifier_augmented(
        classifier, policy, task, split, m=2, mode=clf.TuningMode.LORA, cfg=cfg,
        run_dir=str(tmp_path),
    )
    # the adapters are live from the first checkpoint on, so the pin covers B != 0
    assert all(np.any(ck.params.seg("lora_b_q") != 0.0) for ck in checkpoints)
    rows = read_metrics_csv(tmp_path / "metrics.csv")
    assert [(r["step"], r["split"], r["metric"]) for r in rows] == [
        r[:3] for r in PINNED_CLASSIFIER_ROWS
    ]
    for got, want in zip(rows, PINNED_CLASSIFIER_ROWS):
        assert got["value"] == pytest.approx(want[3], rel=0, abs=1e-9)


# params_hash of each checkpoint's parameters, recorded before the augmented
# step called the kernel directly (when it scattered a full-length gradient
# through weighted_label_grad and gathered the trainable entries back out)
PINNED_AUGMENTED_HASHES = {
    "all": ["9b38ee4fd546bc4a", "4acb637edcaee0a7", "aeba4dcb41022b08"],
    "head": ["f7b1c4482faab15c", "276455a580f6247a", "be94f5f820524045"],
    "input": ["b41cd1b4d4bde1c1", "5b3331f342db6a47", "92f56fa0974b4477"],
    "cls_head": ["63a09e4d76760841", "e39666d32ec6b601", "045ca0dee44d409f"],
    "soft_prompt": ["eba9982c44aaac28", "8300d2052b52049e", "4bf88b4d16280238"],
    "lora": ["49678a777a2885b0", "1d0fd1a2bbc02c61", "5d251d2d06d4dceb"],
    "none": ["8970fc3209af7b5e", "8970fc3209af7b5e", "8970fc3209af7b5e"],
}


@pytest.mark.parametrize("mode", list(clf.TuningMode))
def test_augmented_training_reproduces_pinned_parameters_bitwise(mode):
    task, split, _, policy = make_pipeline()
    classifier = tiny_classifier(seed=5, vocab=20, embed=8, prompt_len=2, mode=mode)
    cfg = RunConfig(m=2, lr=0.05, steps=6, batch_size=4, checkpoint_interval=2, seed=3)
    checkpoints = train_classifier_augmented(classifier, policy, task, split, m=2, mode=mode, cfg=cfg)
    assert [params_hash(ck.params.flat) for ck in checkpoints] == PINNED_AUGMENTED_HASHES[mode.value]


def test_augmented_training_names_the_example_of_a_bad_label_before_step_1(monkeypatch):
    task, split, classifier, policy = make_pipeline()
    bad = replace(split.train[2], y=2)
    split = replace(split, train=(*split.train[:2], bad, *split.train[3:]))
    monkeypatch.setattr(clf, "_kernel", lambda *args: pytest.fail("a step ran"))
    cfg = RunConfig(m=2, steps=2, batch_size=2, checkpoint_interval=1)
    with pytest.raises(ValueError, match=f"^example {bad.uid}: label 2 out of range$"):
        train_classifier_augmented(classifier, policy, task, split, m=2, mode=clf.TuningMode.ALL, cfg=cfg)


def test_augmented_m0_equals_plain_supervised_gradient():
    task, split, classifier, _ = make_pipeline()
    verb = clf.Verbalizer(task.verbalizer_ids)
    inputs = [format_input(task.template, task.template.instruction, ex.x) for ex in split.train]
    ys = [ex.y for ex in split.train]
    b = len(inputs)
    # at m = 0 a step's call holds only the inputs, each weighted 1/B
    counts = token_counts(classifier, inputs)
    _, aug = clf.weighted_label_grad(classifier, counts, ys, [1.0 / b] * b, verb, clf.TuningMode.ALL)
    plain = sum(
        clf.weighted_label_grad(classifier, token_counts(classifier, [s]), [y], [1.0], verb, clf.TuningMode.ALL)[1]
        for s, y in zip(inputs, ys)
    )
    assert np.allclose(aug, plain / b, atol=1e-12)


def test_augmented_rewrites_equal_to_input_double_loss():
    task, split, classifier, _ = make_pipeline()
    verb = clf.Verbalizer(task.verbalizer_ids)
    ex = split.train[0]
    # one example's step loss: the input at weight 1, its m rewrites at 1/m
    group = [format_input(task.template, task.template.instruction, ex.x)] * 3
    mode = clf.TuningMode.ALL
    counts = token_counts(classifier, group)
    plain = -clf.weighted_label_grad(classifier, counts[:1], [ex.y], [1.0], verb, mode)[0]
    doubled = -clf.weighted_label_grad(classifier, counts, [ex.y] * 3, [1.0, 0.5, 0.5], verb, mode)[0]
    assert doubled == pytest.approx(2 * plain, abs=1e-12)


def test_augmented_two_rewrite_hand_arithmetic():
    task, split, classifier, _ = make_pipeline()
    verb = clf.Verbalizer(task.verbalizer_ids)
    ex = split.train[1]
    z1 = TokenSeq.from_content([4, 7, 5])
    z2 = TokenSeq.from_content([6, 6])
    def lp(seq):
        formatted = format_input(task.template, task.template.instruction, seq)
        return float(clf.label_logprobs_batch(classifier, token_counts(classifier, [formatted]), verb)[0][ex.y])
    expected = -(lp(ex.x) + 0.5 * (lp(z1) + lp(z2)))
    group = [format_input(task.template, task.template.instruction, z) for z in (ex.x, z1, z2)]
    counts = token_counts(classifier, group)
    value, _ = clf.weighted_label_grad(classifier, counts, [ex.y] * 3, [1.0, 0.5, 0.5], verb, clf.TuningMode.ALL)
    assert -value == pytest.approx(expected, abs=1e-12)


def one_group(template, ex, zs) -> list[TokenSeq]:
    """The formatted rows of one example's group: its input, then its
    rewrites `zs` stripped of scaffold ids."""
    return [format_input(template, template.instruction, strip_scaffold(z)) for z in (ex.x, *zs)]


def test_ensemble_predict_worked_case():
    # rows: the input x, then its rewrites z1 and z2
    scores = np.array([[-0.2, -1.7], [-1.6, -0.2], [-1.4, -0.3]])
    combined = combine_group(scores, include_original=True)
    assert np.allclose(combined, [-1.7, -1.95], atol=1e-12)
    assert int(np.argmax(combined)) == 0


def test_ensemble_identical_rewrites_match_plain_argmax():
    task, split, classifier, _ = make_pipeline()
    verb = clf.Verbalizer(task.verbalizer_ids)
    ex = split.train[0]
    counts = token_counts(classifier, one_group(task.template, ex, [ex.x] * 3))
    scores = clf.label_logprobs_batch(classifier, counts, verb)
    plain = int(np.argmax(scores[0]))
    assert int(np.argmax(combine_group(scores, include_original=True))) == plain


def test_ensemble_single_rewrite_exclusion_is_plain_on_rewrite():
    task, split, classifier, _ = make_pipeline()
    verb = clf.Verbalizer(task.verbalizer_ids)
    z = TokenSeq.from_content([4, 6])
    group = one_group(task.template, split.train[0], [z])
    scores = clf.label_logprobs_batch(classifier, token_counts(classifier, group), verb)
    formatted = format_input(task.template, task.template.instruction, z)
    alone = clf.label_logprobs_batch(classifier, token_counts(classifier, [formatted]), verb)[0]
    assert int(np.argmax(combine_group(scores, include_original=False))) == int(np.argmax(alone))


def test_ensemble_tie_breaks_to_lower_label():
    assert int(np.argmax(combine_group([[-1.0, -1.0]], include_original=True))) == 0


def test_ensemble_exclusion_without_rewrites_errors():
    with pytest.raises(ValueError, match="rewrite"):
        combine_group(np.zeros((1, 2)), include_original=False)


def padded_to(group: Padded, width: int) -> Padded:
    extra = ((0, 0), (0, width - group.ids.shape[1]))
    return Padded(np.pad(group.ids, extra), np.pad(group.valid, extra))


def test_combine_group_of_a_stack_equals_each_group_alone_bitwise():
    gen = np.random.default_rng(4)
    for rows in (1, 2, 5, 9, 17):
        stack = gen.normal(-1.0, 1.0, (6, rows, 3)) * 10.0 ** gen.integers(-3, 3, (6, 1, 1))
        for include_original in (True, False)[: 1 + (rows > 1)]:
            got = combine_group(stack, include_original)
            want = [combine_group(group, include_original) for group in stack]
            assert got.shape == (6, 3) and all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("mode", list(clf.TuningMode))
def test_ensemble_accuracies_score_all_rows_in_one_call(monkeypatch, mode):
    task = small_task()
    split = fewshot_split(task.train, 8, seed=0)
    gen = np.random.default_rng(1)
    # rewrites of 1..24 content ids give padded widths on both sides of 24
    rewrites = [
        [TokenSeq.from_content(gen.integers(4, 20, size=gen.integers(1, 25))) for _ in range(4)]
        for _ in split.validation
    ]
    counts = training.group_counts(task.template, 20, split.validation, pad([z for zs in rewrites for z in zs]))
    classifier = tiny_classifier(seed=5, vocab=20, embed=8, prompt_len=3, mode=mode)
    gen = np.random.default_rng(2)
    for name in ("lora_b_q", "lora_b_v"):  # adapters that change the scores under LORA
        classifier.seg(name)[:] = gen.normal(0.0, 0.3, classifier.seg(name).shape)
    verb = clf.Verbalizer(task.verbalizer_ids)
    # each group scored alone: pad() of its own formatted rows
    own = [pad(one_group(task.template, ex, zs)) for ex, zs in zip(split.validation, rewrites)]
    alone = [clf.label_logprobs_batch(classifier, token_counts(classifier, g), verb) for g in own]
    widths = [g.ids.shape[1] for g in own]
    assert len(set(widths)) > 1
    # a row's scores depend on its token counts, not on its padding
    for g, scores in zip(own, alone):
        for width in (max(widths), max(widths) + 7):
            wide = token_counts(classifier, padded_to(g, width))
            assert np.array_equal(clf.label_logprobs_batch(classifier, wide, verb), scores)

    calls, seen = [], []
    kernel, combine = clf.label_logprobs_batch, training.combine_group

    def counted(params, counts, verbalizer):
        calls.append(counts.shape)
        return kernel(params, counts, verbalizer)

    def recorded(scores, include_original):
        seen.append((scores.copy(), include_original))
        return combine(scores, include_original)

    monkeypatch.setattr(clf, "label_logprobs_batch", counted)
    monkeypatch.setattr(training, "combine_group", recorded)
    incl, excl = training.ensemble_accuracies(classifier, verb, split.validation, counts)
    assert calls == [(len(split.validation) * 5, classifier.cfg.vocab_size)]  # every row of every group
    assert [inc for _, inc in seen] == [True, False]  # one combine over all groups per accuracy
    assert all(max_scaled_error(scores, np.stack(alone)) <= 1e-12 for scores, _ in seen)
    want = [
        np.mean([int(np.argmax(combine(s, inc))) == ex.y for ex, s in zip(split.validation, alone)])
        for inc in (True, False)
    ]
    assert (incl, excl) == tuple(want)


def test_ensemble_accuracies_reject_a_count_mismatch():
    task, split, classifier, _ = make_pipeline()
    verb = clf.Verbalizer(task.verbalizer_ids)
    examples = split.validation[:3]
    counts = training.group_counts(task.template, 20, examples, pad([ex.x for ex in examples for _ in range(2)]))
    with pytest.raises(ValueError, match="^2 examples for 3 example groups$"):
        training.ensemble_accuracies(classifier, verb, examples[:2], counts)


@pytest.mark.parametrize("row, what", [(0, "input"), (2, "rewrite 2")])
def test_ensemble_accuracies_name_the_example_and_row_of_a_bad_token(row, what):
    task, split, classifier, _ = make_pipeline()
    verb = clf.Verbalizer(task.verbalizer_ids)
    long = TokenSeq.from_content([4] * 16)
    good, bad = split.validation[:2]
    rows = [bad.x, long, TokenSeq.from_content([4, 6])]
    rows[row] = TokenSeq.from_content([4, 25])
    bad = Example(bad.uid, rows[0], bad.y)
    reason = "token id 25 out of range for vocabulary of size 20"
    with pytest.raises(ValueError, match=f"^{what} of example {bad.uid}: {reason}$"):
        # the rows are checked as they are counted, before any is scored
        counts = training.group_counts(task.template, 20, [good, bad], pad([long, long, *rows[1:]]))
        training.ensemble_accuracies(classifier, verb, [good, bad], counts)


def plant_rewrite(monkeypatch, uid: int, j: int, z: TokenSeq) -> None:
    """Make decode_rewrites return z as rewrite j (from 1) of example uid."""
    decode = training.decode_rewrites

    def planted(policy, examples, m, cfg):
        rewrites = unpad(decode(policy, examples, m, cfg))
        for k, ex in enumerate(examples):
            if ex.uid == uid:
                rewrites[k * m + j - 1] = z
        return pad(rewrites)

    monkeypatch.setattr(training, "decode_rewrites", planted)


def test_augmented_step_names_the_example_row_and_step_of_a_bad_token(monkeypatch, tmp_path):
    task, split, classifier, policy = make_pipeline()
    bad = split.train[3]
    plant_rewrite(monkeypatch, bad.uid, 2, TokenSeq.from_content([4, 25]))
    cfg = RunConfig(m=2, steps=2, batch_size=2, checkpoint_interval=1)
    reason = "token id 25 out of range for vocabulary of size 20"
    # every row is counted, and checked, before the first step, whichever batch holds it
    with pytest.raises(ValueError, match=f"^rewrite 2 of example {bad.uid}: {reason}$"):
        train_classifier_augmented(
            classifier, policy, task, split, m=2, mode=clf.TuningMode.HEAD, cfg=cfg, run_dir=str(tmp_path)
        )
    assert list(tmp_path.iterdir()) == []  # no checkpoint and no metrics.csv


def test_augmented_steps_hand_the_kernel_exactly_the_count_rows_of_their_groups(monkeypatch):
    task, split, classifier, policy = make_pipeline()
    cfg = RunConfig(m=2, steps=8, batch_size=3, checkpoint_interval=8, seed=4)
    zs = unpad(training.decode_rewrites(policy, split.train, 2, cfg))
    own = [token_counts(classifier, one_group(task.template, ex, zs[2 * k : 2 * k + 2]))
           for k, ex in enumerate(split.train)]
    kernel, batches = clf._kernel, []

    def recorded(params, rows, ys, weights, verbalizer, mode):
        # each block of 3 rows is one example's group, counted once before the first step
        for k in range(len(ys) // 3):
            match = [i for i, ex in enumerate(split.train) if ex.y == ys[3 * k]
                     and np.array_equal(own[i], rows[3 * k : 3 * k + 3])]
            assert match
        batches.append(len(ys) // 3)
        return kernel(params, rows, ys, weights, verbalizer, mode)

    monkeypatch.setattr(clf, "_kernel", recorded)
    train_classifier_augmented(classifier, policy, task, split, m=2, mode=clf.TuningMode.HEAD, cfg=cfg)
    assert len(batches) == 8 and set(batches) <= {1, 2, 3}


def test_training_never_imports_numpy_ma():
    # numpy.ma costs about 1.6 MB of resident memory; np.unique without return_index imports it
    script = """if True:
        import sys
        from riff import classifier as clf, data, training
        from riff.policy import PolicyConfig, PolicyParams
        task = data.gen_synthetic_task(20, 2, 64, 0, seed=0)
        split = training.fewshot_split(task.train, 4, seed=0)
        cfg = clf.ClassifierConfig(vocab_size=20, num_labels=2, embed_dim=8, lora_rank=2)
        classifier = clf.ClassifierParams.init_random(cfg, clf.TuningMode.LORA, seed=5)
        policy = PolicyParams.init_random(PolicyConfig(20, embed_dim=6, hidden_dim=8, max_len=10), seed=7)
        run = training.RunConfig(m=4, steps=2, batch_size=4, checkpoint_interval=2)
        training.finetune_paraphraser(policy, classifier, task, split, run)
        training.train_classifier_augmented(classifier, policy, task, split, 4, clf.TuningMode.LORA, run)
        print("numpy.ma" in sys.modules)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_select_best_checkpoint_rules():
    cks = [
        Checkpoint(8, None, None, {"acc": 0.5}),
        Checkpoint(16, None, None, {"acc": 0.75}),
        Checkpoint(24, None, None, {"acc": 0.75}),
    ]
    assert select_best_checkpoint(cks, "acc").step == 16  # tie -> earliest
    assert select_best_checkpoint(cks[:1], "acc").step == 8
    increasing = [Checkpoint(s, None, None, {"acc": s / 100}) for s in (8, 16, 24)]
    assert select_best_checkpoint(increasing, "acc").step == 24
    with pytest.raises(ValueError):
        select_best_checkpoint([], "acc")


def test_select_best_matches_csv_recomputation(tmp_path):
    task, split, classifier, policy = make_pipeline()
    cfg = RunConfig(m=4, lr=2e-3, steps=6, batch_size=4, checkpoint_interval=2, seed=5)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    checkpoints = finetune_paraphraser(policy, classifier, task, split, cfg, run_dir=str(run_dir))
    best = select_best_checkpoint(checkpoints, training.METRIC_EXCL)
    rows = read_metrics_csv(run_dir / "metrics.csv")
    column = [r["value"] for r in rows if r["metric"] == training.METRIC_EXCL and r["step"] > 0]
    assert best.metrics[training.METRIC_EXCL] == max(column)


def test_paraphrase_cache_hit_and_miss():
    task, split, _, policy = make_pipeline()
    cfg = RunConfig(m=2, seed=0)
    cache = generate_paraphrase_cache(policy, split.train, 2, cfg, cache_seed=1)
    from riff.checkpoint import params_hash

    # keyed by (policy hash, example uid); nothing else is in it
    key = params_hash(policy.flat)
    assert set(cache) == {(key, ex.uid) for ex in split.train}
    assert all(len(zs) == 2 for zs in cache.values())
    assert (key, 10_000) not in cache and ("someotherpolicy", split.train[0].uid) not in cache


def test_decode_rewrites_rows_equal_each_inputs_reference_beam():
    _, split, _, policy = make_pipeline()
    examples = [*split.train, *split.validation]
    cfg = RunConfig(seed=2)
    want = [
        [z.ids for z in reference_diverse_beam(policy, ex.x, training.decode_config(replace(cfg, m=3), 0))]
        for ex in examples
    ]
    # one batched beam over however many inputs: an input's rows do not depend on the batch
    for count in (1, 3, len(examples)):
        got = training.decode_rewrites(policy, examples[:count], 3, cfg)
        assert rewrite_ids(got, 3) == want[:count]


def random_rewrites(gen, examples, m: int) -> Padded:
    """m rewrites per example of 1..24 ids, scaffold ids among them, input-major."""
    return pad([TokenSeq.from_content(gen.integers(1, 20, size=gen.integers(1, 25)))
                for _ in range(m * len(examples))])


def test_format_groups_cut_at_a_groups_widest_row_equal_its_own_format_rewrites_bitwise():
    # groups of different widths share one padded batch: each group's counts
    # must equal those of that group alone, and of its own formatted rows
    task = small_task()
    split = fewshot_split(task.train, 8, seed=0)
    rewrites = random_rewrites(np.random.default_rng(3), split.validation, 4)
    zs = unpad(rewrites)
    widths = [max(len(z.content) for z in (ex.x, *zs[4 * k : 4 * k + 4])) for k, ex in enumerate(split.validation)]
    assert len(set(widths)) > 1
    counts = training.group_counts(task.template, 20, split.validation, rewrites)
    assert counts.shape == (len(split.validation), 5, 20)
    for k, ex in enumerate(split.validation):
        alone = training.group_counts(task.template, 20, [ex], pad(zs[4 * k : 4 * k + 4]))
        want = token_counts(tiny_classifier(vocab=20), one_group(task.template, ex, zs[4 * k : 4 * k + 4]))
        assert np.array_equal(counts[k], alone[0]) and np.array_equal(counts[k], want)


@pytest.mark.parametrize("m", [0, 3])
def test_augmented_rows_equal_the_formatted_inputs_and_stripped_rewrites(m):
    task, split, _, _ = make_pipeline()
    gen = np.random.default_rng(m)
    rewrites = random_rewrites(gen, split.train, m) if m else None
    zs = unpad(rewrites) if m else []
    assert not m or any(t < FIRST_CONTENT_ID for z in zs for t in z.content)  # some scaffold ids to strip
    # the rows the augmented step reads: each input, then its rewrites stripped of scaffold
    want = [z for k, ex in enumerate(split.train) for z in one_group(task.template, ex, zs[m * k : m * k + m])]
    counts = training.group_counts(task.template, 20, split.train, rewrites)
    assert counts.shape[:2] == (len(split.train), m + 1)
    assert np.array_equal(counts.reshape(len(want), -1), token_counts(tiny_classifier(vocab=20), want))


LONG = TokenSeq.from_content([5] * 60)  # 67 formatted tokens, over the template's 64


@pytest.mark.parametrize("row, what", [(0, "input"), (2, "rewrite 2")])
def test_group_counts_name_the_example_and_row_of_an_over_long_row(row, what):
    task, split, _, _ = make_pipeline()
    good, bad = split.validation[:2]
    rows = [bad.x, TokenSeq.from_content([4]), TokenSeq.from_content([4, 6])]
    rows[row] = LONG
    bad = Example(bad.uid, rows[0], bad.y)
    reason = "formatted input of 67 tokens exceeds the 64 limit"
    with pytest.raises(ValueError, match=f"^{what} of example {bad.uid}: {reason}$"):
        training.group_counts(task.template, 20, [good, bad], pad([good.x, good.x, *rows[1:]]))


@pytest.mark.parametrize("row, what", [(0, "input"), (2, "rewrite 2")])
def test_augmented_training_names_the_example_and_row_of_an_over_long_row(monkeypatch, row, what):
    task, split, classifier, policy = make_pipeline()
    bad = split.train[3]
    if row:
        plant_rewrite(monkeypatch, bad.uid, row, LONG)
    else:
        bad = Example(bad.uid, LONG, bad.y)
        split = replace(split, train=(*split.train[:3], bad, *split.train[4:]))
    cfg = RunConfig(m=2, steps=2, checkpoint_interval=2)
    reason = "formatted input of 67 tokens exceeds the 64 limit"
    with pytest.raises(ValueError, match=f"^{what} of example {bad.uid}: {reason}$"):
        train_classifier_augmented(classifier, policy, task, split, m=2, mode=clf.TuningMode.HEAD, cfg=cfg)


def test_train_classifier_augmented_smoke_and_cadence(tmp_path):
    task, split, classifier, policy = make_pipeline()
    cfg = RunConfig(m=2, lr=0.01, steps=4, batch_size=4, checkpoint_interval=2, seed=0)
    checkpoints = train_classifier_augmented(
        classifier, policy, task, split, m=2, mode=clf.TuningMode.HEAD, cfg=cfg,
        run_dir=str(tmp_path),
    )
    assert [ck.step for ck in checkpoints] == [2, 4]
    rows = read_metrics_csv(tmp_path / "metrics.csv")
    assert any(r["metric"] == training.METRIC_INCL for r in rows)
    # head-mode training must not touch other segments
    for ck in checkpoints:
        same = ck.params.flat == classifier.flat
        mask = clf.trainable_mask(classifier, clf.TuningMode.HEAD)
        assert np.all(same[~mask])


def test_train_classifier_augmented_requires_policy_when_m_positive():
    task, split, classifier, _ = make_pipeline()
    cfg = RunConfig(m=2, steps=2, checkpoint_interval=2)
    with pytest.raises(ValueError, match="rewriter"):
        train_classifier_augmented(classifier, None, task, split, m=2, mode=clf.TuningMode.HEAD, cfg=cfg)


def test_metrics_csv_roundtrip(tmp_path):
    rows = [(0, "validation", "acc", 0.5), (8, "train", "loss", 1.25)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rows)
    back = read_metrics_csv(path)
    assert back[0] == {"step": 0, "split": "validation", "metric": "acc", "value": 0.5}
    assert back[1]["value"] == 1.25


def test_metrics_csv_interrupted_write_keeps_old_file(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [(0, "validation", "acc", 0.5)])
    first = path.read_text()
    rows = [(0, "validation", "acc", 0.75)] * 2000 + [(1, "validation", "acc", "not a number")]
    with pytest.raises(ValueError):
        write_metrics_csv(path, rows)
    assert path.read_text() == first
    assert sorted(f.name for f in tmp_path.iterdir()) == ["metrics.csv"]


def test_derive_seed_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
