"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured numbers. Tolerances are pinned here, not configurable."""

import json
import time

import numpy as np
import pytest
from scipy import stats

from conftest import (
    decode_one,
    exact_objective,
    format_input,
    greedy_path,
    reference_context,
    reference_label_grad,
    softmax,
    step_logits,
    tiny_classifier,
    tiny_policy,
    token_counts,
)
from riff import classifier as clf
from riff import cli, data, oracle, training
from riff.classifier import TuningMode, Verbalizer
from riff.decoding import DecodeConfig, diverse_beam, top_p_batch
from riff.estimators import coefficients, normalize_rewards
from riff.numerics import finite_diff_grad, max_relative_error
from riff.policy import (
    PolicyConfig,
    PolicyParams,
    TokenSeq,
    path_logprobs,
    pretrain_mle,
    step_cells,
    transition_forward,
    unpad,
)
from riff.promptsearch import Instruction, gs_step, minibatch_loglik
from riff.training import RunConfig, fewshot_split
from riff.vocab import BOS, EOS, MASK


def masked_reward_fn(classifier, verbalizer, y):
    """Reward for raw rewrites at oracle scale: drop any mask ids from the
    content, then score with a single mask appended."""
    path = clf.LabelPath(classifier, verbalizer)

    def reward_fn(z: TokenSeq) -> float:
        content = tuple(t for t in z.content if t != MASK)
        counts = token_counts(classifier, [TokenSeq(content + (MASK, EOS))])
        return float(path.rewards(counts, y)[0])

    return reward_fn


def random_anchor_instance(gen, trial):
    vocab = int(gen.integers(3, 5))
    max_len = int(gen.integers(3, 5))
    pcfg = PolicyConfig(vocab_size=vocab, embed_dim=4, hidden_dim=5, max_len=max_len)
    policy = PolicyParams.init_random(pcfg, seed=trial, scale=0.6)
    x = TokenSeq.from_content([int(gen.integers(1, vocab)) for _ in range(2)])
    ccfg = clf.ClassifierConfig(
        vocab_size=vocab, num_labels=2, embed_dim=4, lora_rank=1, cls_hidden=4
    )
    classifier = clf.ClassifierParams.init_random(ccfg, TuningMode.NONE, seed=trial + 1, scale=0.5)
    verbalizer = Verbalizer((1, vocab - 1)) if vocab - 1 != 1 else Verbalizer((1, 0))
    reward_fn = masked_reward_fn(classifier, verbalizer, int(gen.integers(2)))
    # rewards do not depend on policy parameters; memoize per sequence
    cache = {}

    def cached_reward(z):
        if z.ids not in cache:
            cache[z.ids] = reward_fn(z)
        return cache[z.ids]

    return policy, x, cached_reward, max_len


def test_criterion_1_gradient_anchor():
    start = time.monotonic()
    gen = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(20):
        policy, x, reward_fn, max_len = random_anchor_instance(gen, trial)
        analytic = oracle.exact_gradient(policy, x, reward_fn, max_len)

        def objective(flat):
            probe = PolicyParams(policy.cfg)
            probe.pv.values[:] = flat
            return exact_objective(probe, x, reward_fn, max_len)

        fd = finite_diff_grad(objective, policy.flat, h=1e-5)
        worst = max(worst, max_relative_error(analytic, fd, floor=1e-8))
    elapsed = time.monotonic() - start
    assert worst < 1e-3
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: gradient anchor, 20 instances, "
        f"max rel err {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_2_kl_anchor():
    gen = np.random.default_rng(2002)
    worst = 0.0
    for trial in range(6):
        policy, x, reward_fn, max_len = random_anchor_instance(gen, 100 + trial)
        fixed = PolicyParams.init_random(policy.cfg, seed=500 + trial, scale=0.6)
        for beta in (0.1, 0.6):
            analytic = oracle.exact_kl_gradient(policy, fixed, x, reward_fn, beta, max_len)

            def objective(flat, beta=beta):
                probe = PolicyParams(policy.cfg)
                probe.pv.values[:] = flat
                return oracle.exact_kl_objective(probe, fixed, x, reward_fn, beta, max_len)

            fd = finite_diff_grad(objective, policy.flat, h=1e-5)
            worst = max(worst, max_relative_error(analytic, fd, floor=1e-8))
        plain = oracle.exact_gradient(policy, x, reward_fn, max_len)
        assert np.array_equal(
            oracle.exact_kl_gradient(policy, fixed, x, reward_fn, 0.0, max_len), plain
        )
    assert worst < 1e-3
    print(f"\nACCEPTANCE 2 PASS: KL-penalized anchor at beta 0.1/0.6, max rel err {worst:.2e}")


def test_criterion_3_coefficient_algebra():
    start = time.monotonic()
    gen = np.random.default_rng(3003)
    for _ in range(1000):
        m = int(gen.integers(1, 10))
        cur = -4.0 * gen.random(m)
        rewards = -3.0 * gen.random(m)
        phi, _ = coefficients(cur, None, rewards, "mml", "on", 0.0)
        assert abs(phi.sum() - 1.0) < 1e-9
        shifted, _ = coefficients(cur, None, rewards + 2.3, "mml", "on", 0.0)
        assert int(np.argmax(phi)) == int(np.argmax(shifted))
        lam = float(gen.normal())
        pg, _ = coefficients(cur, None, rewards, "pg", "on", 0.0)
        pg_scaled, _ = coefficients(cur, None, lam * rewards, "pg", "on", 0.0)
        assert np.allclose(pg_scaled, lam * pg, atol=1e-12)
        mml_off, _ = coefficients(cur, cur.copy(), rewards, "mml", "off", 0.0)
        pg_off, _ = coefficients(cur, cur.copy(), rewards, "pg", "off", 0.0)
        assert np.allclose(mml_off, softmax(rewards), atol=1e-12)
        assert np.allclose(pg_off, rewards, atol=1e-12)
        normalized = normalize_rewards(rewards)
        if np.all(rewards == rewards[0]):
            assert np.all(normalized == 0.0)
        else:
            assert abs(normalized.mean()) < 1e-12
            assert abs(np.sqrt(np.mean(normalized**2)) - 1.0) < 1e-12
        constant = normalize_rewards(np.full(m, rewards[0]))
        assert np.all(constant == 0.0)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: coefficient algebra over 1000 batches, {elapsed:.1f}s")


def test_criterion_4_decoder_contracts():
    gen = np.random.default_rng(4004)
    for trial in range(50):
        vocab = int(gen.integers(3, 5))
        max_len = int(gen.integers(3, 5))
        policy = tiny_policy(seed=4000 + trial, vocab=vocab, max_len=max_len)
        x = TokenSeq.from_content([int(gen.integers(1, vocab))])
        cfg = DecodeConfig(m=1, diversity_penalty=0.0, repetition_penalty=1.0, seed=trial)
        assert diverse_beam(policy, x, cfg)[0].ids == greedy_path(policy, x).ids

    policy = tiny_policy(seed=4100, vocab=3, max_len=2)
    x = TokenSeq.from_content([1])
    cfg = DecodeConfig(m=10_000, top_p=1.0, seed=44)
    firsts = [z.ids[0] for z in decode_one(policy, x, "top_p", cfg)]
    counts = np.array([firsts.count(t) for t in range(3)])
    probs = softmax(step_logits(policy, reference_context(policy, x), BOS))
    pvalue = stats.chisquare(counts, f_exp=probs * len(firsts)).pvalue
    assert pvalue > 0.01

    policy = tiny_policy(seed=4200, vocab=4, max_len=5)
    cfg = DecodeConfig(m=4, seed=17)
    assert [z.ids for z in diverse_beam(policy, x, cfg)] == [
        z.ids for z in diverse_beam(policy, x, cfg)
    ]
    tables = transition_forward(policy, [x]).table
    first, again = (top_p_batch(policy, tables, [cfg.seed], cfg) for _ in range(2))
    assert [(z.ids, lp) for z, lp in zip(unpad(first), path_logprobs(tables, step_cells(first, 1, 4)).tolist())] == [
        (z.ids, lp) for z, lp in zip(unpad(again), path_logprobs(tables, step_cells(again, 1, 4)).tolist())
    ]
    assert [z.ids for z in decode_one(policy, x, "mixed", cfg)] == [
        z.ids for z in decode_one(policy, x, "mixed", cfg)
    ]
    print(
        f"\nACCEPTANCE 4 PASS: 50 greedy reductions, chi-square p={pvalue:.3f}, "
        "decoders bitwise deterministic"
    )


def test_criterion_5_tuning_masks_and_search():
    gen = np.random.default_rng(5005)
    verb = Verbalizer((4, 6))
    modes = [m for m in TuningMode if m is not TuningMode.NONE]
    assert len(modes) == 6
    for mode in modes:
        prompt_len = 2 if mode is TuningMode.SOFT_PROMPT else 0
        for _ in range(100):
            params = tiny_classifier(
                seed=int(gen.integers(1_000_000)), vocab=10, embed=4,
                prompt_len=prompt_len, mode=mode,
            )
            if mode is TuningMode.LORA:
                params.seg("lora_b_q")[:] = gen.normal(0, 0.1, params.seg("lora_b_q").shape)
                params.seg("lora_b_v")[:] = gen.normal(0, 0.1, params.seg("lora_b_v").shape)
            content = [int(gen.integers(4, 10)) for _ in range(3)]
            inp = TokenSeq(tuple(content) + (MASK, EOS))
            counts = token_counts(params, [inp])
            grad = clf.weighted_label_grad(params, counts, [int(gen.integers(2))], [1.0], verb)[1]
            outside = ~clf.trainable_mask(params, mode)
            assert np.all(grad[outside] == 0.0)

    lora_params = tiny_classifier(seed=55, vocab=10, embed=4, mode=TuningMode.LORA)
    inp = TokenSeq((4, 7, MASK, EOS))
    assert np.array_equal(
        clf.label_logprobs_batch(lora_params, token_counts(lora_params, [inp]), verb, TuningMode.LORA)[0],
        clf.label_logprobs_batch(lora_params, token_counts(lora_params, [inp]), verb, TuningMode.NONE)[0],
    )

    task = data.gen_synthetic_task(20, 2, 64, 0, seed=5)
    split = fewshot_split(task.train, 8, seed=5)
    searcher = tiny_classifier(seed=56, vocab=20, embed=8, mode=TuningMode.NONE)
    verb_task = Verbalizer(task.verbalizer_ids)
    instruction = Instruction(task.template.instruction)
    rng = np.random.default_rng(57)
    order = np.random.default_rng(58)
    for step in range(500):
        idx = order.choice(len(split.train), size=2, replace=False)
        minibatch = [split.train[i] for i in idx]
        before = minibatch_loglik(searcher, task.template, instruction, minibatch, verb_task)
        instruction = gs_step(searcher, task.template, instruction, minibatch, verb_task, 4, rng)
        after = minibatch_loglik(searcher, task.template, instruction, minibatch, verb_task)
        assert after >= before - 1e-12
    print(
        "\nACCEPTANCE 5 PASS: 6 modes x 100 exact masks, adapter identity at init, "
        "500 monotone search steps"
    )


def test_criterion_6_protocol_arithmetic(tmp_path):
    config = cli.load_config(
        {"shots": 128, "task_pool": 512, "steps": 1120, "batch_size": 8,
         "checkpoint_interval": 8}
    )
    task = cli.build_task(config)
    split = cli.build_split(config, task)
    assert len(split.train) == 256
    run_dir = tmp_path / "protocol" / "0"
    cli.write_manifest(str(run_dir), config, training.protocol_plan(config, len(split.train)), {}, time.perf_counter())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["protocol"]["steps_per_epoch"] == 32
    assert manifest["protocol"]["epochs"] == 35
    assert manifest["protocol"]["num_checkpoints"] == 140
    print("\nACCEPTANCE 6 PASS: 256 examples / batch 8 / 1120 steps -> 35 epochs, 140 checkpoints")


def test_criterion_7_end_to_end_directional():
    start = time.monotonic()
    results = []
    for seed in range(5):
        task = data.gen_synthetic_task(20, 2, 128, 64, seed=0)
        split = fewshot_split(task.train, 16, seed=seed)
        ccfg = clf.ClassifierConfig(vocab_size=20, num_labels=2, embed_dim=16)
        cparams = clf.ClassifierParams.init_random(ccfg, TuningMode.ALL, seed=59 + seed)
        warm_cfg = RunConfig(steps=200, lr=0.01, batch_size=8, checkpoint_interval=200, seed=seed)
        warm = training.train_classifier_augmented(
            cparams, None, task, split, m=0, mode=TuningMode.ALL, cfg=warm_cfg
        )
        classifier = warm[-1].params.copy()
        pool = data.gen_synthetic_task(20, 2, 128, 0, seed=7919)
        corpus = data.gen_rewriter_corpus(pool.train, 2, seed=104729)
        pcfg = PolicyConfig(vocab_size=20, embed_dim=12, hidden_dim=24, max_len=24)
        init = PolicyParams.init_random(pcfg, seed=31 + seed)
        policy = pretrain_mle(init, corpus, epochs=20, lr=0.02, seed=47 + seed)
        # the recommended recipe: posterior weighting + KL anchor + mixed
        # decoding + reward standardization, m = 8
        cfg = RunConfig(
            estimator="mml", regime="klon", decoder="mixed", normalize=True,
            m=8, lr=2e-3, steps=96, batch_size=8, checkpoint_interval=8, seed=seed,
        )
        checkpoints = training.finetune_paraphraser(policy, classifier, task, split, cfg)
        verb = Verbalizer(task.verbalizer_ids)
        baseline = training.evaluate_ensemble_accuracy(
            policy, classifier, task.template, verb, split.validation, cfg.m, False, cfg
        )
        best = training.select_best_checkpoint(checkpoints, training.METRIC_EXCL)
        results.append((baseline, best.metrics[training.METRIC_EXCL]))
    elapsed = time.monotonic() - start
    wins = sum(best > base for base, best in results)
    detail = ", ".join(f"{base:.3f}->{best:.3f}" for base, best in results)
    assert wins >= 4, detail
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 7 PASS: rewrite tuning beats its pretrained baseline in "
          f"{wins}/5 seeds ({detail}), {elapsed:.0f}s")


def test_criterion_8_augmentation_reduction_and_ensemble(monkeypatch):
    task = data.gen_synthetic_task(20, 2, 64, 0, seed=8)
    split = fewshot_split(task.train, 4, seed=8)
    classifier = tiny_classifier(seed=88, vocab=20, embed=8)
    rewriter = tiny_policy(seed=89, vocab=20, max_len=6, embed=6, hidden=8)
    verb = Verbalizer(task.verbalizer_ids)
    kernel, calls = clf._kernel, []

    def recorded(*args, **kwargs):
        out = kernel(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(clf, "_kernel", recorded)
    trained = clf.trainable_mask(classifier, TuningMode.ALL)
    b = len(split.train)
    formatted = [format_input(task.template, task.template.instruction, ex.x) for ex in split.train]
    inputs = sorted(map(tuple, token_counts(classifier, formatted)))
    for m in (0, 2):
        calls.clear()
        cfg = RunConfig(m=m, lr=0.1, steps=1, batch_size=b, checkpoint_interval=1, seed=8)
        training.train_classifier_augmented(
            classifier, rewriter if m else None, task, split, m=m, mode=TuningMode.ALL, cfg=cfg
        )
        ((_, rows, ys, *_), (_, grad, _)), = calls
        # the step's one call, on count rows: each example's formatted input, then its m rewrites
        assert sorted(map(tuple, rows[:: m + 1])) == inputs
        rewrites = training.decode_rewrites(rewriter, split.train, m, cfg) if m else None
        zs = unpad(rewrites) if m else []
        # the reference rows: format_input of each input, then of each of its m rewrites stripped of scaffold
        groups = [[format_input(task.template, task.template.instruction, data.strip_scaffold(z))
                   for z in (ex.x, *zs[m * k : m * k + m])] for k, ex in enumerate(split.train)]
        want = np.zeros(classifier.pv.size)
        for i in range(0, len(rows), m + 1):
            group, y = next((g, ex.y) for g, ex in zip(groups, split.train) if ex.y == ys[i]
                            and np.array_equal(token_counts(classifier, g), rows[i : i + m + 1]))
            want += reference_label_grad(classifier, group[0], y, verb, TuningMode.ALL)
            for z in group[1:]:
                want += reference_label_grad(classifier, z, y, verb, TuningMode.ALL) / m
        # the kernel returns the trainable entries; the reference is zero outside them
        assert np.max(np.abs(grad - want[trained] / b)) <= 1e-12

    # rows: the original input, then its two rewrites
    scores = np.array([[-0.2, -1.7], [-1.6, -0.2], [-1.4, -0.3]])
    combined = training.combine_group(scores, include_original=True)
    assert combined[0] == pytest.approx(-1.7, abs=1e-12)
    assert combined[1] == pytest.approx(-1.95, abs=1e-12)
    assert int(np.argmax(combined)) == 0
    print("\nACCEPTANCE 8 PASS: augmented steps at m=0 and m=2 equal the batch mean of "
          "reference gradients, worked ensemble case reproduces")


def test_criterion_9_metrics_exactness():
    from riff.metrics import lexical_diversity, pairwise_ld, rouge_n

    assert lexical_diversity([1, 2, 3], [1, 2, 3]) == 0.0
    assert lexical_diversity([1, 2], [3, 4]) == 1.0
    assert rouge_n(["w1", "w2", "w3"], ["w1", "w2"], 1) == pytest.approx(0.8, abs=1e-15)
    assert rouge_n(["w1", "w2", "w3"], ["w1", "w2"], 2) == pytest.approx(2 / 3, abs=1e-15)
    texts = [[1, 2, 3], [2, 3, 4], [5, 6]]
    assert pairwise_ld(texts) == pytest.approx(pairwise_ld(list(reversed(texts))), abs=1e-15)
    assert pairwise_ld([[1, 2], [1, 2]]) == 0.0
    print("\nACCEPTANCE 9 PASS: diversity endpoints, overlap worked example, "
          "pairwise symmetry all exact")
