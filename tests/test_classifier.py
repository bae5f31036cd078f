import hashlib
import math
import re

import mpmath
import numpy as np
import pytest

from conftest import (
    format_input,
    lora_weight,
    max_scaled_error,
    reference_label_grad,
    reference_label_logprobs,
    tiny_classifier,
    token_counts,
)
from riff.classifier import (
    ClassifierConfig,
    _MaskRowPass,
    ClassifierParams,
    TRAINABLE_SEGMENTS,
    TuningMode,
    Verbalizer,
    _kernel,
    input_token_grads,
    label_logprobs_batch,
    label_path_mode,
    load_classifier,
    rewards,
    save_classifier,
    trainable_mask,
    weighted_label_grad,
)
from riff.data import RowError, gen_synthetic_task
from riff.numerics import finite_diff_grad, max_relative_error
from riff.policy import TokenSeq, pad
from riff.vocab import EOS, MASK

mpmath.mp.dps = 40

VERB = Verbalizer((4, 6))
INPUT = TokenSeq((1, 5, 7, MASK, EOS))


def test_zero_head_gives_uniform_labels():
    p = tiny_classifier(seed=0)
    p.seg("lm_head")[:] = 0.0
    out = label_logprobs_batch(p, token_counts(p, [INPUT]), VERB)[0]
    assert np.allclose(out, [math.log(0.5)] * 2, atol=1e-15)


def test_equal_verbalizer_logits_give_half():
    p = tiny_classifier(seed=1)
    # same head column at both verbalizer ids -> identical logits
    p.seg("lm_head")[:, 6] = p.seg("lm_head")[:, 4]
    out = label_logprobs_batch(p, token_counts(p, [INPUT]), VERB)[0]
    assert np.allclose(out, [math.log(0.5)] * 2, atol=1e-14)


def test_label_probabilities_sum_to_one():
    p = tiny_classifier(seed=2, labels=3, vocab=10)
    verb = Verbalizer((4, 6, 8))
    out = label_logprobs_batch(p, token_counts(p, [INPUT]), verb)[0]
    assert abs(np.exp(out).sum() - 1.0) < 1e-12


def test_mask_count_errors():
    p = tiny_classifier(seed=3)
    with pytest.raises(ValueError, match="exactly one mask"):
        label_logprobs_batch(p, token_counts(p, [TokenSeq((1, 5, EOS))]), VERB)
    with pytest.raises(ValueError, match="exactly one mask"):
        label_logprobs_batch(p, token_counts(p, [TokenSeq((MASK, MASK, EOS))]), VERB)


def _mp_forward_label(params, ids, verbalizer_ids, y):
    """Straight-line high-precision recomputation of the mask-path forward."""
    d = params.cfg.embed_dim
    emb = [[mpmath.mpf(v) for v in row] for row in params.seg("token_embedding")[list(ids)]]
    wq = params.seg("wq")
    wk = params.seg("wk")
    wv = params.seg("wv")
    wo = params.seg("wo")

    def matvec(m, vec):
        return [mpmath.fsum(mpmath.mpf(m[i][j]) * vec[j] for j in range(len(vec))) for i in range(len(m))]

    q = [matvec(wq, e) for e in emb]
    k = [matvec(wk, e) for e in emb]
    vv = [matvec(wv, e) for e in emb]
    n = len(ids)
    h = []
    for i in range(n):
        scores = [
            mpmath.fsum(q[i][a] * k[j][a] for a in range(d)) / mpmath.sqrt(d) for j in range(n)
        ]
        denom = mpmath.fsum(mpmath.e**s for s in scores)
        attn = [mpmath.e**s / denom for s in scores]
        o = [mpmath.fsum(attn[j] * vv[j][a] for j in range(n)) for a in range(d)]
        out = matvec(wo, o)
        h.append([emb[i][a] + out[a] for a in range(d)])
    mask_pos = list(ids).index(MASK)
    lm = params.seg("lm_head")
    logits = [
        mpmath.fsum(h[mask_pos][a] * mpmath.mpf(lm[a][vid]) for a in range(d))
        for vid in verbalizer_ids
    ]
    denom = mpmath.log(mpmath.fsum(mpmath.e**l for l in logits))
    return float(logits[y] - denom)


def test_forward_matches_high_precision_straight_line():
    cfg = ClassifierConfig(vocab_size=8, num_labels=2, embed_dim=2, lora_rank=1, cls_hidden=3)
    p = ClassifierParams.init_random(cfg, TuningMode.ALL, seed=17, scale=0.7)
    inp = TokenSeq((5, MASK, EOS))
    got = label_logprobs_batch(p, token_counts(p, [inp]), VERB)[0]
    for y in (0, 1):
        expected = _mp_forward_label(p, inp.ids, VERB.token_ids, y)
        assert got[y] == pytest.approx(expected, abs=1e-12)


def test_reward_is_label_logprob_and_nonpositive():
    p = tiny_classifier(seed=4)
    r = rewards(p, token_counts(p, [INPUT]), 1, VERB)[0]
    assert r == pytest.approx(float(label_logprobs_batch(p, token_counts(p, [INPUT]), VERB)[0][1]), abs=0)
    assert r <= 0.0


def test_rewards_read_each_row_at_its_own_label():
    p = tiny_classifier(seed=4)
    other = TokenSeq((6, 4, MASK, EOS))
    seqs = [INPUT, other, INPUT, other]
    rows = label_logprobs_batch(p, token_counts(p, [INPUT, other]), VERB)
    got = rewards(p, token_counts(p, seqs), [1, 0, 0, 1], VERB)
    assert max_scaled_error(got, [rows[0, 1], rows[1, 0], rows[0, 0], rows[1, 1]]) <= 1e-12
    assert got[0] != got[2]
    with pytest.raises(ValueError, match="batch sequence 3: label 2 out of range"):
        rewards(p, token_counts(p, seqs), [0, 1, 1, 2], VERB)
    with pytest.raises(ValueError, match="batch sequence 0: label -1 out of range"):
        rewards(p, token_counts(p, seqs), -1, VERB)


def test_reward_uniform_classifier():
    p = tiny_classifier(seed=5)
    p.seg("lm_head")[:] = 0.0
    assert rewards(p, token_counts(p, [INPUT]), 0, VERB)[0] == pytest.approx(math.log(0.5), abs=1e-14)


def test_reward_monotone_in_true_label_logit():
    p = tiny_classifier(seed=6)
    base = rewards(p, token_counts(p, [INPUT]), 0, VERB)[0]
    # the head-mode gradient column at the true verbalizer token is a positive
    # multiple of the mask hidden state, so moving along it raises that logit
    # while leaving every other label's logit fixed
    g = weighted_label_grad(p, token_counts(p, [INPUT]), [0], [1.0], VERB, TuningMode.HEAD)[1]
    direction = g[p.pv.segment_slice("lm_head")].reshape(p.cfg.embed_dim, p.cfg.vocab_size)
    boosted = p.copy()
    boosted.seg("lm_head")[:, VERB.token_ids[0]] += 0.5 * direction[:, VERB.token_ids[0]]
    assert rewards(boosted, token_counts(boosted, [INPUT]), 0, VERB)[0] > base


def test_head_mode_mask():
    p = tiny_classifier(seed=7, mode=TuningMode.HEAD)
    g = weighted_label_grad(p, token_counts(p, [INPUT]), [0], [1.0], VERB)[1]
    head = p.pv.segment_slice("lm_head")
    outside = np.ones(p.pv.size, dtype=bool)
    outside[head] = False
    assert np.all(g[outside] == 0.0)
    assert np.any(g[head] != 0.0)


def test_all_mode_gradient_matches_finite_differences():
    p = tiny_classifier(seed=8)
    g = weighted_label_grad(p, token_counts(p, [INPUT]), [1], [1.0], VERB)[1]

    def f(flat):
        probe = ClassifierParams(p.cfg, TuningMode.ALL)
        probe.pv.values[:] = flat
        return float(label_logprobs_batch(probe, token_counts(probe, [INPUT]), VERB)[0][1])

    fd = finite_diff_grad(f, p.flat, h=1e-5)
    assert max_relative_error(g, fd) < 1e-4


def test_lora_gradients_at_zero_b():
    p = tiny_classifier(seed=9, mode=TuningMode.LORA)  # init keeps B = 0
    g = weighted_label_grad(p, token_counts(p, [INPUT]), [0], [1.0], VERB)[1]
    for name in ("lora_b_q", "lora_b_v"):
        assert np.any(g[p.pv.segment_slice(name)] != 0.0)
    # with B = 0 the delta is insensitive to A
    for name in ("lora_a_q", "lora_a_v"):
        assert np.all(g[p.pv.segment_slice(name)] == 0.0)

    def f(flat):
        probe = ClassifierParams(p.cfg, TuningMode.LORA)
        probe.pv.values[:] = flat
        return float(label_logprobs_batch(probe, token_counts(probe, [INPUT]), VERB)[0][0])

    fd = finite_diff_grad(f, p.flat, h=1e-5)
    mask = trainable_mask(p)
    assert max_relative_error(g[mask], fd[mask]) < 1e-4


def test_lora_identity_at_init_bitwise():
    p = tiny_classifier(seed=10, mode=TuningMode.LORA)
    base = label_logprobs_batch(p, token_counts(p, [INPUT]), VERB, TuningMode.NONE)[0]
    adapted = label_logprobs_batch(p, token_counts(p, [INPUT]), VERB, TuningMode.LORA)[0]
    assert np.array_equal(base, adapted)


def test_soft_prompt_isolation():
    p = tiny_classifier(seed=11, prompt_len=3, mode=TuningMode.ALL)
    before = label_logprobs_batch(p, token_counts(p, [INPUT]), VERB)[0]
    p.seg("prompt_table")[:] += 10.0
    # prompts join the forward pass only in soft-prompt mode
    assert np.array_equal(label_logprobs_batch(p, token_counts(p, [INPUT]), VERB)[0], before)


def test_soft_prompt_mode_uses_and_trains_prompts():
    p = tiny_classifier(seed=12, prompt_len=3, mode=TuningMode.SOFT_PROMPT)
    out_a = label_logprobs_batch(p, token_counts(p, [INPUT]), VERB)[0]
    p.seg("prompt_table")[:] += 0.5
    out_b = label_logprobs_batch(p, token_counts(p, [INPUT]), VERB)[0]
    assert not np.allclose(out_a, out_b)
    g = weighted_label_grad(p, token_counts(p, [INPUT]), [0], [1.0], VERB)[1]
    assert np.any(g[p.pv.segment_slice("prompt_table")] != 0.0)


def test_every_mode_mask_is_exact():
    gen = np.random.default_rng(13)
    for mode, segments in TRAINABLE_SEGMENTS.items():
        if mode is TuningMode.NONE:
            continue
        prompt_len = 2 if mode is TuningMode.SOFT_PROMPT else 0
        p = tiny_classifier(seed=int(gen.integers(1000)), prompt_len=prompt_len, mode=mode)
        if mode is TuningMode.LORA:
            p.seg("lora_b_q")[:] = gen.normal(0, 0.1, p.seg("lora_b_q").shape)
            p.seg("lora_b_v")[:] = gen.normal(0, 0.1, p.seg("lora_b_v").shape)
        g = weighted_label_grad(p, token_counts(p, [INPUT]), [int(gen.integers(2))], [1.0], VERB)[1]
        mask = trainable_mask(p, mode)
        assert np.all(g[~mask] == 0.0)
        assert np.any(g[mask] != 0.0), mode


def test_lora_apply_zero_update():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = np.array([[0.5, -0.5]])
    b = np.zeros((2, 1))
    v = np.array([1.0, -1.0])
    assert np.array_equal(lora_weight(w, a, b, alpha=32.0, rank=1) @ v, w @ v)


def test_lora_apply_zero_alpha():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = np.array([[0.5, -0.5]])
    b = np.array([[1.0], [2.0]])
    v = np.array([1.0, -1.0])
    assert np.array_equal(lora_weight(w, a, b, alpha=0.0, rank=1) @ v, w @ v)


def test_lora_apply_hand_values():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = np.array([[1.0, 0.0]])
    b = np.array([[2.0], [1.0]])
    v = np.array([1.0, 1.0])
    expected = (w + 4.0 * (b @ a)) @ v
    assert np.allclose(lora_weight(w, a, b, alpha=4.0, rank=1) @ v, expected, atol=1e-15)


def test_lora_apply_rank_mismatch():
    w = np.eye(2)
    with pytest.raises(ValueError, match="rank"):
        lora_weight(w, np.zeros((2, 2)), np.zeros((2, 1)), alpha=1.0, rank=1)


def test_cls_forward_zero_head_uniform():
    p = tiny_classifier(seed=14, mode=TuningMode.CLS_HEAD)
    for name in ("cls_w1", "cls_b1", "cls_w2", "cls_b2"):
        p.seg(name)[:] = 0.0
    out = label_logprobs_batch(p, token_counts(p, [INPUT]), None, TuningMode.CLS_HEAD)[0]
    assert np.allclose(out, [math.log(0.5)] * 2, atol=1e-15)


def test_cls_forward_permutation_invariant():
    p = tiny_classifier(seed=15, mode=TuningMode.CLS_HEAD)
    a = label_logprobs_batch(p, token_counts(p, [TokenSeq((1, 5, 7, MASK, EOS))]), None, TuningMode.CLS_HEAD)[0]
    b = label_logprobs_batch(p, token_counts(p, [TokenSeq((7, MASK, 1, 5, EOS))]), None, TuningMode.CLS_HEAD)[0]
    assert np.allclose(a, b, atol=1e-12)


def test_cls_forward_hand_evaluation():
    from riff.numerics import gelu

    cfg = ClassifierConfig(vocab_size=8, num_labels=2, embed_dim=2, lora_rank=1, cls_hidden=2)
    p = ClassifierParams.init_random(cfg, TuningMode.CLS_HEAD, seed=16, scale=0.5)
    inp = TokenSeq((5, MASK, EOS))
    # straight-line recomputation with explicit numpy steps
    emb = p.seg("token_embedding")[list(inp.ids)]
    q = emb @ p.seg("wq").T
    k = emb @ p.seg("wk").T
    vv = emb @ p.seg("wv").T
    scores = q @ k.T / math.sqrt(2)
    attn = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    h = emb + (attn @ vv) @ p.seg("wo").T
    pooled = h.mean(axis=0)
    a1 = p.seg("cls_w1") @ pooled + p.seg("cls_b1")
    logits = p.seg("cls_w2") @ np.array([gelu(v) for v in a1]) + p.seg("cls_b2")
    expected = logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
    got = label_logprobs_batch(p, token_counts(p, [inp]), None, TuningMode.CLS_HEAD)[0]
    assert np.allclose(got, expected, atol=1e-12)


def test_cls_mode_gradient_matches_finite_differences():
    p = tiny_classifier(seed=18, mode=TuningMode.CLS_HEAD)
    g = weighted_label_grad(p, token_counts(p, [INPUT]), [1], [1.0], VERB)[1]

    def f(flat):
        probe = ClassifierParams(p.cfg, TuningMode.CLS_HEAD)
        probe.pv.values[:] = flat
        return float(label_logprobs_batch(probe, token_counts(probe, [INPUT]), None, TuningMode.CLS_HEAD)[0][1])

    fd = finite_diff_grad(f, p.flat, h=1e-5)
    mask = trainable_mask(p)
    assert max_relative_error(g[mask], fd[mask]) < 1e-4


def test_score_labels_dispatch():
    # with no mode given, params are scored on their own mode's path; rewards
    # read the mask-row label path, which under CLS_HEAD is the plain one
    p = tiny_classifier(seed=19, mode=TuningMode.CLS_HEAD)
    pooled = label_logprobs_batch(p, token_counts(p, [INPUT]), None, TuningMode.CLS_HEAD)[0]
    assert np.array_equal(label_logprobs_batch(p, token_counts(p, [INPUT]), VERB)[0], pooled)
    plain = label_logprobs_batch(p, token_counts(p, [INPUT]), VERB, label_path_mode(TuningMode.CLS_HEAD))[0]
    assert np.array_equal(plain, label_logprobs_batch(p, token_counts(p, [INPUT]), VERB, TuningMode.NONE)[0])
    assert rewards(p, token_counts(p, [INPUT]), 1, VERB)[0] == plain[1] != pooled[1]
    p2 = tiny_classifier(seed=19, mode=TuningMode.HEAD)
    assert np.array_equal(
        label_logprobs_batch(p2, token_counts(p2, [INPUT]), VERB)[0],
        label_logprobs_batch(p2, token_counts(p2, [INPUT]), VERB, TuningMode.HEAD)[0],
    )


def test_verbalizer_validation():
    with pytest.raises(ValueError, match="distinct"):
        Verbalizer((4, 4))
    p = tiny_classifier(seed=20, vocab=8)
    with pytest.raises(ValueError, match="vocabulary"):
        label_logprobs_batch(p, token_counts(p, [INPUT]), Verbalizer((4, 9)))


def test_classifier_checkpoint_roundtrip(tmp_path):
    p = tiny_classifier(seed=21, prompt_len=2, mode=TuningMode.SOFT_PROMPT)
    path = tmp_path / "clf.ckpt"
    save_classifier(path, p)
    loaded = load_classifier(path)
    assert loaded.cfg == p.cfg
    assert loaded.mode is TuningMode.SOFT_PROMPT
    assert np.array_equal(loaded.flat, p.flat)


# mixed lengths, the mask early and late, so every batch needs padding
MIXED_BATCH = [
    TokenSeq((1, 5, 7, MASK, EOS)),
    TokenSeq((MASK, 4, EOS)),
    TokenSeq((6, 6, 5, 1, 7, 4, 3, MASK, EOS)),
    TokenSeq((MASK, EOS)),
]


def kernel_params(mode, seed):
    p = tiny_classifier(seed=seed, prompt_len=3, mode=TuningMode.ALL)
    p = ClassifierParams(p.cfg, mode, p.pv)
    if mode is TuningMode.LORA:
        gen = np.random.default_rng(seed)
        p.seg("lora_b_q")[:] = gen.normal(0, 0.1, p.seg("lora_b_q").shape)
        p.seg("lora_b_v")[:] = gen.normal(0, 0.1, p.seg("lora_b_v").shape)
    return p


@pytest.mark.parametrize("mode", list(TuningMode))
def test_kernel_matches_weighted_per_sequence_reference(mode):
    p = kernel_params(mode, seed=31)
    ys = [0, 1, 1, 0]
    weights = [0.7, 0.0, -1.3, 2.1]
    value, grad = weighted_label_grad(p, token_counts(p, MIXED_BATCH), ys, weights, VERB, mode)
    want_lp = np.array([reference_label_logprobs(p, s, VERB, mode) for s in MIXED_BATCH])
    want_value = sum(w * lp[y] for w, lp, y in zip(weights, want_lp, ys))
    want_grad = sum(
        w * reference_label_grad(p, s, y, VERB, mode) for w, s, y in zip(weights, MIXED_BATCH, ys)
    )
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    assert max_scaled_error(label_logprobs_batch(p, token_counts(p, MIXED_BATCH), VERB, mode), want_lp) < 1e-12
    if mode is TuningMode.NONE:
        assert np.all(grad == 0.0)
    else:
        assert max_scaled_error(grad, want_grad) < 1e-12
        assert np.all(grad[~trainable_mask(p, mode)] == 0.0)


@pytest.mark.parametrize("mode", list(TuningMode))
def test_the_kernel_returns_the_trainable_entries_in_layout_order(mode):
    # training steps AdamW over flat[trainable_mask] with the kernel's vector as is
    p = kernel_params(mode, seed=32)
    layout = [name for name, _ in p.pv.segments()]
    trained = TRAINABLE_SEGMENTS[mode]
    assert sorted(trained, key=layout.index) == list(trained)
    ys, weights = np.array([0, 1, 1, 0]), np.array([0.7, 0.0, -1.3, 2.1])
    counts = token_counts(p, MIXED_BATCH)
    value, grad, _ = _kernel(p, counts, ys, weights, VERB, mode)
    want_value, full = weighted_label_grad(p, counts, ys, weights, VERB, mode)
    mask = trainable_mask(p, mode)
    assert grad.shape == (mask.sum(),) and value == want_value
    assert np.array_equal(grad, full[mask]) and not np.any(full[~mask])


def test_a_pruned_backward_leaves_each_trained_segment_bitwise_as_all_modes():
    # ALL, HEAD and INPUT share one forward, so pruning the backward must not
    # change the arithmetic of a segment that a mode trains
    ys, weights = [0, 1, 1, 0], [0.7, 0.0, -1.3, 2.1]
    p = kernel_params(TuningMode.ALL, seed=37)
    counts = token_counts(p, MIXED_BATCH)
    _, full = weighted_label_grad(p, counts, ys, weights, VERB)
    for mode, name in ((TuningMode.HEAD, "lm_head"), (TuningMode.INPUT, "token_embedding")):
        _, grad = weighted_label_grad(ClassifierParams(p.cfg, mode, p.pv), counts, ys, weights, VERB)
        part = p.pv.segment_slice(name)
        assert np.any(grad[part] != 0.0)
        assert np.array_equal(grad[part], full[part])
        rest = np.ones(len(grad), dtype=bool)
        rest[part] = False
        assert np.all(grad[rest] == 0.0)


@pytest.mark.parametrize("mode", list(TuningMode))
def test_kernel_scores_a_sequence_the_same_alone_and_padded(mode):
    p = kernel_params(mode, seed=32)
    short, padded = MIXED_BATCH[3], [MIXED_BATCH[2], MIXED_BATCH[3], MIXED_BATCH[0]]
    alone = label_logprobs_batch(p, token_counts(p, [short]), VERB, mode)[0]
    assert max_scaled_error(label_logprobs_batch(p, token_counts(p, padded), VERB, mode)[1], alone) < 1e-12
    value, grad = weighted_label_grad(p, token_counts(p, [short]), [1], [1.0], VERB, mode)
    value_padded, grad_padded = weighted_label_grad(p, token_counts(p, padded), [0, 1, 1], [0.0, 1.0, 0.0], VERB, mode)
    assert abs(value_padded - value) <= 1e-12 * abs(value)
    if mode is not TuningMode.NONE:
        assert max_scaled_error(grad_padded, grad) < 1e-12


def test_input_position_grads_match_reference_rows():
    # each non-mask position's gradient is its token's row on the label path
    # the mode scores (prompt rows and adapters included); a token the
    # sequence lacks gets zero
    for mode in TuningMode:
        p = kernel_params(mode, seed=33)
        grads = input_token_grads(p, token_counts(p, MIXED_BATCH), [1] * len(MIXED_BATCH), VERB)
        assert grads.shape == (len(MIXED_BATCH), p.cfg.vocab_size, p.cfg.embed_dim)
        for seq, got in zip(MIXED_BATCH, grads):
            _, want = reference_label_grad(p, seq, 1, VERB, label_path_mode(mode), rows=True)
            positions = [j for j, t in enumerate(seq.ids) if t != MASK]
            assert max_scaled_error(got[[seq.ids[j] for j in positions]], want[positions]) < 1e-12, mode
            assert np.all(np.delete(got, list(seq.ids), axis=0) == 0.0)


def test_token_rows_equal_the_position_rows_bitwise():
    # the digest of the per-position input gradient the search read before it
    # took token rows: each non-mask position's row, row-major over the batch
    task = gen_synthetic_task(20, 2, 64, 0, seed=0)
    verb = Verbalizer(task.verbalizer_ids)
    digest = hashlib.sha256()
    for seed, instruction in ((61, (8, 9, 10)), (62, (1, 3, 9)), (63, (9, 9))):
        p = tiny_classifier(seed=seed, vocab=20, embed=8, mode=TuningMode.NONE)
        seqs = [format_input(task.template, instruction, ex.x) for ex in task.train[:6]]
        grads = input_token_grads(p, token_counts(p, seqs), [ex.y for ex in task.train[:6]], verb)
        for seq, rows in zip(seqs, grads):
            for t in seq.ids:
                if t != MASK:
                    digest.update(rows[t].tobytes())
    assert digest.hexdigest() == "6f31c47e48549028757aa2b51fe9b5f137a5ef449aca2ee315c748df9160b52e"


def test_input_token_grads_check_their_inputs():
    p = tiny_classifier(seed=34)
    counts = token_counts(p, [INPUT, INPUT])
    with pytest.raises(ValueError, match="^2 sequences and 1 labels$"):
        input_token_grads(p, counts, [0], VERB)
    with pytest.raises(RowError, match="^batch sequence 1: label 2 out of range$"):
        input_token_grads(p, counts, [0, 2], VERB)
    with pytest.raises(ValueError, match=r"^expected a float64 \(B, 8\) count matrix"):
        input_token_grads(p, pad([INPUT, INPUT]), [0, 1], VERB)


def test_kernel_errors_name_the_batch_index():
    p = tiny_classifier(seed=34)
    with pytest.raises(ValueError, match="batch sequence 2: token id 9 out of range"):
        label_logprobs_batch(p, token_counts(p, [INPUT, INPUT, TokenSeq((9, MASK, EOS))]), VERB)
    with pytest.raises(ValueError, match="batch sequence 1: .*exactly one mask token, found 0"):
        label_logprobs_batch(p, token_counts(p, [INPUT, TokenSeq((4, EOS)), INPUT]), VERB)
    with pytest.raises(ValueError, match="batch sequence 3: .*exactly one mask token, found 2"):
        token_counts(p, [INPUT] * 3 + [TokenSeq((MASK, 4, MASK, EOS))])
    with pytest.raises(ValueError, match="batch sequence 1: label 2 out of range"):
        weighted_label_grad(p, token_counts(p, [INPUT, INPUT]), [0, 2], [1.0, 1.0], VERB)
    with pytest.raises(ValueError, match="2 sequences, 2 labels and 1 weights"):
        weighted_label_grad(p, token_counts(p, [INPUT, INPUT]), [0, 1], [1.0], VERB)


def test_a_padded_batch_with_a_negative_id_names_its_row():
    p = tiny_classifier(seed=35)
    batch = pad([INPUT, TokenSeq((MASK, EOS)), INPUT])
    batch.ids[1, 3] = -1  # a padding position is never read
    want = label_logprobs_batch(p, token_counts(p, [INPUT, TokenSeq((MASK, EOS)), INPUT]), VERB)
    assert np.array_equal(label_logprobs_batch(p, token_counts(p, batch), VERB), want)
    batch.ids[2, 0] = -1
    with pytest.raises(RowError, match="^batch sequence 2: token id -1 out of range for vocabulary of size 8$"):
        token_counts(p, batch)


def test_a_count_matrix_is_checked_for_its_dtype_width_and_mask_column():
    p = tiny_classifier(seed=37)
    counts = token_counts(p, MIXED_BATCH)
    # a (B, L) id array is not a count matrix, even when L happens to equal V
    for wrong in (np.concatenate([counts, counts[:, :1]], axis=1), counts[0], counts.astype(np.intp)):
        got = re.escape(f"got {wrong.dtype} of shape {wrong.shape}")
        with pytest.raises(ValueError, match=rf"^expected a float64 \(B, 8\) count matrix, {got}$"):
            label_logprobs_batch(p, wrong, VERB)
    # sequences and a Padded batch go through token_counts first; the kernels take only counts
    for seqs in (MIXED_BATCH, pad(MIXED_BATCH)):
        with pytest.raises(ValueError, match=r"^expected a float64 \(B, 8\) count matrix, got (object|int64) of"):
            label_logprobs_batch(p, seqs, VERB)
        with pytest.raises(ValueError, match=r"^expected a float64 \(B, 8\) count matrix"):
            weighted_label_grad(p, seqs, [0] * 4, [1.0] * 4, VERB)
        with pytest.raises(ValueError, match=r"^expected a float64 \(B, 8\) count matrix"):
            rewards(p, seqs, 0, VERB)
    for n_mask in (0, 2):
        bad = counts.copy()
        bad[2, MASK] = n_mask
        message = f"^batch sequence 2: input must contain exactly one mask token, found {n_mask}$"
        for mode in (TuningMode.ALL, TuningMode.CLS_HEAD):
            with pytest.raises(RowError, match=message):
                label_logprobs_batch(p, bad, VERB, mode)
        with pytest.raises(RowError, match=message):
            weighted_label_grad(p, bad, [0] * 4, [1.0] * 4, VERB)
        with pytest.raises(RowError, match=message):
            rewards(p, bad, 0, VERB)


@pytest.mark.parametrize("mode", list(TuningMode))
def test_an_absent_token_far_above_a_rows_max_leaves_the_row_bitwise_unchanged(mode):
    p = kernel_params(mode, seed=36)
    batch, t = pad(MIXED_BATCH), 3  # only row 2 holds token 3
    lacking = [i for i, seq in enumerate(MIXED_BATCH) if t not in seq.ids]
    before = label_logprobs_batch(p, token_counts(p, batch), VERB, mode)
    # the mask row's query, which under the pooled head is the plain path's
    qk = _MaskRowPass(p, token_counts(p, batch), VERB, label_path_mode(mode)).qk
    emb = p.seg("token_embedding")
    top = np.delete(emb @ qk, t).max()
    emb[t] += (top + 1e3 - emb[t] @ qk) * qk / (qk @ qk)
    assert emb[t] @ qk > top + 999.0
    after = label_logprobs_batch(p, token_counts(p, batch), VERB, mode)
    assert np.all(np.isfinite(after))
    assert np.array_equal(after[lacking], before[lacking])
    assert not np.array_equal(after[2], before[2])


@pytest.mark.parametrize("mode", list(TuningMode))
def test_weighted_label_grad_takes_a_padded_batch_bitwise(mode):
    # a Padded batch counts as one batch of len(ids) rows, not a pair of sequences
    p = kernel_params(mode, seed=33)
    ys, weights = [0, 1, 1, 0], [0.7, 0.0, -1.3, 2.1]
    assert np.array_equal(token_counts(p, pad(MIXED_BATCH)), token_counts(p, MIXED_BATCH))
    want = weighted_label_grad(p, token_counts(p, MIXED_BATCH), ys, weights, VERB, mode)
    got = weighted_label_grad(p, token_counts(p, pad(MIXED_BATCH)), ys, weights, VERB, mode)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    with pytest.raises(ValueError, match="4 sequences, 2 labels and 2 weights"):
        weighted_label_grad(p, token_counts(p, pad(MIXED_BATCH)), ys[:2], weights[:2], VERB, mode)
