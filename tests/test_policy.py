import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    log_softmax,
    max_scaled_error,
    path_logprob,
    reference_context,
    reference_pretrain_mle,
    reference_seq_logprob,
    reference_seq_logprob_grad,
    reference_transition_counts,
    reference_transition_logits,
    reference_weighted_seq_grad,
    step_logits,
    tiny_classifier,
    tiny_policy,
    total_mass,
)
import riff.policy as policy_module
from riff.checkpoint import file_hash
from riff.classifier import TuningMode, load_classifier, save_classifier
from riff.numerics import finite_diff_grad, log_softmax_rows, max_relative_error
from riff.policy import (
    PolicyConfig,
    PolicyParams,
    TokenSeq,
    _transition_counts,
    encode_contexts,
    load_policy,
    pad,
    path_logprobs,
    pretrain_mle,
    save_policy,
    seq_logprob,
    snapshot,
    transition_logits_batch,
    transition_table,
    weighted_seq_grads,
)
from riff.vocab import BOS, EOS


def test_token_seq_invariants():
    with pytest.raises(ValueError):
        TokenSeq(())
    with pytest.raises(ValueError):
        TokenSeq((1, 2))  # no EOS
    with pytest.raises(ValueError):
        TokenSeq((EOS, 1, EOS))  # interior EOS
    seq = TokenSeq.from_content([3, 1])
    assert seq.ids == (3, 1, EOS)
    assert seq.content == (3, 1)


def test_single_step_chain_rule():
    # z = [EOS]: log-prob is exactly the step-0 log-softmax at EOS, recomputed
    # here from raw parameter arrays
    p = tiny_policy(seed=3)
    x = TokenSeq.from_content([1, 2])
    z = TokenSeq((EOS,))
    emb = p.token_embedding
    ctx = emb[[1, 2, EOS]].mean(axis=0)
    state = np.tanh(p.rec_w @ np.concatenate([ctx, emb[BOS]]) + p.rec_b)
    logits = state @ p.out_head
    expected = float(log_softmax(logits)[EOS])
    assert seq_logprob(p, x, z) == pytest.approx(expected, abs=1e-14)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_seq_logprob_nonpositive(seed):
    gen = np.random.default_rng(seed)
    p = tiny_policy(seed=seed % 1000, vocab=4, max_len=5)
    x = TokenSeq.from_content([int(gen.integers(1, 4))])
    z = TokenSeq.from_content([int(gen.integers(1, 4)) for _ in range(int(gen.integers(0, 4)))])
    assert seq_logprob(p, x, z) <= 0.0


def test_seq_logprob_rejects_out_of_range_token():
    p = tiny_policy(vocab=4)
    with pytest.raises(ValueError, match="out of range"):
        seq_logprob(p, TokenSeq.from_content([1]), TokenSeq.from_content([7]))


def test_seq_logprob_rejects_overlong_output():
    p = tiny_policy(vocab=4, max_len=3)
    with pytest.raises(ValueError, match="max_len"):
        seq_logprob(p, TokenSeq.from_content([1]), TokenSeq.from_content([1, 2, 3]))


def test_enumeration_mass_tiny_configs():
    from riff.oracle import enumerate_sequences

    for vocab, max_len, seed in ((3, 3, 0), (4, 4, 1), (5, 4, 2), (2, 2, 3)):
        p = tiny_policy(seed=seed, vocab=vocab, max_len=max_len)
        x = TokenSeq.from_content([1])
        enum = enumerate_sequences(p, x)
        assert abs(total_mass(enum) + enum.tail_mass - 1.0) < 1e-10


def test_gradient_matches_finite_differences():
    gen = np.random.default_rng(5)
    for trial in range(20):
        vocab = int(gen.integers(3, 5))
        p = tiny_policy(seed=trial, vocab=vocab, max_len=5)
        x = TokenSeq.from_content([int(gen.integers(1, vocab)) for _ in range(2)])
        z = TokenSeq.from_content(
            [int(gen.integers(1, vocab)) for _ in range(int(gen.integers(0, 4)))]
        )
        analytic = weighted_seq_grads(p, pad([x]), pad([z]), [1.0])[0]

        def f(flat, cfg=p.cfg, x=x, z=z):
            probe = PolicyParams(cfg)
            probe.pv.values[:] = flat
            return seq_logprob(probe, x, z)

        fd = finite_diff_grad(f, p.flat, h=1e-5)
        assert max_relative_error(analytic, fd) < 1e-4


KERNEL_CONFIGS = [
    # (vocab, max_len, embed, hidden, seed, init scale)
    (3, 3, 2, 3, 0, 0.6),
    (4, 5, 4, 5, 1, 1.5),
    (6, 7, 3, 8, 2, 0.3),
    (20, 24, 12, 24, 3, 0.1),
]


def kernel_case(vocab, max_len, embed, hidden, seed, scale):
    cfg = PolicyConfig(vocab_size=vocab, embed_dim=embed, hidden_dim=hidden, max_len=max_len)
    p = PolicyParams.init_random(cfg, seed=seed, scale=scale)
    gen = np.random.default_rng(seed + 100)
    x = TokenSeq.from_content([int(t) for t in gen.integers(1, vocab, size=3)])
    seqs = [
        TokenSeq.from_content([int(t) for t in gen.integers(1, vocab, size=int(gen.integers(0, max_len)))])
        for _ in range(6)
    ]
    return p, x, seqs, gen


@pytest.mark.parametrize("case", KERNEL_CONFIGS)
def test_transition_table_rows_equal_step_log_softmax(case):
    p, x, seqs, _ = kernel_case(*case)
    ctx = reference_context(p, x)
    logits = transition_logits_batch(p, [x])[0][0]
    table = transition_table(p, x)
    for prev in range(p.cfg.vocab_size):
        raw = step_logits(p, ctx, prev)
        assert np.max(np.abs(logits[prev] - raw)) < 1e-12
        assert np.max(np.abs(table[prev] - log_softmax(raw))) < 1e-12
    for z in seqs:
        assert seq_logprob(p, x, z) == pytest.approx(reference_seq_logprob(p, x, z), rel=0, abs=1e-12)


@pytest.mark.parametrize("case", KERNEL_CONFIGS)
@pytest.mark.parametrize("kind", ["positive", "signed_with_zeros", "negative"])
def test_weighted_seq_grad_matches_reference_sum(case, kind):
    p, x, seqs, gen = kernel_case(*case)
    weights = gen.normal(size=len(seqs))
    if kind == "positive":
        weights = np.abs(weights)
    elif kind == "negative":
        weights = -np.abs(weights)
    else:
        weights[::3] = 0.0
    want = sum(w * reference_seq_logprob_grad(p, x, z) for w, z in zip(weights, seqs))
    assert max_scaled_error(weighted_seq_grads(p, pad([x]), pad(seqs), weights)[0], want) < 1e-12


@pytest.mark.parametrize("case", KERNEL_CONFIGS)
def test_weighted_seq_grad_one_hot_is_seq_logprob_grad_bitwise(case):
    p, x, seqs, _ = kernel_case(*case)
    for j, z in enumerate(seqs):
        one_hot = np.zeros(len(seqs))
        one_hot[j] = 1.0
        single = weighted_seq_grads(p, pad([x]), pad([z]), [1.0])[0]
        assert np.array_equal(weighted_seq_grads(p, pad([x]), pad(seqs), one_hot)[0], single)
        # handing over the forward's log-softmax table and activations changes nothing
        logits, acts = transition_logits_batch(p, [x])
        given = weighted_seq_grads(p, pad([x]), pad(seqs), one_hot, (log_softmax_rows(logits), acts))[0]
        assert np.array_equal(given, single)
        assert max_scaled_error(single, reference_seq_logprob_grad(p, x, z)) < 1e-12


@pytest.mark.parametrize("case", KERNEL_CONFIGS)
@pytest.mark.parametrize("kind", ["positive", "signed_with_zeros", "negative"])
def test_weighted_seq_grad_bitwise_equals_unbatched_reference(case, kind):
    p, x, seqs, gen = kernel_case(*case)
    seqs = seqs + seqs[:2]  # repeated sequences hit the same cells again
    weights = gen.normal(size=len(seqs))
    if kind == "positive":
        weights = np.abs(weights)
    elif kind == "negative":
        weights = -np.abs(weights)
    else:
        weights[::3] = 0.0
    logits, (u, s) = transition_logits_batch(p, [x])
    want_logits, (want_u, want_s) = reference_transition_logits(p, x)
    assert np.array_equal(logits[0], want_logits)
    assert np.array_equal(u[0], want_u) and np.array_equal(s[0], want_s)
    got = weighted_seq_grads(p, pad([x]), pad(seqs), weights)[0]
    assert np.array_equal(got, reference_weighted_seq_grad(p, x, seqs, weights))


def recipe_corpus():
    """The default configuration's rewriter pretraining corpus and initial policy."""
    from riff.data import gen_rewriter_corpus, gen_synthetic_task

    pool = gen_synthetic_task(20, 2, 128, 0, 7919)
    corpus = gen_rewriter_corpus(pool.train, 2, 104729)
    cfg = PolicyConfig(vocab_size=20, embed_dim=12, hidden_dim=24, max_len=24)
    return PolicyParams.init_random(cfg, seed=31), corpus


def test_pair_grads_rows_bitwise_equal_seq_logprob_grad():
    p, corpus = recipe_corpus()
    assert len(corpus) == 128
    for start in range(0, len(corpus), 8):
        chunk = corpus[start : start + 8]
        # one stacked backward over pairs: one row per input, each its own target's gradient
        rows = weighted_seq_grads(p, pad([x for x, _ in chunk]), pad([z for _, z in chunk]), np.ones(len(chunk)))
        assert rows.shape == (len(chunk), p.flat.size)
        for row, (x, z) in zip(rows, chunk):
            assert np.array_equal(row, weighted_seq_grads(p, pad([x]), pad([z]), [1.0])[0])
            assert np.array_equal(row, reference_weighted_seq_grad(p, x, [z], [1.0]))


def oracle_anchor_pairs(n: int = 18):
    """A random tiny rewriter and n reversal pairs at the exact oracle's anchor
    shape (V=4, d=4, h=5, max_len=4), as its pretraining draws them."""
    gen = np.random.default_rng(7)
    pairs = []
    for _ in range(n):
        content = [int(t) for t in gen.integers(1, 4, size=int(gen.integers(1, 4)))]
        pairs.append((TokenSeq.from_content(content), TokenSeq.from_content(content[::-1])))
    return tiny_policy(seed=11, vocab=4, max_len=4, embed=4, hidden=5, scale=0.6), pairs


def pretraining_case(shape: str):
    """(initial policy, pairs, lr) of a pretraining shape."""
    if shape == "oracle_anchor":
        return (*oracle_anchor_pairs(), 0.05)  # 18 pairs leave a ragged last chunk at 4
    p, corpus = recipe_corpus()
    if shape == "embed_dim_1":  # one embedding column: the contexts sum each input alone
        cfg = PolicyConfig(vocab_size=20, embed_dim=1, hidden_dim=6, max_len=24)
        p = PolicyParams.init_random(cfg, seed=13, scale=0.5)
    return p, corpus[:29], 0.02  # 29 pairs leave a ragged last chunk at 3 and 8


@pytest.mark.parametrize("shape,batch_size", [
    pytest.param("recipe", 1, id="1"),
    pytest.param("recipe", 3, id="3"),
    pytest.param("recipe", 8, id="8"),
    pytest.param("oracle_anchor", 4, id="oracle_anchor-4"),
    pytest.param("embed_dim_1", 3, id="embed_dim_1-3"),
])
def test_pretrain_mle_bitwise_equals_per_pair_reference(shape, batch_size):
    p, pairs, lr = pretraining_case(shape)
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        rows = weighted_seq_grads(p, pad([x for x, _ in chunk]), pad([z for _, z in chunk]), np.ones(len(chunk)))
        for row, (x, z) in zip(rows, chunk):
            assert row.tobytes() == reference_weighted_seq_grad(p, x, [z], [1.0]).tobytes()
    got = pretrain_mle(p, pairs, epochs=2, lr=lr, batch_size=batch_size, seed=5)
    want = reference_pretrain_mle(p, pairs, epochs=2, lr=lr, batch_size=batch_size, seed=5)
    assert got.flat.tobytes() == want.flat.tobytes()
    assert not np.array_equal(got.flat, p.flat)


def test_pretrain_runs_from_one_init_return_equal_independent_parameters():
    p, pairs = oracle_anchor_pairs()
    before = p.flat.copy()
    first = pretrain_mle(p, pairs, epochs=3, lr=0.05, batch_size=4, seed=2)
    other = pretrain_mle(p, pairs[:7], epochs=2, lr=0.05, batch_size=3, seed=9)  # a run between them
    second = pretrain_mle(p, pairs, epochs=3, lr=0.05, batch_size=4, seed=2)
    assert first.flat.tobytes() == second.flat.tobytes()
    assert not np.array_equal(other.flat, first.flat)
    assert np.array_equal(p.flat, before)
    for a, b in ((first, second), (first, other), (second, other), (first, p), (second, p)):
        assert not np.shares_memory(a.flat, b.flat)
    first.flat[:] += 1.0
    assert second.flat.tobytes() == pretrain_mle(p, pairs, epochs=3, lr=0.05, batch_size=4, seed=2).flat.tobytes()


@pytest.mark.parametrize("bad,message", [
    ((TokenSeq.from_content([1, 9]), TokenSeq.from_content([2])),
     "pair 5 input: token id 9 out of range for vocabulary of size 5"),
    ((TokenSeq.from_content([1]), TokenSeq.from_content([1, 2, 3, 4, 1])),
     "pair 5 target: sequence length 6 exceeds max_len 4"),
    ((TokenSeq.from_content([1]), TokenSeq.from_content([2, 7])),
     "pair 5 target: token id 7 out of range for vocabulary of size 5"),
])
def test_pretrain_names_the_first_bad_pair_before_step_1(monkeypatch, bad, message):
    p = tiny_policy(seed=2, vocab=5, max_len=4)
    good = (TokenSeq.from_content([1, 2]), TokenSeq.from_content([2, 1]))
    forwards = []
    forward = policy_module._forward
    monkeypatch.setattr(policy_module, "_forward", lambda *args: forwards.append(args) or forward(*args))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pretrain_mle(p, [good] * 5 + [bad, bad], epochs=1, lr=0.1)
    assert forwards == []


def test_weighted_seq_grad_rejects_weight_count_mismatch():
    p, x, seqs, _ = kernel_case(*KERNEL_CONFIGS[0])
    with pytest.raises(ValueError, match="weights"):
        weighted_seq_grads(p, pad([x]), pad(seqs), np.ones(len(seqs) + 1))


def test_gradient_finite_for_improbable_token():
    p = tiny_policy(seed=0, vocab=4)
    # make token 3 extremely unlikely at every step
    p.out_head[:, 3] = -40.0
    g = weighted_seq_grads(p, pad([TokenSeq.from_content([1])]), pad([TokenSeq.from_content([3])]), [1.0])[0]
    assert np.all(np.isfinite(g))


def test_head_column_shift_leaves_probs_and_embedding_grad():
    p = tiny_policy(seed=8)
    x = TokenSeq.from_content([1, 2])
    z = TokenSeq.from_content([2, 1])
    base_lp = seq_logprob(p, x, z)
    base_grad = weighted_seq_grads(p, pad([x]), pad([z]), [1.0])[0]
    shifted = p.copy()
    shifted.out_head[:] += np.full((p.cfg.hidden_dim, 1), 0.73)  # same h-vector on every column
    assert seq_logprob(shifted, x, z) == pytest.approx(base_lp, abs=1e-12)
    emb_slice = p.pv.segment_slice("token_embedding")
    assert np.allclose(
        weighted_seq_grads(shifted, pad([x]), pad([z]), [1.0])[0][emb_slice], base_grad[emb_slice], atol=1e-12
    )


def test_snapshot_is_immutable_value_copy():
    p = tiny_policy(seed=4)
    x = TokenSeq.from_content([1])
    z = TokenSeq.from_content([2])
    before = seq_logprob(p, x, z)
    frozen = snapshot(p)
    # ratio is exactly 1 right after the snapshot
    assert math.exp(seq_logprob(p, x, z) - seq_logprob(frozen, x, z)) == 1.0
    p.flat[:] += 0.25
    assert seq_logprob(frozen, x, z) == before
    assert seq_logprob(p, x, z) != before
    with pytest.raises(ValueError):
        frozen.flat[0] = 0.0


def test_determinism_bitwise():
    p = tiny_policy(seed=11)
    x = TokenSeq.from_content([2, 1])
    z = TokenSeq.from_content([1, 1])
    assert seq_logprob(p, x, z) == seq_logprob(p, x, z)


def test_pretrain_single_pair_improves():
    p = tiny_policy(seed=2, vocab=5, max_len=6)
    pair = (TokenSeq.from_content([1, 2]), TokenSeq.from_content([3, 4]))
    before = seq_logprob(p, *pair)
    trained = pretrain_mle(p, [pair], epochs=50, lr=0.05)
    assert seq_logprob(trained, *pair) > before


def test_pretrain_zero_lr_is_identity():
    p = tiny_policy(seed=2)
    pair = (TokenSeq.from_content([1]), TokenSeq.from_content([2]))
    trained = pretrain_mle(p, [pair], epochs=3, lr=0.0)
    assert np.array_equal(trained.flat, p.flat)


def test_pretrain_rejects_empty_corpus():
    with pytest.raises(ValueError):
        pretrain_mle(tiny_policy(), [], epochs=1, lr=0.1)


def test_pretrain_improves_heldout_rewrites():
    from riff.data import gen_rewriter_corpus, gen_synthetic_task

    task = gen_synthetic_task(16, 2, 48, 0, seed=5)
    corpus = gen_rewriter_corpus(task.train, 2, seed=6)
    train_pairs, heldout = corpus[:36], corpus[36:]
    cfg = PolicyConfig(vocab_size=16, embed_dim=8, hidden_dim=16, max_len=24)
    init = PolicyParams.init_random(cfg, seed=9)
    trained = pretrain_mle(init, train_pairs, epochs=12, lr=0.02, seed=1)

    def mean_logprob(params):
        return float(np.mean([seq_logprob(params, x, z) for x, z in heldout]))

    assert mean_logprob(trained) > mean_logprob(init)


def test_checkpoint_roundtrip(tmp_path):
    p = tiny_policy(seed=21, vocab=6, max_len=9)
    path = tmp_path / "policy.ckpt"
    save_policy(path, p)
    loaded = load_policy(path)
    assert loaded.cfg == p.cfg
    assert np.array_equal(loaded.flat, p.flat)


def test_checkpoint_files_are_byte_identical_to_pinned(tmp_path):
    # sha256 of the files written when each header field was spelled out by
    # hand; headers built from the config dataclasses must write the same bytes
    policy_path, clf_path = tmp_path / "policy.ckpt", tmp_path / "clf.ckpt"
    save_policy(policy_path, tiny_policy(seed=21, vocab=6, max_len=9))
    save_classifier(clf_path, tiny_classifier(seed=21, prompt_len=2, mode=TuningMode.LORA))
    assert file_hash(policy_path) == "6404daf49f9154bce9b5f78b6c1ecd40056831c791657db81a31a2f49317ab42"
    assert file_hash(clf_path) == "6d361edefaff2c7b5a077d0605eb5ac9a6fa816195ffc9e3f99a2956ec8ba974"
    wrong_kind = f"expected a policy checkpoint in {re.escape(str(clf_path))}, got 'classifier'"
    with pytest.raises(ValueError, match=wrong_kind):
        load_policy(clf_path)
    with pytest.raises(ValueError, match="expected a classifier checkpoint .*, got 'policy'"):
        load_classifier(policy_path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPTxxxxxxx")
    with pytest.raises(ValueError, match="magic"):
        load_policy(path)


@pytest.mark.parametrize(
    "cut,field",
    [
        (lambda size, hlen: 0, "magic"),
        (lambda size, hlen: 5, "magic"),
        (lambda size, hlen: 10, "version"),
        (lambda size, hlen: 14, "header length"),
        (lambda size, hlen: 20, "header"),
        (lambda size, hlen: 16 + hlen - 1, "header"),
        (lambda size, hlen: 16 + hlen, "parameter payload"),
        (lambda size, hlen: size - 8, "parameter payload"),
        (lambda size, hlen: size - 1, "parameter payload"),
    ],
    ids=["empty", "mid_magic", "mid_version", "mid_header_length", "header_start",
         "header_end", "no_payload", "one_value_short", "one_byte_short"],
)
def test_truncated_checkpoint_names_file_and_field(tmp_path, cut, field):
    path = tmp_path / "policy.ckpt"
    save_policy(path, tiny_policy(seed=21, vocab=6, max_len=9))
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[12:16], "little")
    path.write_bytes(blob[: cut(len(blob), hlen)])
    with pytest.raises(ValueError, match=f"truncated checkpoint {re.escape(str(path))}: {field} needs"):
        load_policy(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "policy.ckpt"
    save_policy(path, tiny_policy(seed=21))
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="past its"):
        load_policy(path)


def test_checkpoint_flipped_payload_byte_names_file(tmp_path):
    path = tmp_path / "policy.ckpt"
    save_policy(path, tiny_policy(seed=21))
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"corrupt checkpoint {re.escape(str(path))}: payload sha256"):
        load_policy(path)


def rewrite_header(path, edit, version=2):
    """Replace a saved checkpoint's JSON header by edit(header) and its
    version field by `version`, keeping the payload bytes."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[12:16], "little")
    assert int.from_bytes(blob[8:12], "little") == 2
    header = json.dumps(edit(json.loads(blob[16 : 16 + hlen])), sort_keys=True).encode("utf-8")
    path.write_bytes(
        blob[:8] + version.to_bytes(4, "little") + len(header).to_bytes(4, "little")
        + header + blob[16 + hlen :]
    )


def test_checkpoint_header_byte_not_utf8_names_file(tmp_path):
    path = tmp_path / "policy.ckpt"
    save_policy(path, tiny_policy(seed=21))
    blob = bytearray(path.read_bytes())
    blob[20] = 0xFF  # inside the JSON header, which starts at byte 16
    path.write_bytes(bytes(blob))
    where = f"corrupt checkpoint {re.escape(str(path))}"
    with pytest.raises(ValueError, match=f"{where}: unreadable header: UnicodeDecodeError"):
        load_policy(path)


def test_checkpoint_header_without_segments_names_file(tmp_path):
    path = tmp_path / "policy.ckpt"
    save_policy(path, tiny_policy(seed=21))
    rewrite_header(path, lambda h: {k: v for k, v in h.items() if k != "segments"})
    with pytest.raises(ValueError, match=f"corrupt checkpoint {re.escape(str(path))}: unreadable header: KeyError"):
        load_policy(path)


@pytest.mark.parametrize("kind", ["policy", "classifier"])
def test_checkpoint_dimensions_disagreeing_with_segments_name_file(tmp_path, kind):
    path = tmp_path / f"{kind}.ckpt"
    if kind == "policy":
        save_policy(path, tiny_policy(seed=21, vocab=6))
    else:
        save_classifier(path, tiny_classifier(seed=21, vocab=8))
    rewrite_header(path, lambda h: {**h, "vocab_size": h["vocab_size"] + 1})
    with pytest.raises(ValueError, match=f"corrupt checkpoint {re.escape(str(path))}: header does not describe"):
        (load_policy if kind == "policy" else load_classifier)(path)


def test_version_1_checkpoint_still_loads(tmp_path):
    # version 1: the same layout, without the payload's byte count and hash
    p = tiny_policy(seed=22, vocab=6, max_len=9)
    path = tmp_path / "policy.ckpt"
    save_policy(path, p)
    rewrite_header(
        path, lambda h: {k: v for k, v in h.items() if k not in ("payload_bytes", "payload_sha256")}, version=1
    )
    loaded = load_policy(path)
    assert loaded.cfg == p.cfg
    assert np.array_equal(loaded.flat, p.flat)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "policy.ckpt"
    first = tiny_policy(seed=23)
    save_policy(path, first)
    assert [f.name for f in tmp_path.iterdir()] == ["policy.ckpt"]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_policy(path, tiny_policy(seed=24))
    # the old checkpoint is untouched and no temporary file is left behind
    assert [f.name for f in tmp_path.iterdir()] == ["policy.ckpt"]
    assert np.array_equal(load_policy(path).flat, first.flat)


def test_encode_context_is_mean_embedding():
    p = tiny_policy(seed=1)
    x = TokenSeq.from_content([1, 2])
    expected = (p.token_embedding[1] + p.token_embedding[2] + p.token_embedding[EOS]) / 3
    assert np.allclose(encode_contexts(p, pad([x]))[0], expected, atol=1e-15)


def test_encode_context_sum_over_length_is_mean_bitwise():
    gen = np.random.default_rng(29)
    for n in range(1, 30):
        for _ in range(3):
            cfg = PolicyConfig(vocab_size=int(gen.integers(2, 40)), embed_dim=int(gen.integers(1, 16)))
            p = PolicyParams.init_random(cfg, seed=int(gen.integers(2**31)), scale=float(gen.uniform(0.01, 3.0)))
            x = TokenSeq.from_content(gen.integers(1, cfg.vocab_size, size=n - 1).tolist())
            assert np.array_equal(encode_contexts(p, pad([x]))[0], p.token_embedding[list(x.ids)].mean(axis=0))


def test_step_logits_shape():
    p = tiny_policy(seed=1, vocab=4)
    ctx = reference_context(p, TokenSeq.from_content([1]))
    assert step_logits(p, ctx, BOS).shape == (4,)


def random_inputs(gen, vocab: int, count: int, longest: int) -> list[TokenSeq]:
    return [
        TokenSeq.from_content(gen.integers(1, vocab, size=int(gen.integers(0, longest))).tolist())
        for _ in range(count)
    ]


def test_batched_contexts_equal_encode_context_bitwise():
    gen = np.random.default_rng(41)
    for embed in [1, 2, 3, 8, 12, 16]:  # one column: numpy sums the positions pairwise
        for _ in range(40):
            cfg = PolicyConfig(vocab_size=int(gen.integers(2, 40)), embed_dim=embed)
            p = PolicyParams.init_random(cfg, seed=int(gen.integers(2**31)), scale=float(gen.uniform(0.01, 3.0)))
            xs = random_inputs(gen, cfg.vocab_size, int(gen.integers(1, 10)), 30)
            got = encode_contexts(p, pad(xs))
            assert all(np.array_equal(row, reference_context(p, x)) for row, x in zip(got, xs))
            logits, (u, s) = transition_logits_batch(p, xs)
            for b, x in enumerate(xs):
                want_logits, (want_u, want_s) = transition_logits_batch(p, [x])
                assert np.array_equal(logits[b], want_logits[0])
                assert np.array_equal(u[b], want_u[0]) and np.array_equal(s[b], want_s[0])
                # the oracle's one-input table encodes its context inline, bitwise the same
                assert np.array_equal(transition_table(p, x), log_softmax_rows(logits[b]))
    p = tiny_policy(seed=3, vocab=4)
    with pytest.raises(ValueError, match="token id 7 out of range for vocabulary of size 4"):
        transition_logits_batch(p, [TokenSeq.from_content([1]), TokenSeq.from_content([2, 7, 9])])


@pytest.mark.parametrize("max_len", [1, 2, 5, 24])
def test_path_logprobs_equal_per_sequence_sums_bitwise(max_len):
    gen = np.random.default_rng(max_len)
    for _ in range(60):
        vocab, b, m = int(gen.integers(2, 21)), int(gen.integers(1, 6)), int(gen.integers(1, 9))
        tables = log_softmax_rows(gen.normal(0.0, float(gen.uniform(0.1, 8.0)), (b, vocab, vocab)))
        seqs = [  # lengths 1..max_len
            TokenSeq.from_content(gen.integers(1, vocab, size=int(gen.integers(0, max_len))).tolist())
            for _ in range(b * m)
        ]
        got = path_logprobs(tables, pad(seqs))
        want = [path_logprob(tables[r // m], z) for r, z in enumerate(seqs)]
        assert got.tolist() == want


def test_transition_counts_from_rows_equal_the_items_reference():
    gen = np.random.default_rng(43)
    for _ in range(60):
        vocab, b, m = int(gen.integers(2, 12)), int(gen.integers(1, 6)), int(gen.integers(1, 9))
        seqs = random_inputs(gen, vocab, b * m, 12)
        seqs[-1] = seqs[0]  # a repeated sequence hits the same cells again
        weights = gen.normal(size=b * m)
        weights[::4] = 0.0
        items = [(r // m, z, w) for r, (z, w) in enumerate(zip(seqs, weights))]
        got = _transition_counts(b, vocab, pad(seqs), weights)
        assert np.array_equal(got, reference_transition_counts(b, vocab, items))


def test_weighted_seq_grads_name_the_first_bad_row():
    p = tiny_policy(seed=2, vocab=4, max_len=4)
    x = TokenSeq.from_content([1])
    ok, long, foreign = TokenSeq.from_content([1]), TokenSeq.from_content([1, 2, 3, 1]), TokenSeq((5, EOS))
    with pytest.raises(ValueError, match="^token id 5 out of range for vocabulary of size 4$"):
        weighted_seq_grads(p, pad([x]), pad([ok, foreign, long]), np.ones(3))
    with pytest.raises(ValueError, match="^sequence length 5 exceeds max_len 4$"):
        weighted_seq_grads(p, pad([x]), pad([ok, long, foreign]), np.ones(3))
    with pytest.raises(ValueError, match="^2 weights for 3 sequences$"):
        weighted_seq_grads(p, pad([x]), pad([ok, ok, ok]), np.ones(2))


def test_padded_batches_name_a_negative_id_as_out_of_range():
    # hand-built batches: no TokenSeq holds a negative id, so only a Padded can
    p = tiny_policy(seed=2, vocab=4, max_len=4)
    x, ok, long = TokenSeq.from_content([1]), TokenSeq.from_content([2]), TokenSeq.from_content([1, 2, 3, 1])
    inputs = pad([x, TokenSeq.from_content([1, 2])])
    inputs.ids[1, 1] = -1
    with pytest.raises(ValueError, match="^token id -1 out of range for vocabulary of size 4$"):
        encode_contexts(p, inputs)
    with pytest.raises(ValueError, match="^token id -1 out of range for vocabulary of size 4$"):
        weighted_seq_grads(p, inputs, pad([ok, ok]), np.ones(2))
    rows = pad([ok, TokenSeq.from_content([3, 1]), long])
    rows.ids[1, 0] = -2
    with pytest.raises(ValueError, match="^token id -2 out of range for vocabulary of size 4$"):
        weighted_seq_grads(p, pad([x]), rows, np.ones(3))
    rows.ids[1, 1] = 7  # the row's first bad id is named
    with pytest.raises(ValueError, match="^token id -2 out of range for vocabulary of size 4$"):
        weighted_seq_grads(p, pad([x]), rows, np.ones(3))
    rows = pad([ok, long, TokenSeq.from_content([3, 1])])
    rows.ids[2, 0] = -2  # the first bad row is named, whatever is wrong with it
    with pytest.raises(ValueError, match="^sequence length 5 exceeds max_len 4$"):
        weighted_seq_grads(p, pad([x]), rows, np.ones(3))


def test_path_kernels_name_the_row_and_input_counts():
    p = tiny_policy(seed=2, vocab=4, max_len=4)
    x, z = TokenSeq.from_content([1]), TokenSeq.from_content([2])
    message = "^3 rows for 2 inputs: each input needs the same number of rows$"
    with pytest.raises(ValueError, match=message):
        weighted_seq_grads(p, pad([x, x]), pad([z, z, z]), np.ones(3))
    with pytest.raises(ValueError, match=message):
        path_logprobs(np.stack([transition_table(p, x)] * 2), pad([z, z, z]))
