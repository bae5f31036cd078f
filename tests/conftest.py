import numpy as np
import pytest

from riff.classifier import ClassifierConfig, ClassifierParams, TuningMode
from riff.numerics import ParamVector, log_softmax, softmax
from riff.policy import PolicyConfig, PolicyParams, TokenSeq, encode_context, policy_segments, step_logits
from riff.vocab import BOS


def tiny_policy(seed=0, vocab=4, max_len=4, embed=4, hidden=5, scale=0.6) -> PolicyParams:
    cfg = PolicyConfig(vocab_size=vocab, embed_dim=embed, hidden_dim=hidden, max_len=max_len)
    return PolicyParams.init_random(cfg, seed=seed, scale=scale)


def tiny_classifier(seed=0, vocab=8, labels=2, embed=4, prompt_len=0, mode=TuningMode.ALL,
                    scale=0.4) -> ClassifierParams:
    cfg = ClassifierConfig(
        vocab_size=vocab, num_labels=labels, embed_dim=embed,
        prompt_len=prompt_len, lora_rank=2, cls_hidden=5,
    )
    return ClassifierParams.init_random(cfg, mode, seed=seed, scale=scale)


def max_scaled_error(got, want) -> float:
    """Largest absolute difference, relative to the largest reference entry."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def reference_seq_logprob(params: PolicyParams, x: TokenSeq, z: TokenSeq) -> float:
    """Straight-line log P(z | x): one step_logits call per output token."""
    ctx = encode_context(params, x)
    total = 0.0
    prev = BOS
    for tok in z.ids:
        total += float(log_softmax(step_logits(params, ctx, prev))[tok])
        prev = tok
    return total


def reference_seq_logprob_grad(params: PolicyParams, x: TokenSeq, z: TokenSeq) -> np.ndarray:
    """Straight-line gradient of log P(z | x): one backward per output token."""
    cfg = params.cfg
    emb = params.token_embedding
    ctx = encode_context(params, x)
    g = ParamVector(policy_segments(cfg))
    g_emb = g.view("token_embedding")
    g_rw = g.view("rec_w")
    g_rb = g.view("rec_b")
    g_out = g.view("out_head")
    g_ctx = np.zeros(cfg.embed_dim)
    prev = BOS
    for tok in z.ids:
        u = np.concatenate([ctx, emb[prev]])
        s = np.tanh(params.rec_w @ u + params.rec_b)
        logits = s @ params.out_head
        glogits = -softmax(logits)
        glogits[tok] += 1.0
        g_out += np.outer(s, glogits)
        ga = (params.out_head @ glogits) * (1.0 - s * s)
        g_rw += np.outer(ga, u)
        g_rb += ga
        gu = params.rec_w.T @ ga
        g_ctx += gu[: cfg.embed_dim]
        g_emb[prev] += gu[cfg.embed_dim :]
        prev = tok
    share = g_ctx / len(x.ids)
    for t in x.ids:
        g_emb[t] += share
    return g.values


def table_reward(table_seed: int):
    """Deterministic pseudo-random reward in (-2, 0], keyed by sequence ids."""

    def reward_fn(z: TokenSeq) -> float:
        rng = np.random.default_rng([table_seed, *z.ids])
        return float(-2.0 * rng.random())

    return reward_fn


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
