import math

import mpmath
import numpy as np
import pytest

from riff.classifier import (
    ClassifierConfig,
    ClassifierParams,
    TuningMode,
    classifier_segments,
    trainable_mask,
)
from riff import estimators as est
from riff.data import TaskTemplate, _check_masks, _first_bad
from riff.decoding import DecodeConfig, decode_batch
from riff.numerics import ParamVector, gelu_grad_vec, gelu_vec, log_softmax_rows
from riff.optim import AdamConfig, AdamW
from riff.oracle import Enumeration, exact_kl_objective, exact_objectives
from riff.policy import (
    Padded,
    PolicyConfig,
    PolicyParams,
    TokenSeq,
    pad,
    policy_segments,
    seq_logprob,
    transition_logits_batch,
    transition_table,
    unpad,
    weighted_seq_grads,
)
from riff.training import decode_config, derive_seed
from riff.vocab import BOS, EOS, MASK, SEP


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


def logsumexp(xs) -> float:
    """log(sum(exp(xs))), shifted by the max for stability. Exact on singletons."""
    arr = np.asarray(xs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("logsumexp of an empty array")
    m = float(np.max(arr))
    if m == -math.inf:
        return -math.inf
    if not math.isfinite(m):
        raise ValueError("non-finite input to logsumexp")
    return m + math.log(float(np.sum(np.exp(arr - m))))


def log_softmax(logits) -> np.ndarray:
    arr = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite logits")
    return arr - logsumexp(arr)


def softmax(logits) -> np.ndarray:
    return np.exp(log_softmax(logits))


def format_input(template: TaskTemplate, instruction, x: TokenSeq) -> TokenSeq:
    """The formatted input BOS + instruction + content + SEP + MASK + EOS as a
    sequence, the reference data.formatted_counts is checked against."""
    instruction = tuple(int(t) for t in instruction)
    content = x.content
    if MASK in content:
        raise ValueError("content may not contain the mask token")
    ids = (BOS, *instruction, *content, SEP, MASK, EOS)
    if len(ids) > template.max_input_len:
        raise ValueError(
            f"formatted input of {len(ids)} tokens exceeds the {template.max_input_len} limit"
        )
    return TokenSeq(ids)


def token_counts(params: ClassifierParams, seqs) -> np.ndarray:
    """(B, V) float counts of each vocabulary token in each sequence
    (TokenSeqs or a Padded batch), the classifier's input. A row with an id
    outside the vocabulary, or without exactly one MASK, raises a RowError
    naming it."""
    ids, valid = seqs if isinstance(seqs, Padded) else pad(list(seqs))
    b, v = len(ids), params.cfg.vocab_size
    out = valid & ((ids < 0) | (ids >= v))
    _first_bad(out.any(axis=1), lambda i: (
        f"token id {ids[i][out[i]][0]} out of range for vocabulary of size {v}"))
    flat = (np.arange(b)[:, None] * v + ids)[valid]
    counts = np.bincount(flat, minlength=b * v).reshape(b, v).astype(np.float64)
    _check_masks(counts)
    return counts


def step_logits(params: PolicyParams, context: np.ndarray, prev_id: int) -> np.ndarray:
    """Raw next-token logits of one step, from the context and the previous token."""
    u = np.concatenate([context, params.token_embedding[prev_id]])
    s = np.tanh(params.rec_w @ u + params.rec_b)
    return s @ params.out_head


def reference_context(params: PolicyParams, x: TokenSeq) -> np.ndarray:
    """The input's context: the mean of its token embeddings."""
    return params.token_embedding[list(x.ids)].mean(axis=0)


def greedy_path(params: PolicyParams, x: TokenSeq) -> TokenSeq:
    """Stepwise-argmax sequence under the raw policy; ties go to the lowest id."""
    logits = transition_logits_batch(params, [x])[0][0]
    prefix: list[int] = []
    prev = BOS
    while len(prefix) < params.cfg.max_len - 1:
        tok = int(np.argmax(logits[prev]))
        if tok == EOS:
            break
        prefix.append(tok)
        prev = tok
    return TokenSeq.from_content(prefix)


def assemble_gradient(phi, per_sample_grads) -> np.ndarray:
    """sum_j phi_j * grad_j, one sample at a time. Zero coefficients are
    skipped so one-hot coefficients reproduce their gradient bitwise."""
    total = np.zeros_like(per_sample_grads[0])
    for weight, grad in zip(phi, per_sample_grads):
        if weight != 0.0:
            total += weight * grad
    return total


def kl_penalized_gradient(cur, fixed, per_sample_grads, base: np.ndarray, beta: float) -> np.ndarray:
    """base - beta * mean_j (log s_j + 1) * grad_j over m on-policy samples,
    with log s_j = cur_j - fixed_j the log-ratio against the anchor; beta == 0
    returns a copy of base."""
    if beta == 0.0:
        return base.copy()
    penalty = np.zeros_like(base)
    for ratio, grad in zip(np.subtract(cur, fixed), per_sample_grads):
        penalty += (ratio + 1.0) * grad
    return base - beta * penalty / len(cur)


def path_logprob(table: np.ndarray, z: TokenSeq) -> float:
    """Sum of table lookups along z, starting from BOS, one Python float at a
    time: policy.path_logprobs must return these bitwise."""
    total = 0.0
    for prev, tok in zip((BOS,) + z.ids[:-1], z.ids):
        total += float(table[prev, tok])
    return total


def reference_transition_counts(batch: int, vocab_size: int, items) -> np.ndarray:
    """(batch, V, V) weighted transition counts from (row, sequence, weight)
    items: one unbuffered add.at over the items' steps, in item order."""
    rows, prevs, toks, ws = [], [], [], []
    for row, z, w in items:
        ids = z.ids
        rows += [row] * len(ids)
        prevs += [BOS, *ids[:-1]]
        toks += ids
        ws += [w] * len(ids)
    counts = np.zeros((batch, vocab_size, vocab_size))
    index = tuple(np.array(a, dtype=np.intp) for a in (rows, prevs, toks))
    np.add.at(counts, index, np.array(ws, dtype=np.float64))
    return counts


def reference_seq_logprob(params: PolicyParams, x: TokenSeq, z: TokenSeq) -> float:
    """Straight-line log P(z | x): one step_logits call per output token."""
    ctx = reference_context(params, x)
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
    ctx = reference_context(params, x)
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


def reference_transition_logits(params: PolicyParams, x: TokenSeq) -> tuple[np.ndarray, tuple]:
    """Unbatched forward: V x V logits and the (u, s) activations for one input."""
    ctx = reference_context(params, x)
    emb = params.token_embedding
    u = np.hstack([np.broadcast_to(ctx, emb.shape), emb])
    s = np.tanh(u @ params.rec_w.T + params.rec_b)
    return s @ params.out_head, (u, s)


def reference_weighted_seq_grad(params: PolicyParams, x: TokenSeq, seqs, weights) -> np.ndarray:
    """Unbatched backward through one table, counts added one sequence at a time."""
    cfg = params.cfg
    v, d = cfg.vocab_size, cfg.embed_dim
    counts = np.zeros((v, v))
    for z, w in zip(seqs, weights):
        np.add.at(counts, ((BOS,) + z.ids[:-1], z.ids), w)
    logits, (u, s) = reference_transition_logits(params, x)
    glogits = counts - counts.sum(axis=1, keepdims=True) * np.exp(log_softmax_rows(logits))
    g = ParamVector(policy_segments(cfg))
    g.view("out_head")[:] = s.T @ glogits
    ga = (glogits @ params.out_head.T) * (1.0 - s * s)
    g.view("rec_w")[:] = ga.T @ u
    g.view("rec_b")[:] = ga.sum(axis=0)
    gu = ga @ params.rec_w
    g_emb = g.view("token_embedding")
    g_emb[:] = gu[:, d:]
    np.add.at(g_emb, list(x.ids), gu[:, :d].sum(axis=0) / len(x.ids))
    return g.values


def reference_pretrain_mle(params: PolicyParams, pairs, epochs: int, lr: float,
                           batch_size: int = 8, seed: int = 0) -> PolicyParams:
    """pretrain_mle with one unbatched backward per pair, summed in chunk order."""
    out = params.copy()
    opt = AdamW(out.flat.size, AdamConfig(lr=lr))
    rng = np.random.default_rng(seed)
    n = len(pairs)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            chunk = order[start : start + batch_size]
            grad = np.zeros(out.flat.size)
            for idx in chunk:
                x, z = pairs[idx]
                grad += reference_weighted_seq_grad(out, x, [z], [1.0])
            grad /= len(chunk)
            opt.step(out.flat, -grad)
    return out


def total_mass(enum: Enumeration) -> float:
    """Probability mass of an enumeration's terminated sequences."""
    return float(np.sum(np.exp([lp for _, lp in enum.entries])))


def reference_enumerate_sequences(params: PolicyParams, x: TokenSeq, max_len: int) -> Enumeration:
    """Depth-first enumeration, one recursive call per prefix, summing
    log-probs along the path and the tail mass as it goes."""
    table = transition_table(params, x)
    entries: list[tuple[TokenSeq, float]] = []
    tail = 0.0

    def expand(prefix: list[int], logprob: float) -> None:
        nonlocal tail
        prev = prefix[-1] if prefix else BOS
        step = table[prev]
        entries.append((TokenSeq.from_content(prefix), logprob + float(step[EOS])))
        for tok in range(params.cfg.vocab_size):
            if tok == EOS:
                continue
            ext = logprob + float(step[tok])
            if len(prefix) + 1 <= max_len - 1:
                expand(prefix + [tok], ext)
            else:
                tail += float(np.exp(ext))

    expand([], 0.0)
    seqs = tuple(z for z, _ in entries)
    rows = pad(seqs)
    logprobs = np.array([lp for _, lp in entries])
    acts = transition_logits_batch(params, [x])[1]
    return Enumeration(seqs, rows, logprobs, tail, table, acts)


def reference_exact_values(params: PolicyParams, fixed: PolicyParams, x: TokenSeq, reward_fn, beta: float,
                           max_len: int) -> dict:
    """The straight-line forms of oracle's exact values: reference_enumerate_sequences
    entries, list-built weights, the anchor's seq_logprob of each sequence, then
    pad(seqs) and weighted_seq_grads with its own forward. Returns the plain
    objective, posteriors and gradient, the KL objective and gradient at beta
    (the plain pair at beta == 0), and the sequences and KL coefficients."""
    entries = reference_enumerate_sequences(params, x, max_len).entries
    seqs = [z for z, _ in entries]
    lps = np.array([lp for _, lp in entries])
    weights = np.array([lp + reward_fn(z) for z, lp in entries])
    out = {"seqs": seqs, "objective": logsumexp(weights), "posteriors": softmax(weights)}
    out["gradient"] = weighted_seq_grads(params, pad([x]), pad(seqs), out["posteriors"])[0]
    out["kl_objective"], out["kl_coeffs"] = out["objective"], out["posteriors"]
    if beta != 0.0:
        fixed_lps = np.array([seq_logprob(fixed, x, z) for z in seqs])
        out["kl_objective"] = out["objective"] - beta * float(np.sum(np.exp(lps) * (lps - fixed_lps)))
        out["kl_coeffs"] = out["posteriors"] - beta * np.exp(lps) * (lps - fixed_lps + 1.0)
    out["kl_gradient"] = weighted_seq_grads(params, pad([x]), pad(seqs), out["kl_coeffs"])[0]
    return out


def mp_objective_derivative(params: PolicyParams, x: TokenSeq, reward_fn, max_len: int, i: int,
                            dps: int = 50) -> float:
    """d exact_objective / d theta_i in mpmath at `dps` digits: central differences
    at a 10^-(dps/2 - 5) step of a straight-line objective (context, tanh layer,
    log-softmax table, path sums, log-sum-exp), all in extended precision."""
    seqs = [z for z, _ in reference_enumerate_sequences(params, x, max_len).entries]
    v, d = params.cfg.vocab_size, params.cfg.embed_dim

    def objective(flat):
        views = {n: flat[params.pv.segment_slice(n)] for n, _ in params.pv.segments()}
        emb = [views["token_embedding"][t * d : (t + 1) * d] for t in range(v)]
        rec_w, rec_b, out = views["rec_w"], views["rec_b"], views["out_head"]
        hidden = len(rec_b)
        ctx = [mpmath.fsum(emb[t][j] for t in x.ids) / len(x.ids) for j in range(d)]
        table = []
        for prev in range(v):
            u = ctx + emb[prev]
            s = [mpmath.tanh(mpmath.fsum(rec_w[k * 2 * d + j] * u[j] for j in range(2 * d)) + rec_b[k])
                 for k in range(hidden)]
            logits = [mpmath.fsum(s[k] * out[k * v + t] for k in range(hidden)) for t in range(v)]
            norm = mpmath.log(mpmath.fsum(mpmath.exp(a) for a in logits))
            table.append([a - norm for a in logits])
        terms = []
        for z in seqs:
            lp = mpmath.fsum(table[p][t] for p, t in zip((BOS,) + z.ids[:-1], z.ids))
            terms.append(lp + mpmath.mpf(reward_fn(z)))
        return mpmath.log(mpmath.fsum(mpmath.exp(a) for a in terms))

    with mpmath.workdps(dps):
        step = mpmath.mpf(10) ** -(dps // 2 - 5)
        base = [mpmath.mpf(float(t)) for t in params.flat]
        up, down = list(base), list(base)
        up[i] += step
        down[i] -= step
        return float((objective(up) - objective(down)) / (2 * step))


def exact_objective(params: PolicyParams, x: TokenSeq, reward_fn, max_len: int | None = None) -> float:
    """The plain exact objective log sum_z P(z|x) exp(R(z)): exact_kl_objective at beta == 0."""
    return exact_kl_objective(params, params, x, reward_fn, 0.0, max_len)


def stacked_central_diffs(params: PolicyParams, x: TokenSeq, reward_fn, max_len: int, h: float) -> np.ndarray:
    """Central differences (f(t + h e_i) - f(t - h e_i)) / 2h of exact_objective,
    every perturbed vector evaluated in one oracle.exact_objectives block."""
    n = params.flat.size
    block = np.repeat(params.flat[None], 2 * n, axis=0)
    diag = np.arange(n)
    block[diag, diag] = params.flat + h
    block[n + diag, diag] = params.flat - h
    values = exact_objectives(params, block, x, reward_fn, max_len)
    return (values[:n] - values[n:]) / (2.0 * h)


def reference_top_p_sample(
    policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig, table: np.ndarray | None = None
) -> list[tuple[TokenSeq, float]]:
    """Straight-line nucleus sampling, the nucleus rebuilt and one rng.choice
    made per token: decoding.top_p_batch must draw these ids, and
    policy.path_logprobs must return these log-probs, bitwise."""
    rng = np.random.default_rng(cfg.seed)
    table = transition_table(policy, x) if table is None else table
    max_len = policy.cfg.max_len
    out = []
    for _ in range(cfg.m):
        ids: list[int] = []
        logprob = 0.0
        prev = BOS
        while True:
            if len(ids) == max_len - 1:
                tok = EOS
            else:
                probs = np.exp(table[prev])
                order = np.argsort(-probs, kind="stable")
                csum = np.cumsum(probs[order])
                cut = min(int(np.searchsorted(csum, cfg.top_p, side="left")), len(order) - 1)
                keep = order[: cut + 1]
                nucleus = probs[keep] / probs[keep].sum()
                tok = int(rng.choice(keep, p=nucleus))
            ids.append(tok)
            logprob += float(table[prev, tok])
            if tok == EOS:
                break
            prev = tok
        out.append((TokenSeq(tuple(ids)), logprob))
    return out


def reference_nucleus(logprobs: np.ndarray, top_p: float, row: int) -> tuple[list[int], list[float]]:
    """The nucleus of one transition row built from that row alone: its token
    ids, most probable first, and the normalized cumulative sum a uniform
    draw is looked up in. decoding's stacked prep must return these bitwise."""
    probs = np.exp(logprobs)
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    cut = min(int(np.searchsorted(csum, top_p, side="left")), len(order) - 1)
    keep = order[: cut + 1]
    nucleus = probs[keep] / probs[keep].sum()
    if not np.all(np.isfinite(nucleus)):
        raise ValueError(f"non-finite probabilities in transition row {row}")
    cdf = nucleus.cumsum()
    cdf /= cdf[-1]
    return keep.tolist(), cdf.tolist()


def rewrite_ids(rows, m: int) -> list[list[tuple[int, ...]]]:
    """The ids of an input-major rewrite array (a Padded, m rows per input), per input."""
    ids = [z.ids for z in unpad(rows)]
    return [ids[start : start + m] for start in range(0, len(ids), m)]


def reference_diverse_beam(
    policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig, logits: np.ndarray | None = None
) -> list[TokenSeq]:
    """Straight-line diverse beam, penalties and log-normalizer on numpy rows
    per group-step: decoding.diverse_beam must return these ids bitwise."""
    table_logits = transition_logits_batch(policy, [x])[0][0] if logits is None else logits
    max_len = policy.cfg.max_len
    prefixes: list[list[int]] = [[] for _ in range(cfg.m)]
    scores = [0.0] * cfg.m
    done = [False] * cfg.m
    while not all(done):
        chosen: dict[int, int] = {}
        for gidx in range(cfg.m):
            if done[gidx]:
                continue
            prefix = prefixes[gidx]
            prev = prefix[-1] if prefix else BOS
            logits = table_logits[prev].copy()
            for tok in set(prefix):
                if logits[tok] > 0:
                    logits[tok] /= cfg.repetition_penalty
                else:
                    logits[tok] *= cfg.repetition_penalty
            penalized = logits / cfg.temperature
            for tok, count in chosen.items():
                penalized[tok] -= cfg.diversity_penalty * count
            step_scores = penalized - logsumexp(penalized)
            if len(prefix) == max_len - 1:
                tok = EOS
            else:
                tok = int(np.argmax(step_scores))
            scores[gidx] += float(step_scores[tok])
            prefix.append(tok)
            chosen[tok] = chosen.get(tok, 0) + 1
            if tok == EOS:
                done[gidx] = True
    ranked = sorted(range(cfg.m), key=lambda i: (-scores[i], i))
    return [TokenSeq(tuple(prefixes[i])) for i in ranked]


def decode_one(policy: PolicyParams, x: TokenSeq, scheme: str, cfg: DecodeConfig) -> list[TokenSeq]:
    """m rewrites of one input by `scheme`, its draws seeded by cfg.seed: decode_batch of a batch of one."""
    logits = transition_logits_batch(policy, [x])[0]
    return unpad(decode_batch(policy, scheme, logits, log_softmax_rows(logits), [cfg.seed], cfg))


def reference_example_gradient(policy: PolicyParams, fixed: PolicyParams, ex, reward_fn, cfg, step: int):
    """One example's objective gradient from its own tables, decode and
    backward, with its mean raw reward and clamp-event count; `reward_fn`
    maps the samples to their rewards. training._minibatch_gradient must
    return the batch mean of these gradients bitwise."""
    table, fixed_table = transition_table(policy, ex.x), transition_table(fixed, ex.x)
    dc = decode_config(cfg, derive_seed(cfg.seed, step, ex.uid))
    seqs = decode_one(fixed if cfg.regime == "off" else policy, ex.x, cfg.decoder, dc)
    raw_rewards = np.asarray(reward_fn(seqs), dtype=np.float64)
    rewards = est.normalize_rewards(raw_rewards) if cfg.normalize else raw_rewards
    cur = np.array([path_logprob(table, z) for z in seqs])
    fixed_lp = np.array([path_logprob(fixed_table, z) for z in seqs])
    weights, clamp_events = est.coefficients(
        cur, fixed_lp, rewards, cfg.estimator, cfg.regime, cfg.resolved_beta()
    )
    grad = weighted_seq_grads(policy, pad([ex.x]), pad(seqs), weights)[0]
    return grad, float(raw_rewards.mean()), clamp_events


def table_reward(table_seed: int):
    """Deterministic pseudo-random reward in (-2, 0], keyed by sequence ids."""

    def reward_fn(z: TokenSeq) -> float:
        rng = np.random.default_rng([table_seed, *z.ids])
        return float(-2.0 * rng.random())

    return reward_fn


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def lora_weight(w, a, b, alpha: float, rank: int) -> np.ndarray:
    """The adapted weight W + (alpha / rank) * B A."""
    w = np.asarray(w, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != rank or b.shape[1] != rank:
        raise ValueError(f"rank mismatch: expected {rank}, got A {a.shape}, B {b.shape}")
    if a.shape[1] != w.shape[1] or b.shape[0] != w.shape[0]:
        raise ValueError("adapter shapes incompatible with base matrix")
    return w + (alpha / rank) * (b @ a)


def _reference_forward(params: ClassifierParams, seq: TokenSeq, mode: TuningMode) -> dict:
    """Straight-line full self-attention over one sequence: every row's q, k, v."""
    cfg = params.cfg
    use_prompts = mode is TuningMode.SOFT_PROMPT and cfg.prompt_len > 0
    x = params.seg("token_embedding")[list(seq.ids)]
    if use_prompts:
        x = np.vstack([params.seg("prompt_table"), x])
    wq, wv = params.seg("wq"), params.seg("wv")
    if mode is TuningMode.LORA:
        ar = (cfg.lora_alpha, cfg.lora_rank)
        wq = lora_weight(wq, params.seg("lora_a_q"), params.seg("lora_b_q"), *ar)
        wv = lora_weight(wv, params.seg("lora_a_v"), params.seg("lora_b_v"), *ar)
    q, k, vv = x @ wq.T, x @ params.seg("wk").T, x @ wv.T
    scores = (q @ k.T) / np.sqrt(cfg.embed_dim)
    expd = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = expd / expd.sum(axis=1, keepdims=True)
    o = attn @ vv
    return {
        "ids": list(seq.ids), "n_prompt": cfg.prompt_len if use_prompts else 0,
        "x": x, "q": q, "k": k, "vv": vv, "attn": attn, "o": o,
        "h": x + o @ params.seg("wo").T, "wq": wq, "wv": wv,
    }


def _reference_attention_backward(params, mode, cache, d_h, g: ParamVector) -> np.ndarray:
    """Backprop d_h through full attention and the embeddings; returns the
    gradient rows of the input tokens (prompt rows excluded)."""
    cfg = params.cfg
    d_x = d_h.copy()
    d_o = d_h @ params.seg("wo")
    g.view("wo")[:] += d_h.T @ cache["o"]
    d_attn = d_o @ cache["vv"].T
    d_vv = cache["attn"].T @ d_o
    inner = (d_attn * cache["attn"]).sum(axis=1, keepdims=True)
    d_scores = (d_attn - inner) * cache["attn"]
    d_q = (d_scores @ cache["k"]) / np.sqrt(cfg.embed_dim)
    d_k = (d_scores.T @ cache["q"]) / np.sqrt(cfg.embed_dim)
    d_wq = d_q.T @ cache["x"]
    d_wv = d_vv.T @ cache["x"]
    g.view("wk")[:] += d_k.T @ cache["x"]
    g.view("wq")[:] += d_wq
    g.view("wv")[:] += d_wv
    if mode is TuningMode.LORA:
        scale = cfg.lora_alpha / cfg.lora_rank
        g.view("lora_a_q")[:] += scale * (params.seg("lora_b_q").T @ d_wq)
        g.view("lora_b_q")[:] += scale * (d_wq @ params.seg("lora_a_q").T)
        g.view("lora_a_v")[:] += scale * (params.seg("lora_b_v").T @ d_wv)
        g.view("lora_b_v")[:] += scale * (d_wv @ params.seg("lora_a_v").T)
    d_x += d_q @ cache["wq"] + d_k @ params.seg("wk") + d_vv @ cache["wv"]
    n = cache["n_prompt"]
    if n:
        g.view("prompt_table")[:] += d_x[:n]
    for pos, tok in enumerate(cache["ids"]):
        g.view("token_embedding")[tok] += d_x[n + pos]
    return d_x[n:]


def reference_label_logprobs(params, seq: TokenSeq, verbalizer, mode: TuningMode) -> np.ndarray:
    """Straight-line label log-probabilities of one sequence under the mode's
    own scoring path (the pooled head under CLS_HEAD)."""
    cache = _reference_forward(params, seq, mode)
    if mode is TuningMode.CLS_HEAD:
        a1 = params.seg("cls_w1") @ cache["h"].mean(axis=0) + params.seg("cls_b1")
        return log_softmax(params.seg("cls_w2") @ gelu_vec(a1) + params.seg("cls_b2"))
    row = cache["n_prompt"] + cache["ids"].index(MASK)
    return log_softmax((cache["h"][row] @ params.seg("lm_head"))[list(verbalizer.token_ids)])


def reference_label_grad(params, seq: TokenSeq, y: int, verbalizer, mode: TuningMode,
                         rows: bool = False):
    """Straight-line gradient of one sequence's label log-probability through
    full attention, masked to the mode's trainable segments; with rows=True,
    also the unmasked gradient rows of the embedded input tokens."""
    cfg = params.cfg
    cache = _reference_forward(params, seq, mode)
    g = ParamVector(classifier_segments(cfg))
    d_h = np.zeros_like(cache["h"])
    if mode is TuningMode.CLS_HEAD:
        pooled = cache["h"].mean(axis=0)
        a1 = params.seg("cls_w1") @ pooled + params.seg("cls_b1")
        act = gelu_vec(a1)
        g_logits = -softmax(params.seg("cls_w2") @ act + params.seg("cls_b2"))
        g_logits[y] += 1.0
        g.view("cls_w2")[:] += np.outer(g_logits, act)
        g.view("cls_b2")[:] += g_logits
        d_a1 = (params.seg("cls_w2").T @ g_logits) * gelu_grad_vec(a1)
        g.view("cls_w1")[:] += np.outer(d_a1, pooled)
        g.view("cls_b1")[:] += d_a1
        d_h[:] = params.seg("cls_w1").T @ d_a1 / len(d_h)
    else:
        row = cache["n_prompt"] + cache["ids"].index(MASK)
        h = cache["h"][row]
        vids = list(verbalizer.token_ids)
        g_label = -softmax((h @ params.seg("lm_head"))[vids])
        g_label[y] += 1.0
        for c, vid in enumerate(vids):
            g.view("lm_head")[:, vid] += g_label[c] * h
            d_h[row] += g_label[c] * params.seg("lm_head")[:, vid]
    d_rows = _reference_attention_backward(params, mode, cache, d_h, g)
    flat = g.values
    flat[~trainable_mask(params, mode)] = 0.0
    return (flat, d_rows) if rows else flat
