"""Conditional autoregressive rewriter with exact log-probs and gradients.

The model is deliberately tiny: the input is encoded as the mean of its token
embeddings, and each output step conditions only on that context plus the
previous token's embedding. That keeps the sequence distribution exactly
enumerable and the gradient fully analytic, which the enumeration and
finite-difference checks depend on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .numerics import ParamVector, log_softmax_rows
from .optim import AdamConfig, AdamW
from .vocab import BOS, EOS


@dataclass(frozen=True)
class TokenSeq:
    """Bounded id sequence, terminated by exactly one trailing EOS."""

    ids: tuple[int, ...]

    def __post_init__(self):
        # a list, not a generator: a generator-built tuple is resized after allocation,
        # and dead resized tuples pile up on CPython's per-length tuple free lists
        ids = tuple([int(t) for t in self.ids])
        object.__setattr__(self, "ids", ids)
        if len(ids) == 0:
            raise ValueError("empty token sequence")
        if min(ids) < 0:
            raise ValueError("negative token id")
        if ids[-1] != EOS:
            raise ValueError("sequence must end with EOS")
        if ids.count(EOS) != 1:
            raise ValueError("exactly one EOS allowed, at the end")

    @classmethod
    def from_content(cls, content) -> "TokenSeq":
        return cls((*content, EOS))

    @property
    def content(self) -> tuple[int, ...]:
        return self.ids[:-1]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class PolicyConfig:
    vocab_size: int
    embed_dim: int = 8
    hidden_dim: int = 16
    max_len: int = 6

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocabulary needs at least EOS plus one content token")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.max_len < 1:
            raise ValueError("max_len must be positive")


def policy_segments(cfg: PolicyConfig):
    v, d, h = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim
    return [
        ("token_embedding", (v, d)),
        ("rec_w", (h, 2 * d)),
        ("rec_b", (h,)),
        ("out_head", (h, v)),
    ]


class PolicyParams:
    def __init__(self, cfg: PolicyConfig, pv: ParamVector | None = None):
        self.cfg = cfg
        self.pv = pv if pv is not None else ParamVector(policy_segments(cfg))
        if self.pv.segments() != policy_segments(cfg):
            raise ValueError("parameter layout does not match config")

    @classmethod
    def init_random(cls, cfg: PolicyConfig, seed: int, scale: float = 0.1) -> "PolicyParams":
        rng = np.random.default_rng(seed)
        p = cls(cfg)
        p.pv.values[:] = rng.normal(0.0, scale, p.pv.size)
        return p

    @property
    def flat(self) -> np.ndarray:
        return self.pv.values

    @property
    def token_embedding(self) -> np.ndarray:
        return self.pv.view("token_embedding")

    @property
    def rec_w(self) -> np.ndarray:
        return self.pv.view("rec_w")

    @property
    def rec_b(self) -> np.ndarray:
        return self.pv.view("rec_b")

    @property
    def out_head(self) -> np.ndarray:
        return self.pv.view("out_head")

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.cfg, self.pv.copy())


def snapshot(params: PolicyParams) -> PolicyParams:
    """Immutable value copy; later updates to `params` do not affect it."""
    return PolicyParams(params.cfg, params.pv.copy().freeze())


def _check_ids(seq: TokenSeq, vocab_size: int) -> None:
    for t in seq.ids:
        if t >= vocab_size:
            raise ValueError(f"token id {t} out of range for vocabulary of size {vocab_size}")


def check_output_seq(z: TokenSeq, cfg: PolicyConfig) -> None:
    _check_ids(z, cfg.vocab_size)
    if len(z) > cfg.max_len:
        raise ValueError(f"sequence length {len(z)} exceeds max_len {cfg.max_len}")


def encode_context(params: PolicyParams, x: TokenSeq) -> np.ndarray:
    _check_ids(x, params.cfg.vocab_size)
    # bitwise what .mean(axis=0) returns, without numpy's Python-level wrapper
    return params.token_embedding[list(x.ids)].sum(axis=0) / len(x.ids)


def _forward(params: PolicyParams, contexts: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Raw next-token logits (B, V, V) for a batch of (B, d) input contexts,
    every previous token at once, plus the activations the backward reuses:
    step inputs u (B, V, 2d) and hidden states s (B, V, h)."""
    emb = params.token_embedding
    v, d = emb.shape
    u = np.empty((len(contexts), v, 2 * d))
    u[:, :, :d] = contexts[:, None, :]
    u[:, :, d:] = emb
    s = np.tanh(u @ params.rec_w.T + params.rec_b)
    return s @ params.out_head, (u, s)


def transition_logits(params: PolicyParams, x: TokenSeq) -> tuple[np.ndarray, tuple]:
    """Raw next-token logits for every previous token at once: row p holds
    the logits of the step after token p. Also returns the activations
    (step inputs, hidden states) the backward pass reuses."""
    logits, (u, s) = _forward(params, encode_context(params, x)[None])
    return logits[0], (u[0], s[0])


def transition_logits_batch(params: PolicyParams, xs) -> tuple[np.ndarray, tuple]:
    """transition_logits of each input, stacked: (B, V, V) logits and (B, ...)
    activations from one forward."""
    return _forward(params, np.array([encode_context(params, x) for x in xs]))


def transition_table(params: PolicyParams, x: TokenSeq) -> np.ndarray:
    """log P(next = t | previous = p, x) at [p, t]. The context is fixed per
    input, so this one table fixes every log-prob of every rewrite of x."""
    return log_softmax_rows(transition_logits(params, x)[0])


def path_logprob(table: np.ndarray, z: TokenSeq) -> float:
    """Sum of table lookups along z, starting from BOS."""
    total = 0.0
    for prev, tok in zip((BOS,) + z.ids[:-1], z.ids):
        total += float(table[prev, tok])
    return total


def seq_logprobs(params: PolicyParams, x: TokenSeq, seqs) -> np.ndarray:
    """Exact log P(z | x) of each z in seqs, all read off one table. Always <= 0."""
    for z in seqs:
        check_output_seq(z, params.cfg)
    table = transition_table(params, x)
    return np.array([path_logprob(table, z) for z in seqs])


def seq_logprob(params: PolicyParams, x: TokenSeq, z: TokenSeq) -> float:
    """Exact log P(z | x): sum of per-step log-softmax terms. Always <= 0."""
    return float(seq_logprobs(params, x, [z])[0])


def _transition_counts(batch: int, vocab_size: int, items) -> np.ndarray:
    """(batch, V, V) weighted transition counts from (row, sequence, weight)
    items: one unbuffered add.at, so each cell accumulates in item order."""
    rows, prevs, toks, ws = [], [], [], []
    for row, z, w in items:
        ids = z.ids
        rows += [row] * len(ids)
        prevs.append(BOS)
        prevs += ids[:-1]
        toks += ids
        ws += [w] * len(ids)
    counts = np.zeros((batch, vocab_size, vocab_size))
    index = tuple(np.array(a, dtype=np.intp) for a in (rows, prevs, toks))
    np.add.at(counts, index, np.array(ws, dtype=np.float64))
    return counts


def _backward(params: PolicyParams, xs, counts, logits, u, s) -> np.ndarray:
    """Gradient rows (B, P): row b is the gradient of sum_{p,t} counts[b, p, t]
    * log P(t | p, xs[b]), one stacked backward through the tables. With C the
    counts, the logit gradient is C - rowsum(C) * softmax(logits)."""
    d = params.cfg.embed_dim
    glogits = counts - counts.sum(axis=-1, keepdims=True) * np.exp(log_softmax_rows(logits))
    g = np.empty((len(xs), params.pv.size))
    seg = {
        name: g[:, params.pv.segment_slice(name)].reshape(len(xs), *shape)
        for name, shape in params.pv.segments()
    }
    seg["out_head"][:] = s.transpose(0, 2, 1) @ glogits
    ga = (glogits @ params.out_head.T) * (1.0 - s * s)
    seg["rec_w"][:] = ga.transpose(0, 2, 1) @ u
    seg["rec_b"][:] = ga.sum(axis=1)
    gu = ga @ params.rec_w
    seg["token_embedding"][:] = gu[:, :, d:]
    # the context is the mean of the input's embeddings
    rows = [b for b, x in enumerate(xs) for _ in x.ids]
    lens = np.array([len(x.ids) for x in xs])[:, None]
    g_ctx = gu[:, :, :d].sum(axis=1) / lens
    np.add.at(seg["token_embedding"], (rows, [t for x in xs for t in x.ids]), g_ctx[rows])
    return g


def weighted_seq_grads(params: PolicyParams, xs, items, transition: tuple | None = None) -> np.ndarray:
    """Gradient rows (B, P): row b is the gradient of the sum of
    w * log P(z | xs[b]) over the (b, z, w) items, by one stacked backward
    from the weighted transition counts. A caller already holding
    transition_logits_batch(params, xs) passes it as `transition`."""
    for _, z, _ in items:
        check_output_seq(z, params.cfg)
    counts = _transition_counts(len(xs), params.cfg.vocab_size, items)
    logits, (u, s) = transition_logits_batch(params, xs) if transition is None else transition
    return _backward(params, xs, counts, logits, u, s)


def weighted_seq_grad(params: PolicyParams, x: TokenSeq, seqs, weights) -> np.ndarray:
    """Gradient of sum_j weights[j] * seq_logprob(params, x, seqs[j]):
    weighted_seq_grads of one input."""
    if len(weights) != len(seqs):
        raise ValueError(f"{len(weights)} weights for {len(seqs)} sequences")
    return weighted_seq_grads(params, [x], [(0, z, w) for z, w in zip(seqs, weights)])[0]


def pair_grads(params: PolicyParams, xs, zs) -> np.ndarray:
    """Row b is the gradient of log P(zs[b] | xs[b]): one stacked forward
    and one stacked backward for the whole batch of pairs."""
    if len(xs) != len(zs):
        raise ValueError(f"{len(xs)} inputs for {len(zs)} targets")
    return weighted_seq_grads(params, xs, [(b, z, 1.0) for b, z in enumerate(zs)])


def pretrain_mle(
    params: PolicyParams,
    pairs,
    epochs: int,
    lr: float,
    batch_size: int = 8,
    seed: int = 0,
) -> PolicyParams:
    """Maximum-likelihood pretraining on (input, rewrite-target) pairs.

    Returns an updated copy; the argument is left untouched.
    """
    if not pairs:
        raise ValueError("no training pairs")
    out = params.copy()
    opt = AdamW(out.flat.size, AdamConfig(lr=lr))
    rng = np.random.default_rng(seed)
    n = len(pairs)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            chunk = order[start : start + batch_size]
            grad = np.zeros(out.flat.size)
            for row in pair_grads(out, [pairs[i][0] for i in chunk], [pairs[i][1] for i in chunk]):
                grad += row
            grad /= len(chunk)
            opt.step(out.flat, -grad)
    return out


def save_policy(path, params: PolicyParams) -> None:
    from .checkpoint import save_segments

    save_segments(path, {"kind": "policy", **asdict(params.cfg)}, params.pv)


def load_policy(path) -> PolicyParams:
    from .checkpoint import load_segments

    return load_segments(path, "policy", lambda header, pv: PolicyParams(
        PolicyConfig(**{f.name: header[f.name] for f in fields(PolicyConfig)}), pv))
