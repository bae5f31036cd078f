"""Conditional autoregressive rewriter with exact log-probs and gradients.

The model is deliberately tiny: the input is encoded as the mean of its token
embeddings, and each output step conditions only on that context plus the
previous token's embedding. That keeps the sequence distribution exactly
enumerable and the gradient fully analytic, which the enumeration and
finite-difference checks depend on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace
from typing import NamedTuple

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


class Padded(NamedTuple):
    """Token ids of a batch, zero-padded to its longest sequence, and the mask of real positions."""

    ids: np.ndarray
    valid: np.ndarray


def pad(seqs) -> Padded:
    if not seqs:
        raise ValueError("empty batch")
    lengths = np.array([len(s.ids) for s in seqs])
    valid = np.arange(lengths.max()) < lengths[:, None]
    ids = np.zeros(valid.shape, dtype=np.intp)
    ids[valid] = [t for s in seqs for t in s.ids]
    return Padded(ids, valid)


def unpad(rows: Padded) -> list[TokenSeq]:
    """The sequences of a padded batch, in row order."""
    return [TokenSeq(tuple(ids[:n])) for ids, n in zip(rows.ids.tolist(), rows.valid.sum(axis=1).tolist())]


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


def _check_rows(rows: Padded, cfg: PolicyConfig) -> None:
    """check_output_seq of the first bad row of a padded batch, if any."""
    ids, valid = rows
    if ids.shape[1] > cfg.max_len or ids.max() >= cfg.vocab_size:  # else every row passes: padding is zero
        lengths = valid.sum(axis=1)
        for i in np.flatnonzero((valid & (ids >= cfg.vocab_size)).any(axis=1) | (lengths > cfg.max_len))[:1]:
            check_output_seq(TokenSeq(tuple(ids[i, : lengths[i]])), cfg)


def encode_contexts(params: PolicyParams, inputs: Padded) -> np.ndarray:
    """The mean embedding of each padded input, stacked, bitwise each input's
    own .mean(axis=0): positions sum in order, padding adds exact zeros. numpy
    sums a single embedding column pairwise by padded length, so that case
    encodes inputs one at a time."""
    emb, (ids, valid) = params.token_embedding, inputs
    if ids.max() >= len(emb):  # padding is zero
        for i in np.flatnonzero((valid & (ids >= len(emb))).any(axis=1))[:1]:
            _check_ids(TokenSeq(tuple(ids[i][valid[i]])), len(emb))
    if emb.shape[1] == 1:
        return np.array([emb[row[keep]].sum(axis=0) / keep.sum() for row, keep in zip(ids, valid)])
    gathered = np.concatenate([emb, np.zeros_like(emb[:1])])[np.where(valid, ids, len(emb))]
    return gathered.sum(axis=1) / valid.sum(axis=1)[:, None]


def _forward(params, contexts: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Raw next-token logits (B, V, V) for a batch of (B, d) input contexts,
    every previous token at once, plus the activations the backward reuses:
    step inputs u (B, V, 2d) and hidden states s (B, V, h). `params` is a
    PolicyParams, or its four weight arrays stacked along a leading (B,) axis,
    one parameter vector per context (transition_tables)."""
    emb = params.token_embedding
    v, d = emb.shape[-2:]
    u = np.empty((len(contexts), v, 2 * d))
    u[:, :, :d] = contexts[:, None, :]
    u[:, :, d:] = emb
    s = np.tanh(u @ params.rec_w.swapaxes(-1, -2) + params.rec_b[..., None, :])
    return s @ params.out_head, (u, s)


def transition_logits_batch(params: PolicyParams, xs) -> tuple[np.ndarray, tuple]:
    """Raw next-token logits of each input for every previous token at once,
    stacked: (B, V, V) logits whose [b, p] row holds the logits of the step
    after token p, and the (B, ...) activations (step inputs, hidden states)
    the backward reuses, from one forward over the batched contexts."""
    return _forward(params, encode_contexts(params, pad(xs)))


def transition_table(params: PolicyParams, x: TokenSeq) -> np.ndarray:
    """log P(next = t | previous = p, x) at [p, t]. The context is fixed per
    input, so this one table fixes every log-prob of every rewrite of x."""
    return transition_tables(params, params.flat[None], x)[0]


def transition_tables(params: PolicyParams, flats: np.ndarray, x: TokenSeq) -> np.ndarray:
    """transition_table of x under each row of a (K, P) block of parameter
    vectors laid out as `params`' own, stacked (K, V, V): one forward with
    (K, ...) weights, each table bitwise its row's own."""
    _check_ids(x, params.cfg.vocab_size)
    k = len(flats)
    weights = SimpleNamespace(**{
        name: flats[:, params.pv.segment_slice(name)].reshape(k, *shape) for name, shape in params.pv.segments()
    })
    # bitwise what .mean(axis=0) of each row's embeddings returns, without numpy's Python-level wrapper
    contexts = weights.token_embedding[:, list(x.ids)].sum(axis=1) / len(x.ids)
    return log_softmax_rows(_forward(weights, contexts)[0])


def _cells(rows: Padded, batch: int, v: int) -> np.ndarray:
    """Each position's flat (input, previous token, token) cell in a (batch, V, V) stack."""
    ids = rows.ids
    if len(ids) % batch:
        raise ValueError(f"{len(ids)} rows for {batch} inputs: each input needs the same number of rows")
    cells = ids + np.repeat(np.arange(0, batch * v * v, v * v), len(ids) // batch)[:, None]
    cells[:, 0] += BOS * v
    cells[:, 1:] += ids[:, :-1] * v
    return cells


def path_logprobs(tables: np.ndarray, rows: Padded) -> np.ndarray:
    """log P of each input-major row under its input's log-transition table:
    one gather, 0.0 past each row's end, summed in path order from 0.0."""
    cells = np.where(rows.valid, tables.reshape(-1).take(_cells(rows, *tables.shape[:2])), 0.0)
    total = np.zeros(len(cells))
    for col in cells.T:
        total += col
    return total


def seq_logprob(params: PolicyParams, x: TokenSeq, z: TokenSeq) -> float:
    """Exact log P(z | x): sum of per-step log-softmax terms. Always <= 0."""
    check_output_seq(z, params.cfg)
    return float(path_logprobs(transition_table(params, x)[None], pad([z]))[0])


def _transition_counts(batch: int, v: int, rows: Padded, weights) -> np.ndarray:
    """(batch, V, V) weighted transition counts of input-major rows: bincount adds each
    step's weight in row-major order, so each cell adds in path order. Padding steps weigh
    0 and fall on the (EOS, EOS) cell, which no real step reaches."""
    steps = np.asarray(weights, dtype=np.float64)[:, None] * rows.valid
    return np.bincount(_cells(rows, batch, v).ravel(), steps.ravel(), batch * v * v).reshape(batch, v, v)


def _backward(params: PolicyParams, inputs: Padded, counts, logits, u, s) -> np.ndarray:
    """Gradient rows (B, P): row b is the gradient of sum_{p,t} counts[b, p, t]
    * log P(t | p, input b), one stacked backward through the tables. With C
    the counts, the logit gradient is C - rowsum(C) * softmax(logits)."""
    d = params.cfg.embed_dim
    glogits = counts - counts.sum(axis=-1, keepdims=True) * np.exp(log_softmax_rows(logits))
    g = np.empty((len(logits), params.pv.size))
    seg = {
        name: g[:, params.pv.segment_slice(name)].reshape(len(logits), *shape)
        for name, shape in params.pv.segments()
    }
    seg["out_head"][:] = s.transpose(0, 2, 1) @ glogits
    ga = (glogits @ params.out_head.T) * (1.0 - s * s)
    seg["rec_w"][:] = ga.transpose(0, 2, 1) @ u
    seg["rec_b"][:] = ga.sum(axis=1)
    gu = ga @ params.rec_w
    seg["token_embedding"][:] = gu[:, :, d:]
    # the context is the mean of the input's embeddings
    rows = np.nonzero(inputs.valid)[0]
    g_ctx = gu[:, :, :d].sum(axis=1) / inputs.valid.sum(axis=1)[:, None]
    np.add.at(seg["token_embedding"], (rows, inputs.ids[inputs.valid]), g_ctx[rows])
    return g


def weighted_seq_grads(
    params: PolicyParams, inputs: Padded, rows: Padded, weights, transition=None
) -> np.ndarray:
    """Gradient rows (B, P): row b is the gradient of sum_r weights[r] * log P(row r | input b)
    over input b's rows (input-major), by one stacked backward from the weighted transition
    counts; a caller holding transition_logits_batch of the inputs passes it as `transition`."""
    if len(weights) != len(rows.ids):
        raise ValueError(f"{len(weights)} weights for {len(rows.ids)} sequences")
    _check_rows(rows, params.cfg)
    counts = _transition_counts(len(inputs.ids), params.cfg.vocab_size, rows, weights)
    logits, (u, s) = _forward(params, encode_contexts(params, inputs)) if transition is None else transition
    return _backward(params, inputs, counts, logits, u, s)


def pretrain_mle(
    params: PolicyParams,
    pairs,
    epochs: int,
    lr: float,
    batch_size: int = 8,
    seed: int = 0,
) -> PolicyParams:
    """Maximum-likelihood pretraining on (input, rewrite-target) pairs: the inputs are
    padded and each target's transitions counted once, and a minibatch is one stacked
    forward and backward over its rows. Returns an updated copy; the argument is left untouched."""
    if not pairs:
        raise ValueError("no training pairs")
    n = len(pairs)
    inputs, targets = pad([x for x, _ in pairs]), pad([z for _, z in pairs])
    _check_rows(targets, params.cfg)
    counts = _transition_counts(n, params.cfg.vocab_size, targets, np.ones(n))
    out = params.copy()
    opt = AdamW(out.flat.size, AdamConfig(lr=lr))
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            chunk = order[start : start + batch_size]
            batch = Padded(inputs.ids[chunk], inputs.valid[chunk])
            logits, (u, s) = _forward(out, encode_contexts(out, batch))
            grad = np.zeros(out.flat.size)
            for row in _backward(out, batch, counts[chunk], logits, u, s):
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
