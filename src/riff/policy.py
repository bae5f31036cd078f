"""Conditional autoregressive rewriter with exact log-probs and gradients.

The model is deliberately tiny: the input is encoded as the mean of its token
embeddings, and each output step conditions only on that context plus the
previous token's embedding. That keeps the sequence distribution exactly
enumerable and the gradient fully analytic, which the enumeration and
finite-difference checks depend on.
"""

from __future__ import annotations

import math
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


def _check_padded(rows: Padded, vocab_size: int, max_len: float = math.inf) -> None:
    """Raise, with check_output_seq's message, for the first row of a padded
    batch that holds an id outside [0, vocab_size) (naming its first such
    id) or is longer than max_len."""
    ids, valid = rows
    if ids.min() >= 0 and ids.max() < vocab_size and ids.shape[1] <= max_len:
        return  # every row passes: padding is zero
    out = valid & ((ids < 0) | (ids >= vocab_size))
    lengths = valid.sum(axis=1)
    for i in np.flatnonzero(out.any(axis=1) | (lengths > max_len))[:1]:
        if out[i].any():
            raise ValueError(f"token id {ids[i][out[i]][0]} out of range for vocabulary of size {vocab_size}")
        raise ValueError(f"sequence length {lengths[i]} exceeds max_len {max_len}")


def _slots(inputs: Padded, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Each padded position's row in a (V + 1, d) embedding whose last row is
    zero (padding takes that row, V), and each input's length, (B, 1)."""
    ids, valid = inputs
    return np.where(valid, ids, v), valid.sum(axis=1)[:, None]


def _contexts(embedding: np.ndarray, slots: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The mean embedding of each input from its `_slots` rows of a zero-row-
    appended embedding, stacked, bitwise each input's own .mean(axis=0):
    positions sum in order, padding adds exact zeros. numpy sums a single
    embedding column pairwise by padded length, so that case sums each
    input's own rows."""
    if embedding.shape[1] == 1:
        pad_row = len(embedding) - 1
        return np.array([embedding[row[row != pad_row]].sum(axis=0) / n for row, n in zip(slots, lengths[:, 0])])
    return embedding[slots].sum(axis=1) / lengths


def encode_contexts(params: PolicyParams, inputs: Padded) -> np.ndarray:
    """The mean embedding of each padded input, stacked, bitwise each input's
    own .mean(axis=0)."""
    emb = params.token_embedding
    _check_padded(inputs, len(emb))
    return _contexts(np.concatenate([emb, np.zeros_like(emb[:1])]), *_slots(inputs, len(emb)))


def _forward(params, contexts: np.ndarray, u: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
    """Raw next-token logits (B, V, V) for a batch of (B, d) input contexts,
    every previous token at once, plus the activations the backward reuses:
    step inputs u (B, V, 2d), written into `u` if given, and hidden states
    s (B, V, h). `params` is a PolicyParams, or its four weight arrays stacked
    along a leading (B,) axis, one parameter vector per context
    (transition_tables)."""
    emb = params.token_embedding
    v, d = emb.shape[-2:]
    if u is None:
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


def transition_forward(params: PolicyParams, x: TokenSeq) -> tuple[np.ndarray, tuple]:
    """transition_table of x and the (1, ...) activations the backward reuses,
    from one forward: bitwise transition_table and the activations of
    transition_logits_batch(params, [x]), without padding a batch of one."""
    _check_ids(x, params.cfg.vocab_size)
    context = params.token_embedding[list(x.ids)].sum(axis=0) / len(x.ids)
    logits, acts = _forward(params, context[None])
    return log_softmax_rows(logits[0]), acts


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


class _Workspace:
    """Buffers of one stacked forward and backward over B inputs: the step
    inputs u and the (B, P) gradient rows with their segment views.
    pretrain_mle keeps one per minibatch size for its whole run and never
    hands its rows out; weighted_seq_grads returns the rows of a fresh one."""

    def __init__(self, params: PolicyParams, batch: int):
        v, d = params.cfg.vocab_size, params.cfg.embed_dim
        self.u = np.empty((batch, v, 2 * d))
        self.rows = np.empty((batch, params.pv.size))
        self.seg = {
            name: self.rows[:, params.pv.segment_slice(name)].reshape(batch, *shape)
            for name, shape in params.pv.segments()
        }
        # the embedding segment and one row past it: a padding slot (V) lands on
        # the first d entries of rec_w, which the backward writes after the scatter
        self.scatter = self.rows[:, : (v + 1) * d].reshape(batch, v + 1, d)
        self.batch_index = np.arange(batch)[:, None]


def _backward(params, work: _Workspace, slots, lengths, counts, rowsums, table, u, s) -> np.ndarray:
    """Gradient rows (B, P), in work.rows: row b is the gradient of sum_{p,t}
    counts[b, p, t] * log P(t | p, input b), one stacked backward through the
    (B, V, V) log-softmax tables. With C the counts and `rowsums` their
    rowsum(C), the logit gradient is C - rowsum(C) * exp(table). The inputs
    come as their `_slots` and lengths; `params` is a PolicyParams or its
    weight views (pretrain_mle)."""
    d = u.shape[-1] // 2
    seg = work.seg
    glogits = counts - rowsums * np.exp(table)
    seg["out_head"][:] = s.transpose(0, 2, 1) @ glogits
    ga = (glogits @ params.out_head.T) * (1.0 - s * s)
    gu = ga @ params.rec_w
    seg["token_embedding"][:] = gu[:, :, d:]
    # the context is the mean of the input's embeddings: one scatter adds its share
    # at every position in order, padding slots onto rec_w, overwritten next
    np.add.at(work.scatter, (work.batch_index, slots), (gu[:, :, :d].sum(axis=1) / lengths)[:, None])
    seg["rec_w"][:] = ga.transpose(0, 2, 1) @ u
    seg["rec_b"][:] = ga.sum(axis=1)
    return work.rows


def weighted_seq_grads(
    params: PolicyParams, inputs: Padded, rows: Padded, weights, transition=None
) -> np.ndarray:
    """Gradient rows (B, P): row b is the gradient of sum_r weights[r] * log P(row r | input b)
    over input b's rows (input-major), by one stacked backward from the weighted transition
    counts. A caller holding the inputs' forward passes it as `transition`: the log-softmax
    of transition_logits_batch's logits and its activations, (table, activations)."""
    if len(weights) != len(rows.ids):
        raise ValueError(f"{len(weights)} weights for {len(rows.ids)} sequences")
    _check_padded(rows, params.cfg.vocab_size, params.cfg.max_len)
    counts = _transition_counts(len(inputs.ids), params.cfg.vocab_size, rows, weights)
    work = _Workspace(params, len(inputs.ids))
    if transition is None:
        logits, acts = _forward(params, encode_contexts(params, inputs), work.u)
        transition = log_softmax_rows(logits), acts
    table, (u, s) = transition
    rowsums = counts.sum(axis=-1, keepdims=True)
    return _backward(params, work, *_slots(inputs, params.cfg.vocab_size), counts, rowsums, table, u, s)


def _check_pairs(pairs, cfg: PolicyConfig) -> None:
    """Raise naming the first (input, target) pair whose input holds an id
    outside the vocabulary, or whose target does or is longer than max_len."""
    for i, (x, z) in enumerate(pairs):
        try:
            role = "input"
            _check_ids(x, cfg.vocab_size)
            role = "target"
            check_output_seq(z, cfg)
        except ValueError as exc:
            raise ValueError(f"pair {i} {role}: {exc}") from None


def pretrain_mle(
    params: PolicyParams,
    pairs,
    epochs: int,
    lr: float,
    batch_size: int = 8,
    seed: int = 0,
) -> PolicyParams:
    """Maximum-likelihood pretraining on (input, rewrite-target) pairs. Every
    pair is checked, the inputs' slots and lengths found and each target's
    transitions counted once per run, and a minibatch gathers its rows of
    these: one stacked forward and backward in buffers the run reuses, and
    one reduction of the rows, bitwise their running sum from 0.0. Returns
    an updated copy; the argument is left untouched."""
    if not pairs:
        raise ValueError("no training pairs")
    _check_pairs(pairs, params.cfg)
    n, v = len(pairs), params.cfg.vocab_size
    slots, lengths = _slots(pad([x for x, _ in pairs]), v)
    counts = _transition_counts(n, v, pad([z for _, z in pairs]), np.ones(n))
    rowsums = counts.sum(axis=-1, keepdims=True)
    out = params.copy()
    # views of out's weights, which the optimizer updates in place, and the
    # embedding with a zero row appended that the contexts gather from
    views = SimpleNamespace(**{name: out.pv.view(name) for name, _ in out.pv.segments()})
    embedding = np.zeros((v + 1, params.cfg.embed_dim))
    opt = AdamW(out.flat.size, AdamConfig(lr=lr))
    rng = np.random.default_rng(seed)
    works = {b: _Workspace(out, b) for b in {min(batch_size, n - start) for start in range(0, n, batch_size)}}
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            chunk = order[start : start + batch_size]
            b_slots, b_lengths = slots[chunk], lengths[chunk]
            work = works[len(chunk)]
            embedding[:v] = views.token_embedding
            logits, (u, s) = _forward(views, _contexts(embedding, b_slots, b_lengths), work.u)
            table = log_softmax_rows(logits)
            rows = _backward(views, work, b_slots, b_lengths, counts[chunk], rowsums[chunk], table, u, s)
            grad = np.add.reduce(rows, axis=0, initial=0.0)
            grad /= len(rows)
            opt.step(out.flat, -grad)
    return out


def save_policy(path, params: PolicyParams) -> None:
    from .checkpoint import save_segments

    save_segments(path, {"kind": "policy", **asdict(params.cfg)}, params.pv)


def load_policy(path) -> PolicyParams:
    from .checkpoint import load_segments

    return load_segments(path, "policy", lambda header, pv: PolicyParams(
        PolicyConfig(**{f.name: header[f.name] for f in fields(PolicyConfig)}), pv))
