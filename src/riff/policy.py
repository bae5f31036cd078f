"""Conditional autoregressive rewriter with exact log-probs and gradients.

The model is deliberately tiny: the input is read as its token counts, its
context is the count-weighted mean of the token embeddings, and each output
step conditions only on that context plus the previous token's embedding.
That keeps the sequence distribution exactly enumerable and the gradient
fully analytic, which the enumeration and finite-difference checks depend on.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .numerics import ParamVector, check_int_fields, log_softmax_rows
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
        check_int_fields(self)
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


def check_output_rows(rows: Padded, cfg: PolicyConfig) -> None:
    """Raise, with check_output_seq's message, for the first row of a padded
    batch that holds an id outside the vocabulary (naming its first such id)
    or is longer than max_len."""
    (ids, valid), vocab_size, max_len = rows, cfg.vocab_size, cfg.max_len
    if ids.min() >= 0 and ids.max() < vocab_size and ids.shape[1] <= max_len:
        return  # every row passes: padding is zero
    out = valid & ((ids < 0) | (ids >= vocab_size))
    lengths = valid.sum(axis=1)
    for i in np.flatnonzero(out.any(axis=1) | (lengths > max_len))[:1]:
        if out[i].any():
            raise ValueError(f"token id {ids[i][out[i]][0]} out of range for vocabulary of size {vocab_size}")
        raise ValueError(f"sequence length {lengths[i]} exceeds max_len {max_len}")


def input_counts(xs, v: int) -> np.ndarray:
    """(B, V) float64 token-count rows of a list of TokenSeq inputs, one
    bincount each, so that no batch is padded. An id outside [0, V) raises
    as _check_ids raises, before bincount sizes its array by the largest id."""
    if not xs:
        raise ValueError("empty batch")
    for x in xs:
        if max(x.ids) >= v:
            _check_ids(x, v)
    counts = np.empty((len(xs), v))
    for i, x in enumerate(xs):
        counts[i] = np.bincount(x.ids, minlength=v)
    return counts


class Forward(NamedTuple):
    """One forward of a batch of inputs: their (B, V) token-count rows, the
    (B, V, V) raw next-token logits whose [b, p] row holds the logits of the
    step after token p, their log-softmax tables, log P(next = t | previous =
    p, input b) at [b, p, t], and the activations the backward reuses: step
    inputs u (B, V, 2d) and hidden states s (B, V, h), and the inputs'
    (B, 1) lengths, their count rows' sums. The context is fixed per input,
    so its table fixes every log-prob of every rewrite of it."""

    inputs: np.ndarray
    logits: np.ndarray
    table: np.ndarray
    activations: tuple
    lengths: np.ndarray


class _Workspace:
    """The buffers of one stacked forward and backward over B inputs, or of
    a forward over K parameter vectors of one input (transition_tables).
    The forward's: the step inputs u (B, V, 2d), the hidden states s
    (B, V, h), and the logits and their log-softmax tables (B, V, V). The
    backward's: the logit gradient, the (B, V, h) and (B, V, 2d) activation
    gradients and the (B, P) gradient rows with their segment views.
    pretrain_mle keeps one of both per minibatch size for its whole run and
    hands none of it out; every other caller builds a fresh one of the part
    it runs per call, so that the arrays it returns are its own."""

    def __init__(self, params: PolicyParams, batch: int, forward: bool = True, backward: bool = True):
        cfg = params.cfg
        v, d, h = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim
        if forward:
            self.u, self.s = np.empty((batch, v, 2 * d)), np.empty((batch, v, h))
            self.logits, self.table = np.empty((batch, v, v)), np.empty((batch, v, v))
        if backward:
            self.glogits, self.gu = np.empty((batch, v, v)), np.empty((batch, v, 2 * d))
            self.ga, self.slope = np.empty((batch, v, h)), np.empty((batch, v, h))
            self.rows = np.empty((batch, params.pv.size))
            self.seg = {
                name: self.rows[:, params.pv.segment_slice(name)].reshape(batch, *shape)
                for name, shape in params.pv.segments()
            }


def _logits(params, inputs: np.ndarray, lengths: np.ndarray, work: _Workspace) -> np.ndarray:
    """The (B, V, V) raw logits of (B, V) input count rows of (B, 1) lengths,
    every previous token at once, in work.logits, with the activations the
    backward reuses in work.u and work.s.
    An input's context is its mean embedding: the count-weighted (V, d)
    embedding rows summed over the vocabulary, over the input's length, an
    elementwise product, not a matmul, so that a row's bits do not depend on
    its batch: a one-row BLAS product rounds differently. `params` is a
    PolicyParams, its weight views (pretrain_mle), or its four weight arrays
    stacked along a leading (K,) axis, one parameter vector per table of one
    input's count row (transition_tables)."""
    emb = params.token_embedding
    contexts = (inputs[..., None] * emb).sum(axis=-2) / lengths
    d = emb.shape[-1]
    u, s = work.u, work.s
    u[:, :, :d] = contexts[:, None, :]
    u[:, :, d:] = emb
    np.matmul(u, params.rec_w.swapaxes(-1, -2), out=s)
    s += params.rec_b[..., None, :]
    np.tanh(s, out=s)
    return np.matmul(s, params.out_head, out=work.logits)


def _forward(params, inputs: np.ndarray, work: _Workspace | None = None, lengths=None) -> Forward:
    """The Forward of (B, V) input count rows, written into `work` (a fresh
    workspace when none is given; `params` is then a PolicyParams): their
    _logits and log-softmax tables. The rows' `lengths` are summed when the
    caller has not counted them."""
    if work is None:
        work = _Workspace(params, len(inputs), backward=False)
    if lengths is None:
        lengths = inputs.sum(axis=-1, keepdims=True)
    logits = _logits(params, inputs, lengths, work)
    return Forward(inputs, logits, log_softmax_rows(logits, out=work.table), (work.u, work.s), lengths)


def transition_forward(params: PolicyParams, xs) -> Forward:
    """The Forward of a list of inputs, from their checked count rows. Each
    input's rows are bitwise those of its batch of one."""
    return _forward(params, input_counts(xs, params.cfg.vocab_size))


def transition_logits(params: PolicyParams, xs) -> np.ndarray:
    """transition_forward(params, xs).logits, bitwise, without the log-softmax
    tables that a caller which only decodes from the logits never reads."""
    inputs = input_counts(xs, params.cfg.vocab_size)
    work = _Workspace(params, len(inputs), backward=False)
    return _logits(params, inputs, inputs.sum(axis=-1, keepdims=True), work)


def transition_tables(params: PolicyParams, flats: np.ndarray, x: TokenSeq) -> np.ndarray:
    """The log-transition table of x under each row of a (K, P) block of
    parameter vectors laid out as `params`' own, stacked (K, V, V): one
    forward with (K, ...) weights and x's one count row, each table bitwise
    its row's own transition_forward table."""
    k = len(flats)
    weights = SimpleNamespace(**{
        name: flats[:, params.pv.segment_slice(name)].reshape(k, *shape) for name, shape in params.pv.segments()
    })
    return _forward(weights, input_counts([x], params.cfg.vocab_size), _Workspace(params, k, backward=False)).table


def step_cells(rows: Padded, batch: int, v: int) -> np.ndarray:
    """(rows, steps) flat cells of input-major rows in a (batch, V, V) stack
    of tables: step j of row r is cell (input, previous token, token), and a
    padding step is cell batch * V * V, one past the stack."""
    ids = rows.ids
    if len(ids) % batch:
        raise ValueError(f"{len(ids)} rows for {batch} inputs: each input needs the same number of rows")
    cells = ids + np.repeat(np.arange(0, batch * v * v, v * v), len(ids) // batch)[:, None]
    cells[:, 0] += BOS * v
    cells[:, 1:] += ids[:, :-1] * v
    cells[~rows.valid] = batch * v * v
    return cells


def path_logprobs(tables: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """log P of each row of step_cells under a (B, V, V) stack of log-transition
    tables, or under each member of a (K, B, V, V) stack as (K, rows): one
    gather of every cell, then the steps summed in path order from 0.0 into a
    fresh C-contiguous array; padding adds an exact 0.0. numpy sums the rows
    of a transposed (K, rows) array in another order than each row alone, so
    a row-wise log-sum-exp over a strided result would round differently on
    some rows. One gather, not one per step: a recipe step's rows are short
    and many, where a take per step costs more than the gather itself."""
    *lead, b, v, _ = tables.shape
    flat = np.zeros((*lead, b * v * v + 1))
    flat[..., :-1] = tables.reshape(*lead, b * v * v)
    steps = flat.take(cells, axis=-1)
    total = 0.0 + steps[..., 0]
    for j in range(1, cells.shape[1]):
        total += steps[..., j]
    return total


def transition_counts(cells: np.ndarray, weights, batch: int, v: int) -> np.ndarray:
    """(batch, V, V) weighted transition counts of step_cells rows: one
    bincount adds each row's weight at each of its cells in row-major order,
    so each cell adds in path order. Padding falls on the cell past the
    stack, which is dropped."""
    steps = np.repeat(np.asarray(weights, dtype=np.float64), cells.shape[1])
    return np.bincount(cells.ravel(), steps, batch * v * v + 1)[:-1].reshape(batch, v, v)


def seq_logprob(params: PolicyParams, x: TokenSeq, z: TokenSeq) -> float:
    """Exact log P(z | x): sum of per-step log-softmax terms. Always <= 0."""
    check_output_seq(z, params.cfg)
    cells = step_cells(pad([z]), 1, params.cfg.vocab_size)
    return float(path_logprobs(transition_forward(params, [x]).table, cells)[0])


def _backward(params, work: _Workspace, fwd: Forward, counts, rowsums) -> np.ndarray:
    """Gradient rows (B, P), in work.rows: row b is the gradient of sum_{p,t}
    counts[b, p, t] * log P(t | p, input b), one stacked backward through the
    Forward's (B, V, V) log-softmax tables. With C the counts and `rowsums`
    their rowsum(C), the logit gradient is C - rowsum(C) * exp(table).
    `params` is a PolicyParams or its weight views (pretrain_mle)."""
    inputs, (u, s) = fwd.inputs, fwd.activations
    d = u.shape[-1] // 2
    seg, glogits, ga, slope, gu = work.seg, work.glogits, work.ga, work.slope, work.gu
    np.exp(fwd.table, out=glogits)
    glogits *= rowsums
    np.subtract(counts, glogits, out=glogits)
    np.matmul(s.transpose(0, 2, 1), glogits, out=seg["out_head"])
    np.matmul(glogits, params.out_head.T, out=ga)
    np.multiply(s, s, out=slope)
    np.subtract(1.0, slope, out=slope)
    ga *= slope
    np.matmul(ga, params.rec_w, out=gu)
    # the context is the count-weighted mean of the input's embeddings: a token
    # that occurs N_t times takes N_t shares of the context's gradient
    share = np.add.reduce(gu[:, :, :d], axis=1) / fwd.lengths
    np.multiply(inputs[:, :, None], share[:, None, :], out=seg["token_embedding"])
    seg["token_embedding"] += gu[:, :, d:]
    np.matmul(ga.transpose(0, 2, 1), u, out=seg["rec_w"])
    np.add.reduce(ga, axis=1, out=seg["rec_b"])
    return work.rows


def count_grads(params: PolicyParams, fwd: Forward, counts: np.ndarray) -> np.ndarray:
    """Gradient rows (B, P), fresh on every call: row b is the gradient of
    sum_{p,t} counts[b, p, t] * log P(t | p, input b), by one stacked backward
    through the inputs' Forward from their (B, V, V) transition counts, taken
    as given."""
    rowsums = counts.sum(axis=-1, keepdims=True)
    return _backward(params, _Workspace(params, len(counts), forward=False), fwd, counts, rowsums)


def weighted_seq_grads(params: PolicyParams, fwd: Forward, cells: np.ndarray, weights) -> np.ndarray:
    """Gradient rows (B, P): row b is the gradient of sum_r weights[r] * log P(row r | input b)
    over input b's rows (input-major), count_grads of the inputs' Forward and the rows'
    weighted transition counts. The rows come as the caller's step_cells of them, checked by
    the caller (check_output_rows) before it built them."""
    v, batch = params.cfg.vocab_size, len(fwd.inputs)
    if len(weights) != len(cells):
        raise ValueError(f"{len(weights)} weights for {len(cells)} sequences")
    if len(cells) % batch:
        raise ValueError(f"{len(cells)} rows for {batch} inputs: each input needs the same number of rows")
    return count_grads(params, fwd, transition_counts(cells, weights, batch, v))


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
    pair is checked and each input's tokens and length and target's
    transitions counted once per run, and a minibatch gathers its rows of
    these: one stacked forward and one backward into a workspace the run
    keeps per minibatch size, and one reduction of the gradient rows,
    bitwise their running sum from 0.0, into a gradient the run reuses.
    Returns an updated copy; the argument is left untouched."""
    if isinstance(batch_size, bool) or not isinstance(batch_size, numbers.Integral) or batch_size < 1:
        raise ValueError(f"batch_size must be an int >= 1, got {batch_size!r}")
    if isinstance(epochs, bool) or not isinstance(epochs, numbers.Integral) or epochs < 0:
        raise ValueError(f"epochs must be an int >= 0, got {epochs!r}")
    if not pairs:
        raise ValueError("no training pairs")
    _check_pairs(pairs, params.cfg)
    n, v = len(pairs), params.cfg.vocab_size
    inputs = input_counts([x for x, _ in pairs], v)
    lengths = inputs.sum(axis=-1, keepdims=True)
    counts = transition_counts(step_cells(pad([z for _, z in pairs]), n, v), np.ones(n), n, v)
    rowsums = counts.sum(axis=-1, keepdims=True)
    out = params.copy()
    # views of out's weights, which the optimizer updates in place
    views = SimpleNamespace(**{name: out.pv.view(name) for name, _ in out.pv.segments()})
    opt = AdamW(out.flat.size, AdamConfig(lr=lr))
    rng = np.random.default_rng(seed)
    works = {b: _Workspace(out, b) for b in {min(batch_size, n - start) for start in range(0, n, batch_size)}}
    grad = np.empty(out.flat.size)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            chunk = order[start : start + batch_size]
            work = works[len(chunk)]
            # take, not fancy indexing: the same rows, at less cost per call
            fwd = _forward(views, inputs.take(chunk, axis=0), work, lengths.take(chunk, axis=0))
            rows = _backward(views, work, fwd, counts.take(chunk, axis=0), rowsums.take(chunk, axis=0))
            np.add.reduce(rows, axis=0, initial=0.0, out=grad)
            grad /= -len(rows)  # the negated mean, bitwise -(grad / len): the optimizer minimizes
            opt.step(out.flat, grad)
    return out


def save_policy(path, params: PolicyParams) -> None:
    from .checkpoint import save_segments

    save_segments(path, {"kind": "policy", **asdict(params.cfg)}, params.pv)


def load_policy(path) -> PolicyParams:
    from .checkpoint import load_segments

    return load_segments(path, "policy", lambda header, pv: PolicyParams(
        PolicyConfig(**{f.name: header[f.name] for f in fields(PolicyConfig)}), pv))
