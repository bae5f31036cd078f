"""Ground truth by brute force: exhaustive enumeration of the rewrite space
and exact objective / gradient values that anchor every estimator check.

`reward_fn` arguments map a complete TokenSeq to a finite score; they must be
deterministic and independent of the policy parameters being differentiated.
A NaN or infinite score raises a ValueError naming the rewrite.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import ParamVector, log_normalizers
from .policy import (
    Padded,
    PolicyConfig,
    PolicyParams,
    TokenSeq,
    pad,
    policy_segments,
    transition_forward,
    transition_table,
    transition_tables,
    weighted_seq_grads,
)
from .vocab import BOS, EOS

ENUMERATION_GUARD = 1_000_000
TAIL_WARN_THRESHOLD = 1e-6


@dataclass(frozen=True)
class Enumeration:
    """All EOS-terminated sequences of length <= max_len with exact log-probs,
    the probability mass of unterminated length-max_len prefixes, and the
    forward they came from: x's (V, V) log-table and the activations the
    backward reuses. `seqs` and padded `rows` are the shape's cached support;
    every array field but the forward is read-only."""

    seqs: tuple[TokenSeq, ...]
    rows: Padded
    logprobs: np.ndarray
    tail_mass: float
    table: np.ndarray
    activations: tuple

    @property
    def entries(self) -> tuple[tuple[TokenSeq, float], ...]:
        """(sequence, log-prob) pairs in enumeration order."""
        # a list-built tuple: a zip-built one is resized after allocation and leaves
        # its dead twin on CPython's per-length tuple free list
        return tuple([(z, lp) for z, lp in zip(self.seqs, self.logprobs.tolist())])


def _guard(params: PolicyParams, max_len: int) -> int:
    max_len = params.cfg.max_len if max_len is None else max_len
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    if params.cfg.vocab_size**max_len > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of {params.cfg.vocab_size}^{max_len} sequences exceeds the guard"
        )
    return max_len


@functools.lru_cache(maxsize=8)
def _support(vocab_size: int, max_len: int) -> tuple[tuple[TokenSeq, ...], np.ndarray, Padded]:
    """The rewrite space of a shape, independent of any policy: every
    EOS-terminated sequence of length <= max_len in depth-first order (a
    prefix before its extensions, content tokens ascending), the flat indices
    of its (prev, tok) steps into a (V+1) x (V+1) table, one row per step and
    padded with the zero cell (V, V), followed by those of the unterminated
    length-max_len prefixes, and the sequences padded for the backward, all
    read-only. Every lookup of an enumeration is one gather; the sequences'
    own are the first len(seqs) columns of the indices."""
    width = vocab_size + 1
    tokens = [t for t in range(vocab_size) if t != EOS]
    contents = sorted(c for k in range(max_len) for c in itertools.product(tokens, repeat=k))
    tails = itertools.product(tokens, repeat=max_len)

    def steps(path: tuple[int, ...]) -> list[int]:
        flat = [p * width + t for p, t in zip((BOS,) + path[:-1], path)]
        return flat + [vocab_size * width + vocab_size] * (max_len - len(flat))

    seqs = tuple([TokenSeq.from_content(c) for c in contents])
    rows = pad(seqs)
    path_idx = np.array([steps(z.ids) for z in seqs] + [steps(c) for c in tails], dtype=np.intp).T.copy()
    for arr in (*rows, path_idx):
        arr.setflags(write=False)
    return seqs, path_idx, rows


def _path_logprobs(tables: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Log-prob of every path in `idx` (steps x paths) under a (V, V) table, or
    under each of a (K, V, V) stack as (K, paths), summed step by step from 0.0
    in path order, as path_logprob does; padding adds an exact 0.0. One gather
    per step keeps a stack's temporaries at (K, paths), and `take` keeps them
    C-contiguous: numpy sums the rows of a transposed (K, paths) array in
    another order than each row alone, so a row-wise log-sum-exp over it would
    round differently on some rows. policy.path_logprobs over a cached Padded
    support gives the same bits but rebuilds its cell indices on every call,
    while these are built once per support shape."""
    *lead, v, _ = tables.shape
    padded = np.zeros((*lead, v + 1, v + 1))
    padded[..., :v, :v] = tables
    cells = padded.reshape(*lead, -1)
    out = 0.0 + cells.take(idx[0], axis=-1)
    for step in idx[1:]:
        out += cells.take(step, axis=-1)
    return out


def enumerate_sequences(params: PolicyParams, x: TokenSeq, max_len: int | None = None) -> Enumeration:
    """The support of x under `params` from one forward of x, bitwise
    transition_table's, and one gather per step of the cached support."""
    max_len = _guard(params, max_len)
    seqs, path_idx, rows = _support(params.cfg.vocab_size, max_len)
    table, acts = transition_forward(params, x)
    paths = _path_logprobs(table, path_idx)
    logprobs = paths[: len(seqs)]
    # cumsum adds in path order, as a running sum from 0.0 does
    tail = float(np.exp(paths[len(seqs) :]).cumsum()[-1])
    if tail > TAIL_WARN_THRESHOLD:
        warnings.warn(f"unterminated tail mass {tail:.3g} exceeds {TAIL_WARN_THRESHOLD}")
    logprobs.setflags(write=False)
    return Enumeration(seqs, rows, logprobs, tail, table, acts)


def _rewards(seqs, reward_fn) -> np.ndarray:
    """reward_fn of each sequence as float64, checked finite: a NaN or infinite
    score raises naming the rewrite and the value."""
    rewards = np.array([reward_fn(z) for z in seqs], dtype=np.float64)
    for i in np.flatnonzero(~np.isfinite(rewards))[:1]:
        raise ValueError(f"reward_fn returned {rewards[i]} for rewrite {seqs[i].ids}; rewards must be finite")
    return rewards


def _anchor_logprobs(params: PolicyParams, fixed: PolicyParams, x: TokenSeq, max_len) -> np.ndarray:
    """log P_fixed(z | x) of every z that enumerate_sequences(params, x, max_len)
    lists, in its order, from the same support gather on the anchor's table.
    Read-only, and memoized on the anchor's values, x and max_len: a KL
    objective or gradient keeps one anchor across calls."""
    if fixed.cfg.vocab_size != params.cfg.vocab_size:
        raise ValueError(
            f"anchor vocabulary {fixed.cfg.vocab_size} differs from policy vocabulary "
            f"{params.cfg.vocab_size}"
        )
    return _anchor_support_logprobs(fixed.cfg, fixed.flat.tobytes(), x.ids, _guard(params, max_len))


@functools.lru_cache(maxsize=8)
def _anchor_support_logprobs(cfg: PolicyConfig, flat: bytes, ids: tuple[int, ...], max_len: int) -> np.ndarray:
    fixed = PolicyParams(cfg, ParamVector(policy_segments(cfg), np.frombuffer(flat)))
    seqs, path_idx, _ = _support(cfg.vocab_size, max_len)
    out = _path_logprobs(transition_table(fixed, TokenSeq(ids)), path_idx[:, : len(seqs)])
    out.setflags(write=False)
    return out


def exact_objectives(
    params: PolicyParams, flats: np.ndarray, x: TokenSeq, reward_fn, max_len: int | None = None,
    fixed: PolicyParams | None = None, beta: float = 0.0,
) -> np.ndarray:
    """log sum_z P(z|x) exp(R(z)) - beta sum_z P(z|x) log(P(z|x) / P_fixed(z|x))
    over the enumerated support, under each row of a (K, P) block of parameter
    vectors laid out as `params`' own, each bitwise its own: one stacked
    forward (transition_tables), a support gather per step summed from 0.0 and
    a row-wise log-sum-exp (numerics.log_normalizers) with the rewards, read
    once. beta == 0 reads no anchor. Warns when a row's mass off the support
    exceeds TAIL_WARN_THRESHOLD; a non-finite row is returned as is."""
    seqs, path_idx, _ = _support(params.cfg.vocab_size, _guard(params, max_len))
    rewards = _rewards(seqs, reward_fn)
    lps = _path_logprobs(transition_tables(params, flats, x), path_idx[:, : len(seqs)])
    probs = np.exp(lps)
    deficit = 1.0 - float(probs.sum(axis=-1).min())
    if deficit > TAIL_WARN_THRESHOLD:
        warnings.warn(f"unterminated tail mass {deficit:.3g} exceeds {TAIL_WARN_THRESHOLD}")
    objectives = log_normalizers(lps + rewards)
    if beta == 0.0:
        return objectives
    if fixed is None:
        raise ValueError(f"beta {beta} needs the KL anchor `fixed`, which is missing")
    return objectives - beta * np.sum(probs * (lps - _anchor_logprobs(params, fixed, x, max_len)), axis=-1)


def mml_posteriors(enum: Enumeration, reward_fn) -> np.ndarray:
    """P(z | x) exp(R(z)) of each enumerated z, normalized over the support."""
    weights = enum.logprobs + _rewards(enum.seqs, reward_fn)
    return np.exp(weights - log_normalizers(weights[None])[0])


def exact_gradient(
    params: PolicyParams, x: TokenSeq, reward_fn, max_len: int | None = None
) -> np.ndarray:
    """Exact gradient of exact_objectives at beta == 0: posterior-weighted sum
    of per-sequence log-probability gradients over the full enumerated
    support, which is exact_kl_gradient at beta == 0."""
    return exact_kl_gradient(params, params, x, reward_fn, 0.0, max_len)


def exact_kl_objective(
    params: PolicyParams,
    fixed: PolicyParams,
    x: TokenSeq,
    reward_fn,
    beta: float,
    max_len: int | None = None,
) -> float:
    """exact_objectives of `params`' own vector: log E[exp(R)] minus beta times
    E[log(P_cur / P_fixed)], both expectations taken exactly over the
    enumerated support. beta == 0 reads no anchor."""
    return float(exact_objectives(params, params.flat[None], x, reward_fn, max_len, fixed, beta)[0])


def exact_kl_gradient(
    params: PolicyParams,
    fixed: PolicyParams,
    x: TokenSeq,
    reward_fn,
    beta: float,
    max_len: int | None = None,
) -> np.ndarray:
    """Exact gradient of exact_kl_objective: the MML posteriors, less the
    KL term's coefficients unless beta == 0, weight each enumerated
    sequence's log-probability gradient. beta == 0 reads no anchor."""
    enum = enumerate_sequences(params, x, max_len)
    coeffs = mml_posteriors(enum, reward_fn)
    if beta != 0.0:
        lps = enum.logprobs
        coeffs = coeffs - beta * np.exp(lps) * (lps - _anchor_logprobs(params, fixed, x, max_len) + 1.0)
    return weighted_seq_grads(params, pad([x]), enum.rows, coeffs, (enum.table[None], enum.activations))[0]
