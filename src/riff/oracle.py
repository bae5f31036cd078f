"""Ground truth by brute force: exhaustive enumeration of the rewrite space
and exact objective / gradient values that anchor every estimator check.

`reward_fn` arguments map a complete TokenSeq to a finite score; they must be
deterministic and independent of the policy parameters being differentiated.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import logsumexp, softmax
from .policy import (
    PolicyParams,
    TokenSeq,
    pad,
    transition_table,
    weighted_seq_grads,
)
from .vocab import BOS, EOS

ENUMERATION_GUARD = 1_000_000
TAIL_WARN_THRESHOLD = 1e-6


@dataclass(frozen=True)
class Enumeration:
    """All EOS-terminated sequences of length <= max_len with exact log-probs,
    plus the probability mass of unterminated length-max_len prefixes."""

    entries: tuple[tuple[TokenSeq, float], ...]
    tail_mass: float


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
def _support(vocab_size: int, max_len: int) -> tuple[tuple[TokenSeq, ...], np.ndarray, np.ndarray]:
    """The rewrite space of a shape, independent of any policy: every
    EOS-terminated sequence of length <= max_len in depth-first order (a
    prefix before its extensions, content tokens ascending), the flat indices
    of its (prev, tok) steps into a (V+1) x (V+1) table, one row per step and
    padded with the zero cell (V, V), and the same indices for the unterminated
    length-max_len prefixes. Every lookup of an enumeration is one gather."""
    width = vocab_size + 1
    tokens = [t for t in range(vocab_size) if t != EOS]
    contents = sorted(c for k in range(max_len) for c in itertools.product(tokens, repeat=k))
    tails = itertools.product(tokens, repeat=max_len)

    def steps(path: tuple[int, ...]) -> list[int]:
        flat = [p * width + t for p, t in zip((BOS,) + path[:-1], path)]
        return flat + [vocab_size * width + vocab_size] * (max_len - len(flat))

    seqs = tuple([TokenSeq.from_content(c) for c in contents])
    entry_idx = np.array([steps(z.ids) for z in seqs], dtype=np.intp).T.copy()
    tail_idx = np.array([steps(c) for c in tails], dtype=np.intp).T.copy()
    entry_idx.setflags(write=False)
    tail_idx.setflags(write=False)
    return seqs, entry_idx, tail_idx


def _path_logprobs(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Log-prob of every path in `idx` (steps x paths), summed step by step
    from 0.0 in path order, as path_logprob does; padding adds an exact 0.0.
    policy.path_logprobs over a cached Padded support gives the same bits but
    rebuilds its cell indices on every call, while these are built once per
    support shape: a gather took 26 us instead of 9 (V=4, max_len=4)."""
    v = table.shape[0]
    padded = np.zeros((v + 1, v + 1))
    padded[:v, :v] = table
    vals = padded.ravel()[idx]
    out = 0.0 + vals[0]
    for col in vals[1:]:
        out = out + col
    return out


def enumerate_sequences(params: PolicyParams, x: TokenSeq, max_len: int | None = None) -> Enumeration:
    max_len = _guard(params, max_len)
    seqs, entry_idx, tail_idx = _support(params.cfg.vocab_size, max_len)
    table = transition_table(params, x)
    tail = 0.0
    for p in np.exp(_path_logprobs(table, tail_idx)).tolist():
        tail += p
    if tail > TAIL_WARN_THRESHOLD:
        warnings.warn(f"unterminated tail mass {tail:.3g} exceeds {TAIL_WARN_THRESHOLD}")
    # a list-built tuple: a zip-built one is resized after allocation and leaves
    # its dead twin on CPython's per-length tuple free list
    entries = tuple([(z, lp) for z, lp in zip(seqs, _path_logprobs(table, entry_idx).tolist())])
    return Enumeration(entries, tail)


def _anchor_logprobs(params: PolicyParams, fixed: PolicyParams, x: TokenSeq, max_len) -> np.ndarray:
    """log P_fixed(z | x) of every z that enumerate_sequences(params, x, max_len)
    lists, in its order, from the same support gather on the anchor's table."""
    if fixed.cfg.vocab_size != params.cfg.vocab_size:
        raise ValueError(
            f"anchor vocabulary {fixed.cfg.vocab_size} differs from policy vocabulary "
            f"{params.cfg.vocab_size}"
        )
    _, entry_idx, _ = _support(params.cfg.vocab_size, _guard(params, max_len))
    return _path_logprobs(transition_table(fixed, x), entry_idx)


def exact_objective(
    params: PolicyParams, x: TokenSeq, reward_fn, max_len: int | None = None
) -> float:
    """log sum over enumerated z of P(z|x) * exp(R(z)). Tail mass excluded."""
    enum = enumerate_sequences(params, x, max_len)
    return logsumexp([lp + reward_fn(z) for z, lp in enum.entries])


def mml_posteriors(enum: Enumeration, reward_fn) -> np.ndarray:
    weights = np.array([lp + reward_fn(z) for z, lp in enum.entries])
    return softmax(weights)


def exact_gradient(
    params: PolicyParams, x: TokenSeq, reward_fn, max_len: int | None = None
) -> np.ndarray:
    """Exact gradient of exact_objective: posterior-weighted sum of per-sequence
    log-probability gradients over the full enumerated support."""
    enum = enumerate_sequences(params, x, max_len)
    phi = mml_posteriors(enum, reward_fn)
    return weighted_seq_grads(params, pad([x]), pad([z for z, _ in enum.entries]), phi)[0]


def exact_kl_objective(
    params: PolicyParams,
    fixed: PolicyParams,
    x: TokenSeq,
    reward_fn,
    beta: float,
    max_len: int | None = None,
) -> float:
    """log E[exp(R)] minus beta times E[log(P_cur / P_fixed)], both expectations
    taken exactly over the enumerated support."""
    enum = enumerate_sequences(params, x, max_len)
    objective = logsumexp([lp + reward_fn(z) for z, lp in enum.entries])
    if beta == 0.0:
        return objective
    lps = np.array([lp for _, lp in enum.entries])
    fixed_lps = _anchor_logprobs(params, fixed, x, max_len)
    return objective - beta * float(np.sum(np.exp(lps) * (lps - fixed_lps)))


def exact_kl_gradient(
    params: PolicyParams,
    fixed: PolicyParams,
    x: TokenSeq,
    reward_fn,
    beta: float,
    max_len: int | None = None,
) -> np.ndarray:
    """Exact gradient of exact_kl_objective. beta == 0 returns the plain
    exact_gradient value bitwise."""
    if beta == 0.0:
        return exact_gradient(params, x, reward_fn, max_len)
    enum = enumerate_sequences(params, x, max_len)
    phi = mml_posteriors(enum, reward_fn)
    seqs = [z for z, _ in enum.entries]
    lps = np.array([lp for _, lp in enum.entries])
    coeffs = phi - beta * np.exp(lps) * (lps - _anchor_logprobs(params, fixed, x, max_len) + 1.0)
    return weighted_seq_grads(params, pad([x]), pad(seqs), coeffs)[0]

