"""Ground truth by brute force: exhaustive enumeration of the rewrite space
and exact objective / gradient values that anchor every estimator check.

`reward_fn` arguments map a complete TokenSeq to a finite score; they must be
deterministic and independent of the policy parameters being differentiated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import logsumexp, softmax
from .policy import (
    PolicyParams,
    TokenSeq,
    seq_logprobs,
    transition_logits,
    transition_table,
    weighted_seq_grad,
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

    def total_mass(self) -> float:
        return float(np.sum(np.exp([lp for _, lp in self.entries])))


def _guard(params: PolicyParams, max_len: int) -> int:
    max_len = params.cfg.max_len if max_len is None else max_len
    if params.cfg.vocab_size**max_len > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration of {params.cfg.vocab_size}^{max_len} sequences exceeds the guard"
        )
    return max_len


def enumerate_sequences(params: PolicyParams, x: TokenSeq, max_len: int | None = None) -> Enumeration:
    max_len = _guard(params, max_len)
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
    # expand holds itself through its closure; without this the cycle, and with
    # it every entry, waits for a full garbage collection
    del expand
    if tail > TAIL_WARN_THRESHOLD:
        warnings.warn(f"unterminated tail mass {tail:.3g} exceeds {TAIL_WARN_THRESHOLD}")
    return Enumeration(tuple(entries), tail)


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
    return weighted_seq_grad(params, x, [z for z, _ in enum.entries], phi)


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
    fixed_lps = seq_logprobs(fixed, x, [z for z, _ in enum.entries])
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
    coeffs = phi - beta * np.exp(lps) * (lps - seq_logprobs(fixed, x, seqs) + 1.0)
    return weighted_seq_grad(params, x, seqs, coeffs)


def greedy_path(params: PolicyParams, x: TokenSeq, max_len: int | None = None) -> TokenSeq:
    """Stepwise-argmax sequence under the raw policy; ties go to the lowest id."""
    max_len = params.cfg.max_len if max_len is None else max_len
    table_logits, _ = transition_logits(params, x)
    prefix: list[int] = []
    prev = BOS
    while True:
        if len(prefix) == max_len - 1:
            break
        tok = int(np.argmax(table_logits[prev]))
        if tok == EOS:
            break
        prefix.append(tok)
        prev = tok
    return TokenSeq.from_content(prefix)
