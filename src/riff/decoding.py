"""Sample-set construction: diverse beam search, nucleus sampling, and the
mixed scheme that blends the two.

All decoders force EOS once a sequence reaches max_len - 1 content tokens, so
every returned TokenSeq is well formed. Given a fixed seed the outputs are
bitwise reproducible; each call owns its own random state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import log_softmax_rows, logsumexp
from .policy import (
    PolicyParams,
    TokenSeq,
    path_logprob,
    transition_logits,
    transition_table,
)
from .policy import seq_logprob  # noqa: F401  perfbench/test_perfbench.py reads decoding.seq_logprob
from .vocab import BOS, EOS


@dataclass(frozen=True)
class DecodeConfig:
    m: int = 8
    top_p: float = 0.99
    temperature: float = 0.7
    diversity_penalty: float = 3.0
    repetition_penalty: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("sample count must be at least 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.diversity_penalty < 0:
            raise ValueError("diversity penalty must be nonnegative")
        if self.repetition_penalty < 1:
            raise ValueError("repetition penalty must be at least 1")


def top_p_sample(
    policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig, table: np.ndarray | None = None
) -> list[tuple[TokenSeq, float]]:
    """Draw m sequences by nucleus sampling at temperature 1.

    Each step keeps the minimal probability-sorted token set whose cumulative
    mass reaches cfg.top_p, renormalizes, and samples from it. The returned
    log-probs are exact values under the unmodified policy, summed while
    sampling. A caller already holding transition_table(policy, x) passes it
    as `table`.
    """
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


def diverse_beam(
    policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig, logits: np.ndarray | None = None
) -> list[TokenSeq]:
    """m groups of beam width 1, expanded sequentially per step.

    Per step and group: the group's own prefix tokens get the repetition
    penalty on raw logits (positive logits divided, negative multiplied),
    temperature rescales, and tokens already chosen by earlier groups at this
    step are pushed down by diversity_penalty * count. Groups are ranked by
    cumulative penalized score. Fully deterministic: cfg.seed is never read.
    A caller already holding transition_logits(policy, x) passes the logits.
    """
    table_logits = transition_logits(policy, x)[0] if logits is None else logits
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


def _by_logprob(scored) -> list[TokenSeq]:
    """(sequence, log-prob) pairs to sequences by descending log-prob; ties keep order."""
    return [z for z, _ in sorted(scored, key=lambda pair: -pair[1])]


def mixed_decode(
    policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig, tables: tuple | None = None
) -> list[TokenSeq]:
    """Run both decoders at m samples each, then keep the top m/2 from each
    ranked by policy log-probability. Duplicates across the halves are skipped
    in favor of the same source's next-ranked sample; repeats appear only when
    a source has no fresh sequences left. Both decoders and the ranking read
    one table; `tables` is its (logits, log-softmax) pair if the caller has it."""
    if cfg.m % 2 != 0:
        raise ValueError("mixed decoding needs an even sample count")
    if tables is None:
        logits = transition_logits(policy, x)[0]
        tables = (logits, log_softmax_rows(logits))
    logits, table = tables
    half = cfg.m // 2
    beam = diverse_beam(policy, x, cfg, logits)
    beam_ranked = _by_logprob((z, path_logprob(table, z)) for z in beam)
    nucleus_ranked = _by_logprob(top_p_sample(policy, x, cfg, table))
    picks: list[TokenSeq] = []
    seen: set[tuple[int, ...]] = set()
    for source in (beam_ranked, nucleus_ranked):
        taken = 0
        for z in source:
            if taken == half:
                break
            if z.ids not in seen:
                picks.append(z)
                seen.add(z.ids)
                taken += 1
        backfill = 0
        while taken < half:
            picks.append(source[backfill % len(source)])
            backfill += 1
            taken += 1
    return picks


def decode_samples(
    policy: PolicyParams, x: TokenSeq, scheme: str, cfg: DecodeConfig, tables: tuple | None = None
) -> list[TokenSeq]:
    """`tables` is the (transition_logits(policy, x)[0], transition_table(policy, x))
    pair when the caller already holds it."""
    logits, table = (None, None) if tables is None else tables
    if scheme == "beam":
        return diverse_beam(policy, x, cfg, logits)
    if scheme == "top_p":
        return [z for z, _ in top_p_sample(policy, x, cfg, table)]
    if scheme == "mixed":
        return mixed_decode(policy, x, cfg, tables)
    raise ValueError(f"unknown decode scheme {scheme!r}")
