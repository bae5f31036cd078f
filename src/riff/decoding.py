"""Sample-set construction: diverse beam search, nucleus sampling, and the
mixed scheme that blends the two.

All decoders force EOS once a sequence reaches max_len - 1 content tokens, so
every returned TokenSeq is well formed. Given a fixed seed the outputs are
bitwise reproducible; each call owns its own random state.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .numerics import log_softmax_rows
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

    A row's nucleus depends only on the row, so it is built once, on the
    first visit. A draw is keep[bisect_right(cdf, u)] with cdf the nucleus's
    normalized cumulative sum and u the next uniform of one block: that is
    Generator.choice(keep, p=nucleus), which takes one random() per call.
    """
    rng = np.random.default_rng(cfg.seed)
    table = transition_table(policy, x) if table is None else table
    rows = table.tolist()
    max_len = policy.cfg.max_len
    uniforms = iter(rng.random(cfg.m * (max_len - 1)).tolist())
    nuclei: dict[int, tuple[list[int], list[float]]] = {}
    out = []
    for _ in range(cfg.m):
        ids: list[int] = []
        logprob = 0.0
        prev = BOS
        while True:
            if len(ids) == max_len - 1:
                tok = EOS
            else:
                if prev not in nuclei:
                    nuclei[prev] = _nucleus(table[prev], cfg.top_p, prev)
                keep, cdf = nuclei[prev]
                tok = keep[bisect.bisect_right(cdf, next(uniforms))]
            ids.append(tok)
            logprob += rows[prev][tok]
            if tok == EOS:
                break
            prev = tok
        out.append((TokenSeq(tuple(ids)), logprob))
    return out


def _nucleus(logprobs: np.ndarray, top_p: float, row: int) -> tuple[list[int], list[float]]:
    """The nucleus of one transition row: its token ids, most probable first,
    and the normalized cumulative sum a uniform draw is looked up in."""
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

    The penalties are single float operations on list rows, which round as
    numpy's do; the log-normalizer stays numpy's exp and pairwise sum.
    """
    table_logits = transition_logits(policy, x)[0] if logits is None else logits
    rows = table_logits.tolist()
    max_len = policy.cfg.max_len
    rep, temp, div = cfg.repetition_penalty, cfg.temperature, cfg.diversity_penalty
    prefixes: list[list[int]] = [[] for _ in range(cfg.m)]
    scores = [0.0] * cfg.m
    done = [False] * cfg.m
    while not all(done):
        chosen: dict[int, int] = {}
        for gidx in range(cfg.m):
            if done[gidx]:
                continue
            prefix = prefixes[gidx]
            pen = rows[prefix[-1] if prefix else BOS][:]
            for tok in set(prefix):
                v = pen[tok]
                pen[tok] = v / rep if v > 0 else v * rep
            pen = [v / temp for v in pen]
            for tok, count in chosen.items():
                pen[tok] -= div * count
            lse = _logsumexp(pen)
            step = [v - lse for v in pen]
            tok = EOS if len(prefix) == max_len - 1 else step.index(max(step))
            scores[gidx] += step[tok]
            prefix.append(tok)
            chosen[tok] = chosen.get(tok, 0) + 1
            if tok == EOS:
                done[gidx] = True
    ranked = sorted(range(cfg.m), key=lambda i: (-scores[i], i))
    return [TokenSeq(tuple(prefixes[i])) for i in ranked]


def _logsumexp(values: list[float]) -> float:
    """numerics.logsumexp of a list, through the same numpy exp and pairwise
    sum, so the same bits."""
    top = max(values)
    if math.isfinite(top):
        lse = top + math.log(float(np.sum(np.exp(np.array(values) - top))))
        if math.isfinite(lse):  # false when a NaN sits below the maximum
            return lse
    raise ValueError("non-finite input to logsumexp")


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
