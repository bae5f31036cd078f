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
            raise ValueError("m must be at least 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.diversity_penalty < 0:
            raise ValueError("diversity_penalty must be nonnegative")
        if self.repetition_penalty < 1:
            raise ValueError("repetition_penalty must be at least 1")


def nucleus_stack(tables: np.ndarray, top_p: float) -> list[tuple]:
    """Per input of a (B, V, V) stack of log-transition tables, from one exp,
    stable argsort and cumsum over the stack: its probabilities, each row's
    token ids most probable first, and each row's cut, the first sorted
    position whose cumulative mass reaches top_p (at most the last). An
    input's entry is top_p_sample's `nuclei`."""
    probs = np.exp(tables)
    order = np.argsort(-probs, axis=-1, kind="stable")
    csum = np.cumsum(np.take_along_axis(probs, order, axis=-1), axis=-1)
    # csum never decreases and NaN sorts last, so this counts what searchsorted(left) would
    cut = np.minimum(np.count_nonzero(csum < top_p, axis=-1), tables.shape[-1] - 1)
    return list(zip(probs, order, cut))


def _nucleus_row(nuclei, row: int) -> tuple[list[int], list[float]]:
    """The nucleus of one row of an input's nucleus_stack entry: its token
    ids, most probable first, and the normalized cumulative sum a uniform
    draw is looked up in. The bits depend on numpy's pairwise sum over the
    nucleus's own length, so this part runs per row."""
    probs, order, cut = nuclei
    keep = order[row, : cut[row] + 1]
    kept = probs[row, keep]
    mass = kept.sum()
    if not 0.0 < mass < math.inf:  # kept holds probabilities: kept / mass is finite just then
        raise ValueError(f"non-finite probabilities in transition row {row}")
    cdf = (kept / mass).cumsum()
    cdf /= cdf[-1]
    return keep.tolist(), cdf.tolist()


def top_p_sample(
    policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig, table: np.ndarray | None = None,
    nuclei=None,
) -> list[tuple[TokenSeq, float]]:
    """Draw m sequences by nucleus sampling at temperature 1.

    Each step keeps the minimal probability-sorted token set whose cumulative
    mass reaches cfg.top_p, renormalizes, and samples from it. The returned
    log-probs are exact values under the unmodified policy, summed while
    sampling. A caller already holding transition_table(policy, x) passes it
    as `table`, and its nucleus_stack entry as `nuclei`.

    A row's nucleus depends only on the row, so it is built once, on the
    first visit. A draw is keep[bisect_right(cdf, u)] with cdf the nucleus's
    normalized cumulative sum and u the next uniform of one block: that is
    Generator.choice(keep, p=nucleus), which takes one random() per call.
    """
    rng = np.random.default_rng(cfg.seed)
    table = transition_table(policy, x) if table is None else table
    nuclei = nucleus_stack(table[None], cfg.top_p)[0] if nuclei is None else nuclei
    rows = table.tolist()
    max_len = policy.cfg.max_len
    uniforms = iter(rng.random(cfg.m * (max_len - 1)).tolist())
    built: dict[int, tuple[list[int], list[float]]] = {}
    out = []
    for _ in range(cfg.m):
        ids: list[int] = []
        logprob = 0.0
        prev = BOS
        while True:
            if len(ids) == max_len - 1:
                tok = EOS
            else:
                if prev not in built:
                    built[prev] = _nucleus_row(nuclei, prev)
                keep, cdf = built[prev]
                tok = keep[bisect.bisect_right(cdf, next(uniforms))]
            ids.append(tok)
            logprob += rows[prev][tok]
            if tok == EOS:
                break
            prev = tok
        out.append((TokenSeq(tuple(ids)), logprob))
    return out


def diverse_beam(policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig) -> list[TokenSeq]:
    """m groups of beam width 1 for one input: diverse_beam_batch of a batch of one."""
    return diverse_beam_batch(policy, transition_logits(policy, x)[0][None], cfg)[0]


def _log_normalizers(rows: np.ndarray) -> np.ndarray:
    """Each row's log-normalizer: the row max plus math.log of numpy's exp and
    pairwise row sum, so a row rounds as it would alone."""
    top = rows.max(axis=1)
    sums = np.exp(rows - top[:, None]).sum(axis=1)
    return top + list(map(math.log, sums.tolist()))


def _beam_step(rows: np.ndarray, alive: np.ndarray, base, div: float, t: int, last: bool, exact: bool):
    """The (m, B) picks of one decode step of diverse_beam_batch from the
    groups' (m, B, V) penalized rows, which end the step holding its
    normalized scores. With exact=False the groups pick from raw rows and
    the live rows are normalized once afterwards; it returns None unless
    every normalizer is finite and every pick is its normalized row's argmax.
    With exact=True each group normalizes before it picks, and a non-finite
    live row raises."""
    m, n, v = rows.shape
    counts = np.zeros((n, v))
    flat_counts = counts.reshape(-1)
    picks = np.full((m, n), EOS)
    for g in np.flatnonzero(alive.any(axis=1)).tolist():
        row = rows[g]
        row -= div * counts
        if exact:
            lse = _log_normalizers(row)
            bad = np.flatnonzero(alive[g] & ~np.isfinite(lse))
            if bad.size:
                raise ValueError(f"non-finite transition logits for batch input {bad[0]} at decode step {t}")
            row -= lse[:, None]
        if not last:
            picks[g] = row.argmax(axis=1)
        flat_counts[base + picks[g]] += alive[g]
    if not exact:
        live_rows = rows[alive]
        lse = _log_normalizers(live_rows)
        live_rows -= lse[:, None]
        if not np.isfinite(lse).all() or not (last or (live_rows.argmax(axis=1) == picks[alive]).all()):
            return None
        rows[alive] = live_rows
    return picks


def diverse_beam_batch(
    policy: PolicyParams, logits: np.ndarray, cfg: DecodeConfig
) -> list[list[TokenSeq]]:
    """diverse_beam of each input of a (B, V, V) transition-logits stack: m
    groups of beam width 1, expanded sequentially per step. Per step and
    group, the group's own prefix tokens get the repetition penalty on raw
    logits (positive logits divided, negative multiplied), temperature
    rescales, and tokens chosen by earlier groups at this step are pushed down
    by diversity_penalty * count. Groups rank by cumulative normalized score;
    cfg.seed is never read.

    Each step gathers all m groups' (B, V) rows at once, taking each column
    from the plain or the penalized logits by whether the token is in the
    group's prefix. The loop over groups only subtracts the diversity
    penalty, takes the first-index argmax and counts the picks; one pass over
    the step's live rows then takes their log-normalizers. Subtracting a
    row's normalizer keeps its argmax unless rounding collapses a near-tie
    onto the first index, so a step whose normalizers are not all finite or
    whose picks are not all their normalized rows' argmax reruns with the
    normalizer inside the group loop. That rerun raises on a non-finite live
    row, naming the batch input and the step. Finished groups are masked
    out and their rows never checked."""
    n, v = logits.shape[0], logits.shape[-1]
    m, max_len, div, rep = cfg.m, policy.cfg.max_len, cfg.diversity_penalty, cfg.repetition_penalty
    # cell (b * V + p) * 2V + c: the plain (c < V) or repetition-penalized (c - V) logit of
    # token c mod V after p, over temperature
    both = np.concatenate([logits, np.where(logits > 0, logits / rep, logits * rep)], axis=-1)
    both = both.reshape(-1) / cfg.temperature
    base = np.arange(n) * v  # (b, token) is cell base[b] + token of a flat (B * V) array
    cols = np.tile(np.arange(v), (m, n, 1))  # cols[g, b, c]: c, or V + c once c is in the prefix
    cells = np.arange(m * n).reshape(m, n) * v  # (g, b, c) is cell cells[g, b] + c of an (m, B, V) array
    tokens = np.full((max_len + 1, m, n), BOS)  # tokens[t + 1]: chosen at step t
    alive = np.ones((m, n), dtype=bool)  # unfinished before the current step
    scores = np.zeros((m, n))
    with np.errstate(invalid="ignore"):  # finished rows may read anything
        for t in range(max_len):
            last = t == max_len - 1
            starts = ((base + tokens[t]) * (2 * v))[..., None]
            rows = both.take(starts + cols)
            picks = _beam_step(rows, alive, base, div, t, last, exact=False)
            if picks is None:
                rows = both.take(starts + cols)
                picks = _beam_step(rows, alive, base, div, t, last, exact=True)
            chosen = cells + picks
            scores += np.where(alive, rows.reshape(-1).take(chosen), 0.0)  # the running score
            tokens[t + 1] = picks
            cols.reshape(-1)[chosen] = v + picks
            alive &= picks != EOS
            if not np.count_nonzero(alive):
                break
    out = []
    for row, seqs in zip(scores.T.tolist(), tokens[1:].transpose(2, 1, 0).tolist()):
        ranked = sorted(range(m), key=lambda i: (-row[i], i))
        out.append([TokenSeq(seqs[i][: seqs[i].index(EOS) + 1]) for i in ranked])
    return out


def _by_logprob(scored) -> list[TokenSeq]:
    """(sequence, log-prob) pairs to sequences by descending log-prob; ties keep order."""
    return [z for z, _ in sorted(scored, key=lambda pair: -pair[1])]


def mixed_decode(
    policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig, table: np.ndarray | None = None,
    beam=None, nuclei=None,
) -> list[TokenSeq]:
    """Run both decoders at m samples each, then keep the top m/2 from each
    ranked by policy log-probability. Duplicates across the halves are skipped
    in favor of the same source's next-ranked sample; repeats appear only when
    a source has no fresh sequences left. The nucleus draws and the ranking
    read one table; a caller already holding transition_table(policy, x),
    diverse_beam(policy, x, cfg) and the table's nucleus_stack entry passes
    them as `table`, `beam` and `nuclei`."""
    if cfg.m % 2 != 0:
        raise ValueError("mixed decoding needs an even sample count")
    table = transition_table(policy, x) if table is None else table
    beam = diverse_beam(policy, x, cfg) if beam is None else beam
    half = cfg.m // 2
    beam_ranked = _by_logprob((z, path_logprob(table, z)) for z in beam)
    nucleus_ranked = _by_logprob(top_p_sample(policy, x, cfg, table, nuclei))
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
    policy: PolicyParams, x: TokenSeq, scheme: str, cfg: DecodeConfig, table=None, beam=None,
    nuclei=None,
) -> list[TokenSeq]:
    """`table` is transition_table(policy, x), `beam` diverse_beam(policy, x,
    cfg) and `nuclei` the table's nucleus_stack entry when the caller
    already holds them."""
    if scheme == "beam":
        return diverse_beam(policy, x, cfg) if beam is None else beam
    if scheme == "top_p":
        return [z for z, _ in top_p_sample(policy, x, cfg, table, nuclei)]
    if scheme == "mixed":
        return mixed_decode(policy, x, cfg, table, beam, nuclei)
    raise ValueError(f"unknown decode scheme {scheme!r}")
