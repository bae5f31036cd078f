"""Sample-set construction: diverse beam search, nucleus sampling, and the
mixed scheme that blends the two.

All decoders force EOS once a sequence reaches max_len - 1 content tokens, so
every returned sequence is well formed. A batch kernel returns one Padded
array, input-major (row b * m + j is sample j of input b). Given fixed seeds
the outputs are bitwise reproducible.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import log_normalizers
from .policy import (
    Padded,
    PolicyParams,
    TokenSeq,
    path_logprobs,
    step_cells,
    transition_logits,
    unpad,
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
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an int, got {self.m!r}")
        for name in ("temperature", "diversity_penalty", "repetition_penalty"):
            if not math.isfinite(value := getattr(self, name)):  # NaN passes every range check below
                raise ValueError(f"{name} must be finite, got {value!r}")
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


def _rows(ids: np.ndarray) -> Padded:
    """pad() of decoded id rows, each cut after its first EOS."""
    ends = (ids == EOS).argmax(axis=1) + 1
    valid = np.arange(ends.max()) < ends[:, None]
    return Padded(np.where(valid, ids[:, : valid.shape[1]], 0), valid)


def _nucleus_stack(tables: np.ndarray, top_p: float):
    """(order, size, mass, cdf) of a (B, V, V) log-table stack: each row's tokens most
    probable first, its nucleus size (the fewest of them whose mass reaches top_p), that
    mass, and the nucleus's normalized cdf, exact below size and not meant to be read past
    it. numpy's pairwise sum groups a row's terms by length, so each size's masses are
    summed as one bucket; the cdf's division and cumsum are then elementwise and in order,
    so one pass over the whole stack gives each nucleus's cdf below its size bitwise."""
    probs = np.exp(tables)
    order = np.argsort(-probs, axis=-1, kind="stable")
    v = tables.shape[-1]
    starts = np.arange(0, probs.size, v).reshape(*tables.shape[:-1], 1)  # each row's first flat cell
    ranked = probs.take(starts + order)
    # cumsum never decreases and NaN sorts last, so this counts what searchsorted(left) would
    size = np.minimum((ranked.cumsum(axis=-1) < top_p).sum(axis=-1), v - 1) + 1
    mass = np.empty(size.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite row raises once a draw visits it
        for n in sorted(set(size.ravel().tolist())):  # np.unique would import numpy.ma
            rows = size == n
            mass[rows] = ranked[rows, :n].sum(axis=1)
        cdf = (ranked / mass[..., None]).cumsum(axis=-1)
        cdf /= cdf.take(starts + size[..., None] - 1)
    return order, size, mass, cdf


def _nuclei(tables: np.ndarray, top_p: float):
    """nucleus(b, row): the nucleus of a row of a (B, V, V) log-table stack, its tokens
    and normalized cdf from _nucleus_stack, as lists; non-finite mass raises."""
    order, size, mass, cdf = _nucleus_stack(tables, top_p)

    def nucleus(b: int, row: int) -> tuple[list[int], list[float]]:
        if not 0.0 < mass[b, row] < math.inf:  # the nucleus holds probabilities: finite just then
            raise ValueError(f"non-finite probabilities in transition row {row}")
        return order[b, row, : size[b, row]].tolist(), cdf[b, row, : size[b, row]].tolist()

    return nucleus


def top_p_batch(policy: PolicyParams, tables: np.ndarray, seeds, cfg: DecodeConfig) -> Padded:
    """m nucleus draws of each input of a (B, V, V) log-table stack, input b's from
    Generator(seeds[b]), not cfg.seed. A draw is keep[bisect_right(cdf, u)], with (keep,
    cdf) the row's nucleus, made lists on the first visit, and u the next of one block of
    uniforms: Generator.choice(keep, p=nucleus), which takes one random() per call."""
    nucleus = _nuclei(tables, cfg.top_p)
    max_len = policy.cfg.max_len
    rows = []
    for b, seed in enumerate(seeds):
        uniforms = iter(np.random.default_rng(seed).random(cfg.m * (max_len - 1)).tolist())
        built: dict[int, tuple[list[int], list[float]]] = {}
        for _ in range(cfg.m):
            ids, prev = [], BOS
            while prev != EOS and len(ids) < max_len - 1:
                if prev not in built:
                    built[prev] = nucleus(b, prev)
                keep, cdf = built[prev]
                prev = keep[bisect.bisect_right(cdf, next(uniforms))]
                ids.append(prev)
            rows.append(ids + [EOS] * (max_len - len(ids)))  # EOS is forced at max_len - 1
    return _rows(np.array(rows, dtype=np.intp))


def diverse_beam(policy: PolicyParams, x: TokenSeq, cfg: DecodeConfig) -> list[TokenSeq]:
    """m groups of beam width 1 for one input: diverse_beam_batch of a batch of one."""
    return unpad(diverse_beam_batch(policy, transition_logits(policy, [x]), cfg))


# live rows a fast pass keeps before one log_normalizers pass scores them: 40 KB at V = 20,
# which one 32-input step of 8 groups fills; 1024 rows raised the recipe's peak memory
_FLUSH_ROWS = 256


def _score(kept: np.ndarray, at, picked, k: int, checked: int, scores: np.ndarray, exact: bool) -> bool:
    """Add the first k kept live rows' scores, row[pick] normalized, to the flat (m * B)
    scores at positions `at`, in row order: the running sum of each beam from 0.0. A fast
    pass keeps raw rows, and one log_normalizers pass normalizes them here; it adds nothing
    and returns False unless every normalizer is finite and each of the first `checked`
    picks is its normalized row's first-index argmax. An exact pass keeps normalized rows."""
    rows = kept[:k]
    if not exact:
        lse = log_normalizers(rows)
        rows -= lse[:, None]
        if not np.isfinite(lse).all() or (rows[:checked].argmax(axis=1) != picked[:checked]).any():
            return False
    np.add.at(scores, at[:k], rows[np.arange(k), picked[:k]])
    return True


def _beam(both: np.ndarray, n: int, v: int, m: int, max_len: int, div: float, exact: bool):
    """(tokens, scores) of diverse_beam_batch from its flat penalized cells `both`:
    tokens[t + 1] (m, B) chosen at step t, and the (m, B) cumulative normalized scores.
    With exact=False the groups pick from raw rows and each step's live rows are kept in
    one buffer, which _score normalizes and checks once per _FLUSH_ROWS rows; a failed
    check returns None. With exact=True each group normalizes before it picks, and a
    non-finite live row raises. A group's picks are counted when the next live group
    reads the counts: the first reads none, and the last's picks are never counted."""
    base = np.arange(n) * v  # (b, token) is cell base[b] + token of a flat (B * V) array
    cols = np.tile(np.arange(v), (m, n, 1))  # cols[g, b, c]: c, or V + c once c is in the prefix
    cells = np.arange(m * n).reshape(m, n) * v  # (g, b, c) is cell cells[g, b] + c of an (m, B, V) array
    tokens = np.full((max_len + 1, m, n), BOS)
    alive = np.ones((m, n), dtype=bool)  # unfinished before the current step
    scores = np.zeros(m * n)
    kept = np.empty((max(_FLUSH_ROWS, m * n), v))  # live rows not yet scored, in step order
    at, picked = np.empty(len(kept), dtype=np.intp), np.empty(len(kept), dtype=np.intp)
    k = checked = 0
    for t in range(max_len):
        last = t == max_len - 1
        rows = both.take(((base + tokens[t]) * (2 * v))[..., None] + cols)
        counts = np.zeros((n, v))
        flat_counts = counts.reshape(-1)
        picks = np.full((m, n), EOS)
        live = np.flatnonzero(alive.any(axis=1)).tolist()
        for before, g in zip([None, *live], live):
            row = rows[g]
            if before is not None:  # the live group before g has picked: its picks join the counts g reads
                flat_counts[base + picks[before]] += alive[before]
                row -= div * counts
            if exact:
                lse = log_normalizers(row)
                bad = np.flatnonzero(alive[g] & ~np.isfinite(lse))
                if bad.size:
                    raise ValueError(f"non-finite transition logits for batch input {bad[0]} at decode step {t}")
                row -= lse[:, None]
            if not last:
                picks[g] = row.argmax(axis=1)
        pos = np.flatnonzero(alive)
        if k + pos.size > len(kept):
            if not _score(kept, at, picked, k, k, scores, exact):
                return None
            k = 0
        rows.reshape(-1, v).take(pos, axis=0, out=kept[k : k + pos.size])
        at[k : k + pos.size], picked[k : k + pos.size] = pos, picks.reshape(-1).take(pos)
        checked = k if last else k + pos.size  # EOS is forced on the last step, never checked
        k += pos.size
        tokens[t + 1] = picks
        cols.reshape(-1)[cells + picks] = v + picks
        alive &= picks != EOS
        if not np.count_nonzero(alive):
            break
    return (tokens, scores.reshape(m, n)) if _score(kept, at, picked, k, checked, scores, exact) else None


def diverse_beam_batch(
    policy: PolicyParams, logits: np.ndarray, cfg: DecodeConfig
) -> Padded:
    """diverse_beam of each input of a (B, V, V) transition-logits stack: m
    groups of beam width 1, expanded sequentially per step. Per step and
    group, the group's own prefix tokens get the repetition penalty on raw
    logits (positive logits divided, negative multiplied), temperature
    rescales, and tokens chosen by earlier groups at this step are pushed down
    by diversity_penalty * count. Groups rank by cumulative normalized score,
    a stable sort; cfg.seed is never read.

    Each step gathers all m groups' (B, V) rows at once, each column plain or
    penalized by whether the token is in the group's prefix. The group loop
    only subtracts the diversity penalty, takes the first-index argmax and
    counts the picks, and the step's live rows join one buffer. One
    log_normalizers pass per _FLUSH_ROWS buffered rows, not one per step,
    then gives their scores and checks them. That keeps each argmax unless
    rounding collapses a near-tie onto the first index, so a decode with a
    non-finite normalizer or a changed argmax reruns from the start with the
    normalizer inside the group loop, which raises on a non-finite live row,
    naming the batch input and the step. Finished groups are masked out and
    their rows never checked."""
    n, v = logits.shape[0], logits.shape[-1]
    m, max_len, rep = cfg.m, policy.cfg.max_len, cfg.repetition_penalty
    # cell (b * V + p) * 2V + c: the plain (c < V) or repetition-penalized (c - V) logit of
    # token c mod V after p, over temperature
    both = np.concatenate([logits, np.where(logits > 0, logits / rep, logits * rep)], axis=-1)
    both = both.reshape(-1) / cfg.temperature
    with np.errstate(invalid="ignore"):  # finished rows may read anything
        tokens, scores = (_beam(both, n, v, m, max_len, cfg.diversity_penalty, exact=False)
                          or _beam(both, n, v, m, max_len, cfg.diversity_penalty, exact=True))
    ranked = tokens[1:, np.argsort(-scores, axis=0, kind="stable"), np.arange(n)]
    return _rows(ranked.transpose(2, 1, 0).reshape(n * m, max_len))


def _mix(beams: Padded, draws: Padded, tables: np.ndarray, m: int):
    """Each input's top m/2 of its m beam rows and of its m nucleus draws by log-probability,
    ties in order, with their step_cells and log-probs in the (B, V, V) tables. A row whose
    ids the input already took is skipped for its source's next-ranked row; repeats appear
    only when a source has no fresh rows left. Both sources' rows are encoded once and
    scored by one gather, and the picks are rows of these: a padding cell adds an exact
    0.0, so a log-prob summed over a row of cells wider than its own is bitwise the same."""
    if m % 2 != 0:
        raise ValueError("mixed decoding needs an even sample count")
    n, v = len(tables), tables.shape[-1]
    cells = np.full((2 * n * m, max(beams.ids.shape[1], draws.ids.shape[1])), n * v * v)  # padded as step_cells pads
    for start, rows in zip((0, n * m), (beams, draws)):
        cells[start : start + n * m, : rows.ids.shape[1]] = step_cells(rows, n, v)
    # one bytes key per row: an input's rows share cells just where they share ids
    keys = cells.view(np.dtype((np.void, cells.itemsize * cells.shape[1]))).ravel().tolist()
    lps = path_logprobs(tables, cells)
    # ranked[s * n + b]: the rows of input b's source s (beam, nucleus), best first
    ranked = (np.argsort(-lps.reshape(2 * n, m), axis=1, kind="stable") + m * np.arange(2 * n)[:, None]).tolist()
    picks: list[int] = []
    for b in range(n):
        seen: set[bytes] = set()
        for source in (ranked[b], ranked[n + b]):
            fresh = []
            for r in source:
                if len(fresh) < m // 2 and keys[r] not in seen:
                    fresh.append(r)
                    seen.add(keys[r])
            picks += fresh + [source[i % m] for i in range(m // 2 - len(fresh))]
    picked = cells[picks]
    rows = _rows(np.where(picked < n * v * v, picked % v, 0))  # a cell's token is its id mod V
    return rows, picked[:, : rows.ids.shape[1]], lps[picks]


def decode_batch(policy: PolicyParams, scheme: str, logits, tables, seeds, cfg: DecodeConfig):
    """(rows, their step_cells, their log-probs under `tables`): m rewrites by `scheme` of
    each input of a stack of raw transition logits and their log-softmax tables, input b's
    draws from seeds[b]."""
    if scheme == "mixed":
        return _mix(diverse_beam_batch(policy, logits, cfg), top_p_batch(policy, tables, seeds, cfg), tables, cfg.m)
    if scheme not in ("beam", "top_p"):
        raise ValueError(f"unknown decode scheme {scheme!r}")
    rows = diverse_beam_batch(policy, logits, cfg) if scheme == "beam" else top_p_batch(policy, tables, seeds, cfg)
    cells = step_cells(rows, len(tables), tables.shape[-1])
    return rows, cells, path_logprobs(tables, cells)
