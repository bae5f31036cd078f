"""Downstream mask-prediction model with selectable tuning modes.

Architecture: token embeddings, one single-head self-attention layer with a
residual connection and no positional encodings, and a language-model head
read out at the mask position. Label probabilities come from a softmax
restricted to the verbalizer token logits.

Mode-specific components join the forward pass only under their mode:
soft-prompt rows are prepended only in SOFT_PROMPT mode, low-rank adapter
deltas apply only in LORA mode, and the pooled classification head is used
only in CLS_HEAD mode. That makes the isolation and identity-at-init
properties exact rather than approximate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .checkpoint import load_segments, save_segments
from .data import _check_masks, _first_bad
from .numerics import ParamVector, check_int_fields, gelu_grad_vec, gelu_vec, log_softmax_rows
from .vocab import MASK


class TuningMode(enum.Enum):
    ALL = "all"
    HEAD = "head"
    INPUT = "input"
    CLS_HEAD = "cls_head"
    SOFT_PROMPT = "soft_prompt"
    LORA = "lora"
    NONE = "none"


TRAINABLE_SEGMENTS: dict[TuningMode, tuple[str, ...]] = {
    TuningMode.ALL: ("token_embedding", "wq", "wk", "wv", "wo", "lm_head"),
    TuningMode.HEAD: ("lm_head",),
    TuningMode.INPUT: ("token_embedding",),
    TuningMode.CLS_HEAD: ("cls_w1", "cls_b1", "cls_w2", "cls_b2"),
    TuningMode.SOFT_PROMPT: ("prompt_table",),
    TuningMode.LORA: ("lora_a_q", "lora_b_q", "lora_a_v", "lora_b_v"),
    TuningMode.NONE: (),
}


@dataclass(frozen=True)
class ClassifierConfig:
    vocab_size: int
    num_labels: int
    embed_dim: int = 16
    prompt_len: int = 0
    lora_rank: int = 2
    lora_alpha: float = 32.0
    cls_hidden: int = 16

    def __post_init__(self):
        check_int_fields(self)
        if self.vocab_size < 2 or self.num_labels < 2:
            raise ValueError("need at least two tokens and two labels")
        if self.lora_rank < 1 or self.lora_rank > self.embed_dim:
            raise ValueError("lora rank must lie in [1, embed_dim]")
        if self.prompt_len < 0 or self.cls_hidden < 1 or self.embed_dim < 1:
            raise ValueError("invalid dimensions")


@dataclass(frozen=True)
class Verbalizer:
    """Injective label -> vocabulary token map; index position is the label."""

    token_ids: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(int(t) for t in self.token_ids)
        object.__setattr__(self, "token_ids", ids)
        if len(set(ids)) != len(ids):
            raise ValueError("verbalizer tokens must be distinct")
        if any(t < 0 for t in ids):
            raise ValueError("negative verbalizer token id")

    def __len__(self) -> int:
        return len(self.token_ids)


def classifier_segments(cfg: ClassifierConfig):
    v, d, L = cfg.vocab_size, cfg.embed_dim, cfg.prompt_len
    r, dh, c = cfg.lora_rank, cfg.cls_hidden, cfg.num_labels
    return [
        ("token_embedding", (v, d)),
        ("prompt_table", (L, d)),
        ("wq", (d, d)),
        ("wk", (d, d)),
        ("wv", (d, d)),
        ("wo", (d, d)),
        ("lm_head", (d, v)),
        ("lora_a_q", (r, d)),
        ("lora_b_q", (d, r)),
        ("lora_a_v", (r, d)),
        ("lora_b_v", (d, r)),
        ("cls_w1", (dh, d)),
        ("cls_b1", (dh,)),
        ("cls_w2", (c, dh)),
        ("cls_b2", (c,)),
    ]


class ClassifierParams:
    def __init__(self, cfg: ClassifierConfig, mode: TuningMode, pv: ParamVector | None = None):
        if mode is TuningMode.SOFT_PROMPT and cfg.prompt_len < 1:
            raise ValueError("soft-prompt mode needs prompt_len >= 1")
        self.cfg = cfg
        self.mode = mode
        self.pv = pv if pv is not None else ParamVector(classifier_segments(cfg))
        if self.pv.segments() != classifier_segments(cfg):
            raise ValueError("parameter layout does not match config")

    @classmethod
    def init_random(
        cls, cfg: ClassifierConfig, mode: TuningMode, seed: int, scale: float = 0.2
    ) -> "ClassifierParams":
        rng = np.random.default_rng(seed)
        p = cls(cfg, mode)
        p.pv.values[:] = rng.normal(0.0, scale, p.pv.size)
        # adapter init: A small Gaussian, B zero, so the delta starts as identity
        p.pv.view("lora_a_q")[:] = rng.normal(0.0, 0.02, (cfg.lora_rank, cfg.embed_dim))
        p.pv.view("lora_a_v")[:] = rng.normal(0.0, 0.02, (cfg.lora_rank, cfg.embed_dim))
        p.pv.view("lora_b_q")[:] = 0.0
        p.pv.view("lora_b_v")[:] = 0.0
        return p

    @property
    def flat(self) -> np.ndarray:
        return self.pv.values

    def seg(self, name: str) -> np.ndarray:
        return self.pv.view(name)

    def copy(self) -> "ClassifierParams":
        return ClassifierParams(self.cfg, self.mode, self.pv.copy())


def trainable_mask(params: ClassifierParams, mode: TuningMode | None = None) -> np.ndarray:
    mode = params.mode if mode is None else mode
    mask = np.zeros(params.pv.size, dtype=bool)
    for name in TRAINABLE_SEGMENTS[mode]:
        mask[params.pv.segment_slice(name)] = True
    return mask


def _check_verbalizer(params: ClassifierParams, verbalizer: Verbalizer) -> None:
    if len(verbalizer) != params.cfg.num_labels:
        raise ValueError("verbalizer size does not match label count")
    if any(t >= params.cfg.vocab_size for t in verbalizer.token_ids):
        raise ValueError("verbalizer token id out of vocabulary range")


def _check_labels(params: ClassifierParams, ys, verbalizer: Verbalizer, mode: TuningMode) -> np.ndarray:
    """`ys` as an intp array, once every label is checked in range (the first
    bad one raises a RowError naming its row) and, unless the pooled head
    scores, the verbalizer is checked against the classifier."""
    ys = np.asarray(ys, dtype=np.intp)
    _first_bad((ys < 0) | (ys >= params.cfg.num_labels), lambda i: f"label {ys[i]} out of range")
    if mode is not TuningMode.CLS_HEAD:
        _check_verbalizer(params, verbalizer)
    return ys


def _check_counts(params: ClassifierParams, counts: np.ndarray) -> np.ndarray:
    """`counts`, once its dtype, width and mask column are checked."""
    counts, v = np.asarray(counts), params.cfg.vocab_size
    if counts.ndim != 2 or counts.shape[1] != v or counts.dtype != np.float64:
        raise ValueError(f"expected a float64 (B, {v}) count matrix, got {counts.dtype} of shape {counts.shape}")
    _check_masks(counts)
    return counts


class LabelPath:
    """The count-independent half of the label path of a classifier under a
    mask-row mode (by default the one its rewards read), built once.

    Only the final hidden state at the mask row reaches the label head, and
    that row always holds E[MASK]: prompt rows and adapters change keys, wq
    and wv, never the row. So every sequence has the same query q = Wq E[MASK],
    and with no positional encodings a key's score s = E qk, qk = Wk^T q / sqrt(d),
    depends only on its token. A sequence's label scores are thus a function
    of its (V,) token counts N: attention puts A_v = N_v exp(s_v - max) / Z on
    token v, soft-prompt rows are extra keys of count 1, and the attention
    output is Wv (A E + A_p P). This half holds the keys, the adapted wq and
    wv, the verbalizer's head columns, q, qk and the key scores; _MaskRowPass
    runs count rows through it. A row scores the same whatever sequence or
    padding its counts came from, and bitwise the same in any batch of two or
    more rows; scored alone (B = 1) it may differ in the last bit, because
    numpy rounds a one-row matrix product differently. The half reads the
    parameters as they are when it is built, so it serves while they stay
    fixed: a frozen classifier's whole run.
    """

    def __init__(self, params: ClassifierParams, verbalizer: Verbalizer, mode: TuningMode | None = None):
        cfg = params.cfg
        _check_verbalizer(params, verbalizer)
        self.params, self.mode = params, label_path_mode(params.mode) if mode is None else mode
        self.keys = params.seg("token_embedding")
        if self.mode is TuningMode.SOFT_PROMPT:
            self.keys = np.concatenate([self.keys, params.seg("prompt_table")])
        self.wq, self.wv = params.seg("wq"), params.seg("wv")
        if self.mode is TuningMode.LORA:
            # the adapted weights W + (alpha / rank) B A
            scale = cfg.lora_alpha / cfg.lora_rank
            self.wq = self.wq + scale * (params.seg("lora_b_q") @ params.seg("lora_a_q"))
            self.wv = self.wv + scale * (params.seg("lora_b_v") @ params.seg("lora_a_v"))
        self.vids = list(verbalizer.token_ids)
        self.head = params.seg("lm_head")[:, self.vids]
        self.xr = self.keys[MASK]
        self.q = self.wq @ self.xr
        self.qk = (self.q @ params.seg("wk")) / math.sqrt(cfg.embed_dim)
        self.key_scores = self.keys @ self.qk

    def logprobs(self, counts: np.ndarray) -> np.ndarray:
        """(B, C) label log-probabilities of the rows of a (B, V) token-count matrix."""
        return _MaskRowPass(self, _check_counts(self.params, counts)).logp

    def rewards(self, counts: np.ndarray, ys) -> np.ndarray:
        """Terminal rewards log P(ys[i] | row i) of formatted rewrites, given as
        the rows of a (B, V) token-count matrix (one label `ys` may score every
        row), from one batched forward. Always <= 0."""
        ys = np.broadcast_to(np.asarray(ys, dtype=np.intp), len(counts))
        _first_bad((ys < 0) | (ys >= self.params.cfg.num_labels), lambda i: f"label {ys[i]} out of range")
        return self.logprobs(counts)[np.arange(len(ys)), ys]


class _MaskRowPass:
    """The forward of a (B, V) token-count matrix along a LabelPath, kept for
    the backward. Under SOFT_PROMPT the prompt columns are appended to the
    counts, so the largest arrays are (B, V + prompt_len)."""

    def __init__(self, path: LabelPath, counts: np.ndarray):
        self.path, self.counts = path, counts
        if path.mode is TuningMode.SOFT_PROMPT:
            self.counts = np.concatenate([counts, np.ones((len(counts), path.params.cfg.prompt_len))], axis=1)
        # an absent token must not be exponentiated: its score may lie far above the row's max
        scores = np.where(self.counts > 0, path.key_scores, -np.inf)
        weights = self.counts * np.exp(scores - scores.max(axis=1, keepdims=True))
        self.attn = weights / weights.sum(axis=1, keepdims=True)
        self.xbar = self.attn @ path.keys
        self.o = self.xbar @ path.wv.T
        self.h = path.xr + self.o @ path.params.seg("wo").T
        self.logp = log_softmax_rows(self.h @ path.head)

    def backward(self, g_logits: np.ndarray, token_rows: bool = False):
        """The gradient of sum(g_logits * label logits) for the mode's trainable
        segments only, as {segment: array}, walking only the part of the
        chain they need; with `token_rows`, also the (B, V, d) gradient at
        one input row holding each token (0 where a sequence holds none),
        else None. Tokens have no positions, so every row holding a token
        has the same gradient, except that the mask row's also carries its
        own query and residual paths, which the MASK column leaves out."""
        path = self.path
        p, cfg, mode = path.params, path.params.cfg, path.mode
        grads = {}
        if mode in (TuningMode.ALL, TuningMode.HEAD):
            grads["lm_head"] = np.zeros_like(p.seg("lm_head"))
            grads["lm_head"][:, path.vids] = self.h.T @ g_logits
        if mode in (TuningMode.HEAD, TuningMode.NONE) and not token_rows:
            return grads, None
        rsqrt = 1.0 / math.sqrt(cfg.embed_dim)
        d_h = g_logits @ path.head.T
        if mode is TuningMode.ALL:
            grads["wo"] = d_h.T @ self.o
        d_o = d_h @ p.seg("wo")
        d_xbar = d_o @ path.wv
        d_attn = d_xbar @ path.keys.T
        d_scores = self.attn * (d_attn - (self.attn * d_attn).sum(axis=1, keepdims=True))
        d_s = d_scores.sum(axis=0)
        d_qk = d_s @ path.keys
        d_q = rsqrt * (p.seg("wk") @ d_qk)
        if mode in (TuningMode.ALL, TuningMode.LORA):
            d_wq, d_wv = d_q[:, None] * path.xr, d_o.T @ self.xbar
        if mode is TuningMode.ALL:
            grads.update(wk=rsqrt * (path.q[:, None] * d_qk), wq=d_wq, wv=d_wv)
        if mode is TuningMode.LORA:
            scale = cfg.lora_alpha / cfg.lora_rank
            grads["lora_a_q"] = scale * (p.seg("lora_b_q").T @ d_wq)
            grads["lora_b_q"] = scale * (d_wq @ p.seg("lora_a_q").T)
            grads["lora_a_v"] = scale * (p.seg("lora_b_v").T @ d_wv)
            grads["lora_b_v"] = scale * (d_wv @ p.seg("lora_a_v").T)
        if mode in (TuningMode.ALL, TuningMode.INPUT, TuningMode.SOFT_PROMPT):
            d_keys = self.attn.T @ d_xbar + d_s[:, None] * path.qk
            d_keys[MASK] += d_h.sum(axis=0) + d_q @ path.wq
            v = cfg.vocab_size
            if mode is TuningMode.SOFT_PROMPT:
                grads["prompt_table"] = d_keys[v:]
            else:
                grads["token_embedding"] = d_keys[:v]
        if not token_rows:
            return grads, None
        # a token's attention and score gradient split evenly over its rows
        per = np.maximum(self.counts, 1.0)[:, :, None]
        return grads, (self.attn[:, :, None] * d_xbar[:, None, :] + d_scores[:, :, None] * path.qk) / per


def _pooled(params: ClassifierParams, counts: np.ndarray) -> np.ndarray:
    """Mean final hidden state over every row of each sequence, from its
    (V,) token counts. With no positional encodings, the attention logit of
    a token-u row at a token-v key is the batch-wide (V, V) table
    (E Wq^T)(E Wk^T)^T / sqrt(d), so a sequence's rows attend by one
    (V, V) softmax weighted by its counts."""
    emb = params.seg("token_embedding")
    wq, wk, wv, wo = (params.seg(n) for n in ("wq", "wk", "wv", "wo"))
    table = ((emb @ wq.T) @ (emb @ wk.T).T) / math.sqrt(params.cfg.embed_dim)
    present = (counts > 0)[:, None, :]
    scores = np.where(present, table, -np.inf)
    weights = counts[:, None, :] * np.exp(scores - scores.max(axis=2, keepdims=True))
    attn = weights / weights.sum(axis=2, keepdims=True)
    mixed = (counts[:, None, :] @ attn)[:, 0]
    return (counts @ emb + (mixed @ (emb @ wv.T)) @ wo.T) / counts.sum(axis=1, keepdims=True)


def _cls_head(params: ClassifierParams, pooled: np.ndarray):
    """Pooled states -> affine -> gelu -> affine -> log-softmax over labels."""
    a1 = pooled @ params.seg("cls_w1").T + params.seg("cls_b1")
    act = gelu_vec(a1).reshape(a1.shape)
    return a1, act, log_softmax_rows(act @ params.seg("cls_w2").T + params.seg("cls_b2"))


def _kernel(params: ClassifierParams, counts, ys, weights, verbalizer, mode, token_rows=False):
    """(sum_i w_i log P(y_i | s_i), its gradient, the token rows' gradient or
    None) of a checked (B, V) count matrix, intp labels checked by
    `_check_labels` and float64 weights; `token_rows` asks for the token
    rows of _MaskRowPass.backward. The gradient holds the mode's trainable
    entries only, segment by segment in layout order, which is
    `flat[trainable_mask]` order."""
    if mode is TuningMode.CLS_HEAD:
        # only the pooled head trains under CLS_HEAD, so the gradient stops there
        pooled = _pooled(params, counts)
        a1, act, logp = _cls_head(params, pooled)
    else:
        fwd = _MaskRowPass(LabelPath(params, verbalizer, mode), counts)
        logp = fwd.logp
    picked = np.arange(len(ys)), ys
    g_logits = -weights[:, None] * np.exp(logp)
    g_logits[picked] += weights
    d_rows = None
    if mode is TuningMode.CLS_HEAD:
        grads = {"cls_w2": g_logits.T @ act, "cls_b2": g_logits.sum(axis=0)}
        d_a1 = (g_logits @ params.seg("cls_w2")) * gelu_grad_vec(a1).reshape(a1.shape)
        grads.update(cls_w1=d_a1.T @ pooled, cls_b1=d_a1.sum(axis=0))
    else:
        grads, d_rows = fwd.backward(g_logits, token_rows)
    parts = [grads[name].ravel() for name in TRAINABLE_SEGMENTS[mode]]
    return float(weights @ logp[picked]), np.concatenate(parts) if parts else np.zeros(0), d_rows


def label_logprobs_batch(
    params: ClassifierParams, counts: np.ndarray, verbalizer: Verbalizer, mode: TuningMode | None = None
) -> np.ndarray:
    """(B, C) label log-probabilities of each row of a (B, V) token-count
    matrix under the mode's own scoring path (the mask-row head, or the
    pooled head under CLS_HEAD), from one batched forward."""
    mode = params.mode if mode is None else mode
    if mode is TuningMode.CLS_HEAD:
        return _cls_head(params, _pooled(params, _check_counts(params, counts)))[2]
    return LabelPath(params, verbalizer, mode).logprobs(counts)


def weighted_label_grad(
    params: ClassifierParams,
    counts: np.ndarray,
    ys,
    weights,
    verbalizer: Verbalizer,
    mode: TuningMode | None = None,
) -> tuple[float, np.ndarray]:
    """sum_i weights[i] * log P(ys[i] | row i) over the rows of a (B, V)
    token-count matrix under the mode's scoring path, and its gradient, from
    one forward and one backward. The backward computes only the mode's
    trainable segments; they are scattered into a full-length vector, so
    every entry outside them is exactly zero by construction."""
    mode = params.mode if mode is None else mode
    counts = _check_counts(params, counts)
    weights = np.asarray(weights, dtype=np.float64)
    if len(ys) != len(counts) or len(weights) != len(counts):
        raise ValueError(f"{len(counts)} sequences, {len(ys)} labels and {len(weights)} weights")
    ys = _check_labels(params, ys, verbalizer, mode)
    value, grad, _ = _kernel(params, counts, ys, weights, verbalizer, mode)
    flat = np.zeros(params.pv.size)
    flat[trainable_mask(params, mode)] = grad
    return value, flat


def label_path_mode(mode: TuningMode) -> TuningMode:
    """The mode whose mask-row head LabelPath.rewards reads under `mode`."""
    # CLS_HEAD adds neither prompt rows nor adapters, so its label path is the plain one
    return TuningMode.NONE if mode is TuningMode.CLS_HEAD else mode


def input_token_grads(params: ClassifierParams, counts: np.ndarray, ys, verbalizer: Verbalizer) -> np.ndarray:
    """Gradient of each log P(ys[i] | row i) of a (B, V) token-count matrix
    on the label path LabelPath.rewards reads, with respect to its embedded input
    rows, from one batched forward and backward: (B, V, d), [i, v] the
    gradient at a row of sequence i holding token v (_MaskRowPass.backward);
    the instruction search ranks substitutions of a token by it."""
    counts = _check_counts(params, counts)
    if len(ys) != len(counts):
        raise ValueError(f"{len(counts)} sequences and {len(ys)} labels")
    mode = label_path_mode(params.mode)
    ys = _check_labels(params, ys, verbalizer, mode)
    return _kernel(params, counts, ys, np.ones(len(counts)), verbalizer, mode, True)[2][:, : params.cfg.vocab_size]


def save_classifier(path, params: ClassifierParams) -> None:
    header = {"kind": "classifier", "mode": params.mode.value, **asdict(params.cfg)}
    save_segments(path, header, params.pv)


def load_classifier(path) -> ClassifierParams:
    return load_segments(path, "classifier", lambda header, pv: ClassifierParams(
        ClassifierConfig(**{f.name: header[f.name] for f in fields(ClassifierConfig)}),
        TuningMode(header["mode"]), pv))
