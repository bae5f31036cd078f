"""The synthetic task, the rewriter's pretraining corpus, and input formatting.

Every command builds its data in-process from a seed. The synthetic task is a
majority-vote construction: each label owns a family of two interchangeable
content tokens, distractors are label-neutral, and the label is the family with
the strict majority count. A rule-based oracle therefore classifies every
generated example perfectly, which pins down what "signal" means in checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import TokenSeq
from .vocab import BOS, EOS, FIRST_CONTENT_ID, MASK, SEP, is_scaffold


class RowError(ValueError):
    """A bad sequence of a batch, named by its index `row`."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"batch sequence {row}: {reason}")
        self.row, self.reason = row, reason


def _first_bad(bad: np.ndarray, message) -> None:
    """Raise a RowError for the first sequence flagged in `bad`; `message(i)`
    says what is wrong with sequence i."""
    if bad.any():
        i = int(np.argmax(bad))
        raise RowError(i, message(i))


@dataclass(frozen=True)
class Example:
    uid: int
    x: TokenSeq
    y: int


@dataclass(frozen=True)
class TaskTemplate:
    """Scaffold around the content: BOS + instruction + content + SEP + MASK +
    EOS, or the mask-first variant BOS + instruction + MASK + SEP + content +
    EOS."""

    instruction: tuple[int, ...] = ()
    mask_first: bool = False
    max_input_len: int = 128


def format_input(template: TaskTemplate, instruction, x: TokenSeq) -> TokenSeq:
    """Deterministic scaffold insertion; injective in x for a fixed template."""
    instruction = tuple(int(t) for t in instruction)
    content = x.content
    if MASK in content:
        raise ValueError("content may not contain the mask token")
    if template.mask_first:
        ids = (BOS, *instruction, MASK, SEP, *content, EOS)
    else:
        ids = (BOS, *instruction, *content, SEP, MASK, EOS)
    if len(ids) > template.max_input_len:
        raise ValueError(
            f"formatted input of {len(ids)} tokens exceeds the {template.max_input_len} limit"
        )
    return TokenSeq(ids)


def formatted_counts(template: TaskTemplate, ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """(B, V) float64 token counts of format_input(template, template.instruction,
    strip_scaffold(z)) for each row z of a zero-padded id array, without the
    formatted rows: both layouts hold the same scaffold tokens, so a row's
    counts are its content ids' (all but the scaffold ids 0..3) plus the
    template's. A row over max_input_len, with an id outside [0, V) or
    without exactly one MASK raises a RowError naming it, as token_counts of
    the formatted rows would."""
    keep = (ids < 0) | (ids >= FIRST_CONTENT_ID)  # scaffold ids and the zero padding drop out
    head = (BOS, *template.instruction, *((MASK, SEP) if template.mask_first else ()))
    tail = (EOS,) if template.mask_first else (SEP, MASK, EOS)
    lengths = len(head) + keep.sum(axis=1) + len(tail)
    limit = template.max_input_len
    _first_bad(lengths > limit, lambda i: f"formatted input of {lengths[i]} tokens exceeds the {limit} limit")
    v = vocab_size
    head_out, tail_out = ([t for t in part if not 0 <= t < v] for part in (head, tail))
    out = keep & ((ids < 0) | (ids >= v))
    _first_bad(out.any(axis=1) | bool(head_out or tail_out), lambda i: (
        f"token id {[*head_out, *ids[i][out[i]], *tail_out][0]} out of range for vocabulary of size {v}"))
    rows = np.nonzero(keep)[0]
    counts = np.bincount(rows * v + ids[keep], minlength=len(ids) * v).reshape(len(ids), v)
    counts = (counts + np.bincount(head + tail, minlength=v)).astype(np.float64)
    _check_masks(counts)
    return counts


def _check_masks(counts: np.ndarray) -> None:
    """Raise a RowError for the first row of a (B, V) count matrix without
    exactly one MASK."""
    n_mask = counts[:, MASK]
    _first_bad(n_mask != 1, lambda i: f"input must contain exactly one mask token, found {n_mask[i]:g}")


def strip_scaffold(z: TokenSeq) -> TokenSeq:
    """Drop scaffold ids from decoded content so the result can be templated."""
    return TokenSeq.from_content(t for t in z.content if not is_scaffold(t))


def family_tokens(label: int) -> tuple[int, int]:
    base = FIRST_CONTENT_ID + 2 * label
    return (base, base + 1)


def token_family(token_id: int, num_labels: int) -> int | None:
    if token_id < FIRST_CONTENT_ID:
        return None
    family = (token_id - FIRST_CONTENT_ID) // 2
    return family if family < num_labels else None


def majority_label(x: TokenSeq, num_labels: int) -> int:
    """Rule-based oracle classifier: the family with the most tokens wins."""
    counts = [0] * num_labels
    for t in x.content:
        fam = token_family(t, num_labels)
        if fam is not None:
            counts[fam] += 1
    return int(np.argmax(counts))


@dataclass(frozen=True)
class SyntheticTask:
    train: tuple[Example, ...]
    test: tuple[Example, ...]
    vocab_size: int
    num_labels: int
    verbalizer_ids: tuple[int, ...]
    template: TaskTemplate


def gen_synthetic_task(
    vocab_size: int, num_labels: int, n_train: int, n_test: int, seed: int
) -> SyntheticTask:
    """Balanced majority-vote dataset over `num_labels` synonym families.

    Sequences are 8..16 content tokens; the label family holds a strict
    plurality among family tokens, remaining slots are other families (each
    strictly below the majority count) and label-neutral distractors.

    Per example, after the scalar draws of the length, the majority and each
    other family's count, one bounded draw picks every family token's member
    (label family first), one more every distractor, and one `shuffle` mixes
    the tokens. A size-k bounded draw takes the same values from the stream as
    k scalar draws, or k `choice` calls on a pair, so the examples equal those
    of a per-token draw bit for bit. The shuffle stays one call per example:
    it draws by another bounded method than `integers` (the draws of
    `permutation`), so no bulk draw reproduces its stream.
    """
    if vocab_size < 2 * num_labels + 4:
        raise ValueError(
            f"vocabulary of {vocab_size} too small: need >= {2 * num_labels + 4} "
            f"for {num_labels} synonym families plus scaffold tokens"
        )
    rng = np.random.default_rng(seed)
    distractors = list(range(FIRST_CONTENT_ID + 2 * num_labels, vocab_size))

    def make_example(uid: int, y: int) -> Example:
        n = int(rng.integers(8, 17))
        majority = int(rng.integers(2, n // 2 + 1))
        remaining = n - majority
        counts = {y: majority}
        for fam in range(num_labels):
            if fam == y:
                continue
            cap = min(majority - 1, remaining)
            c = int(rng.integers(0, cap + 1))
            counts[fam] = c
            remaining -= c
        if not distractors:
            counts[y] += remaining
            remaining = 0
        bases = [family_tokens(fam)[0] for fam, count in counts.items() for _ in range(count)]
        tokens = [base + member for base, member in zip(bases, rng.integers(0, 2, size=len(bases)).tolist())]
        if remaining:
            tokens += [distractors[i] for i in rng.integers(0, len(distractors), size=remaining).tolist()]
        rng.shuffle(tokens)
        return Example(uid=uid, x=TokenSeq.from_content(tokens), y=y)

    train = tuple(make_example(i, i % num_labels) for i in range(n_train))
    test = tuple(make_example(n_train + i, i % num_labels) for i in range(n_test))
    instruction = tuple(distractors[:3]) if len(distractors) >= 3 else ()
    return SyntheticTask(
        train=train,
        test=test,
        vocab_size=vocab_size,
        num_labels=num_labels,
        verbalizer_ids=tuple(family_tokens(y)[0] for y in range(num_labels)),
        template=TaskTemplate(instruction=instruction, mask_first=False, max_input_len=64),
    )


def gen_rewriter_corpus(examples, num_labels: int, seed: int) -> list[tuple[TokenSeq, TokenSeq]]:
    """Label-preserving rewrite targets: swap each family token for its synonym
    with probability 0.5, then shuffle within windows of 3 positions.

    Per example, one `random(k)` draw gives the k family tokens' coin flips,
    the same values as k scalar `random()` calls. Each window keeps its own
    `shuffle` call, for the reason gen_synthetic_task gives."""
    rng = np.random.default_rng(seed)
    pairs = []
    for ex in examples:
        tokens = list(ex.x.content)
        family = [i for i, t in enumerate(tokens) if token_family(t, num_labels) is not None]
        for i, u in zip(family, rng.random(len(family)).tolist()):
            if u < 0.5:
                tokens[i] ^= 1  # family_tokens pairs an even id (FIRST_CONTENT_ID is even) with the next
        for start in range(0, len(tokens), 3):
            window = tokens[start : start + 3]
            rng.shuffle(window)
            tokens[start : start + 3] = window
        pairs.append((ex.x, TokenSeq.from_content(tokens)))
    return pairs

