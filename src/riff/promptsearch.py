"""Discrete instruction search over the classifier, no parameter updates.

Each step scores vocabulary substitutions at one randomly chosen instruction
position by the first-order change in minibatch label log-likelihood, then
re-evaluates the top candidates exactly. The incumbent instruction is always
part of the exact evaluation, so per-step minibatch log-likelihood never
decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import (
    ClassifierParams,
    Verbalizer,
    input_row_grads,
    label_logprobs_batch,
    label_path_mode,
    token_counts,
)
from .data import TaskTemplate, format_input


@dataclass(frozen=True)
class Instruction:
    ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(int(t) for t in self.ids))
        if len(self.ids) == 0:
            raise ValueError("instruction must have at least one position")

    def replaced(self, position: int, token_id: int) -> "Instruction":
        ids = list(self.ids)
        ids[position] = int(token_id)
        return Instruction(tuple(ids))

    def __len__(self) -> int:
        return len(self.ids)


def minibatch_loglik(
    classifier: ClassifierParams,
    template: TaskTemplate,
    instruction: Instruction,
    minibatch,
    verbalizer: Verbalizer,
) -> float:
    """Sum of label log-likelihoods over the minibatch, scored in one batch
    on the label path `rewards` reads, summed in minibatch order."""
    if not minibatch:
        return 0.0
    formatted = [format_input(template, instruction.ids, ex.x) for ex in minibatch]
    counts = token_counts(classifier, formatted)
    logp = label_logprobs_batch(classifier, counts, verbalizer, label_path_mode(classifier.mode))
    total = 0.0
    for i, ex in enumerate(minibatch):
        total += float(logp[i, ex.y])
    return total


def gs_candidates(
    classifier: ClassifierParams,
    template: TaskTemplate,
    instruction: Instruction,
    position: int,
    minibatch,
    verbalizer: Verbalizer,
    k: int,
) -> list[int]:
    """Top-k replacement tokens for one instruction position, ranked by the
    embedding-gradient dot product. Ties break toward the lower token id."""
    if not minibatch:
        raise ValueError("empty minibatch")
    if not 0 <= position < len(instruction):
        raise ValueError(f"position {position} outside instruction of length {len(instruction)}")
    if k < 1:
        raise ValueError("k must be at least 1")
    # instruction tokens sit right after BOS in both template variants
    row = 1 + position
    formatted = [format_input(template, instruction.ids, ex.x) for ex in minibatch]
    rows = input_row_grads(classifier, formatted, [ex.y for ex in minibatch], verbalizer)
    grad = np.zeros(classifier.cfg.embed_dim)
    for ex_rows in rows:
        grad += ex_rows[row]
    scores = classifier.seg("token_embedding") @ grad
    order = sorted(range(classifier.cfg.vocab_size), key=lambda v: (-scores[v], v))
    return order[:k]


def gs_step(
    classifier: ClassifierParams,
    template: TaskTemplate,
    instruction: Instruction,
    minibatch,
    verbalizer: Verbalizer,
    k: int,
    rng: np.random.Generator,
) -> Instruction:
    """One search iteration. The incumbent is always evaluated alongside the
    candidates, so the returned instruction is never worse on this minibatch."""
    position = int(rng.integers(len(instruction)))
    candidates = gs_candidates(classifier, template, instruction, position, minibatch, verbalizer, k)
    best = minibatch_loglik(classifier, template, instruction, minibatch, verbalizer)
    best_instruction = instruction
    for token_id in candidates:
        candidate = instruction.replaced(position, token_id)
        try:
            score = minibatch_loglik(classifier, template, candidate, minibatch, verbalizer)
        except ValueError:
            # candidate breaks the template (an extra EOS or mask); unusable
            continue
        if score > best:
            best, best_instruction = score, candidate
    return best_instruction

