"""Discrete instruction search over the classifier, no parameter updates.

Each step scores vocabulary substitutions at one randomly chosen instruction
position by the first-order change in minibatch label log-likelihood, then
re-evaluates the top candidates exactly. The incumbent instruction is always
part of the exact evaluation, so per-step minibatch log-likelihood never
decreases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classifier import ClassifierParams, Verbalizer, input_token_grads, label_logprobs_batch, label_path_mode
from .data import TaskTemplate, formatted_counts
from .policy import pad


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


def _counts(classifier: ClassifierParams, template: TaskTemplate, instruction: Instruction, minibatch) -> np.ndarray:
    """(B, V) token counts of each example formatted under `instruction`
    (scaffold ids in its content drop out, as in formatted_counts)."""
    ids = pad([ex.x for ex in minibatch]).ids
    return formatted_counts(replace(template, instruction=instruction.ids), ids, classifier.cfg.vocab_size)


def minibatch_loglik(
    classifier: ClassifierParams,
    template: TaskTemplate,
    instruction: Instruction,
    minibatch,
    verbalizer: Verbalizer,
) -> float:
    """Sum of label log-likelihoods over the minibatch, scored in one batch
    on the label path LabelPath.rewards reads, summed in minibatch order."""
    if not minibatch:
        return 0.0
    counts = _counts(classifier, template, instruction, minibatch)
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
    dot product of each token's embedding with the minibatch's input-row
    gradient at the token the position holds. Ties break toward the lower
    token id."""
    if not minibatch:
        raise ValueError("empty minibatch")
    if not 0 <= position < len(instruction):
        raise ValueError(f"position {position} outside instruction of length {len(instruction)}")
    if k < 1:
        raise ValueError("k must be at least 1")
    counts = _counts(classifier, template, instruction, minibatch)
    token = instruction.ids[position]
    grad = np.zeros(classifier.cfg.embed_dim)
    for ex_grads in input_token_grads(classifier, counts, [ex.y for ex in minibatch], verbalizer):
        grad += ex_grads[token]
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
            # candidate breaks the template (an EOS or a second mask); unusable
            continue
        if score > best:
            best, best_instruction = score, candidate
    return best_instruction

