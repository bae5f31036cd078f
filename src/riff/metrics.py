"""Rewrite-quality metrics: n-gram overlap and the lexical diversity of
rewrites against their input and against each other, on token id lists."""

from __future__ import annotations

from collections import Counter
from itertools import combinations


def _ngrams(tokens, n: int) -> Counter:
    toks = list(tokens)
    return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))


def rouge_n(a, b, n: int) -> float:
    """F1 of clipped n-gram overlap between token lists; 0 when either side
    has no n-grams."""
    if n not in (1, 2):
        raise ValueError("only unigram and bigram overlap are supported")
    ga, gb = _ngrams(a, n), _ngrams(b, n)
    ta, tb = sum(ga.values()), sum(gb.values())
    if ta == 0 or tb == 0:
        return 0.0
    overlap = sum(min(count, gb[gram]) for gram, count in ga.items())
    if overlap == 0:
        return 0.0
    precision = overlap / tb
    recall = overlap / ta
    return 2.0 * precision * recall / (precision + recall)


def lexical_diversity(original, paraphrase) -> float:
    """1 - mean of unigram and bigram overlap F1; higher means more lexically
    different from the original."""
    original = list(original)
    paraphrase = list(paraphrase)
    if not original or not paraphrase:
        raise ValueError("lexical diversity needs non-empty token lists")
    return 1.0 - (rouge_n(original, paraphrase, 1) + rouge_n(original, paraphrase, 2)) / 2.0


def pairwise_ld(paraphrases) -> float:
    """Mean lexical diversity over all unordered pairs of rewrites."""
    items = [list(p) for p in paraphrases]
    if len(items) < 2:
        raise ValueError("pairwise diversity needs at least two rewrites")
    values = [lexical_diversity(a, b) for a, b in combinations(items, 2)]
    return float(sum(values) / len(values))

