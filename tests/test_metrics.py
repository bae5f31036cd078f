import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riff.metrics import lexical_diversity, pairwise_ld, rouge_n


def test_rouge_identity():
    assert rouge_n(["a", "b", "c"], ["a", "b", "c"], 1) == 1.0
    assert rouge_n([1, 2, 3], [1, 2, 3], 2) == 1.0


def test_rouge_disjoint():
    assert rouge_n(["a", "b"], ["c", "d"], 1) == 0.0
    assert rouge_n([1, 2], [3, 4], 2) == 0.0


def test_rouge_worked_example():
    a = ["w1", "w2", "w3"]
    b = ["w1", "w2"]
    # unigram: P=1, R=2/3 -> F1 = 0.8; bigram: P=1, R=1/2 -> F1 = 2/3
    assert rouge_n(a, b, 1) == pytest.approx(0.8, abs=1e-15)
    assert rouge_n(a, b, 2) == pytest.approx(2 / 3, abs=1e-15)


def test_rouge_empty_ngram_side():
    assert rouge_n([], ["a"], 1) == 0.0
    assert rouge_n(["a"], ["b"], 2) == 0.0  # single tokens have no bigrams


def test_rouge_rejects_bad_order():
    with pytest.raises(ValueError):
        rouge_n(["a"], ["a"], 3)


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=8),
    st.lists(st.integers(0, 5), min_size=1, max_size=8),
    st.sampled_from([1, 2]),
)
@settings(max_examples=200)
def test_rouge_symmetric(a, b, n):
    assert rouge_n(a, b, n) == pytest.approx(rouge_n(b, a, n), abs=1e-12)


def test_lexical_diversity_endpoints():
    assert lexical_diversity([1, 2, 3], [1, 2, 3]) == 0.0
    assert lexical_diversity([1, 2], [3, 4]) == 1.0


def test_lexical_diversity_worked_example():
    got = lexical_diversity(["w1", "w2", "w3"], ["w1", "w2"])
    assert got == pytest.approx(1 - (0.8 + 2 / 3) / 2, abs=1e-12)


def test_lexical_diversity_in_unit_interval():
    gen = np.random.default_rng(0)
    for _ in range(200):
        a = list(gen.integers(0, 6, size=int(gen.integers(1, 8))))
        b = list(gen.integers(0, 6, size=int(gen.integers(1, 8))))
        assert 0.0 <= lexical_diversity(a, b) <= 1.0


def test_lexical_diversity_rejects_empty():
    with pytest.raises(ValueError):
        lexical_diversity([], [1])


def test_pairwise_identical_is_zero():
    assert pairwise_ld([[1, 2], [1, 2], [1, 2]]) == 0.0


def test_pairwise_disjoint_is_one():
    assert pairwise_ld([[1, 2], [3, 4]]) == 1.0


def test_pairwise_three_texts_hand_mean():
    texts = [[1, 2], [1, 3], [4, 5]]
    expected = (
        lexical_diversity(texts[0], texts[1])
        + lexical_diversity(texts[0], texts[2])
        + lexical_diversity(texts[1], texts[2])
    ) / 3
    assert pairwise_ld(texts) == pytest.approx(expected, abs=1e-15)


def test_pairwise_permutation_symmetric():
    texts = [[1, 2, 3], [2, 3], [4, 2]]
    assert pairwise_ld(texts) == pytest.approx(pairwise_ld(texts[::-1]), abs=1e-15)


def test_pairwise_needs_two():
    with pytest.raises(ValueError):
        pairwise_ld([[1, 2]])

