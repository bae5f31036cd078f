import hashlib

import numpy as np
import pytest

from conftest import tiny_classifier
from riff.data import (
    RowError,
    TaskTemplate,
    family_tokens,
    format_input,
    formatted_counts,
    gen_rewriter_corpus,
    gen_synthetic_task,
    majority_label,
    strip_scaffold,
    token_family,
)
from riff.classifier import token_counts
from riff.metrics import lexical_diversity
from riff.policy import TokenSeq, pad
from riff.vocab import BOS, EOS, MASK, SEP


def test_format_input_scaffold_with_empty_instruction():
    template = TaskTemplate(instruction=())
    x = TokenSeq.from_content([5, 6])
    out = format_input(template, (), x)
    assert out.ids == (BOS, 5, 6, SEP, MASK, EOS)


def test_format_input_with_instruction():
    template = TaskTemplate(instruction=(8, 9))
    x = TokenSeq.from_content([5])
    out = format_input(template, template.instruction, x)
    assert out.ids == (BOS, 8, 9, 5, SEP, MASK, EOS)


def test_format_input_mask_first_variant():
    template = TaskTemplate(instruction=(8,), mask_first=True)
    out = format_input(template, template.instruction, TokenSeq.from_content([5, 6]))
    assert out.ids == (BOS, 8, MASK, SEP, 5, 6, EOS)
    assert out.ids.index(MASK) < out.ids.index(5)


def test_format_input_injective_in_content():
    template = TaskTemplate(instruction=(8,))
    by_output = {}
    gen = np.random.default_rng(0)
    for _ in range(300):
        content = tuple(int(gen.integers(4, 12)) for _ in range(int(gen.integers(1, 6))))
        out = format_input(template, template.instruction, TokenSeq.from_content(content))
        # a formatted-output collision is only ever the same content again
        assert by_output.setdefault(out.ids, content) == content


def test_format_input_deterministic():
    template = TaskTemplate(instruction=(9,))
    x = TokenSeq.from_content([4, 5])
    assert format_input(template, (9,), x).ids == format_input(template, (9,), x).ids


def test_format_input_rejects_mask_in_content():
    template = TaskTemplate()
    with pytest.raises(ValueError, match="mask"):
        format_input(template, (), TokenSeq((4, MASK, EOS)))


def test_format_input_rejects_oversized():
    template = TaskTemplate(max_input_len=6)
    with pytest.raises(ValueError, match="exceeds"):
        format_input(template, (), TokenSeq.from_content([4] * 5))


def reference_counts(template: TaskTemplate, zs, vocab_size: int) -> np.ndarray:
    """token_counts of format_input(template, template.instruction,
    strip_scaffold(z)) for each z; a row format_input rejects raises a
    RowError naming it before any row is counted."""
    rows = []
    for i, z in enumerate(zs):
        try:
            rows.append(format_input(template, template.instruction, strip_scaffold(z)))
        except ValueError as exc:
            raise RowError(i, str(exc)) from exc
    return token_counts(tiny_classifier(vocab=vocab_size), rows)


def outcome(count, *args):
    """count(*args), or the (row, reason) of the RowError it raises."""
    try:
        return count(*args)
    except RowError as exc:
        return exc.row, exc.reason


def same(got, want) -> bool:
    if isinstance(want, tuple):
        return got == want
    return isinstance(got, np.ndarray) and got.dtype == np.float64 and np.array_equal(got, want)


@pytest.mark.parametrize("mask_first", [False, True])
@pytest.mark.parametrize("instruction", [(), (9,), (9, 17), (9, 17, 4)])
def test_formatted_counts_equal_token_counts_of_formatted_rows(mask_first, instruction):
    template = TaskTemplate(instruction=instruction, mask_first=mask_first, max_input_len=32)
    gen = np.random.default_rng(len(instruction) + 4 * mask_first)
    for _ in range(60):
        # decoded rewrites of mixed lengths carry scaffold ids (1..3) anywhere before their EOS
        zs = [TokenSeq.from_content(gen.integers(1, 20, int(gen.integers(0, 12))))
              for _ in range(int(gen.integers(1, 9)))]
        zs.append(TokenSeq((BOS, SEP, MASK, EOS)))  # nothing but scaffold
        got = formatted_counts(template, pad(zs).ids, 20)
        assert same(got, reference_counts(template, zs, 20))


def bad_batch(gen, case: str, v: int):
    """A template and decoded rows, one of them (or the template) bad as `case` says."""
    instruction = [int(t) for t in gen.integers(4, v, int(gen.integers(0, 4)))]
    limit = 24
    zs = [TokenSeq.from_content(gen.integers(1, v, int(gen.integers(0, 10)))) for _ in range(6)]
    i = int(gen.integers(0, len(zs)))
    if case == "content id >= V":
        zs[i] = TokenSeq.from_content([*zs[i].content, v + int(gen.integers(0, 3))])
    elif case == "over-long row":
        zs[i] = TokenSeq.from_content(gen.integers(1, v, 30))
    elif case == "template id >= V":
        instruction.insert(int(gen.integers(0, len(instruction) + 1)), v)
    elif case == "MASK in instruction":
        instruction.insert(int(gen.integers(0, len(instruction) + 1)), MASK)
    template = TaskTemplate(tuple(instruction), bool(gen.integers(0, 2)), max_input_len=limit)
    return template, zs


@pytest.mark.parametrize("case", [
    "content id >= V", "over-long row", "template id >= V", "MASK in instruction",
])
def test_formatted_counts_reject_bad_rows_as_token_counts_do(case):
    gen = np.random.default_rng(len(case))
    for _ in range(40):
        template, zs = bad_batch(gen, case, 20)
        want = outcome(reference_counts, template, zs, 20)
        assert isinstance(want, tuple)  # the case is bad for the reference too
        assert same(outcome(formatted_counts, template, pad(zs).ids, 20), want)


def test_formatted_counts_reject_a_negative_id_as_out_of_range():
    # no TokenSeq holds one, so format_input cannot be the reference here
    ids = np.array([[5, 6, EOS, 0], [5, -3, 7, EOS]])
    with pytest.raises(RowError, match="^batch sequence 1: token id -3 out of range for vocabulary of size 20$"):
        formatted_counts(TaskTemplate(instruction=(9,)), ids, 20)  # content, not scaffold
    with pytest.raises(RowError, match="^batch sequence 0: token id -1 out of range for vocabulary of size 20$"):
        formatted_counts(TaskTemplate(instruction=(9, -1, 25)), ids[:1], 20)  # the first in row order


def test_formatted_counts_name_an_over_long_row():
    template = TaskTemplate(instruction=(9,), max_input_len=8)
    fits, long = TokenSeq.from_content([4] * 3), TokenSeq.from_content([4, BOS, 5, 6, 7])
    assert formatted_counts(template, pad([fits]).ids, 20).shape == (1, 20)
    with pytest.raises(RowError, match="^batch sequence 1: formatted input of 9 tokens exceeds the 8 limit$"):
        formatted_counts(template, pad([fits, long, long]).ids, 20)
    with pytest.raises(ValueError, match="formatted input of 9 tokens exceeds the 8 limit"):
        format_input(template, template.instruction, strip_scaffold(long))


def test_strip_scaffold():
    z = TokenSeq((BOS, 4, MASK, 5, SEP, EOS))
    assert strip_scaffold(z).ids == (4, 5, EOS)
    assert strip_scaffold(TokenSeq((BOS, EOS))).ids == (EOS,)


def test_family_token_layout():
    assert family_tokens(0) == (4, 5)
    assert family_tokens(1) == (6, 7)
    assert token_family(4, 2) == 0
    assert token_family(7, 2) == 1
    assert token_family(8, 2) is None  # distractor
    assert token_family(MASK, 2) is None


def test_synthetic_task_shapes_and_balance():
    task = gen_synthetic_task(20, 2, 64, 32, seed=3)
    assert len(task.train) == 64
    assert len(task.test) == 32
    train_counts = [sum(1 for ex in task.train if ex.y == y) for y in range(2)]
    assert abs(train_counts[0] - train_counts[1]) <= 1
    for ex in task.train + task.test:
        assert 8 <= len(ex.x.content) <= 16
        assert ex.y < 2


def test_synthetic_task_rule_oracle_is_perfect():
    for labels in (2, 3):
        task = gen_synthetic_task(24, labels, 60, 30, seed=9)
        for ex in task.train + task.test:
            assert majority_label(ex.x, labels) == ex.y


def test_synthetic_task_majority_is_strict():
    task = gen_synthetic_task(20, 2, 50, 0, seed=4)
    for ex in task.train:
        counts = [0, 0]
        for t in ex.x.content:
            fam = token_family(t, 2)
            if fam is not None:
                counts[fam] += 1
        assert counts[ex.y] > counts[1 - ex.y]


def test_synthetic_task_vocab_guard():
    with pytest.raises(ValueError, match="too small"):
        gen_synthetic_task(7, 2, 10, 10, seed=0)


def test_synthetic_task_no_distractor_vocab():
    task = gen_synthetic_task(8, 2, 20, 0, seed=1)  # exactly 2C + 4
    for ex in task.train:
        assert all(token_family(t, 2) is not None for t in ex.x.content)
        assert majority_label(ex.x, 2) == ex.y


def test_rewriter_corpus_preserves_labels():
    task = gen_synthetic_task(20, 2, 60, 0, seed=5)
    for x, z in gen_rewriter_corpus(task.train, 2, seed=6):
        assert majority_label(z, 2) == majority_label(x, 2)
        assert len(z.content) == len(x.content)


def test_rewriter_corpus_is_family_permutation():
    # with synonyms mapped back to their family, the rewrite is a permutation
    task = gen_synthetic_task(20, 2, 40, 0, seed=7)
    for x, z in gen_rewriter_corpus(task.train, 2, seed=8):
        def canon(seq):
            return sorted(
                (token_family(t, 2) if token_family(t, 2) is not None else t)
                for t in seq.content
            )
        assert canon(x) == canon(z)


def test_rewriter_corpus_mostly_diverse():
    task = gen_synthetic_task(20, 2, 100, 0, seed=10)
    pairs = gen_rewriter_corpus(task.train, 2, seed=11)
    diverse = sum(lexical_diversity(x.content, z.content) > 0 for x, z in pairs)
    assert diverse >= 0.9 * len(pairs)



# sha256 over every example's (uid, ids, y), then every corpus pair's ids, of
# gen_synthetic_task(*shape) and gen_rewriter_corpus(train, labels, corpus_seed);
# recorded when every token was drawn by its own Generator.choice call
DATA_DIGESTS = {
    "recipe task": ((20, 2, 128, 64, 0), 6,
                    "8285d7ebee4acc8368f132460072db158d5f4a66dcdbdbcef2bd01a866982193"),
    "pretraining pool": ((20, 2, 128, 0, 7919), 104729,
                         "a96cd033fd729f8ba9f3b6ef61c963d55b336056126ad0558fb25d2db313d5f1"),
    "no distractors": ((8, 2, 60, 30, 1), 2,
                       "2856712310b2d51513c1f2055430c5aeae1d904c4a0178091ce6e35ed7743734"),
    "one distractor": ((9, 2, 60, 30, 3), 4,
                       "bf74d0ef77e6df3fdd80fa3a3f0c743fbbf232a6951735a3db47de3aa1c2f4f3"),
    "no distractors, 3 labels": ((10, 3, 45, 15, 5), 6,
                                 "e729563cad0cf10d416c04734222a65f752a0a6d1199dea6426aeb0e3ea550c8"),
    "3 labels": ((24, 3, 60, 30, 9), 10,
                 "00684b22d45069b7983229347359740ffbd90ecab963fabf46fcc9f8f4905807"),
    "4 labels": ((30, 4, 80, 40, 11), 12,
                 "a991ca1a542b59db28dab58c3dffe2d10f498033d9705d0895c1e074024e764d"),
}


@pytest.mark.parametrize("name", DATA_DIGESTS)
def test_task_and_corpus_reproduce_pinned_digests(name):
    shape, corpus_seed, want = DATA_DIGESTS[name]
    task = gen_synthetic_task(*shape)
    digest = hashlib.sha256()
    for ex in task.train + task.test:
        digest.update(repr((ex.uid, ex.x.ids, ex.y)).encode())
    for x, z in gen_rewriter_corpus(task.train, shape[1], corpus_seed):
        digest.update(repr((x.ids, z.ids)).encode())
    assert digest.hexdigest() == want


def test_synthetic_task_pins_zero_count_families_and_one_distractor():
    # 3 labels over one distractor (token 10); example 0 (label 0) draws a
    # count of 0 for both other families, so its non-label slots are all 10
    task = gen_synthetic_task(11, 3, 3, 0, seed=2)
    assert [ex.x.content for ex in task.train] == [
        (10, 10, 10, 10, 4, 10, 4, 10, 10, 5, 10, 10, 10, 10, 10),
        (10, 10, 10, 9, 7, 10, 7, 10, 10, 8, 10, 6, 10),
        (9, 9, 10, 4, 8, 10, 10, 10, 8, 10, 4, 6, 10, 5, 6, 7),
    ]
    assert [ex.y for ex in task.train] == [0, 1, 2]
    assert [z.content for _, z in gen_rewriter_corpus(task.train, 3, seed=3)] == [
        (10, 10, 10, 5, 10, 10, 10, 5, 10, 10, 5, 10, 10, 10, 10),
        (10, 10, 10, 8, 6, 10, 10, 10, 7, 10, 6, 9, 10),
        (8, 10, 9, 5, 10, 8, 9, 10, 10, 10, 6, 5, 5, 7, 10, 7),
    ]


# Premises of the bulk draws in gen_synthetic_task and gen_rewriter_corpus:
# each compares values and the generator's state afterwards.

def test_choice_of_uniform_sequence_is_one_bounded_integer_draw():
    for seed in range(20):
        for size in (1, 2, 3, 7, 16):
            seq = list(range(100, 100 + size))
            by_choice, by_integers = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [int(by_choice.choice(seq)) for _ in range(30)]
            got = [seq[int(by_integers.integers(0, len(seq)))] for _ in range(30)]
            assert got == want
            assert by_integers.bit_generator.state == by_choice.bit_generator.state


def test_bounded_integer_draws_batch_between_random_and_permutation():
    for seed in range(20):
        scalar, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
        for k, high in ((5, 2), (3, 7), (12, 2), (1, 16)):
            want = (scalar.random(), [int(scalar.integers(0, high)) for _ in range(k)],
                    scalar.permutation(k + 2).tolist())
            got = (bulk.random(), bulk.integers(0, high, size=k).tolist(),
                   bulk.permutation(k + 2).tolist())
            assert got == want
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_scalar_random_calls_equal_one_vector_draw():
    for seed in range(20):
        scalar, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (1, 4, 13):
            assert bulk.random(k).tolist() == [scalar.random() for _ in range(k)]
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_shuffle_applies_the_permutation_of_the_same_draws():
    for seed in range(20):
        by_permutation, by_shuffle = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 2, 3, 8, 16):
            seq = list(range(50, 50 + n))
            want = [seq[i] for i in by_permutation.permutation(n)]
            by_shuffle.shuffle(seq)
            assert seq == want
        assert by_shuffle.bit_generator.state == by_permutation.bit_generator.state


def test_empty_draws_leave_the_generator_untouched():
    gen = np.random.default_rng(3)
    before = gen.bit_generator.state
    assert gen.integers(0, 2, size=0).size == 0
    assert gen.integers(0, 5, size=0).size == 0
    assert gen.random(0).size == 0
    assert gen.bit_generator.state == before
