import numpy as np
import pytest

from conftest import max_scaled_error, tiny_classifier
from riff import data, training
from riff import classifier as clf
from riff.data import TaskTemplate, gen_synthetic_task, format_input
from riff.numerics import finite_diff_grad
from riff.policy import TokenSeq
from riff.promptsearch import Instruction, gs_candidates, gs_step, minibatch_loglik
from riff.training import RunConfig, fewshot_split

TEMPLATE = TaskTemplate(instruction=(5, 6))
VERB = clf.Verbalizer((4, 6))


def make_minibatch():
    return [
        data.Example(uid=0, x=TokenSeq.from_content([4, 4, 7]), y=0),
        data.Example(uid=1, x=TokenSeq.from_content([6, 7, 6]), y=1),
    ]


def test_instruction_replace():
    inst = Instruction((5, 6))
    assert inst.replaced(1, 7).ids == (5, 7)
    assert inst.ids == (5, 6)
    with pytest.raises(ValueError):
        Instruction(())


def test_candidates_k_equals_vocab_returns_sorted_scores():
    p = tiny_classifier(seed=1, vocab=8, mode=clf.TuningMode.NONE)
    inst = Instruction((5, 6))
    batch = make_minibatch()
    cands = gs_candidates(p, TEMPLATE, inst, 0, batch, VERB, k=8)
    assert sorted(cands) == list(range(8))
    grad = np.zeros(p.cfg.embed_dim)
    for ex in batch:
        formatted = format_input(TEMPLATE, inst.ids, ex.x)
        grad += clf.input_row_grads(p, [formatted], [ex.y], VERB)[0][1]
    scores = p.seg("token_embedding") @ grad
    for earlier, later in zip(cands, cands[1:]):
        assert (scores[earlier], -earlier) >= (scores[later], -later)


@pytest.mark.parametrize("mode", [clf.TuningMode.NONE, clf.TuningMode.SOFT_PROMPT, clf.TuningMode.CLS_HEAD])
def test_batched_search_matches_per_example_sums(mode):
    # minibatch_loglik and gs_candidates score the minibatch in one kernel
    # call each; mixed lengths pad the batch
    p = tiny_classifier(seed=9, vocab=8, prompt_len=2, mode=mode)
    inst = Instruction((5, 6))
    batch = make_minibatch() + [data.Example(uid=2, x=TokenSeq.from_content([7]), y=1)]
    formatted = [format_input(TEMPLATE, inst.ids, ex.x) for ex in batch]
    want = 0.0
    for seq, ex in zip(formatted, batch):
        want += float(clf.label_logprobs_batch(p, clf.token_counts(p, [seq]), VERB, clf.label_path_mode(mode))[0][ex.y])
    assert abs(minibatch_loglik(p, TEMPLATE, inst, batch, VERB) - want) <= 1e-12 * abs(want)
    for position in (0, 1):
        grad = np.zeros(p.cfg.embed_dim)
        for seq, ex in zip(formatted, batch):
            grad += clf.input_row_grads(p, [seq], [ex.y], VERB)[0][1 + position]
        rows = clf.input_row_grads(p, formatted, [ex.y for ex in batch], VERB)
        assert max_scaled_error(rows[:, 1 + position].sum(axis=0), grad) <= 1e-12
        scores = p.seg("token_embedding") @ grad
        want_order = sorted(range(8), key=lambda v: (-scores[v], v))
        assert gs_candidates(p, TEMPLATE, inst, position, batch, VERB, k=8) == want_order


def test_candidates_zero_gradient_ties_break_by_id():
    p = tiny_classifier(seed=2, vocab=8, mode=clf.TuningMode.NONE)
    p.seg("lm_head")[:] = 0.0  # uniform labels -> zero gradient everywhere
    cands = gs_candidates(p, TEMPLATE, Instruction((5, 6)), 1, make_minibatch(), VERB, k=4)
    assert cands == [0, 1, 2, 3]


def test_candidates_duplicate_embeddings_tie():
    p = tiny_classifier(seed=3, vocab=8, mode=clf.TuningMode.NONE)
    p.seg("token_embedding")[7] = p.seg("token_embedding")[5]
    cands = gs_candidates(p, TEMPLATE, Instruction((5, 6)), 0, make_minibatch(), VERB, k=8)
    assert cands.index(5) < cands.index(7)  # equal scores, id order preserved


def test_candidates_top1_matches_first_order_oracle():
    # finite-difference gradient at the instruction row, then the same
    # linearization: the ranking must agree on the top candidate
    p = tiny_classifier(seed=4, vocab=8, mode=clf.TuningMode.NONE)
    inst = Instruction((5, 6))
    batch = make_minibatch()
    position = 0
    emb = p.seg("token_embedding")

    def loglik_with_row(row_values):
        probe = p.copy()
        probe.seg("token_embedding")[inst.ids[position]] = row_values
        # every occurrence of that token id moves; restrict inputs so the
        # instruction position is the only occurrence
        return minibatch_loglik(probe, TEMPLATE, inst, batch, VERB)

    fd_grad = finite_diff_grad(loglik_with_row, emb[inst.ids[position]].copy(), h=1e-5)
    scores = emb @ fd_grad
    expected_top = int(np.argmax(scores))
    got = gs_candidates(p, TEMPLATE, inst, position, batch, VERB, k=1)[0]
    assert got == expected_top


def test_candidates_validation():
    p = tiny_classifier(seed=5, vocab=8, mode=clf.TuningMode.NONE)
    with pytest.raises(ValueError, match="minibatch"):
        gs_candidates(p, TEMPLATE, Instruction((5,)), 0, [], VERB, k=2)
    with pytest.raises(ValueError, match="position"):
        gs_candidates(p, TEMPLATE, Instruction((5,)), 3, make_minibatch(), VERB, k=2)


def test_step_never_worse_on_minibatch():
    gen = np.random.default_rng(6)
    p = tiny_classifier(seed=6, vocab=10, mode=clf.TuningMode.NONE)
    template = TaskTemplate(instruction=(8, 9))
    inst = Instruction(template.instruction)
    batch = [
        data.Example(uid=i, x=TokenSeq.from_content(list(gen.integers(4, 10, size=4))), y=int(gen.integers(2)))
        for i in range(2)
    ]
    for trial in range(30):
        rng = np.random.default_rng(trial)
        before = minibatch_loglik(p, template, inst, batch, VERB)
        inst = gs_step(p, template, inst, batch, VERB, k=4, rng=rng)
        after = minibatch_loglik(p, template, inst, batch, VERB)
        assert after >= before - 1e-12


def test_step_keeps_incumbent_when_candidates_lose():
    p = tiny_classifier(seed=7, vocab=8, mode=clf.TuningMode.NONE)
    inst = Instruction((5, 6))
    batch = make_minibatch()
    rng = np.random.default_rng(0)
    out = gs_step(p, TEMPLATE, inst, batch, VERB, k=8, rng=rng)
    # whatever came back is at least as good; if nothing beat it, identical object semantics
    assert minibatch_loglik(p, TEMPLATE, out, batch, VERB) >= minibatch_loglik(
        p, TEMPLATE, inst, batch, VERB
    )
    # force the all-worse case: every candidate evaluation fails the template
    bad_template = TaskTemplate(instruction=(5,), max_input_len=9)
    small = Instruction((5,))
    short_batch = [data.Example(uid=0, x=TokenSeq.from_content([4, 4, 7]), y=0)]
    result = gs_step(p, bad_template, small, short_batch, VERB, k=1, rng=np.random.default_rng(1))
    assert isinstance(result, Instruction)


def search(classifier, template, instruction, examples, verbalizer, steps, k, batch_size, seed):
    """gs_step over random minibatches: the final instruction and each step's
    (incumbent, accepted) minibatch log-likelihood pair."""
    rng = np.random.default_rng(seed)
    examples = list(examples)
    history, current = [], instruction
    for _ in range(steps):
        idx = rng.choice(len(examples), size=min(batch_size, len(examples)), replace=False)
        minibatch = [examples[i] for i in idx]
        before = minibatch_loglik(classifier, template, current, minibatch, verbalizer)
        current = gs_step(classifier, template, current, minibatch, verbalizer, k, rng)
        history.append((before, minibatch_loglik(classifier, template, current, minibatch, verbalizer)))
    return current, history


def test_search_history_is_monotone():
    task = gen_synthetic_task(20, 2, 64, 0, seed=0)
    split = fewshot_split(task.train, 8, seed=0)
    p = tiny_classifier(seed=8, vocab=20, embed=8, mode=clf.TuningMode.NONE)
    verb = clf.Verbalizer(task.verbalizer_ids)
    _, history = search(
        p, task.template, Instruction(task.template.instruction), split.train, verb,
        steps=50, k=4, batch_size=2, seed=3,
    )
    assert len(history) == 50
    assert all(after >= before - 1e-12 for before, after in history)


def test_search_improves_validation_accuracy_most_seeds():
    # separable task, warmed classifier, deliberately biased starting
    # instruction made of one label family's tokens; compare against each
    # run's own starting accuracy
    wins = 0
    for seed in range(5):
        task = gen_synthetic_task(20, 2, 96, 0, seed=0)
        split = fewshot_split(task.train, 16, seed=seed)
        ccfg = clf.ClassifierConfig(vocab_size=20, num_labels=2, embed_dim=16)
        cparams = clf.ClassifierParams.init_random(ccfg, clf.TuningMode.ALL, seed=100 + seed)
        warm_cfg = RunConfig(steps=160, lr=0.01, batch_size=8, checkpoint_interval=160, seed=seed)
        cks = training.train_classifier_augmented(
            cparams, None, task, split, m=0, mode=clf.TuningMode.ALL, cfg=warm_cfg
        )
        frozen = clf.ClassifierParams(cks[-1].params.cfg, clf.TuningMode.NONE, cks[-1].params.pv)
        verb = clf.Verbalizer(task.verbalizer_ids)
        start = Instruction((4, 5, 4))

        def val_acc(instruction):
            correct = 0
            for ex in split.validation:
                formatted = format_input(task.template, instruction.ids, ex.x)
                pred = int(np.argmax(clf.label_logprobs_batch(frozen, clf.token_counts(frozen, [formatted]), verb)[0]))
                correct += pred == ex.y
            return correct / len(split.validation)

        base = val_acc(start)
        found, _ = search(
            frozen, task.template, start, split.train, verb,
            steps=120, k=4, batch_size=2, seed=seed,
        )
        wins += val_acc(found) > base
    assert wins >= 4
