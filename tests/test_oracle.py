import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from conftest import (
    exact_objective,
    greedy_path,
    reference_enumerate_sequences,
    reference_exact_kl_gradient,
    reference_exact_values,
    reference_weighted_seq_grad,
    stacked_central_diffs,
    table_reward,
    tiny_policy,
    total_mass,
)
from riff import policy as policy_module
from riff.numerics import finite_diff_grad, max_relative_error, richardson_grad
from riff.optim import AdamConfig, AdamW
from riff.oracle import (
    _anchor_logprobs,
    _support,
    enumerate_sequences,
    exact_gradient,
    exact_kl_gradient,
    exact_kl_objective,
    exact_objectives,
    mml_posteriors,
)
from riff.policy import (
    PolicyConfig,
    PolicyParams,
    Padded,
    TokenSeq,
    pad,
    path_logprobs,
    seq_logprob,
    step_cells,
    transition_forward,
    transition_tables,
)
from riff.vocab import BOS, EOS

mpmath.mp.dps = 40


def test_enumeration_lists_two_token_space():
    p = tiny_policy(seed=1, vocab=2, max_len=2)
    enum = enumerate_sequences(p, TokenSeq.from_content([1]))
    ids = sorted(z.ids for z, _ in enum.entries)
    assert ids == [(EOS,), (1, EOS)]


def test_enumeration_mass_and_tail():
    p = tiny_policy(seed=2, vocab=3, max_len=3)
    enum = enumerate_sequences(p, TokenSeq.from_content([1]))
    assert abs(total_mass(enum) + enum.tail_mass - 1.0) < 1e-10
    # independent tail: probability of two content steps without termination
    probs = {}
    for z, lp in enum.entries:
        probs[z.ids] = math.exp(lp)


def test_enumeration_count_combinatorics():
    p = tiny_policy(seed=3, vocab=3, max_len=3)
    enum = enumerate_sequences(p, TokenSeq.from_content([1]))
    assert len(enum.entries) == 1 + 2 + 4


def test_enumeration_guard():
    cfg = PolicyConfig(vocab_size=10, embed_dim=2, hidden_dim=2, max_len=8)
    p = PolicyParams.init_random(cfg, seed=0)
    with pytest.raises(ValueError, match="guard"):
        enumerate_sequences(p, TokenSeq.from_content([1]))


def test_enumeration_warns_on_large_tail():
    p = tiny_policy(seed=4, vocab=4, max_len=3)
    with pytest.warns(UserWarning, match="tail mass"):
        enumerate_sequences(p, TokenSeq.from_content([1]))


def test_enumeration_logprobs_match_seq_logprob():
    p = tiny_policy(seed=5, vocab=3, max_len=3)
    x = TokenSeq.from_content([2])
    for z, lp in enumerate_sequences(p, x).entries:
        assert lp == pytest.approx(seq_logprob(p, x, z), abs=1e-12)


SHAPES = [(v, n) for v in range(2, 6) for n in range(1, 6)]


@pytest.mark.parametrize("vocab,max_len", SHAPES)
def test_enumeration_bitwise_equals_recursive_reference(vocab, max_len):
    gen = np.random.default_rng(vocab * 10 + max_len)
    for trial in range(3):
        scale = float(gen.uniform(0.1, 3.0))
        p = tiny_policy(seed=int(gen.integers(2**31)), vocab=vocab, max_len=max_len, scale=scale)
        x = TokenSeq.from_content([int(t) for t in gen.integers(1, vocab, size=3)])
        got = enumerate_sequences(p, x)
        want = reference_enumerate_sequences(p, x, max_len)
        assert [z.ids for z, _ in got.entries] == [z.ids for z, _ in want.entries]
        assert [lp for _, lp in got.entries] == [lp for _, lp in want.entries]
        assert got.tail_mass == want.tail_mass
        if max_len == 1:
            # only EOS terminates; every other path is tail
            assert [z.ids for z, _ in got.entries] == [(EOS,)]
            assert got.tail_mass > 0.0


# (vocab size, max_len) classes of cli.oracle_check instances
SWEEP_SHAPES = [(3, 3), (3, 4), (4, 3), (4, 4)]


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.6, 2.5])
def test_exact_kl_bitwise_equals_seq_logprobs_forms(beta):
    gen = np.random.default_rng(31)
    for vocab, max_len in [(2, 1), *SWEEP_SHAPES, (5, 3)]:
        p = tiny_policy(seed=int(gen.integers(2**31)), vocab=vocab, max_len=max_len, scale=1.2)
        fixed = tiny_policy(seed=int(gen.integers(2**31)), vocab=vocab, max_len=max_len, scale=0.4)
        x = TokenSeq.from_content([int(t) for t in gen.integers(1, vocab, size=2)])
        reward_fn = table_reward(int(gen.integers(2**31)))
        want = reference_exact_values(p, fixed, x, reward_fn, beta, max_len)
        assert exact_objective(p, x, reward_fn) == want["objective"]
        assert np.array_equal(mml_posteriors(enumerate_sequences(p, x), reward_fn), want["posteriors"])
        assert np.array_equal(exact_gradient(p, x, reward_fn), want["gradient"])
        assert exact_kl_objective(p, fixed, x, reward_fn, beta) == want["kl_objective"]
        got_grad = exact_kl_gradient(p, fixed, x, reward_fn, beta)
        assert np.array_equal(got_grad, want["kl_gradient"])
        assert np.array_equal(got_grad, reference_weighted_seq_grad(p, x, want["seqs"], want["kl_coeffs"]))


def test_anchor_logprobs_are_memoized_by_value_and_read_only():
    p = tiny_policy(seed=41, vocab=4, max_len=4)
    fixed = tiny_policy(seed=42, vocab=4, max_len=4, scale=0.4)
    x = TokenSeq.from_content([2, 3])
    seqs, cells = _support(4, 4)

    def fresh():
        return path_logprobs(transition_forward(fixed, [x]).table, cells[: len(seqs)])

    first = _anchor_logprobs(p, fixed, x, None)
    assert not first.flags.writeable
    assert _anchor_logprobs(p, fixed, x, None) is first
    assert np.array_equal(first, fresh())
    # the memo keys on the anchor's values: an anchor updated in place is read again
    fixed.flat[:] += 0.05
    second = _anchor_logprobs(p, fixed, x, None)
    assert np.array_equal(second, fresh()) and not np.array_equal(second, first)
    seqs, cells = _support(4, 3)
    want = path_logprobs(transition_forward(fixed, [x]).table, cells[: len(seqs)])
    assert np.array_equal(_anchor_logprobs(p, fixed, x, 3), want)


@pytest.mark.parametrize("vocab,max_len", SWEEP_SHAPES)
def test_exact_objectives_rows_equal_exact_objective_bitwise(vocab, max_len):
    gen = np.random.default_rng(vocab * 10 + max_len)
    p = tiny_policy(seed=int(gen.integers(2**31)), vocab=vocab, max_len=max_len)
    x = TokenSeq.from_content([int(t) for t in gen.integers(1, vocab, size=3)])
    reward_fn = table_reward(int(gen.integers(2**31)))
    blocks = []

    def stacked(flats):
        blocks.append(flats.copy())
        return exact_objectives(p, flats, x, reward_fn)

    richardson_grad(stacked, p.flat, 1e-3)
    (block,) = blocks
    assert block.shape == (4 * p.flat.size, p.flat.size)
    values = exact_objectives(p, block, x, reward_fn)

    def probe_of(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return probe

    def objective(flat):
        return exact_objective(probe_of(flat), x, reward_fn)

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="unterminated tail mass")
        assert np.array_equal(values, [objective(row) for row in block])
        # central differences from the stacked values are finite_diff_grad's, bitwise
        fd = finite_diff_grad(objective, p.flat, h=1e-5)
        assert np.array_equal(stacked_central_diffs(p, x, reward_fn, max_len, 1e-5), fd)
        # with the KL anchor, each row of the whole block is its own vector's
        # exact_kl_objective and, on a sample of rows (the reference recomputes
        # the anchor's table per sequence), the straight-line reference's
        fixed = tiny_policy(seed=int(gen.integers(2**31)), vocab=vocab, max_len=max_len, scale=0.4)
        probes = [probe_of(row) for row in block]
        sample = gen.choice(len(block), size=12, replace=False)
        for beta in (0.0, 0.1, 0.6, 2.5):
            values = exact_objectives(p, block, x, reward_fn, max_len, fixed, beta)
            assert np.array_equal(values, [exact_kl_objective(probe, fixed, x, reward_fn, beta) for probe in probes])
            for i in sample:
                want = reference_exact_values(probes[i], fixed, x, reward_fn, beta, max_len)["kl_objective"]
                assert values[i] == want


def test_exact_objectives_keeps_the_straight_line_checks():
    p = tiny_policy(seed=43, vocab=3, max_len=3)
    with pytest.raises(ValueError, match="out of range"):
        exact_objectives(p, p.flat[None], TokenSeq.from_content([5]), table_reward(1))
    big = PolicyParams.init_random(PolicyConfig(vocab_size=10, embed_dim=2, hidden_dim=2, max_len=8), seed=0)
    with pytest.raises(ValueError, match="guard"):
        exact_objectives(big, big.flat[None], TokenSeq.from_content([1]), table_reward(1))
    flats = np.repeat(p.flat[None], 2, axis=0)
    flats[1, p.pv.segment_slice("out_head")] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite logits"):
        exact_objectives(p, flats, TokenSeq.from_content([1]), table_reward(1))
    with pytest.raises(ValueError, match="anchor `fixed`, which is missing"):
        exact_objectives(p, p.flat[None], TokenSeq.from_content([1]), table_reward(1), beta=0.5)


def test_exact_kl_rejects_anchor_with_another_vocabulary():
    p = tiny_policy(seed=1, vocab=3, max_len=3)
    fixed = tiny_policy(seed=2, vocab=4, max_len=3)
    with pytest.raises(ValueError, match="vocabulary"):
        exact_kl_objective(p, fixed, TokenSeq.from_content([1]), table_reward(3), 0.5)


def test_enumeration_rejects_nonpositive_max_len():
    with pytest.raises(ValueError, match="max_len"):
        enumerate_sequences(tiny_policy(seed=1), TokenSeq.from_content([1]), max_len=0)


def test_exact_objective_constant_reward_factors_out():
    p = tiny_policy(seed=6, vocab=3, max_len=3)
    x = TokenSeq.from_content([1])
    constant = math.log(0.5)
    enum = enumerate_sequences(p, x)
    got = exact_objective(p, x, lambda z: constant)
    assert got == pytest.approx(constant + math.log(total_mass(enum)), abs=1e-12)


def test_exact_objective_single_sequence_space():
    p = tiny_policy(seed=7, vocab=2, max_len=1)
    x = TokenSeq.from_content([1])
    reward_fn = table_reward(11)
    only = TokenSeq((EOS,))
    got = exact_objective(p, x, reward_fn)
    assert got == pytest.approx(seq_logprob(p, x, only) + reward_fn(only), abs=1e-12)


def test_exact_objective_matches_extended_precision_sum():
    p = tiny_policy(seed=8, vocab=3, max_len=3)
    x = TokenSeq.from_content([1, 2])
    reward_fn = table_reward(13)
    enum = enumerate_sequences(p, x)
    total = mpmath.fsum(
        mpmath.e ** mpmath.mpf(lp) * mpmath.e ** mpmath.mpf(reward_fn(z))
        for z, lp in enum.entries
    )
    assert exact_objective(p, x, reward_fn) == pytest.approx(float(mpmath.log(total)), abs=1e-12)


def test_exact_gradient_matches_finite_differences():
    gen = np.random.default_rng(20)
    for trial in range(5):
        vocab = int(gen.integers(3, 5))
        p = tiny_policy(seed=trial + 60, vocab=vocab, max_len=3)
        x = TokenSeq.from_content([int(gen.integers(1, vocab))])
        reward_fn = table_reward(trial)
        analytic = exact_gradient(p, x, reward_fn)

        def objective(flat):
            probe = PolicyParams(p.cfg)
            probe.pv.values[:] = flat
            return exact_objective(probe, x, reward_fn)

        fd = finite_diff_grad(objective, p.flat, h=1e-5)
        assert max_relative_error(analytic, fd) < 1e-4


def test_exact_gradient_reward_shift_invariant():
    p = tiny_policy(seed=9, vocab=3, max_len=3)
    x = TokenSeq.from_content([1])
    reward_fn = table_reward(17)
    base = exact_gradient(p, x, reward_fn)
    shifted = exact_gradient(p, x, lambda z: reward_fn(z) + 3.7)
    assert np.allclose(base, shifted, atol=1e-9)


def test_exact_gradient_constant_reward_is_mass_gradient():
    p = tiny_policy(seed=10, vocab=3, max_len=4)
    x = TokenSeq.from_content([2])
    analytic = exact_gradient(p, x, lambda z: -0.25)

    def log_mass(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return math.log(total_mass(enumerate_sequences(probe, x)))

    fd = finite_diff_grad(log_mass, p.flat, h=1e-5)
    assert max_relative_error(analytic, fd) < 1e-4


def test_exact_kl_gradient_matches_finite_differences():
    p = tiny_policy(seed=11, vocab=3, max_len=3)
    fixed = tiny_policy(seed=12, vocab=3, max_len=3)
    x = TokenSeq.from_content([1])
    reward_fn = table_reward(23)
    for beta in (0.1, 0.6):
        analytic = exact_kl_gradient(p, fixed, x, reward_fn, beta)

        def objective(flat, beta=beta):
            probe = PolicyParams(p.cfg)
            probe.pv.values[:] = flat
            return exact_kl_objective(probe, fixed, x, reward_fn, beta)

        fd = finite_diff_grad(objective, p.flat, h=1e-5)
        assert max_relative_error(analytic, fd) < 1e-3


def test_exact_kl_zero_beta_reduces_bitwise():
    p = tiny_policy(seed=13, vocab=3, max_len=3)
    fixed = tiny_policy(seed=14, vocab=3, max_len=3)
    x = TokenSeq.from_content([1])
    reward_fn = table_reward(29)
    assert np.array_equal(
        exact_kl_gradient(p, fixed, x, reward_fn, 0.0), exact_gradient(p, x, reward_fn)
    )
    assert exact_kl_objective(p, fixed, x, reward_fn, 0.0) == exact_objective(p, x, reward_fn)


def test_greedy_path_matches_high_precision_argmax():
    p = tiny_policy(seed=15, vocab=4, max_len=4)
    x = TokenSeq.from_content([3])
    # recompute argmax steps in extended precision
    emb = p.token_embedding
    ctx = [mpmath.mpf(v) for v in emb[[3, EOS]].mean(axis=0)]
    prefix = []
    prev = BOS
    while len(prefix) < p.cfg.max_len - 1:
        u = ctx + [mpmath.mpf(v) for v in emb[prev]]
        state = [
            mpmath.tanh(mpmath.fsum(mpmath.mpf(p.rec_w[i][j]) * u[j] for j in range(len(u))) + mpmath.mpf(p.rec_b[i]))
            for i in range(p.cfg.hidden_dim)
        ]
        logits = [
            mpmath.fsum(state[i] * mpmath.mpf(p.out_head[i][v]) for i in range(p.cfg.hidden_dim))
            for v in range(p.cfg.vocab_size)
        ]
        tok = max(range(p.cfg.vocab_size), key=lambda v: (logits[v], -v))
        if tok == EOS:
            break
        prefix.append(tok)
        prev = tok
    assert greedy_path(p, x).ids == tuple(prefix) + (EOS,)


def test_enumeration_forward_is_transition_tables_bitwise_on_sweep_draws():
    from riff.cli import sweep_instance

    rng = np.random.default_rng(2024)
    draws = [(p, x, max_len) for p, x, _, max_len in (sweep_instance(rng) for _ in range(300))]
    # one embedding column, which numpy sums pairwise, at input lengths up to 40
    draws += [
        (tiny_policy(seed=seed, vocab=5, max_len=3, embed=embed), TokenSeq.from_content(rng.integers(1, 5, size=n)), 3)
        for seed, embed, n in itertools.product(range(3), (1, 2), (1, 7, 8, 9, 16, 17, 40))
    ]
    for p, x, max_len in draws:
        enum = enumerate_sequences(p, x, max_len)
        fwd = transition_forward(p, [x])
        for got, want in zip((enum.forward.inputs, enum.forward.table, *enum.forward.activations),
                             (fwd.inputs, fwd.table, *fwd.activations)):
            assert np.array_equal(got, want)
        tables = transition_tables(p, p.flat[None], x)
        assert np.array_equal(enum.forward.table, tables)


def test_exact_gradients_equal_the_straight_line_reference_bitwise_on_sweep_draws():
    from riff.cli import sweep_instance

    rng = np.random.default_rng(3303)
    shapes = set()
    for k in range(200):
        p, x, reward_fn, max_len = sweep_instance(rng)
        fixed = PolicyParams.init_random(p.cfg, seed=k, scale=0.4)
        shapes.add((p.cfg.vocab_size, max_len))
        # a second input with other counts, and x again on a shorter support: each
        # call's plan differs from the last call's in its input or in its shape
        for xi, n in ((x, max_len), (TokenSeq.from_content(x.content[:1]), max_len), (x, 3)):
            for beta in (0.0, 0.1, 0.6):
                want = reference_exact_kl_gradient(p, fixed, xi, reward_fn, beta, n)
                assert np.array_equal(exact_kl_gradient(p, fixed, xi, reward_fn, beta, n), want)
            assert np.array_equal(exact_gradient(p, xi, reward_fn, n), reference_exact_kl_gradient(
                p, p, xi, reward_fn, 0.0, n))
    assert shapes == {(3, 3), (3, 4), (4, 3), (4, 4)}


def test_an_exact_ascent_keeps_one_support_per_shape_and_shares_nothing_mutable():
    # the oracle workload's loop: 30 KL-penalized ascent steps on two inputs
    p, fixed = tiny_policy(seed=61, vocab=4, max_len=4), tiny_policy(seed=62, vocab=4, max_len=4, scale=0.4)
    xs, reward_fn = [TokenSeq.from_content([2, 3]), TokenSeq.from_content([1])], table_reward(63)
    _support.cache_clear()
    current = p.copy()
    opt = AdamW(current.flat.size, AdamConfig(lr=0.05))
    for _ in range(30):
        grads = [exact_kl_gradient(current, fixed, x, reward_fn, 0.1) for x in xs]
        for x, grad in zip(xs, grads):
            assert np.array_equal(grad, reference_exact_kl_gradient(current, fixed, x, reward_fn, 0.1))
        kept = grads[0].copy()
        grads[0][:] = np.nan  # a caller's write reaches no later call
        assert np.array_equal(exact_kl_gradient(current, fixed, xs[0], reward_fn, 0.1), kept)
        grads[0][:] = kept
        opt.step(current.flat, -sum(grads))
    # both inputs read the one support of their shape, whose arrays are read-only
    assert _support.cache_info().misses == 1 and _support.cache_info().currsize == 1
    seqs, cells = _support(4, 4)
    assert isinstance(seqs, tuple) and not cells.flags.writeable
    # an id outside the vocabulary raises on every call and caches nothing
    foreign = TokenSeq.from_content([2, 4])
    for _ in range(2):
        with pytest.raises(ValueError, match="^token id 4 out of range for vocabulary of size 4$"):
            exact_kl_gradient(current, fixed, foreign, reward_fn, 0.1)
    assert _support.cache_info().currsize == 1


def test_a_huge_input_id_is_named_before_anything_is_counted():
    p, fixed = tiny_policy(seed=61, vocab=4, max_len=4), tiny_policy(seed=62, vocab=4, max_len=4, scale=0.4)
    x = TokenSeq.from_content([2, 2**62])
    message = f"^token id {2**62} out of range for vocabulary of size 4$"
    for beta in (0.0, 0.1):
        with pytest.raises(ValueError, match=message):
            exact_kl_gradient(p, fixed, x, table_reward(63), beta)
    with pytest.raises(ValueError, match=message):
        exact_gradient(p, x, table_reward(63))


def kl_instance(seed=51, vocab=4, max_len=4):
    p = tiny_policy(seed=seed, vocab=vocab, max_len=max_len, scale=1.2)
    fixed = tiny_policy(seed=seed + 1, vocab=vocab, max_len=max_len, scale=0.4)
    return p, fixed, TokenSeq.from_content([2, 3]), table_reward(seed + 2)


# each exact entry point, called on a kl_instance; exact_objective is
# conftest's exact_kl_objective at beta == 0
EXACT = {
    "exact_objective": lambda p, fixed, x, r: exact_objective(p, x, r),
    "exact_gradient": lambda p, fixed, x, r: exact_gradient(p, x, r),
    "exact_kl_objective": lambda p, fixed, x, r: exact_kl_objective(p, fixed, x, r, 0.6),
    "exact_kl_gradient": lambda p, fixed, x, r: exact_kl_gradient(p, fixed, x, r, 0.6),
    "exact_objectives": lambda p, fixed, x, r: exact_objectives(p, np.repeat(p.flat[None], 2, axis=0), x, r),
}
# ... and the posteriors of a given enumeration, which read a reward vector too
REWARD_READERS = {
    **EXACT,
    "mml_posteriors": lambda p, fixed, x, r: mml_posteriors(enumerate_sequences(p, x), r),
}


@pytest.mark.parametrize("name", EXACT)
def test_each_exact_call_runs_one_forward(monkeypatch, name):
    p, fixed, x, reward_fn = kl_instance()
    call = REWARD_READERS[name]
    call(p, fixed, x, reward_fn)  # the anchor's log-probs are memoized after a first call
    forwards = []
    forward = policy_module._forward
    monkeypatch.setattr(policy_module, "_forward", lambda *args: forwards.append(args) or forward(*args))
    call(p, fixed, x, reward_fn)
    assert len(forwards) == 1


def test_enumeration_arrays_are_read_only_and_keep_the_support_cache():
    p, _, x, _ = kl_instance()
    enum = enumerate_sequences(p, x)
    seqs, cells = _support(4, 4)
    for arr in (cells, enum.logprobs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[-1]
    other = enumerate_sequences(tiny_policy(seed=52, vocab=4, max_len=4), TokenSeq.from_content([1]))
    # every enumeration of the shape shares the cached support, still intact
    assert other.seqs is enum.seqs is seqs
    assert [z.ids for z in other.seqs] == [z.ids for z, _ in reference_enumerate_sequences(p, x, 4).entries]
    # each sequence's (prev, tok) cells in a flat (V, V) table, padded with V * V
    fresh = [[prev * 4 + t for prev, t in zip((BOS,) + z.ids[:-1], z.ids)] for z in seqs]
    assert cells[: len(seqs)].tolist() == [row + [16] * (4 - len(row)) for row in fresh]


@pytest.mark.parametrize("vocab,max_len", [(2, 1), (3, 3), (4, 4), (5, 2)])
def test_the_support_cells_are_step_cells_of_the_padded_support_and_its_tails(vocab, max_len):
    seqs, cells = _support(vocab, max_len)
    tails = np.array(list(itertools.product([t for t in range(vocab) if t != EOS], repeat=max_len)))
    want = [step_cells(pad(list(seqs)), 1, vocab), step_cells(Padded(tails, np.ones(tails.shape, bool)), 1, vocab)]
    assert cells.tobytes() == np.concatenate(want).tobytes() and cells.shape == (len(seqs) + len(tails), max_len)


@pytest.mark.parametrize("name", EXACT)
def test_each_exact_call_warns_on_large_tail(name):
    # a peaked random policy leaves mass on unterminated prefixes
    p, fixed, x, reward_fn = kl_instance()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        EXACT[name](p, fixed, x, reward_fn)
    assert any("unterminated tail mass" in str(w.message) for w in caught)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", REWARD_READERS)
def test_a_non_finite_reward_raises_naming_the_rewrite(name, bad):
    p, fixed, x, reward_fn = kl_instance()
    culprit = TokenSeq.from_content([3, 1])

    def planted(z):
        return bad if z == culprit else reward_fn(z)

    with pytest.raises(ValueError, match=re.escape(f"reward_fn returned {bad} for rewrite {culprit.ids}")):
        REWARD_READERS[name](p, fixed, x, planted)
