import math

import mpmath
import numpy as np
import pytest

from conftest import (
    greedy_path,
    reference_enumerate_sequences,
    reference_weighted_seq_grad,
    table_reward,
    tiny_policy,
    total_mass,
)
from riff.numerics import finite_diff_grad, logsumexp, max_relative_error, softmax
from riff.oracle import (
    enumerate_sequences,
    exact_gradient,
    exact_kl_gradient,
    exact_kl_objective,
    exact_objective,
)
from riff.policy import PolicyConfig, PolicyParams, TokenSeq, pad, seq_logprob, weighted_seq_grads
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


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.6, 2.5])
def test_exact_kl_bitwise_equals_seq_logprobs_forms(beta):
    gen = np.random.default_rng(31)
    for vocab, max_len in [(2, 1), (3, 3), (4, 4), (5, 3)]:
        p = tiny_policy(seed=int(gen.integers(2**31)), vocab=vocab, max_len=max_len, scale=1.2)
        fixed = tiny_policy(seed=int(gen.integers(2**31)), vocab=vocab, max_len=max_len, scale=0.4)
        x = TokenSeq.from_content([int(t) for t in gen.integers(1, vocab, size=2)])
        reward_fn = table_reward(int(gen.integers(2**31)))
        enum = reference_enumerate_sequences(p, x, max_len)
        got_obj = exact_kl_objective(p, fixed, x, reward_fn, beta)
        got_grad = exact_kl_gradient(p, fixed, x, reward_fn, beta)
        seqs = [z for z, _ in enum.entries]
        lps = np.array([lp for _, lp in enum.entries])
        fixed_lps = np.array([seq_logprob(fixed, x, z) for z in seqs])
        weights = np.array([lp + reward_fn(z) for z, lp in enum.entries])
        want_obj = logsumexp(weights)
        coeffs = softmax(weights)
        if beta != 0.0:
            want_obj = want_obj - beta * float(np.sum(np.exp(lps) * (lps - fixed_lps)))
            coeffs = coeffs - beta * np.exp(lps) * (lps - fixed_lps + 1.0)
        assert got_obj == want_obj
        assert np.array_equal(got_grad, weighted_seq_grads(p, pad([x]), pad(seqs), coeffs)[0])
        assert np.array_equal(got_grad, reference_weighted_seq_grad(p, x, seqs, coeffs))


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
