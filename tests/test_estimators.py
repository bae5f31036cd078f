import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assemble_gradient, kl_penalized_gradient, table_reward, tiny_policy
from riff.estimators import (
    Coefficients,
    SampleBatch,
    mml_coefficients,
    normalize_rewards,
    offpolicy_coefficients,
    pg_coefficients,
)
from riff.numerics import finite_diff_grad, max_relative_error, softmax
from riff.oracle import enumerate_sequences, exact_gradient, exact_kl_objective, exact_objective
from riff.policy import PolicyParams, TokenSeq, seq_logprob, weighted_seq_grad

Z = TokenSeq.from_content([1])


def make_batch(cur, rewards, fixed=None):
    seqs = tuple(Z for _ in cur)
    return SampleBatch(seqs, np.asarray(cur, float), np.asarray(rewards, float),
                       None if fixed is None else np.asarray(fixed, float))


def test_batch_validation():
    with pytest.raises(ValueError):
        SampleBatch((), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        make_batch([0.0], [float("-inf")])
    with pytest.raises(ValueError):
        make_batch([0.0, 0.0], [0.0])


def test_mml_single_sample_is_one():
    coeffs = mml_coefficients(make_batch([-0.7], [-0.3]))
    assert coeffs.phi.tolist() == [1.0]


def test_mml_symmetric_batch_uniform():
    coeffs = mml_coefficients(make_batch([-1.0] * 4, [-0.5] * 4))
    assert np.allclose(coeffs.phi, [0.25] * 4, atol=1e-15)


def test_mml_hand_values():
    batch = make_batch(np.log([0.5, 0.5]), np.log([0.8, 0.2]))
    # weights proportional to .5*.8 and .5*.2
    assert np.allclose(mml_coefficients(batch).phi, [0.8, 0.2], atol=1e-12)


def test_mml_degenerate_batch_errors():
    batch = make_batch([-1.0, -1.0], [-1.0, -1.0])
    object.__setattr__(batch, "rewards", np.array([-np.inf, -np.inf]))
    with pytest.raises(ValueError, match="degenerate|non-finite"):
        mml_coefficients(batch)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_mml_sums_to_one_and_shift_invariant(seed):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 9))
    batch = make_batch(-3 * gen.random(m), -2 * gen.random(m))
    phi = mml_coefficients(batch).phi
    assert abs(phi.sum() - 1.0) < 1e-9
    assert np.all(phi >= 0.0)
    shifted = make_batch(batch.cur_logprobs, batch.rewards + 1.7)
    phi_shift = mml_coefficients(shifted).phi
    assert int(np.argmax(phi)) == int(np.argmax(phi_shift))
    assert np.allclose(phi, phi_shift, atol=1e-9)


def test_pg_zero_rewards_zero_coefficients():
    coeffs = pg_coefficients(make_batch([-1.0, -2.0], [0.0, 0.0]))
    assert np.all(coeffs.phi == 0.0)


def test_pg_hand_values():
    coeffs = pg_coefficients(make_batch(np.log([0.5, 0.5]), [-1.0, -2.0]))
    assert np.allclose(coeffs.phi, [-0.5, -1.0], atol=1e-15)


@given(st.integers(0, 2**31 - 1), st.floats(-3, 3))
@settings(max_examples=80)
def test_pg_homogeneous_in_rewards(seed, lam):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 9))
    cur = -3 * gen.random(m)
    rewards = -2 * gen.random(m)
    base = pg_coefficients(make_batch(cur, rewards)).phi
    scaled = pg_coefficients(make_batch(cur, lam * rewards)).phi
    assert np.allclose(scaled, lam * base, atol=1e-12)


def test_pg_matches_enumeration_finite_differences():
    # sum_z phi(z) grad(z) over the full support equals the gradient of
    # sum_z P(z) R(z) with rewards held fixed
    p = tiny_policy(seed=30, vocab=3, max_len=3)
    x = TokenSeq.from_content([2])
    reward_fn = table_reward(55)
    enum = enumerate_sequences(p, x)
    seqs = [z for z, _ in enum.entries]
    rewards = np.array([reward_fn(z) for z in seqs])
    cur = np.array([lp for _, lp in enum.entries])
    batch = SampleBatch(tuple(seqs), cur, rewards)
    grads = [weighted_seq_grad(p, x, [z], [1.0]) for z in seqs]
    analytic = assemble_gradient(pg_coefficients(batch), grads)

    def expected_reward(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return float(
            sum(math.exp(seq_logprob(probe, x, z)) * r for z, r in zip(seqs, rewards))
        )

    fd = finite_diff_grad(expected_reward, p.flat, h=1e-5)
    assert max_relative_error(analytic, fd) < 1e-4


def test_normalize_two_point():
    assert np.allclose(normalize_rewards([1.0, 3.0]), [-1.0, 1.0], atol=1e-15)


def test_normalize_constant_is_zero():
    assert np.all(normalize_rewards([2.0, 2.0, 2.0]) == 0.0)
    assert np.all(normalize_rewards([0.1] * 5) == 0.0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_normalize_standardizes(seed):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(2, 10))
    rewards = -5 * gen.random(m)
    if np.all(rewards == rewards[0]):
        return
    out = normalize_rewards(rewards)
    assert abs(out.mean()) < 1e-12
    assert abs(np.sqrt(np.mean(out**2)) - 1.0) < 1e-12


def test_offpolicy_fresh_snapshot_reduces_to_softmax():
    cur = np.log([0.4, 0.3, 0.3])
    rewards = np.array([-0.2, -1.0, -0.1])
    batch = make_batch(cur, rewards, fixed=cur)
    mml_off = offpolicy_coefficients(batch, "mml")
    assert np.allclose(mml_off.phi, softmax(rewards), atol=1e-12)
    pg_off = offpolicy_coefficients(batch, "pg")
    assert np.allclose(pg_off.phi, rewards, atol=1e-12)


def test_offpolicy_equal_rewards_uniform():
    cur = np.log([0.4, 0.6])
    batch = make_batch(cur, [-0.5, -0.5], fixed=cur)
    assert np.allclose(offpolicy_coefficients(batch, "mml").phi, [0.5, 0.5], atol=1e-12)


def test_offpolicy_hand_values():
    # s = [2, .5], e^R = [.1, .4] -> posterior [.5, .5]
    batch = make_batch(
        np.log([0.4, 0.1]), np.log([0.1, 0.4]), fixed=np.log([0.2, 0.2])
    )
    assert np.allclose(offpolicy_coefficients(batch, "mml").phi, [0.5, 0.5], atol=1e-12)


def test_offpolicy_requires_fixed_logprobs():
    with pytest.raises(ValueError, match="fixed-policy"):
        offpolicy_coefficients(make_batch([-1.0], [-0.5]), "mml")


def test_offpolicy_clamps_extreme_ratios():
    batch = make_batch([0.0, -1.0], [-0.5, -0.5], fixed=[-80.0, -1.0])
    coeffs = offpolicy_coefficients(batch, "pg")
    assert coeffs.clamp_events == 1
    assert np.all(np.isfinite(coeffs.phi))
    assert coeffs.phi[0] == pytest.approx(math.exp(30) * -0.5)


def test_assemble_one_hot_bitwise():
    g1 = np.array([0.1, -0.2, 0.3])
    g2 = np.array([9.0, 9.0, 9.0])
    out = assemble_gradient(Coefficients(np.array([1.0, 0.0]), "pg"), [g1, g2])
    assert np.array_equal(out, g1)


def test_assemble_zero_coefficients():
    out = assemble_gradient(Coefficients(np.zeros(2), "pg"), [np.ones(3), np.ones(3)])
    assert np.all(out == 0.0)


def test_full_enumeration_mml_equals_exact_gradient():
    # over the whole support, posterior coefficients rebuild the exact
    # gradient of log E[exp(R)], which finite differences confirm
    p = tiny_policy(seed=31, vocab=3, max_len=3)
    x = TokenSeq.from_content([1])
    reward_fn = table_reward(77)
    enum = enumerate_sequences(p, x)
    seqs = [z for z, _ in enum.entries]
    cur = np.array([lp for _, lp in enum.entries])
    rewards = np.array([reward_fn(z) for z in seqs])
    batch = SampleBatch(tuple(seqs), cur, rewards)
    grads = [weighted_seq_grad(p, x, [z], [1.0]) for z in seqs]
    assembled = assemble_gradient(mml_coefficients(batch), grads)
    assert np.allclose(assembled, exact_gradient(p, x, reward_fn), atol=1e-12)

    def objective(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return exact_objective(probe, x, reward_fn)

    fd = finite_diff_grad(objective, p.flat, h=1e-5)
    assert max_relative_error(assembled, fd) < 1e-4


def test_kl_zero_beta_returns_base_bitwise():
    base = np.array([0.5, -0.5])
    batch = make_batch([-1.0], [-0.5], fixed=[-1.0])
    out = kl_penalized_gradient(batch, [np.ones(2)], base, 0.0)
    assert np.array_equal(out, base)


def test_kl_fresh_snapshot_penalty_is_mean_gradient():
    g1 = np.array([1.0, 0.0])
    g2 = np.array([0.0, 2.0])
    cur = np.log([0.5, 0.5])
    batch = make_batch(cur, [-0.5, -0.5], fixed=cur)
    base = np.array([3.0, 3.0])
    out = kl_penalized_gradient(batch, [g1, g2], base, 0.4)
    assert np.allclose(out, base - 0.4 * (g1 + g2) / 2, atol=1e-15)


def test_kl_full_enumeration_matches_finite_differences():
    # realize the on-policy expectation by probability-weighting each
    # enumerated gradient (weight m * P(z) makes the 1/m mean exact)
    p = tiny_policy(seed=32, vocab=3, max_len=3)
    fixed = tiny_policy(seed=33, vocab=3, max_len=3)
    x = TokenSeq.from_content([2])
    reward_fn = table_reward(99)
    beta = 0.3
    enum = enumerate_sequences(p, x)
    seqs = [z for z, _ in enum.entries]
    cur = np.array([lp for _, lp in enum.entries])
    fixed_lp = np.array([seq_logprob(fixed, x, z) for z in seqs])
    rewards = np.array([reward_fn(z) for z in seqs])
    batch = SampleBatch(tuple(seqs), cur, rewards, fixed_lp)
    grads = [weighted_seq_grad(p, x, [z], [1.0]) for z in seqs]
    base = assemble_gradient(mml_coefficients(batch), grads)
    weighted = [len(seqs) * math.exp(lp) * g for lp, g in zip(cur, grads)]
    out = kl_penalized_gradient(batch, weighted, base, beta)

    def objective(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return exact_kl_objective(probe, fixed, x, reward_fn, beta)

    fd = finite_diff_grad(objective, p.flat, h=1e-5)
    assert max_relative_error(out, fd) < 1e-3


def test_coefficients_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Coefficients(np.array([0.5, 0.2]), "mml")
    with pytest.raises(ValueError, match="non-finite"):
        Coefficients(np.array([np.nan]), "pg")
