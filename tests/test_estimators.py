import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assemble_gradient,
    cells_of,
    exact_objective,
    kl_penalized_gradient,
    logsumexp,
    softmax,
    table_reward,
    tiny_policy,
)
from riff import estimators as est
from riff.data import RowError
from riff.estimators import coefficients, normalize_rewards
from riff.numerics import finite_diff_grad, max_relative_error
from riff.oracle import enumerate_sequences, exact_gradient, exact_kl_objective
from riff.policy import PolicyParams, TokenSeq, pad, seq_logprob, transition_forward, weighted_seq_grads


def phi_of(cur, rewards, estimator, regime="on", fixed=None, beta=0.0):
    return coefficients(cur, fixed, rewards, estimator, regime, beta)[0]


def test_batch_validation():
    with pytest.raises(ValueError, match="at least one sample"):
        coefficients([], None, [], "mml", "on", 0.0)
    with pytest.raises(ValueError, match="non-finite log-probs or rewards"):
        coefficients([0.0], None, [float("-inf")], "pg", "on", 0.0)
    with pytest.raises(ValueError, match="reward count"):
        coefficients([0.0, 0.0], None, [0.0], "mml", "on", 0.0)
    with pytest.raises(ValueError, match="non-finite fixed"):
        coefficients([0.0], [np.nan], [0.0], "mml", "klon", 0.1)
    with pytest.raises(ValueError, match="unknown estimator cell"):
        coefficients([0.0], [0.0], [0.0], "mml", "offline", 0.1)


def test_on_policy_ignores_fixed_logprobs():
    for estimator in est.ESTIMATORS:
        want, clamped = coefficients([-0.4, -1.2], None, [-0.5, -0.1], estimator, "on", 0.3)
        got = coefficients([-0.4, -1.2], [np.nan], [-0.5, -0.1], estimator, "on", 0.3)
        assert np.array_equal(got[0], want) and got[1] == clamped == 0


def test_mml_single_sample_is_one():
    assert phi_of([-0.7], [-0.3], "mml").tolist() == [1.0]


def test_mml_symmetric_batch_uniform():
    assert np.allclose(phi_of([-1.0] * 4, [-0.5] * 4, "mml"), [0.25] * 4, atol=1e-15)


def test_mml_hand_values():
    # weights proportional to .5*.8 and .5*.2
    assert np.allclose(phi_of(np.log([0.5, 0.5]), np.log([0.8, 0.2]), "mml"), [0.8, 0.2], atol=1e-12)


def test_mml_degenerate_batch_errors():
    # finite inputs whose log-space weights overflow leave no posterior mass
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="degenerate|non-finite"):
        phi_of([1e308, 1e308], [1e308, 1e308], "mml")


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80)
def test_mml_sums_to_one_and_shift_invariant(seed):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 9))
    cur, rewards = -3 * gen.random(m), -2 * gen.random(m)
    phi = phi_of(cur, rewards, "mml")
    assert abs(phi.sum() - 1.0) < 1e-9
    assert np.all(phi >= 0.0)
    phi_shift = phi_of(cur, rewards + 1.7, "mml")
    assert int(np.argmax(phi)) == int(np.argmax(phi_shift))
    assert np.allclose(phi, phi_shift, atol=1e-9)


def test_pg_zero_rewards_zero_coefficients():
    assert np.all(phi_of([-1.0, -2.0], [0.0, 0.0], "pg") == 0.0)


def test_pg_hand_values():
    assert np.allclose(phi_of(np.log([0.5, 0.5]), [-1.0, -2.0], "pg"), [-0.5, -1.0], atol=1e-15)


@given(st.integers(0, 2**31 - 1), st.floats(-3, 3))
@settings(max_examples=80)
def test_pg_homogeneous_in_rewards(seed, lam):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 9))
    cur = -3 * gen.random(m)
    rewards = -2 * gen.random(m)
    base = phi_of(cur, rewards, "pg")
    scaled = phi_of(cur, lam * rewards, "pg")
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
    grads = [weighted_seq_grads(p, transition_forward(p, [x]), cells_of(p, pad([z])), [1.0])[0] for z in seqs]
    analytic = assemble_gradient(phi_of(cur, rewards, "pg"), grads)

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
    mml_off = phi_of(cur, rewards, "mml", "off", fixed=cur)
    assert np.allclose(mml_off, softmax(rewards), atol=1e-12)
    pg_off = phi_of(cur, rewards, "pg", "off", fixed=cur)
    assert np.allclose(pg_off, rewards, atol=1e-12)


def test_offpolicy_equal_rewards_uniform():
    cur = np.log([0.4, 0.6])
    assert np.allclose(phi_of(cur, [-0.5, -0.5], "mml", "off", fixed=cur), [0.5, 0.5], atol=1e-12)


def test_offpolicy_hand_values():
    # s = [2, .5], e^R = [.1, .4] -> posterior [.5, .5]
    phi = phi_of(np.log([0.4, 0.1]), np.log([0.1, 0.4]), "mml", "off", fixed=np.log([0.2, 0.2]))
    assert np.allclose(phi, [0.5, 0.5], atol=1e-12)


def test_offpolicy_requires_fixed_logprobs():
    for regime in ("off", "klon"):
        with pytest.raises(ValueError, match="fixed-policy"):
            coefficients([-1.0], None, [-0.5], "mml", regime, 0.1)


def test_offpolicy_clamps_extreme_ratios():
    phi, clamped = coefficients([0.0, -1.0], [-80.0, -1.0], [-0.5, -0.5], "pg", "off", 0.0)
    assert clamped == 1
    assert np.all(np.isfinite(phi))
    assert phi[0] == pytest.approx(math.exp(30) * -0.5)


@pytest.mark.parametrize("estimator", est.ESTIMATORS)
def test_offpolicy_clamps_both_signs(estimator):
    # log ratios of +40 and -40 are both clamped to +-30
    cur, fixed, rewards = [-1.0, -41.0], [-41.0, -1.0], [-0.5, -0.25]
    phi, clamped = coefficients(cur, fixed, rewards, estimator, "off", 0.0)
    assert clamped == 2
    if estimator == "pg":
        assert phi.tolist() == [math.exp(30.0) * -0.5, math.exp(-30.0) * -0.25]
    else:
        assert np.allclose(phi, softmax([30.0 - 0.5, -30.0 - 0.25]), rtol=1e-15, atol=0.0)


def test_klon_mml_hand_values():
    # P_cur = (.5, .5), exp(R) = (.8, .2): phi = (.8, .2) before the fold.
    # P_fixed = (.25, .5): log s = (log 2, 0), so with beta = .1 and m = 2
    # phi_j -= .05 * (log s_j + 1), i.e. .8 - .05 * 1.6931471805599453 and .2 - .05.
    phi, clamped = coefficients(
        np.log([0.5, 0.5]), np.log([0.25, 0.5]), np.log([0.8, 0.2]), "mml", "klon", 0.1
    )
    assert clamped == 0
    assert np.allclose(phi, [0.7153426409720027, 0.15], rtol=0.0, atol=1e-15)


def test_assemble_one_hot_bitwise():
    g1 = np.array([0.1, -0.2, 0.3])
    g2 = np.array([9.0, 9.0, 9.0])
    out = assemble_gradient(np.array([1.0, 0.0]), [g1, g2])
    assert np.array_equal(out, g1)


def test_assemble_zero_coefficients():
    out = assemble_gradient(np.zeros(2), [np.ones(3), np.ones(3)])
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
    grads = [weighted_seq_grads(p, transition_forward(p, [x]), cells_of(p, pad([z])), [1.0])[0] for z in seqs]
    assembled = assemble_gradient(phi_of(cur, rewards, "mml"), grads)
    assert np.allclose(assembled, exact_gradient(p, x, reward_fn), atol=1e-12)

    def objective(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return exact_objective(probe, x, reward_fn)

    fd = finite_diff_grad(objective, p.flat, h=1e-5)
    assert max_relative_error(assembled, fd) < 1e-4


def test_full_enumeration_pg_equals_gradient_of_expected_reward():
    # over the whole support, reward-weighted coefficients P(z) R(z) rebuild the
    # gradient of sum_z P(z) R(z), which finite differences of that sum confirm
    p = tiny_policy(seed=31, vocab=3, max_len=3)
    x = TokenSeq.from_content([1])
    reward_fn = table_reward(77)
    enum = enumerate_sequences(p, x)
    seqs = [z for z, _ in enum.entries]
    cur = np.array([lp for _, lp in enum.entries])
    rewards = np.array([reward_fn(z) for z in seqs])
    grads = [weighted_seq_grads(p, transition_forward(p, [x]), cells_of(p, pad([z])), [1.0])[0] for z in seqs]
    assembled = assemble_gradient(phi_of(cur, rewards, "pg"), grads)

    def expected_reward(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return sum(math.exp(lp) * reward_fn(z) for z, lp in enumerate_sequences(probe, x).entries)

    fd = finite_diff_grad(expected_reward, p.flat, h=1e-5)
    assert max_relative_error(assembled, fd) < 1e-4


def test_full_enumeration_off_policy_pg_weighted_by_fixed_equals_gradient_of_expected_reward():
    # off-policy pg coefficients are P_cur/P_fixed R; weighting each by its
    # sampling probability P_fixed rebuilds the gradient of sum_z P_cur(z) R(z)
    p = tiny_policy(seed=31, vocab=3, max_len=3)
    fixed = tiny_policy(seed=33, vocab=3, max_len=3)
    x = TokenSeq.from_content([1])
    reward_fn = table_reward(77)
    enum = enumerate_sequences(p, x)
    seqs = [z for z, _ in enum.entries]
    cur = np.array([lp for _, lp in enum.entries])
    fixed_lp = np.array([seq_logprob(fixed, x, z) for z in seqs])
    rewards = np.array([reward_fn(z) for z in seqs])
    phi, clamped = coefficients(cur, fixed_lp, rewards, "pg", "off", 0.0)
    assert clamped == 0
    assert not np.allclose(cur, fixed_lp)  # the ratios are not all one
    grads = [weighted_seq_grads(p, transition_forward(p, [x]), cells_of(p, pad([z])), [1.0])[0] for z in seqs]
    assembled = assemble_gradient(np.exp(fixed_lp) * phi, grads)

    def expected_reward(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return sum(math.exp(lp) * reward_fn(z) for z, lp in enumerate_sequences(probe, x).entries)

    fd = finite_diff_grad(expected_reward, p.flat, h=1e-5)
    assert max_relative_error(assembled, fd) < 1e-4


def test_kl_zero_beta_returns_base_bitwise():
    base = np.array([0.5, -0.5])
    out = kl_penalized_gradient([-1.0], [-1.0], [np.ones(2)], base, 0.0)
    assert np.array_equal(out, base)


def test_kl_fresh_snapshot_penalty_is_mean_gradient():
    g1 = np.array([1.0, 0.0])
    g2 = np.array([0.0, 2.0])
    cur = np.log([0.5, 0.5])
    base = np.array([3.0, 3.0])
    out = kl_penalized_gradient(cur, cur, [g1, g2], base, 0.4)
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
    grads = [weighted_seq_grads(p, transition_forward(p, [x]), cells_of(p, pad([z])), [1.0])[0] for z in seqs]
    base = assemble_gradient(phi_of(cur, rewards, "mml"), grads)
    weighted = [len(seqs) * math.exp(lp) * g for lp, g in zip(cur, grads)]
    out = kl_penalized_gradient(cur, fixed_lp, weighted, base, beta)

    def objective(flat):
        probe = PolicyParams(p.cfg)
        probe.pv.values[:] = flat
        return exact_kl_objective(probe, fixed, x, reward_fn, beta)

    fd = finite_diff_grad(objective, p.flat, h=1e-5)
    assert max_relative_error(out, fd) < 1e-3


def test_coefficients_validation(monkeypatch):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite coefficients"):
        phi_of([800.0], [-0.5], "pg")
    # a wrong normalizer leaves posterior weights that do not sum to 1
    monkeypatch.setattr(est, "log_normalizers", lambda weights: np.zeros(len(weights)))
    with pytest.raises(ValueError, match="sum to 1"):
        phi_of(np.log([0.5, 0.2]), [0.0, 0.0], "mml")


def random_rows(gen, b: int, m: int):
    """(B, m) live and fixed log-probs, some ratios past the clamp, and rewards
    with some constant rows."""
    cur = gen.normal(-8.0, 6.0, (b, m))
    fixed = cur + gen.normal(0.0, 1.0, (b, m)) * gen.choice([0.1, 5.0, 40.0], (b, 1))
    rewards = gen.normal(-1.0, 1.0, (b, m))
    constant = gen.random(b) < 0.3
    rewards[constant] = rewards[constant, :1]
    return cur, fixed, rewards


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("estimator", est.ESTIMATORS)
@pytest.mark.parametrize("regime", est.REGIMES)
def test_batched_coefficients_equal_each_row_alone_bitwise(estimator, regime, normalize):
    gen = np.random.default_rng(7)
    clamps = 0
    for _ in range(40):
        cur, fixed, raw = random_rows(gen, int(gen.integers(1, 9)), int(gen.integers(1, 10)))
        rewards = normalize_rewards(raw) if normalize else raw
        if normalize:
            assert all(np.array_equal(r, normalize_rewards(row)) for r, row in zip(rewards, raw))
        phi, clamped = coefficients(cur, fixed, rewards, estimator, regime, 0.3)
        rows = [coefficients(*a, estimator, regime, 0.3) for a in zip(cur, fixed, rewards)]
        assert np.array_equal(phi, [r[0] for r in rows]) and clamped == sum(r[1] for r in rows)
        clamps += clamped
    assert (clamps > 0) == (regime == "off")


def test_a_rows_posterior_is_normalized_by_its_own_logsumexp_bitwise():
    gen = np.random.default_rng(8)
    for m in range(1, 20):
        cur, _, rewards = random_rows(gen, 1, m)
        want = np.exp(cur[0] + rewards[0] - logsumexp(cur[0] + rewards[0]))
        assert np.array_equal(phi_of(cur[0], rewards[0], "mml"), want)


def test_coefficients_name_the_first_bad_row_and_its_first_failed_check():
    cur, rewards = np.zeros((4, 2)), np.full((4, 2), -0.5)
    cur[3, 0] = np.nan  # fails the first check, but on a later row
    cur[1, 1] = 800.0  # exp overflows: fails only the last check
    with np.errstate(over="ignore"), pytest.raises(RowError, match="non-finite coefficients") as err:
        coefficients(cur, None, rewards, "pg", "on", 0.0)
    assert err.value.row == 1
