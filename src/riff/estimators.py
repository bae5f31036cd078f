"""Gradient estimator coefficients: posterior-weighted (mml), reward-weighted
(pg), their importance-corrected off-policy forms, the KL-penalized regime,
and reward standardization. A gradient is one weighted backward over these
coefficients (policy.weighted_seq_grads).

Coefficient assembly works in log space; exponentials appear only in the
final coefficients. Off-policy log ratios are clamped to +-LOG_RATIO_CLAMP
before exponentiation and the clamp count is returned with the coefficients
so divergence shows up in run reports instead of silently wrecking training.
"""

from __future__ import annotations

import numpy as np

from .numerics import logsumexp

ESTIMATORS = ("mml", "pg")
REGIMES = ("on", "off", "klon")
DEFAULT_BETA = {"mml": 0.1, "pg": 0.6}
LOG_RATIO_CLAMP = 30.0


def coefficients(cur, fixed, rewards, estimator: str, regime: str, beta: float):
    """Per-sample coefficients phi of m rewrites of one input, and the number
    of clamped off-policy log ratios, from their log-probs under the live
    (`cur`) and fixed (`fixed`, ignored under "on") policies and their rewards
    (raw or standardized).

    mml: phi_j proportional to P(z_j|x) * exp(R_j), normalized over the batch.
    pg: phi_j = P(z_j|x) * R_j, unnormalized.
    off: samples come from the fixed policy, so P(z_j|x) becomes the clamped
    ratio s_j = P_cur / P_fixed. klon: on-policy phi minus the KL penalty's
    gradient weights, beta * (log s_j + 1) / m.
    """
    cur = np.asarray(cur, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    if estimator not in ESTIMATORS or regime not in REGIMES:
        raise ValueError(f"unknown estimator cell {estimator!r}/{regime!r}")
    if cur.ndim != 1 or cur.size < 1:
        raise ValueError("coefficients need at least one sample")
    m = cur.size
    if rewards.shape != (m,):
        raise ValueError("reward count does not match sample count")
    if not (np.all(np.isfinite(cur)) and np.all(np.isfinite(rewards))):
        raise ValueError("non-finite log-probs or rewards")
    if regime != "on":
        fixed = np.asarray(fixed, dtype=np.float64)
        if fixed.shape != (m,):
            raise ValueError(f"{regime} coefficients need one fixed-policy log-prob per sample")
        if not np.all(np.isfinite(fixed)):
            raise ValueError("non-finite fixed log-probs")
    log_p, clamped = cur, 0
    if regime == "off":
        raw = cur - fixed
        clamped = int(np.sum(np.abs(raw) > LOG_RATIO_CLAMP))
        log_p = np.clip(raw, -LOG_RATIO_CLAMP, LOG_RATIO_CLAMP)
    if estimator == "mml":
        weights = log_p + rewards
        denom = logsumexp(weights)
        if not np.isfinite(denom):
            raise ValueError("degenerate batch: no posterior mass")
        phi = np.exp(weights - denom)
        if abs(float(phi.sum()) - 1.0) > 1e-9:
            raise ValueError("posterior coefficients must sum to 1")
    else:
        phi = np.exp(log_p) * rewards
    if regime == "klon":
        # the KL penalty's gradient, -beta * mean_j (log s_j + 1) grad_j, folded into the weights
        phi = phi - beta * (cur - fixed + 1.0) / m
    if not np.all(np.isfinite(phi)):
        raise ValueError("non-finite coefficients")
    return phi, clamped


def normalize_rewards(rewards) -> np.ndarray:
    """Standardize to mean 0 and population std 1; constant input maps to zeros."""
    rew = np.asarray(rewards, dtype=np.float64)
    if rew.size < 1:
        raise ValueError("empty reward vector")
    if np.all(rew == rew[0]):
        return np.zeros_like(rew)
    mu = rew.mean()
    sigma = np.sqrt(np.mean((rew - mu) ** 2))
    if sigma == 0.0:
        return np.zeros_like(rew)
    return (rew - mu) / sigma
