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

from .data import _first_bad
from .numerics import log_normalizers

ESTIMATORS = ("mml", "pg")
REGIMES = ("on", "off", "klon")
DEFAULT_BETA = {"mml": 0.1, "pg": 0.6}
LOG_RATIO_CLAMP = 30.0


def coefficients(cur, fixed, rewards, estimator: str, regime: str, beta: float):
    """Per-sample coefficients phi of m rewrites of each input, one row per
    input of (B, m) arrays (a 1-D array is one input, and phi keeps the
    shape), and the number of clamped off-policy log ratios, from their
    log-probs under the live (`cur`) and fixed (`fixed`, ignored under "on")
    policies and their rewards (raw or standardized).

    mml: phi_j proportional to P(z_j|x) * exp(R_j), normalized over the row.
    pg: phi_j = P(z_j|x) * R_j, unnormalized.
    off: samples come from the fixed policy, so P(z_j|x) becomes the clamped
    ratio s_j = P_cur / P_fixed. klon: on-policy phi minus the KL penalty's
    gradient weights, beta * (log s_j + 1) / m.

    Rows are independent. A bad row raises a RowError naming the first one
    and the first check it fails, as if the rows were taken one by one.
    """
    cur = np.asarray(cur, dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64)
    if estimator not in ESTIMATORS or regime not in REGIMES:
        raise ValueError(f"unknown estimator cell {estimator!r}/{regime!r}")
    if cur.ndim not in (1, 2) or cur.size < 1:
        raise ValueError("coefficients need at least one sample")
    shape, m = cur.shape, cur.shape[-1]
    if rewards.shape != shape:
        raise ValueError("reward count does not match sample count")
    cur, rewards = cur.reshape(-1, m), rewards.reshape(-1, m)
    checks = {"non-finite log-probs or rewards": ~(np.isfinite(cur) & np.isfinite(rewards)).all(axis=1)}
    if regime != "on":
        fixed = np.asarray(fixed, dtype=np.float64)
        if fixed.shape != shape:
            raise ValueError(f"{regime} coefficients need one fixed-policy log-prob per sample")
        fixed = fixed.reshape(-1, m)
        checks["non-finite fixed log-probs"] = ~np.isfinite(fixed).all(axis=1)
    log_p, clamped = cur, 0
    with np.errstate(over="ignore", invalid="ignore"):  # bad rows are named below
        if regime == "off":
            raw = cur - fixed
            clamped = int(np.sum(np.abs(raw) > LOG_RATIO_CLAMP))
            log_p = np.clip(raw, -LOG_RATIO_CLAMP, LOG_RATIO_CLAMP)
        if estimator == "mml":
            weights = log_p + rewards
            denom = log_normalizers(weights)
            checks["degenerate batch: no posterior mass"] = ~np.isfinite(denom)
            phi = np.exp(weights - denom[:, None])
            checks["posterior coefficients must sum to 1"] = np.abs(phi.sum(axis=1) - 1.0) > 1e-9
        else:
            phi = np.exp(log_p) * rewards
        if regime == "klon":
            # the KL penalty's gradient, -beta * mean_j (log s_j + 1) grad_j, folded into the weights
            phi = phi - beta * (cur - fixed + 1.0) / m
    checks["non-finite coefficients"] = ~np.isfinite(phi).all(axis=1)
    failed = np.array(list(checks.values()))  # (check, row)
    _first_bad(failed.any(axis=0), lambda i: list(checks)[failed[:, i].argmax()])
    return phi.reshape(shape), clamped


def normalize_rewards(rewards) -> np.ndarray:
    """Standardize each row (the last axis) to mean 0 and population std 1;
    a constant row maps to zeros."""
    rew = np.asarray(rewards, dtype=np.float64)
    if rew.size < 1:
        raise ValueError("empty reward vector")
    mu = rew.mean(axis=-1, keepdims=True)
    sigma = np.sqrt(np.mean((rew - mu) ** 2, axis=-1, keepdims=True))
    constant = (rew == rew[..., :1]).all(axis=-1, keepdims=True) | (sigma == 0.0)
    return np.where(constant, 0.0, (rew - mu) / np.where(constant, 1.0, sigma))
