"""Gradient estimator coefficients: posterior-weighted (mml), reward-weighted
(pg), their importance-corrected off-policy forms, and reward
standardization. A gradient is one weighted backward over these
coefficients (policy.weighted_seq_grad); the KL penalty folds into them.

Coefficient assembly works in log space; exponentials appear only in the
final coefficients. Off-policy log ratios are clamped to +-LOG_RATIO_CLAMP
before exponentiation and the clamp count is surfaced on the result so
divergence shows up in run reports instead of silently wrecking training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import logsumexp
from .policy import TokenSeq

LOG_RATIO_CLAMP = 30.0


@dataclass(frozen=True)
class SampleBatch:
    """m rewrites of one input with their log-probs and rewards.

    `rewards` may be raw (always <= 0) or standardized; estimators treat them
    uniformly. `fixed_logprobs` is required only for off-policy coefficients
    and the KL correction.
    """

    seqs: tuple[TokenSeq, ...]
    cur_logprobs: np.ndarray
    rewards: np.ndarray
    fixed_logprobs: np.ndarray | None = None

    def __post_init__(self):
        cur = np.asarray(self.cur_logprobs, dtype=np.float64)
        rew = np.asarray(self.rewards, dtype=np.float64)
        object.__setattr__(self, "cur_logprobs", cur)
        object.__setattr__(self, "rewards", rew)
        if len(self.seqs) < 1:
            raise ValueError("sample batch must contain at least one sequence")
        if cur.shape != (len(self.seqs),) or rew.shape != (len(self.seqs),):
            raise ValueError("field lengths do not match sample count")
        if not (np.all(np.isfinite(cur)) and np.all(np.isfinite(rew))):
            raise ValueError("non-finite log-probs or rewards")
        if self.fixed_logprobs is not None:
            fixed = np.asarray(self.fixed_logprobs, dtype=np.float64)
            object.__setattr__(self, "fixed_logprobs", fixed)
            if fixed.shape != (len(self.seqs),):
                raise ValueError("fixed log-prob length does not match sample count")
            if not np.all(np.isfinite(fixed)):
                raise ValueError("non-finite fixed log-probs")

    @property
    def m(self) -> int:
        return len(self.seqs)


@dataclass(frozen=True)
class Coefficients:
    phi: np.ndarray
    kind: str
    clamp_events: int = field(default=0)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        object.__setattr__(self, "phi", phi)
        if not np.all(np.isfinite(phi)):
            raise ValueError("non-finite coefficients")
        if self.kind in ("mml", "mml_off") and abs(float(phi.sum()) - 1.0) > 1e-9:
            raise ValueError("posterior coefficients must sum to 1")


def mml_coefficients(batch: SampleBatch) -> Coefficients:
    """phi_j proportional to P(z_j|x) * exp(R_j), normalized over the batch."""
    weights = batch.cur_logprobs + batch.rewards
    denom = logsumexp(weights)
    if not np.isfinite(denom):
        raise ValueError("degenerate batch: no posterior mass")
    return Coefficients(np.exp(weights - denom), "mml")


def pg_coefficients(batch: SampleBatch) -> Coefficients:
    """phi_j = P(z_j|x) * R_j, unnormalized."""
    return Coefficients(np.exp(batch.cur_logprobs) * batch.rewards, "pg")


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


def _clamped_log_ratios(batch: SampleBatch) -> tuple[np.ndarray, int]:
    if batch.fixed_logprobs is None:
        raise ValueError("off-policy coefficients need fixed-policy log-probs")
    raw = batch.cur_logprobs - batch.fixed_logprobs
    clamped = int(np.sum(np.abs(raw) > LOG_RATIO_CLAMP))
    return np.clip(raw, -LOG_RATIO_CLAMP, LOG_RATIO_CLAMP), clamped


def offpolicy_coefficients(batch: SampleBatch, kind: str) -> Coefficients:
    """Importance-corrected coefficients for samples drawn from the fixed policy:
    s_j = P_cur / P_fixed; pg uses s_j * R_j, mml softmaxes log s_j + R_j."""
    log_s, clamped = _clamped_log_ratios(batch)
    if kind == "pg":
        return Coefficients(np.exp(log_s) * batch.rewards, "pg_off", clamped)
    if kind == "mml":
        weights = log_s + batch.rewards
        denom = logsumexp(weights)
        if not np.isfinite(denom):
            raise ValueError("degenerate batch: no posterior mass")
        return Coefficients(np.exp(weights - denom), "mml_off", clamped)
    raise ValueError(f"unknown estimator kind {kind!r}")

