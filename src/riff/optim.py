"""AdamW with the AMSGrad second-moment maximum, on flat parameter buffers."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamConfig:
    lr: float
    weight_decay: float = 1e-4

    def __post_init__(self):
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


class AdamW:
    """Minimizer. Callers doing ascent pass the negated gradient.

    Every update is elementwise, so a caller that trains only some entries
    steps an AdamW over just those (`flat[idx]`) and writes them back: the
    frozen entries are never touched, by the update or by the decay. lr == 0
    skips the write entirely, keeping parameters bitwise identical. A
    non-finite gradient raises before any state changes. The moments, the
    bias-corrected update and its terms are computed in place, in buffers the
    optimizer owns, by the same expressions in the same order as
    m = BETA1 * m + (1 - BETA1) * g, v = BETA2 * v + (1 - BETA2) * g * g and
    flat -= lr * (mhat / (sqrt(vhat) + EPS) + weight_decay * flat); the
    caller's gradient is only read.
    """

    def __init__(self, size: int, cfg: AdamConfig):
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros(size, dtype=np.float64)
        self.v = np.zeros(size, dtype=np.float64)
        self.vmax = np.zeros(size, dtype=np.float64)
        self._term = np.empty(size)
        self._update = np.empty(size)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        c = self.cfg
        if grad.shape != flat.shape:
            raise ValueError("gradient shape does not match parameters")
        if flat.shape != self.m.shape:
            raise ValueError(f"{flat.size} parameters for an optimizer of {self.m.size}")
        if not np.isfinite(grad).all():
            bad = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise ValueError(f"non-finite gradient at optimizer step {self.t + 1} (entry {bad})")
        self.t += 1
        m, v, term, update = self.m, self.v, self._term, self._update
        m *= BETA1
        m += np.multiply(1.0 - BETA1, grad, out=term)
        v *= BETA2
        np.multiply(1.0 - BETA2, grad, out=term)
        v += np.multiply(term, grad, out=term)
        np.maximum(self.vmax, v, out=self.vmax)
        if c.lr == 0.0:
            return
        np.divide(self.vmax, 1.0 - BETA2**self.t, out=term)  # vhat
        np.sqrt(term, out=term)
        term += EPS
        np.divide(np.divide(m, 1.0 - BETA1**self.t, out=update), term, out=update)  # mhat / (sqrt(vhat) + EPS)
        update += np.multiply(c.weight_decay, flat, out=term)
        update *= c.lr
        flat -= update
