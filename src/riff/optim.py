"""AdamW with the AMSGrad second-moment maximum, on flat parameter buffers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamConfig:
    lr: float
    weight_decay: float = 1e-4


class AdamW:
    """Minimizer. Callers doing ascent pass the negated gradient.

    Every update is elementwise, so a caller that trains only some entries
    steps an AdamW over just those (`flat[idx]`) and writes them back: the
    frozen entries are never touched, by the update or by the decay. lr == 0
    skips the write entirely, keeping parameters bitwise identical. A
    non-finite gradient raises before any state changes.
    """

    def __init__(self, size: int, cfg: AdamConfig):
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros(size, dtype=np.float64)
        self.v = np.zeros(size, dtype=np.float64)
        self.vmax = np.zeros(size, dtype=np.float64)

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        c = self.cfg
        if grad.shape != flat.shape:
            raise ValueError("gradient shape does not match parameters")
        if not np.isfinite(grad).all():
            bad = int(np.flatnonzero(~np.isfinite(grad))[0])
            raise ValueError(f"non-finite gradient at optimizer step {self.t + 1} (entry {bad})")
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        np.maximum(self.vmax, self.v, out=self.vmax)
        if c.lr == 0.0:
            return
        mhat = self.m / (1.0 - BETA1**self.t)
        vhat = self.vmax / (1.0 - BETA2**self.t)
        flat -= c.lr * (mhat / (np.sqrt(vhat) + EPS) + c.weight_decay * flat)
