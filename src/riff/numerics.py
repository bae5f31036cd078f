"""Numeric substrate: stable log-space primitives, the finite-difference
checker, and the flat parameter buffer every model is built on, with the
check of its configs' dimensions.

Everything is float64 and pure. Probability arithmetic stays in log space;
callers exponentiate only when assembling final coefficients.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np


def log_normalizers(rows: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of a (B, N) array: the row max plus
    math.log of numpy's exp and pairwise row sum, so a row rounds as it
    would alone."""
    top = rows.max(axis=1)
    shifted = rows - top[:, None]
    sums = np.exp(shifted, out=shifted).sum(axis=1)
    return top + list(map(math.log, sums.tolist()))


def log_softmax_rows(logits, out=None) -> np.ndarray:
    """log_softmax along the last axis, shifted by each row's max: logits -
    (max + log(sum(exp(logits - max)))), into `out` when given (an array of
    the logits' shape that is not the logits)."""
    arr = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite logits")
    m = np.maximum.reduce(arr, axis=-1, keepdims=True)
    out = np.subtract(arr, m, out=out)
    lse = np.add.reduce(np.exp(out, out=out), axis=-1, keepdims=True)
    np.log(lse, out=lse)
    lse += m
    return np.subtract(arr, lse, out=out)


def gelu(x: float) -> float:
    """Gaussian-CDF form: x * Phi(x)."""
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gelu_grad(x: float) -> float:
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) + x * pdf


def gelu_vec(xs) -> np.ndarray:
    return np.array([gelu(float(v)) for v in np.asarray(xs).ravel()])


def gelu_grad_vec(xs) -> np.ndarray:
    return np.array([gelu_grad(float(v)) for v in np.asarray(xs).ravel()])


def finite_diff_grad(f, theta, h: float = 1e-5) -> np.ndarray:
    """Central differences (f(t + h e_i) - f(t - h e_i)) / 2h per coordinate.

    `f` must be deterministic; a non-finite value raises naming the
    perturbed coordinate so the caller can localize the blowup.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    base = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(base)
    work = base.copy()
    for i in range(base.size):
        orig = work[i]
        work[i] = orig + h
        up = float(f(work))
        work[i] = orig - h
        down = float(f(work))
        work[i] = orig
        if not (math.isfinite(up) and math.isfinite(down)):
            raise ValueError(f"objective non-finite while perturbing coordinate {i}")
        grad[i] = (up - down) / (2.0 * h)
    return grad


def richardson_grad(f_rows, theta, h: float) -> np.ndarray:
    """Richardson-extrapolated central differences (4 D(h/2) - D(h)) / 3 per
    coordinate, with D(s) = (f(t + s e_i) - f(t - s e_i)) / 2s; the O(s^2)
    terms cancel, so a larger h loses fewer digits to rounding.

    `f_rows` maps a (K, P) block of parameter vectors to their K values; it
    gets all 4P perturbed vectors in one block, +h, -h, +h/2 and -h/2 on each
    coordinate in turn. Where each row's value is a scalar f's bitwise, D(h)
    is finite_diff_grad(f, theta, h) bitwise. A non-finite value raises naming
    its perturbed coordinate.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    base = np.asarray(theta, dtype=np.float64)
    p = base.size
    block = np.repeat(base[None], 4 * p, axis=0).reshape(4, p, p)
    diag = np.arange(p)
    for k, step in enumerate((h, -h, h / 2, -h / 2)):
        block[k, diag, diag] = base + step
    values = np.asarray(f_rows(block.reshape(4 * p, p)), dtype=np.float64).reshape(4, p)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
    if bad.size:
        raise ValueError(f"objective non-finite while perturbing coordinate {bad[0]}")
    up, down, half_up, half_down = values
    return (4.0 * ((half_up - half_down) / h) - (up - down) / (2.0 * h)) / 3.0


def relative_errors(a, b, floor: float = 1e-8) -> np.ndarray:
    """Componentwise |a-b| / max(|a|,|b|), 0.0 where both are below `floor`. A non-finite
    entry is no match: it raises, naming its argument and its flat index there."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for name, arr in (("a", a), ("b", b)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"non-finite entry {arr.ravel()[bad[0]]} at index {bad[0]} of {name}")
    scale = np.maximum(np.abs(a), np.abs(b))
    keep = scale >= floor
    out = np.zeros(scale.shape)
    out[keep] = np.abs(a[keep] - b[keep]) / scale[keep]
    return out


def max_relative_error(a, b, floor: float = 1e-8) -> float:
    """The largest of relative_errors(a, b, floor), 0.0 for empty arrays."""
    errors = relative_errors(a, b, floor)
    return float(errors.max()) if errors.size else 0.0


class ParamVector:
    """Flat float64 buffer carved into named, non-overlapping segment views.

    Segment views share memory with the flat buffer, so in-place updates on
    either side stay consistent. Segment order fixes serialization order.
    Each view is bound on its first `view` call and the same array is
    returned after, so a hot loop pays one dict lookup per view and a buffer
    that never reads a segment never binds it. `freeze()` makes the buffer
    and every bound view read-only; a view bound later is read-only too.
    """

    def __init__(self, segments, values=None):
        layout: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in segments:
            if name in layout:
                raise ValueError(f"duplicate segment {name!r}")
            shape = tuple(int(s) for s in shape)
            size = math.prod(shape)
            layout[name] = (slice(offset, offset + size), shape)
            offset += size
        self._layout = layout
        self._views: dict[str, np.ndarray] = {}
        self._order = tuple(name for name, _ in segments)
        self.size = offset
        if values is None:
            self.values = np.zeros(offset, dtype=np.float64)
        else:
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != (offset,):
                raise ValueError(
                    f"expected a flat vector of {offset} values, got shape {arr.shape}"
                )
            self.values = arr

    def segments(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, self._layout[name][1]) for name in self._order]

    def segment_slice(self, name: str) -> slice:
        return self._layout[name][0]

    def view(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is None:
            part, shape = self._layout[name]
            view = self._views[name] = self.values[part].reshape(shape)
        return view

    def copy(self) -> "ParamVector":
        return ParamVector(self.segments(), self.values.copy())

    def freeze(self) -> "ParamVector":
        self.values.setflags(write=False)
        for view in self._views.values():
            view.setflags(write=False)
        return self


def check_int_fields(config) -> None:
    """Raise naming the first field of a dataclass config annotated int whose
    value is not an int: a float, a string or a bool. A checkpoint header is
    JSON, where 6.0 == 6 would otherwise pass every range check."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in (int, "int") and type(value) is not int:
            raise ValueError(f"config field {f.name!r} must be an int, got {value!r}")
