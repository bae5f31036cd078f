import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import logsumexp as scalar_logsumexp
from riff.numerics import (
    ParamVector,
    finite_diff_grad,
    gelu,
    gelu_grad,
    log_normalizers,
    log_softmax_rows,
    max_relative_error,
    relative_errors,
    richardson_grad,
)

mpmath.mp.dps = 50


def logsumexp(xs) -> float:
    """log_normalizers of xs as a one-row batch."""
    return float(log_normalizers(np.asarray(xs, dtype=np.float64)[None])[0])


def mp_log_softmax(values):
    xs = [mpmath.mpf(v) for v in values]
    denom = mpmath.log(mpmath.fsum(mpmath.e**x for x in xs))
    return [float(x - denom) for x in xs]


def test_log_softmax_symmetric_pair():
    out = log_softmax_rows([0.0, 0.0])
    assert np.allclose(out, [-math.log(2)] * 2, atol=1e-15)


def test_log_softmax_against_high_precision():
    out = log_softmax_rows([1.0, 2.0])
    expected = mp_log_softmax([1.0, 2.0])
    assert np.allclose(out, expected, atol=1e-14)


def test_log_softmax_rejects_nonfinite():
    with pytest.raises(ValueError):
        log_softmax_rows([1.0, float("nan")])
    with pytest.raises(ValueError):
        log_softmax_rows([1.0, float("inf")])


def test_log_softmax_normalization_bulk():
    gen = np.random.default_rng(7)
    for _ in range(1000):
        logits = gen.normal(0, 5, size=int(gen.integers(1, 12)))
        total = np.exp(log_softmax_rows(logits)).sum()
        assert abs(total - 1.0) < 1e-12


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-30, 30))
@settings(max_examples=60)
def test_log_softmax_shift_invariance(logits, shift):
    base = log_softmax_rows(logits)
    shifted = log_softmax_rows(np.asarray(logits) + shift)
    assert np.allclose(base, shifted, atol=1e-10)


def test_logsumexp_singleton_exact():
    assert logsumexp([-3.7]) == -3.7


def test_logsumexp_pair():
    assert abs(logsumexp([0.0, 0.0]) - math.log(2)) < 1e-15


def test_logsumexp_extreme_values():
    got = logsumexp([-1000.0, -1000.5])
    expected = float(mpmath.log(mpmath.e ** mpmath.mpf(-1000) + mpmath.e ** mpmath.mpf(-1000.5)))
    assert abs(got - expected) < 1e-12


def test_logsumexp_empty_errors():
    with pytest.raises(ValueError):
        logsumexp([])


def test_logsumexp_bounds():
    xs = [0.1, -2.0, 1.4]
    out = logsumexp(xs)
    assert max(xs) <= out <= max(xs) + math.log(len(xs))


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8), st.floats(-50, 50))
@settings(max_examples=60)
def test_logsumexp_shift_property(xs, c):
    assert abs(logsumexp(np.asarray(xs) + c) - (logsumexp(xs) + c)) < 1e-12


def test_log_normalizers_round_each_row_as_the_scalar_reference_bitwise():
    # the oracle's objective and posteriors read log_normalizers where they read the scalar form
    gen = np.random.default_rng(11)
    for _ in range(300):
        rows = gen.normal(0.0, float(gen.uniform(0.1, 300.0)), (int(gen.integers(1, 6)), int(gen.integers(1, 40))))
        got = log_normalizers(rows)
        assert got.tolist() == [scalar_logsumexp(row) for row in rows]


def test_finite_diff_quadratic_exact():
    grad = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([1.0]), h=1e-5)
    assert abs(grad[0] - 2.0) < 1e-8


def test_finite_diff_constant_zero():
    grad = finite_diff_grad(lambda t: 3.25, np.array([0.3, -1.2, 4.0]), h=1e-5)
    assert np.all(grad == 0.0)


def test_finite_diff_degree_two_polynomial():
    coeffs = np.array([0.5, -1.5, 2.0])

    def poly(t):
        return float(coeffs @ (t**2) + 3.0 * t.sum() - 7.0)

    theta = np.array([0.2, -0.7, 1.1])
    grad = finite_diff_grad(poly, theta, h=1e-5)
    assert np.allclose(grad, 2 * coeffs * theta + 3.0, atol=1e-8)


def test_finite_diff_nonfinite_names_coordinate():
    def bad(t):
        return float("nan") if t[1] > 0.5 else 0.0

    with pytest.raises(ValueError, match="coordinate 1"):
        finite_diff_grad(bad, np.array([0.0, 0.5]), h=1e-2)


def test_richardson_is_exact_through_quartics_and_rejects_bad_steps():
    coeffs = np.array([0.5, -1.5, 2.0])
    theta = np.array([0.2, -0.7, 1.1])

    def quartic(rows):
        return (rows**4 - rows**3) @ coeffs + rows.sum(axis=1)

    grad = richardson_grad(quartic, theta, h=1e-2)
    assert np.allclose(grad, coeffs * (4 * theta**3 - 3 * theta**2) + 1.0, rtol=0, atol=1e-11)
    with pytest.raises(ValueError, match="step size"):
        richardson_grad(quartic, theta, h=0.0)


def test_richardson_nonfinite_names_coordinate():
    theta = np.array([0.0, 0.5, -0.25])
    h = 1e-2

    def planted(rows):
        # non-finite only where coordinate 2 moves by -h/2
        return np.where(np.isclose(rows[:, 2], theta[2] - h / 2, rtol=0, atol=h / 8), np.inf, rows.sum(axis=1))

    with pytest.raises(ValueError, match="coordinate 2$"):
        richardson_grad(planted, theta, h)


def test_gelu_zero():
    assert gelu(0.0) == 0.0


def test_gelu_asymptote():
    assert abs(gelu(20.0) - 20.0) < 1e-12
    assert abs(gelu(-20.0)) < 1e-12


def test_gelu_against_gaussian_cdf():
    x = mpmath.mpf(1)
    expected = float(x * mpmath.ncdf(x))
    assert abs(gelu(1.0) - expected) < 1e-14


def test_gelu_grad_matches_finite_differences():
    for x in (-1.3, 0.0, 0.4, 2.1):
        fd = finite_diff_grad(lambda t: gelu(float(t[0])), np.array([x]), h=1e-6)[0]
        assert abs(gelu_grad(x) - fd) < 1e-8


def test_param_vector_layout_and_views():
    pv = ParamVector([("a", (2, 3)), ("b", (4,))])
    assert pv.size == 10
    pv.view("a")[1, 2] = 5.0
    assert pv.values[5] == 5.0
    assert pv.segment_slice("b") == slice(6, 10)
    dup = pv.copy()
    dup.view("b")[0] = -1.0
    assert pv.view("b")[0] == 0.0


def test_param_vector_rejects_duplicates_and_bad_shape():
    with pytest.raises(ValueError):
        ParamVector([("a", (2,)), ("a", (2,))])
    with pytest.raises(ValueError):
        ParamVector([("a", (2,))], values=np.zeros(3))


def test_param_vector_freeze():
    pv = ParamVector([("a", (2,))])
    pv.freeze()
    with pytest.raises(ValueError):
        pv.values[0] = 1.0


def test_freeze_leaves_no_writable_view():
    pv = ParamVector([("a", (2, 3)), ("b", (4,))])
    before = pv.view("a")
    pv.freeze()
    after = pv.view("b")
    for view in (before, after, pv.view("a")):
        with pytest.raises(ValueError, match="read-only"):
            view.flat[0] = 7.0
    assert not pv.values.any()
    assert pv.view("a") is before  # one binding per name, returned on every call
    # a copy is writable again, through its own views only
    dup = pv.copy()
    dup.view("a")[0, 0] = 7.0
    assert dup.values[0] == 7.0 and pv.values[0] == 0.0


def test_max_relative_error_skips_tiny_components():
    a = np.array([1.0, 1e-12])
    b = np.array([1.0 + 1e-6, 5e-12])
    assert max_relative_error(a, b) < 2e-6
    # componentwise, a skipped entry reads 0.0 and the largest is max_relative_error's
    errors = relative_errors(a, b)
    assert errors[1] == 0.0 and errors[0] == max_relative_error(a, b) == abs(a[0] - b[0]) / b[0]
    assert max_relative_error([], []) == 0.0 and max_relative_error([1e-9], [2e-9]) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_relative_error_rejects_a_non_finite_entry_in_either_argument(bad):
    # a NaN compares False with the floor, so it used to be skipped as a match
    good, planted = [1.0, 1.0, 1.0], [1.0, bad, 1.0]
    with pytest.raises(ValueError, match=f"^non-finite entry {bad} at index 1 of a$"):
        max_relative_error(planted, good)
    with pytest.raises(ValueError, match=f"^non-finite entry {bad} at index 1 of b$"):
        max_relative_error(good, planted)


def test_softmax_sums_to_one():
    assert abs(np.exp(log_softmax_rows([0.3, -2.0, 5.0])).sum() - 1.0) < 1e-12
