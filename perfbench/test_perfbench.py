"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np

import speed
import tracer as tracing
from workloads import WORKLOADS


class StepClock:
    """Clock that advances by the step set before each reading."""

    def __init__(self):
        self.now = 0.0
        self.step = 1.0

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = StepClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.step = 2.0  # the leaf's end reads 2 s after its start

    def middle():
        clock.step = 1.0
        leaf_t()
        clock.step = 3.0
        leaf_t()
        clock.step = 5.0

    leaf_t = tracer.wrap("m.leaf", leaf)
    middle_t = tracer.wrap("m.middle", middle)
    outer_t = tracer.wrap("m.outer", lambda: middle_t())
    outer_t()
    table = tracer.summary()
    # middle: starts t, leaf 1 spans [t+1, t+3], leaf 2 spans [t+6, t+8], ends t+13
    assert table["m.leaf"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert table["m.middle"]["s"] == 13.0
    assert table["m.middle"]["self_s"] == 9.0
    # outer's only direct child is middle; the leaves are not subtracted twice
    assert table["m.outer"]["s"] - table["m.outer"]["self_s"] == 13.0
    assert tracer.within(["m.outer"]).tolist() == [False, True, True, True]


def test_set_speed_scales_spans_by_the_window_they_start_in():
    clock = StepClock()
    tracer = tracing.Tracer(clock=clock)
    leaf = tracer.wrap("m.leaf", lambda: None)
    outer = tracer.wrap("m.outer", leaf)
    outer()  # outer [1, 4], leaf [2, 3]
    leaf()   # [5, 6]
    tracer.set_speed([(0.0, 4.5, 2.0), (4.5, 10.0, 0.5)])
    table = tracer.summary()
    assert table["m.outer"] == {"calls": 1, "s": 6.0, "self_s": 4.0}
    assert table["m.leaf"] == {"calls": 2, "s": 2.5, "self_s": 2.5}


def test_step_latencies_exclude_listed_children():
    clock = StepClock()
    tracer = tracing.Tracer(clock=clock)
    step = tracer.wrap("o.step", lambda: None)
    check = tracer.wrap("v.check", lambda: None)

    def loop():
        clock.step = 10.0
        check()  # [t+10, t+20], excluded
        step()   # ends t+40
        step()   # ends t+60

    tracer.wrap("t.loop", loop)()
    assert tracer.step_latencies("t.loop", "o.step", ["v.check"]) == [30.0, 20.0]


def test_install_rebinds_imported_names_and_uninstall_restores():
    from riff import decoding, policy, training

    original = policy.seq_logprob
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert decoding.seq_logprob is policy.seq_logprob is not original
        assert training.seq_logprob is policy.seq_logprob
    finally:
        tracer.uninstall()
    assert policy.seq_logprob is original
    assert decoding.seq_logprob is original


def run_oracle_op(tracer=None):
    workload = WORKLOADS["oracle"]
    state = workload.setup(3)
    if tracer is not None:
        tracer.install()
    try:
        _, product = workload.run(state, 0, "")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload.outputs(state, product, "")


def test_traced_outputs_equal_untraced_and_counts_repeat():
    plain = run_oracle_op()
    first, second = tracing.Tracer(), tracing.Tracer()
    assert run_oracle_op(first) == plain
    assert run_oracle_op(second) == plain
    counts = {name: row["calls"] for name, row in first.summary().items()}
    assert counts == {name: row["calls"] for name, row in second.summary().items()}
    assert counts["oracle.enumerate_sequences"] > 0
    metrics = tracing.layer_metrics(first, 1.0, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert all(np.isfinite(v) for v in metrics.values())


def test_scaled_time_removes_slices_and_applies_speed():
    sampler = speed.SpeedSampler()
    fast, slow = speed.NOMINAL_SLICE_S / 2, speed.NOMINAL_SLICE_S * 2
    for i, d in enumerate([fast, fast, slow, slow, fast]):
        sampler.starts.append(0.1 * (i + 1))
        sampler.durations.append(d)
    # the interval [0, 0.45) holds four slices: mean speed (2 + 2 + 0.5 + 0.5) / 4
    work = 0.45 - (2 * fast + 2 * slow)
    assert np.isclose(sampler.scaled(0.0, 0.45), work * 1.25)
    # too short to hold a slice: the four nearest slices set the speed
    assert np.isclose(sampler.scaled(0.55, 0.57), 0.02 * 1.25)
