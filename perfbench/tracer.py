"""Call tracer that measures riff's layers from outside the package.

`Tracer.install` wraps every public module-level function of each layer
module (plus `AdamW.step`, the one method a metric needs) and rebinds the
wrapper wherever a `riff.*` module holds the original, so names imported with
`from .policy import seq_logprob` are traced as well. Nothing under `src/` is
edited; `uninstall` restores every binding.

Each wrapped call records one span (name, start, end, parent span) in flat
arrays kept in memory. Hooks read arguments and results at the boundary
where the work happens, to count what a span's timing cannot show: rewrites
returned, distinct reward inputs, bytes written, sequences enumerated.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "riff"

# promptsearch (no command runs it), metrics (only `riff evaluate`) and cli
# (reached only through cli.oracle_check) are left unmeasured on purpose.
LAYERS = (
    "policy", "decoding", "estimators", "classifier", "optim",
    "training", "checkpoint", "oracle", "numerics", "data",
)

METHODS = {"optim": (("AdamW", "step"),)}

DECODERS = ("decoding.decode_samples", "decoding.mixed_decode",
            "decoding.top_p_sample", "decoding.diverse_beam")
VALIDATION = ("training.evaluate_ensemble_accuracy", "training.plain_accuracy")
CHECKPOINTING = ("policy.snapshot", "policy.save_policy", "classifier.save_classifier")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rewrites(tracer, name, args, kwargs, result):
    if (tracer.open_name() or "").startswith("decoding."):
        return  # only rewrite sets handed back to a caller outside the decoders
    ids = [(r[0] if isinstance(r, tuple) else r).ids for r in result]
    tracer.counters["decoding.rewrites"] += len(ids)
    tracer.counters["decoding.distinct"] += len(set(ids))
    tracer.counters[name + ".rewrites"] += len(ids)


def _reward_input(tracer, name, args, kwargs, result):
    key = (_arg(args, kwargs, 2, "y"), _arg(args, kwargs, 1, "input_seq").ids)
    tracer.distinct_rewards.add(key)


def _bytes_written(tracer, name, args, kwargs, result):
    tracer.counters["checkpoint.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _enumerated(tracer, name, args, kwargs, result):
    tracer.counters["oracle.sequences_enumerated"] += len(result.entries)


HOOKS = {
    **{name: _count_rewrites for name in DECODERS},
    "classifier.reward": _reward_input,
    "checkpoint.save_segments": _bytes_written,
    "oracle.enumerate_sequences": _enumerated,
}


class Tracer:
    """In-memory span recorder. `clock` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.distinct_rewards: set = set()
        self._bindings: list[tuple[object, str, object]] = []
        self._speed: list[tuple[float, float, float]] = []

    def open_name(self) -> str | None:
        """Name of the innermost span still open, if any."""
        return self.names[self._name[self._stack[-1]]] if self._stack else None

    def wrap(self, name: str, fn):
        """Traced stand-in for `fn`, recording spans under `name`."""
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        idx = self._index[name]
        hook = HOOKS.get(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, clock = self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            starts.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        stand_ins: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                stand_ins[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, original, self.wrap(f"{layer}.{method}", original))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                pair = stand_ins.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._rebind(module, attr, obj, pair[1])

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._bindings.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def set_speed(self, windows) -> None:
        """Scale the times of spans that start in each (begin, end, factor)
        window by its factor, e.g. to read them at a nominal machine speed."""
        self._speed = list(windows)

    def spans(self):
        """(name index, parent, start, end) arrays of every recorded span,
        with times scaled as set by `set_speed`."""
        raw_start = np.frombuffer(self._start, dtype=np.float64)
        raw_end = np.frombuffer(self._end, dtype=np.float64)
        start, end = raw_start.copy(), raw_end.copy()
        for begin, stop, factor in self._speed:
            inside = (raw_start >= begin) & (raw_start < stop)
            start[inside] = begin + (raw_start[inside] - begin) * factor
            end[inside] = begin + (raw_end[inside] - begin) * factor
        return (
            np.frombuffer(self._name, dtype=np.intc).astype(np.int64),
            np.frombuffer(self._parent, dtype=np.intc).astype(np.int64),
            start,
            end,
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds, and self seconds
        (span time minus the time of its direct child spans)."""
        name, parent, start, end = self.spans()
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def within(self, ancestors) -> np.ndarray:
        """Mask of spans that have an ancestor span named in `ancestors`."""
        name, parent, _, _ = self.spans()
        target = np.isin(name, [self._index[a] for a in ancestors if a in self._index])
        mask = np.zeros(name.size, dtype=bool)
        up = parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                return mask
            mask[live] |= target[up[live]]
            up[live] = parent[up[live]]

    def step_latencies(self, loop: str, step: str, excluded) -> list[float]:
        """Seconds per iteration of `loop`, cut at the end of each `step`
        span directly inside it, minus its direct child spans in `excluded`."""
        if loop not in self._index or step not in self._index:
            return []
        name, parent, start, end = self.spans()
        skip = np.isin(name, [self._index[e] for e in excluded if e in self._index])
        out = []
        for loop_span in np.flatnonzero(name == self._index[loop]):
            inside = parent == loop_span
            cuts = end[inside & (name == self._index[step])]
            gaps_start, gaps_end = start[inside & skip], end[inside & skip]
            prev = start[loop_span]
            for cut in cuts:
                gap = (gaps_start >= prev) & (gaps_end <= cut)
                out.append(float(cut - prev - np.sum(gaps_end[gap] - gaps_start[gap])))
                prev = cut
        return out


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric of the benchmark; a layer the run never
    reached reads 0, and a ratio with a zero base reads 0."""
    table = tracer.summary()

    def get(name, field):
        return table.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for fn in ("policy.step_logits", "policy.seq_logprob", "policy.seq_logprob_grad",
               "classifier.reward", "classifier.classifier_grad", "classifier.score_labels",
               "optim.step", "checkpoint.save_segments", "oracle.enumerate_sequences",
               "oracle.exact_objective", "data.format_input"):
        m[f"{fn}.calls"] = get(fn, "calls")
        m[f"{fn}.self_s"] = get(fn, "self_s")
    m["policy.encode_context.calls"] = get("policy.encode_context", "calls")
    # reward and score_labels do their work in label_logprobs, a child span
    m["classifier.reward.s"] = get("classifier.reward", "s")
    m["classifier.score_labels.s"] = get("classifier.score_labels", "s")
    m["decoding.mixed_decode.s"] = get("decoding.mixed_decode", "s")
    m["decoding.top_p_sample.self_s"] = get("decoding.top_p_sample", "self_s")
    m["decoding.diverse_beam.self_s"] = get("decoding.diverse_beam", "self_s")

    name, _, _, _ = tracer.spans()
    seq_idx = tracer._index.get("policy.seq_logprob", -1)
    rescored = int(np.sum((name == seq_idx) & tracer.within(["decoding.decode_samples"])))
    m["decoding.rescore_per_rewrite"] = _ratio(
        rescored, tracer.counters["decoding.decode_samples.rewrites"])
    m["decoding.distinct_frac"] = _ratio(
        tracer.counters["decoding.distinct"], tracer.counters["decoding.rewrites"])

    est = [v for k, v in table.items() if k.startswith("estimators.")]
    m["estimators.calls"] = sum(v["calls"] for v in est)
    m["estimators.self_s"] = sum(v["self_s"] for v in est)
    m["classifier.reward.distinct_frac"] = _ratio(
        len(tracer.distinct_rewards), get("classifier.reward", "calls"))
    m["training.validate.calls"] = sum(get(v, "calls") for v in VALIDATION)
    m["training.validate.s"] = sum(get(v, "s") for v in VALIDATION)
    m["training.generate_paraphrase_cache.s"] = get("training.generate_paraphrase_cache", "s")
    steps = tracer.step_latencies("training.finetune_paraphraser", "optim.step",
                                  VALIDATION + CHECKPOINTING)
    m["training.step_ms.p50"] = float(np.percentile(steps, 50)) * 1e3 if steps else 0.0
    m["training.step_ms.p90"] = float(np.percentile(steps, 90)) * 1e3 if steps else 0.0
    m["checkpoint.bytes_written"] = tracer.counters["checkpoint.bytes_written"]
    m["oracle.sequences_enumerated"] = tracer.counters["oracle.sequences_enumerated"]
    m["numerics.finite_diff_grad.s"] = get("numerics.finite_diff_grad", "s")
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


PER_LAYER_UNITS = {
    "policy.step_logits.calls": "count", "policy.step_logits.self_s": "s",
    "policy.encode_context.calls": "count",
    "policy.seq_logprob.calls": "count", "policy.seq_logprob.self_s": "s",
    "policy.seq_logprob_grad.calls": "count", "policy.seq_logprob_grad.self_s": "s",
    "decoding.mixed_decode.s": "s", "decoding.top_p_sample.self_s": "s",
    "decoding.diverse_beam.self_s": "s", "decoding.rescore_per_rewrite": "ratio",
    "decoding.distinct_frac": "ratio",
    "estimators.calls": "count", "estimators.self_s": "s",
    "classifier.reward.calls": "count", "classifier.reward.self_s": "s",
    "classifier.reward.s": "s", "classifier.reward.distinct_frac": "ratio",
    "classifier.classifier_grad.calls": "count", "classifier.classifier_grad.self_s": "s",
    "classifier.score_labels.calls": "count", "classifier.score_labels.self_s": "s",
    "classifier.score_labels.s": "s",
    "optim.step.calls": "count", "optim.step.self_s": "s",
    "training.validate.calls": "count", "training.validate.s": "s",
    "training.generate_paraphrase_cache.s": "s",
    "training.step_ms.p50": "ms", "training.step_ms.p90": "ms",
    "checkpoint.save_segments.calls": "count", "checkpoint.save_segments.self_s": "s",
    "checkpoint.bytes_written": "bytes",
    "oracle.enumerate_sequences.calls": "count", "oracle.enumerate_sequences.self_s": "s",
    "oracle.sequences_enumerated": "count",
    "oracle.exact_objective.calls": "count", "oracle.exact_objective.self_s": "s",
    "numerics.finite_diff_grad.s": "s",
    "data.format_input.calls": "count", "data.format_input.self_s": "s",
    "trace.overhead_frac": "ratio",
}
