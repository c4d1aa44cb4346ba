"""Span recording around kgfeat's public entry points, and the per-layer
numbers derived from the spans.

A span is `[name, start, end, parent, tag]`: perf_counter seconds, the index
of the enclosing span (-1 at the top) and an optional tag. The recorder
replaces module attributes with timing wrappers, so every caller that looks a
function up through its module (as kgfeat's own modules do) is traced. Spans
stay in memory until the process writes them out at its end.
"""
from __future__ import annotations

import functools
import importlib
import time


def _judge_tag(args, verdict):
    if type(args[1]).__name__ == "RawRef":
        return "raw"
    return "rejected" if verdict.status.value == "non_interpretable" else "kept"


# (span name, module, attribute, tagger); the layer is the name's first part.
# `cli.cmd_run` and `engine.run` mark the set-up / search boundary and are
# recorded in untraced runs too.
BOUNDARIES = [
    ("cli.cmd_run", "kgfeat.cli", "cmd_run", None),
    ("engine.run", "kgfeat.engine", "run", None),
]
ENTRY_POINTS = BOUNDARIES + [
    ("data.load_csv", "kgfeat.cli", "load_csv", None),
    ("kg.load_kg", "kgfeat.kg", "load_kg", None),
    ("engine.feature_matrix", "kgfeat.engine", "feature_matrix", None),
    ("transform.expand_action", "kgfeat.engine", "expand_action", None),
    ("transform.apply", "kgfeat.transform", "apply", None),
    ("kg.judge", "kgfeat.engine", "judge", _judge_tag),
    ("vectorize.phi_state", "kgfeat.engine", "phi_state", None),
    ("agent.q_forward", "kgfeat.agent", "q_forward", None),
    ("agent.td_train_step", "kgfeat.agent", "td_train_step", None),
    ("learn.evaluate_cv", "kgfeat.learn", "evaluate_cv", None),
    ("learn.train", "kgfeat.learn", "train", None),
    ("learn.predict", "kgfeat.learn", "predict", None),
    ("learn.feature_importance", "kgfeat.learn", "feature_importance", None),
    ("data.kfold_indices", "kgfeat.learn", "kfold_indices", None),
]


class Recorder:
    """Collects nested spans from the wrapped functions of one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, tagger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tagger is not None:
                span[4] = tagger(args, out)
            return out
        return wrapper

    def install(self, targets):
        for name, module, attr, tagger in targets:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), tagger))

    def first(self, name):
        return next(s for s in self.spans if s[0] == name)


def _overlap(span, lo, hi):
    return max(0.0, min(span[2], hi) - max(span[1], lo))


def self_times(spans, lo=float("-inf"), hi=float("inf")):
    """Each span's time inside [lo, hi] not covered by its direct children."""
    own = [_overlap(s, lo, hi) for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= _overlap(s, lo, hi)
    return own


def layer_self_times(spans, lo, hi):
    """Self time per layer inside [lo, hi]; sums to the spans' cover."""
    out = {}
    for s, t in zip(spans, self_times(spans, lo, hi)):
        layer = s[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def _under(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, result, log_text, features_bytes):
    """Per-layer metrics of one traced `kgfeat run`.

    `result` is its parsed result.json and `log_text` its log.txt; they give
    the score requests and the kept/generated counts the engine reports.
    """
    own = self_times(spans)
    calls, total, self_s = {}, {}, {}
    for s, t in zip(spans, own):
        calls[s[0]] = calls.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        self_s[s[0]] = self_s.get(s[0], 0.0) + t

    def count(name):
        return calls.get(name, 0)

    def secs(name):
        return total.get(name, 0.0)

    m = {}
    for name in ("data.kfold_indices", "kg.judge", "transform.expand_action",
                 "transform.apply", "vectorize.phi_state", "agent.q_forward",
                 "agent.td_train_step", "learn.evaluate_cv", "learn.train",
                 "learn.predict"):
        m[f"{name}.calls"] = count(name)
        m[f"{name}.s"] = secs(name)
    m["learn.feature_importance.calls"] = count("learn.feature_importance")
    m["data.load_csv.s"] = secs("data.load_csv")
    m["kg.load_kg.s"] = secs("kg.load_kg")
    m["transform.expand_action.self_s"] = self_s.get("transform.expand_action", 0.0)
    m["learn.evaluate_cv.self_s"] = self_s.get("learn.evaluate_cv", 0.0)

    judged = [s[4] for s in spans if s[0] == "kg.judge" and s[4] != "raw"]
    m["kg.judge.reject_ratio"] = (judged.count("rejected") / len(judged)
                                  if judged else 0.0)

    requests = 1 + len(result["episode_scores"]) * (result["config"]["steps"] + 1)
    m["engine.eval_cache.hit_ratio"] = 1.0 - count("learn.evaluate_cv") / requests
    generated = kept = 0
    for line in log_text.splitlines():
        if line.startswith("episode="):
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            generated += int(fields["generated"])
            kept += int(fields["kept"])
    m["engine.kept_ratio"] = kept / generated if generated else 0.0
    m["engine.prune.s"] = secs("learn.feature_importance") + sum(
        s[2] - s[1] for i, s in enumerate(spans)
        if s[0] == "learn.train" and not _under(spans, i, "learn.evaluate_cv"))
    m["engine.self_s"] = self_s.get("engine.run", 0.0)

    cmd = next(s for s in spans if s[0] == "cli.cmd_run")
    run = next(s for s in spans if s[0] == "engine.run")
    m["cli.write_outputs.s"] = cmd[2] - run[2]
    m["cli.features_csv.bytes"] = features_bytes
    return m


def unit_of(metric):
    """Unit of a per-layer metric, from its name. Every metric but a time
    must repeat exactly for the same inputs and seed."""
    for suffix, unit in ((".calls", "count"), ("_ratio", "ratio"), (".bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "s"
