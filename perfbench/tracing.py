"""Call tracing for the benchmark's traced run.

``Tracer.install`` replaces every public function of the eight layers
(harness, rng, policy, tasks, isopo, linalg, baselines, metrics) in every
namespace where a caller looks it up: the defining module and every module
that imported the name (``isopo.sym_eigh``, ``baselines.score_sequence``,
``metrics.stream``, ...). Each call becomes a span (name, start, end, parent
span) kept in memory, except the hot leaves in ``HOT_LEAVES``, which run
about 1e5 times per run and are aggregated as calls plus time. Every name
also accumulates calls, inclusive seconds and self seconds (inclusive minus
the time of wrapped callees).

A few wrapped functions have an observer that counts wasted work from their
arguments and results; those read ``Microbatch.groups[].rewards``,
``OverlapSamples.n_samples`` and the ``(norms, degenerate)`` pair returned by
``sequence_fisher_norms``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("harness", "rng", "policy", "tasks", "isopo", "linalg", "baselines", "metrics")
PACKAGE = "isopo_lab"

HOT_LEAVES = frozenset(
    {
        "policy.forward_logits",
        "policy.softmax",
        "policy.log_softmax",
        "policy.build_context",
        "policy.seq_len_for",
        "linalg.frobenius_dot",
        "rng.stream",
        "isopo.fisher_norm_estimate",
        "isopo.rescaling",
        "isopo.ema_update",
        "tasks.group_advantages",
    }
)


def _observe_microbatch(counts, args, result):
    for group in result.groups:
        counts["groups"] += 1
        counts["zero_signal_groups"] += int(min(group.rewards) == max(group.rewards))


def _observe_overlap(counts, args, result):
    counts["overlap_requested"] += int(args[1])
    counts["overlap_used"] += int(result.n_samples)


def _observe_fisher_norms(counts, args, result):
    _, degenerate = result
    counts["sequences"] += len(degenerate)
    counts["degenerate_sequences"] += int(sum(bool(d) for d in degenerate))


OBSERVERS = {
    "harness.sample_microbatch": _observe_microbatch,
    "isopo.draw_overlap_samples": _observe_overlap,
    "isopo.sequence_fisher_norms": _observe_fisher_norms,
}


class Tracer:
    """Spans and per-name totals for the calls made since the last ``reset``."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self._stack: list = []  # per active call: [nearest span index, callee seconds]

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        for total in self.totals.values():
            total[:] = [0, 0.0, 0.0]

    def install(self) -> int:
        """Wrap the layers' public functions in every loaded package module."""
        prefix = PACKAGE + "."
        layer_modules = {prefix + layer for layer in LAYERS}
        wrappers: dict[int, types.FunctionType] = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ not in layer_modules
                ):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                setattr(module, attr, wrappers[id(obj)])
        return len(wrappers)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        keep_span = name not in HOT_LEAVES
        observe = OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if keep_span:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if keep_span:
                    spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced


def write_spans(path, runs: list[list]) -> None:
    """Write the spans of every traced run as JSON lines, once, at the end."""
    with open(path, "w", encoding="utf-8") as fh:
        for run_index, spans in enumerate(runs):
            for index, (name, start, end, parent) in enumerate(spans):
                record = {"run": run_index, "id": index, "name": name,
                          "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced training run (units in ``unit_of``)."""
    totals = tracer.totals

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def inclusive(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, total in totals.items():
        layer_self[name.split(".", 1)[0]] += total[2]
    collect_ms = sorted(
        (end - start) * 1e3 for (name, start, end, _) in tracer.spans if name == "metrics.collect"
    )
    counts = tracer.counts
    return {
        "harness.train.s": inclusive("harness.train"),
        "harness.self_s": layer_self["harness"],
        "harness.sample_microbatch.s": inclusive("harness.sample_microbatch"),
        "harness.io.s": inclusive("harness.write_metrics_csv") + inclusive("policy.save_checkpoint"),
        "harness.zero_signal_group_ratio": _ratio(counts["zero_signal_groups"], counts["groups"]),
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.s": inclusive("rng.stream"),
        "policy.self_s": layer_self["policy"],
        "policy.sample_sequence.calls": calls("policy.sample_sequence"),
        "policy.sample_sequence.s": inclusive("policy.sample_sequence"),
        "policy.forward_logits.calls": calls("policy.forward_logits"),
        "policy.score_sequence.calls": calls("policy.score_sequence"),
        "policy.score_sequence.s": inclusive("policy.score_sequence"),
        "policy.kl_from_reference.s": inclusive("policy.kl_from_reference"),
        "tasks.self_s": layer_self["tasks"],
        "tasks.validation_score.s": inclusive("tasks.validation_score"),
        "metrics.self_s": layer_self["metrics"],
        "metrics.collect.calls": calls("metrics.collect"),
        "metrics.collect.s": inclusive("metrics.collect"),
        "metrics.collect.ms_p50": collect_ms[len(collect_ms) // 2] if collect_ms else 0.0,
        "isopo.self_s": layer_self["isopo"],
        "isopo.draw_overlap_samples.s": inclusive("isopo.draw_overlap_samples"),
        "isopo.sequence_fisher_norms.s": inclusive("isopo.sequence_fisher_norms"),
        "isopo.noninteracting_update.s": inclusive("isopo.noninteracting_update"),
        "isopo.overlap_used_ratio": _ratio(counts["overlap_used"], counts["overlap_requested"]),
        "isopo.degenerate_ratio": _ratio(counts["degenerate_sequences"], counts["sequences"]),
        "isopo.build_ntk.s": inclusive("isopo.build_ntk"),
        "isopo.build_ntk.self_s": self_time("isopo.build_ntk"),
        "isopo.interacting_update.s": inclusive("isopo.interacting_update"),
        "linalg.self_s": layer_self["linalg"],
        "linalg.sym_eigh.calls": calls("linalg.sym_eigh"),
        "linalg.sym_eigh.s": inclusive("linalg.sym_eigh"),
        "linalg.frobenius_dot.calls": calls("linalg.frobenius_dot"),
        "linalg.frobenius_dot.s": inclusive("linalg.frobenius_dot"),
        "linalg.solve_tikhonov.s": inclusive("linalg.solve_tikhonov"),
        "baselines.self_s": layer_self["baselines"],
        "baselines.grpo_clipped_grad.s": inclusive("baselines.grpo_clipped_grad"),
        "baselines.grpo_clipped_grad.self_s": self_time("baselines.grpo_clipped_grad"),
        "baselines.optimizer_step.calls": calls("baselines.optimizer_step"),
        "baselines.optimizer_step.s": inclusive("baselines.optimizer_step"),
    }


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith((".ms_p50", "_ms")):
        return "ms"
    return "s"
