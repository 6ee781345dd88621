"""In-memory span and counter recorder for the traced benchmark run.

`Recorder.install()` wraps the public entry points of each cflab layer from
outside the package, by replacing module and class attributes; `uninstall()`
puts the originals back, so the untraced run executes unmodified code. Each
call records a span (name, op, parent, start, end) and may add counters
derived from its arguments and result. A span's self time is its duration
minus the time covered by its direct children; the layer of a span is the
first component of its name.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from statistics import fmean

from cflab import blocks, cf, cli, growth, mc, pressure, series

LAYERS = ("mc", "cf", "blocks", "growth", "series", "pressure", "cli")


@dataclass
class Span:
    name: str
    op: str  # the benchmark step that caused it
    parent: int  # index of the enclosing span, -1 at the top
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    tag: str = ""

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _levels(a, result):
    return a["config"].samples * a["config"].horizon


def _scanned(a, result):  # a detector scans to its event level, or to the horizon
    if result is None:
        return a["horizon"]
    return result[0] if isinstance(result, tuple) else result


def _one(a, result):
    return 1


# owner, attribute, span name, {counter: fn(arguments, result)}, span tag fn(arguments)
ENTRY_POINTS = [
    (cli, "main", "cli.main", {}, None),
    (mc, "run_experiment", "mc.run_experiment", {}, None),
    (mc, "run_dichotomy", "mc.detect.run_dichotomy", {"mc.detect.levels": _levels}, None),
    (mc, "run_trimmed", "mc.trim.run_trimmed", {"mc.trim.levels": _levels}, None),
    (mc, "sample_quotient_block", "mc.sampler.sample_quotient_block", {}, None),
    (mc.QuotientSampler, "__init__", "mc.sampler.init", {"mc.chunks": _one}, None),
    (mc.QuotientSampler, "next_block", "mc.sampler.next_block",
     {"mc.sampler.quotients": lambda a, r: r.size}, None),
    (cf, "take", "cf.stream.take", {"cf.stream.quotients": lambda a, r: len(r)}, None),
    (blocks, "first_F_event", "blocks.detect.first_F_event",
     {"blocks.levels_scanned": _scanned}, None),
    (blocks, "first_E_event", "blocks.detect.first_E_event",
     {"blocks.levels_scanned": _scanned}, None),
    (growth.GrowthFunction, "phi_array", "growth.phi_array", {}, None),
    (growth.GrowthFunction, "meets_threshold", "growth.meets_threshold",
     {"growth.exact_compares": _one}, None),
    (series, "asymptotic_ratio_scan", "series.scan", {}, None),
    (series, "series_block_tail", "series.block_tail", {}, None),
    (series, "series_overlap", "series.overlap", {}, None),
    (series, "divisor_table", "series.sieve",
     {"series.sieve.calls": _one, "series.sieve.entries": lambda a, r: a["k"] * a["limit"]},
     None),
    (pressure, "hausdorff_dim", "pressure.hausdorff_dim", {"pressure.roots": _one}, None),
    (pressure, "transfer_pressure", "pressure.transfer_pressure",
     {"pressure.evals": _one}, lambda a: f"N{a['N']}"),
    (pressure, "s_m_oracle", "pressure.s_m", {}, None),
]


class Recorder:
    """Spans and counters in memory; attribute patches undone by uninstall()."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for owner, attr, name, counters, tag in ENTRY_POINTS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, counters, tag))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counters, tag):
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if counters or tag:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, count in counters.items():
                    self.counters[key] += count(bound.arguments, result)
                if tag:
                    span.tag = tag(bound.arguments)
            return result

        return wrapper

    def dump(self, path, metrics: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"metrics": metrics, "counters": dict(self.counters),
                 "spans": [asdict(s) for s in self.spans]},
                fh,
            )


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(rec: Recorder, rounds: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer (value, unit) per traced round, from the spans of `rounds` traced rounds.

    `traced_s` and `untraced_s` are the summed step times of the same rounds
    run with and without the recorder; their ratio gives the overhead. Rates
    of a layer that did no work on the workload read 0.
    """
    selfs = defaultdict(float)
    for span in rec.spans:
        selfs[span.name] += span.self_s

    def busy(prefix):
        return sum(v for k, v in selfs.items() if k.startswith(prefix))

    def per_round(x):
        return x / rounds

    def eval_ms(n):
        times = [s.end - s.start for s in rec.spans if s.tag == f"N{n}"]
        return fmean(times) * 1e3 if times else 0.0

    c = rec.counters
    layer = {name: busy(name + ".") for name in LAYERS}
    sampler = busy("mc.sampler.")
    sieve = busy("series.sieve")
    in_roots = sum(  # evaluations made by the dimension solver itself
        s.name == "pressure.transfer_pressure" and s.parent >= 0
        and rec.spans[s.parent].name == "pressure.hausdorff_dim"
        for s in rec.spans
    )
    return {
        "mc.sampler.ns_per_quotient": (
            _ratio(sampler, c["mc.sampler.quotients"], 1e9), "ns"),
        "mc.sampler.busy_s": (per_round(sampler), "s"),
        "mc.sampler.quotients": (per_round(c["mc.sampler.quotients"]), "count"),
        "mc.detect.ns_per_level": (
            _ratio(busy("mc.detect."), c["mc.detect.levels"], 1e9), "ns"),
        "mc.trim.ns_per_level": (_ratio(busy("mc.trim."), c["mc.trim.levels"], 1e9), "ns"),
        "mc.chunks": (per_round(c["mc.chunks"]), "count"),
        "mc.self_s": (per_round(layer["mc"]), "s"),
        "cf.stream.ns_per_quotient": (
            _ratio(busy("cf.stream."), c["cf.stream.quotients"], 1e9), "ns"),
        "cf.self_s": (per_round(layer["cf"]), "s"),
        "blocks.detect.ns_per_level": (
            _ratio(busy("blocks.detect."), c["blocks.levels_scanned"], 1e9), "ns"),
        "blocks.levels_scanned": (per_round(c["blocks.levels_scanned"]), "count"),
        "blocks.self_s": (per_round(layer["blocks"]), "s"),
        "growth.phi_array.busy_s": (per_round(busy("growth.phi_array")), "s"),
        "growth.exact_compares": (per_round(c["growth.exact_compares"]), "count"),
        "growth.self_s": (per_round(layer["growth"]), "s"),
        "series.sieve.calls": (per_round(c["series.sieve.calls"]), "count"),
        "series.sieve.entries": (per_round(c["series.sieve.entries"]), "count"),
        "series.sieve.s_per_1e6": (_ratio(sieve, c["series.sieve.entries"], 1e6), "s"),
        "series.busy_s": (per_round(layer["series"]), "s"),
        "pressure.evals": (per_round(c["pressure.evals"]), "count"),
        "pressure.evals_per_root": (_ratio(in_roots, c["pressure.roots"]), "count"),
        "pressure.eval_ms.N1000": (eval_ms(1_000), "ms"),
        "pressure.eval_ms.N10000": (eval_ms(10_000), "ms"),
        "pressure.s_m.busy_s": (per_round(busy("pressure.s_m")), "s"),
        "pressure.self_s": (per_round(layer["pressure"]), "s"),
        "cli.self_s": (per_round(layer["cli"]), "s"),
        "trace.wall_s": (per_round(traced_s), "s"),
        "trace.remainder_s": (per_round(traced_s - sum(layer.values())), "s"),
        "trace.overhead_frac": (_ratio(traced_s, untraced_s) - 1.0, "fraction"),
    }
