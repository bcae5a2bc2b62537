"""Spans around genred's public functions, recorded from outside.

`Tracer.install` replaces each timed function by a wrapper under every name
it has in `genred.cli`, `genred.reduce`, `genred.morphism` and
`genred.process`, so a call from the CLI, from another genred module or from
the benchmark itself opens a span, and calls made while it is open become
its children.  `uninstall` puts the originals back, so untraced jobs run the
unmodified code.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import importlib
import itertools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Timed functions by the module that defines them.
LAYERS = {
    "cli": ("run",),
    "formats": ("parse_generator_text", "dump_generator", "dump_word_table"),
    "core": ("validate", "pushforward"),
    "reduce": ("event_reduction", "minimal_reduction", "state_reduction"),
    "process": (
        "equivalent", "shortest_distinguishing_word", "word_probability",
        "causal_state_partition", "word_distribution", "sample",
    ),
    "morphism": ("verify", "check_transport"),
}
PATCHED_MODULES = ("cli", "reduce", "morphism", "process")
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Work counts that depend only on the jobs' inputs.
COUNTS = (
    "formats.in_bytes", "formats.out_bytes", "core.kernel_entries",
    "reduce.states_in", "reduce.states_out", "process.table_entries",
    "process.sample_steps", "process.witness_len", "process.causal_classes",
)


def _count(name: str, args: tuple, result, nested_reduce: bool) -> dict[str, int]:
    """The counts one call adds.  A reduction nested in another reduction
    (event_reduction inside minimal_reduction) counts once, at the outer one."""
    if name == "formats.parse_generator_text":
        return {"formats.in_bytes": len(args[0].encode())}
    if name in ("formats.dump_generator", "formats.dump_word_table"):
        return {"formats.out_bytes": len(result.encode())}
    if name == "core.validate":
        return {"core.kernel_entries": sum(len(row) for row in args[0].kernel.values())}
    if name.startswith("reduce.") and not nested_reduce:
        if name == "reduce.event_reduction":
            out = len(result.partition)
        elif name == "reduce.minimal_reduction":
            out = len(result[0].reduced.states)
        else:
            out = len(result.reduced.states)
        return {"reduce.states_in": len(args[0].states), "reduce.states_out": out}
    if name == "process.word_distribution":
        return {"process.table_entries": len(result.probs)}
    if name == "process.sample":
        return {"process.sample_steps": args[2]}
    if name == "process.shortest_distinguishing_word" and result is not None:
        return {"process.witness_len": len(result)}
    if name == "process.causal_state_partition":
        return {"process.causal_classes": len(result)}
    return {}


def self_times(spans) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
    """Self seconds (span time minus the time of its child spans), calls and
    errors per span name."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for span_id, name, start, end, _, _, raised in spans:
        self_s[name] += end - start - child_time[span_id]
        calls[name] += 1
        errors[name] += raised
    return self_s, calls, errors


class Tracer:
    def __init__(self):
        # (span id, name, start, end, parent span id or None, job id, raised)
        self.spans: list[tuple[int, str, float, float, int | None, str, bool]] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.job = ""
        self.counting = False
        self.counted: set[str] = set()  # jobs whose counts are in `counts`
        self._stack: list[tuple[int, str]] = []  # open spans: (id, name)
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"genred.{m}") for m in PATCHED_MODULES]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"genred.{layer}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    if getattr(module, fn, None) is original:
                        self._patches.append((module, fn, original, wrapper))
        for module, fn, _, wrapper in self._patches:
            setattr(module, fn, wrapper)

    def uninstall(self) -> None:
        for module, fn, original, _ in self._patches:
            setattr(module, fn, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            nested_reduce = name.startswith("reduce.") and any(
                open_name.startswith("reduce.") for _, open_name in stack
            )
            span_id = next(self._ids)
            stack.append((span_id, name))
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.job, raised))
            if self.counting:
                for key, value in _count(name, args, result, nested_reduce).items():
                    self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        self_s, calls, errors = self_times(self.spans)
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.errors"] = (errors[name], "count")
        for name in COUNTS:
            out[name] = (self.counts[name], "bytes" if name.endswith("_bytes") else "count")
        return out

    def write(self, path: Path, header: dict) -> None:
        doc = {
            **header,
            "counts": self.counts,
            "span_fields": ["id", "name", "start", "end", "parent", "job", "raised"],
            "spans": sorted(self.spans),
        }
        path.write_text(json.dumps(doc) + "\n")
