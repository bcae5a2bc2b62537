"""The benchmark's tracer wraps genred functions by name and reads their
results: a rename or a changed return shape fails here rather than in a
benchmark run.  ``bench/tracing.py`` is loaded by path, unchanged."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from genred import Distribution, catalog
from helpers import marked_cycle

TRACING_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_and_is_patched():
    tracing = _tracing()
    for name in tracing.FUNCTIONS:
        layer, fn = name.split(".")
        assert callable(getattr(importlib.import_module(f"genred.{layer}"), fn)), name
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {
            f"{original.__module__.rsplit('.', 1)[-1]}.{fn}"
            for _, fn, original, _ in tracer._patches
        }
    finally:
        tracer.uninstall()
    assert patched == set(tracing.FUNCTIONS)


def test_counts_read_the_reduction_result_shapes():
    tracing = _tracing()
    reduce = importlib.import_module("genred.reduce")
    gen, _ = catalog("golden-mean-redundant")
    for fn in tracing.LAYERS["reduce"]:
        result = getattr(reduce, fn)(gen)
        counts = tracing._count(f"reduce.{fn}", (gen,), result, False)
        assert counts == {"reduce.states_in": 3, "reduce.states_out": 2}, fn


def test_counts_read_the_process_result_shapes():
    tracing = _tracing()
    process = importlib.import_module("genred.process")

    def count(fn, *args):
        return tracing._count(f"process.{fn}", args, getattr(process, fn)(*args), False)

    start = Distribution.point("q0")
    for n in (3, 7):
        short, long_ = marked_cycle(n), marked_cycle(n + 1)
        assert count("shortest_distinguishing_word", short, start, long_, start) == {
            "process.witness_len": n
        }
        assert count("shortest_distinguishing_word", short, start, short, start) == {}
        assert count("causal_state_partition", long_) == {"process.causal_classes": n + 1}
    gen, mu = catalog("golden-mean")
    assert count("word_distribution", gen, mu, 3) == {"process.table_entries": 15}
