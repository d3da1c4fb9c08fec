"""The memo registry and the per-trace memos' lifetimes (repro.memo).

A per-trace memo must free its entries when their trace dies, and keep
them while it lives: an interleaved multiprogramming trace is dropped
after its study, while a store trace lives as long as the process.  The
registry must name every process-wide memo, so one ``clear_all`` can
empty them all; a source scan keeps that list from going stale.
"""

import ast
import gc
import importlib
import inspect
import weakref

import pytest

from conftest import REPO_ROOT, TINY
from repro import memo
from repro.cache.hierarchy import l1_miss_stream, simulate_hierarchy
from repro.core import SystemConfig, evaluate
from repro.ext.multiprogramming import interleave_traces
from repro.traces.store import get_trace
from repro.units import kb

SRC = REPO_ROOT / "src"

#: The memos whose entries are keyed on a trace.
PER_TRACE = ("l1_stream", "stats")

#: Decorators that make a function a process-wide memo.
MEMO_DECORATORS = {"lru_cache", "cache", "per_trace"}

CONFIG = SystemConfig(l1_bytes=kb(1), l2_bytes=kb(8), l2_associativity=4)


def sizes():
    counts = memo.counts()
    return {name: counts[name].currsize for name in PER_TRACE}


def run_model(trace):
    simulate_hierarchy(trace, kb(1), kb(8), l2_associativity=4)
    return evaluate(CONFIG, trace)


def test_an_ad_hoc_trace_frees_its_entries_and_a_store_trace_keeps_them():
    first, second = get_trace("gcc1", TINY), get_trace("li", TINY)
    run_model(first)
    gc.collect()
    before = sizes()

    combined = interleave_traces(first, second, 1000)
    run_model(combined)
    assert all(sizes()[name] > before[name] for name in PER_TRACE)
    trace_ref, addrs_ref = weakref.ref(combined), weakref.ref(combined.i_addrs)
    del combined
    gc.collect()

    # Dead, so no memoised value references its key trace.
    assert trace_ref() is None and addrs_ref() is None
    assert sizes() == before
    # The store trace's entries survived: its calls hit.
    misses = {name: memo.counts()[name].misses for name in PER_TRACE}
    run_model(first)
    assert {name: memo.counts()[name].misses for name in PER_TRACE} == misses


def test_a_per_trace_memo_keys_on_the_other_arguments_like_lru_cache():
    trace = interleave_traces(get_trace("gcc1", TINY), get_trace("li", TINY), 5000)
    info = l1_miss_stream.cache_info()
    stream = l1_miss_stream(trace, kb(1))
    assert l1_miss_stream(trace, kb(1)) is stream
    assert l1_miss_stream(trace, kb(1), line_size=16) is not stream  # a new key
    after = l1_miss_stream.cache_info()
    assert (after.hits - info.hits, after.misses - info.misses) == (1, 2)


def test_clear_all_empties_every_memo_and_resets_its_counts(monkeypatch):
    monkeypatch.setattr(memo, "MEMOS", {})
    double = memo.per_trace("double")(lambda trace, factor: trace.n_instructions * factor)
    trace = get_trace("gcc1", TINY)
    assert double(trace, 2) == double(trace, 2) == 2 * trace.n_instructions
    assert memo.counts() == {"double": memo.CacheInfo(1, 1, None, 1)}
    memo.clear_all()
    assert memo.counts() == {"double": memo.CacheInfo(0, 0, None, 0)}


def memo_functions():
    """(module, function name) of every memo-decorated function under ``src/repro``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) in MEMO_DECORATORS:
                    found.append((module.removesuffix(".__init__"), node.name))
    return found


def test_every_process_wide_memo_is_registered():
    found = {
        f"{module}.{name}": getattr(importlib.import_module(module), name, None)
        for module, name in memo_functions()
    }
    assert len(found) >= 6
    registered = memo.MEMOS.values()  # after the imports, which register
    assert [name for name, fn in found.items() if not any(fn is m for m in registered)] == []
    assert sorted(memo.MEMOS) == [
        "area",
        "energy",
        "l1_stream",
        "stats",
        "timing",
        "traces",
        "way_table",
    ]


@pytest.mark.parametrize("name", PER_TRACE)
def test_a_per_trace_memo_keeps_the_lru_cache_surface(name):
    fn = memo.MEMOS[name]
    assert callable(fn.__wrapped__) and fn.__wrapped__ is not fn
    assert fn.__name__ == fn.__wrapped__.__name__
    assert next(iter(inspect.signature(fn).parameters)) == "trace"
    assert {"hits", "misses", "currsize"} <= set(fn.cache_info()._fields)
    assert callable(fn.cache_clear)
