"""REP007: nothing blocking is reachable from the serve path's coroutines.

The PR 6 serve loop is a single asyncio event loop: one blocking call —
``time.sleep``, a synchronous ``open``/``os``/``subprocess``, a pool
``.result()`` join, pathlib file I/O — anywhere in the transitive call
chain of an ``async def`` freezes *every* in-flight request, which is
how deadline tests start flaking under load.  The per-file rules cannot
see a sink two helpers away; this rule propagates a "blocks" fact up
the call graph and reports at the *frontier*: the call site inside the
serve coroutine, where a suppression or an executor bridge belongs.

Callables handed to ``loop.run_in_executor`` / ``asyncio.to_thread``
are bridged (they run on a worker thread) and generate no taint, which
is exactly the sanctioned fix.  Async callees never transmit blocking
taint — awaiting them yields to the loop.  Unknown callees are skipped
when *reporting* (no false positives) but stay visible in the graph as
unknown, never "safe".
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ...registry import ProgramViolation, program_checker
from ..graph import Program, propagate_to_callers

_SERVE_PREFIX = "repro.serve"


def _in_serve(module: str) -> bool:
    return module == _SERVE_PREFIX or module.startswith(_SERVE_PREFIX + ".")


@program_checker(
    "REP007",
    "async-safety",
    "A blocking call transitively reachable from a serve coroutine "
    "stalls the whole event loop — every in-flight request, not just "
    "one; blocking work must cross a run_in_executor/to_thread bridge.",
)
def check_async_safety(program: Program) -> Iterator[ProgramViolation]:
    # Seed: synchronous functions containing a direct blocking sink.
    # Async functions with direct sinks are findings themselves but do
    # not transmit taint (calling them just builds a coroutine).
    seeds: Dict[str, str] = {}
    for node in program.functions.values():
        if node.is_async:
            continue
        if node.sinks:
            first = min(node.sinks, key=lambda s: (s.line, s.col))
            seeds[node.fid] = f"{first.detail} at {node.path}:{first.line}"
    tainted = propagate_to_callers(
        program,
        seeds,
        edge_kinds=("call",),
        through=lambda fn: not fn.is_async,
    )

    findings: List[Tuple[str, int, int, str]] = []
    for node in sorted(program.functions.values(), key=lambda n: n.fid):
        if not (node.is_async and _in_serve(node.module)):
            continue
        for sink in node.sinks:
            findings.append(
                (
                    node.path,
                    sink.line,
                    sink.col,
                    f"blocking {sink.detail} inside async "
                    f"{node.qualname}; run it on the pool via "
                    "loop.run_in_executor(...) or asyncio.to_thread(...)",
                )
            )
        for call in node.calls:
            if call.kind != "call" or call.target is None:
                continue
            if call.target not in tainted:
                continue
            callee = program.functions.get(call.target)
            if callee is None or callee.is_async:
                continue
            chain = " -> ".join(tainted[call.target])
            findings.append(
                (
                    node.path,
                    call.line,
                    call.col,
                    f"{call.raw}() called from async {node.qualname} "
                    f"transitively blocks ({chain}); bridge it with "
                    "loop.run_in_executor(...) or asyncio.to_thread(...)",
                )
            )
    seen = set()
    for finding in sorted(findings):
        if finding not in seen:
            seen.add(finding)
            yield finding
