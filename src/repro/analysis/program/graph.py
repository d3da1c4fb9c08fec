"""Pass 2 of whole-program analysis: linking summaries into a Program.

The linker joins per-file :class:`~repro.analysis.program.summary.ModuleSummary`
objects into a project symbol table (modules, classes, functions,
import aliases with re-export chasing) and a conservative call graph.
"Conservative" means resolution never invents an edge it cannot
justify, and never *drops* a call it cannot resolve: a dynamic callee
(``getattr`` dispatch, a call on a call result, an attribute of a local
variable) is kept as an explicit ``unknown`` target so downstream rules
can tell "resolved safe" apart from "could not resolve".

Everything in here is plain data (frozen dataclasses, dicts, tuples),
and the taint helpers below are pure functions over it.
"""

from __future__ import annotations

import builtins
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .summary import CallSite, ModuleSummary, RaiseSite, SinkSite

__all__ = [
    "Resolution",
    "ResolvedCall",
    "ResolvedRaise",
    "FunctionNode",
    "ClassNode",
    "Program",
    "link_program",
    "propagate_to_callers",
    "reachable_from",
]

#: (kind, target): kind is one of "function", "class", "module",
#: "external", "unknown"; target is the internal id, the
#: external dotted name, or None for unknown.
Resolution = Tuple[str, Optional[str]]

_BUILTIN_NAMES = frozenset(dir(builtins))
_MAX_ALIAS_DEPTH = 16

_REPRO_ERROR_MODULE = "repro.errors"
_REPRO_ERROR_CLASS = "ReproError"


@dataclass(frozen=True)
class ResolvedCall:
    """One call-graph edge candidate after resolution."""

    line: int
    col: int
    kind: str  # "call" | "ref" | "bridge"
    raw: Optional[str]
    target_kind: str  # Resolution kind
    target: Optional[str]


@dataclass(frozen=True)
class ResolvedRaise:
    """One ``raise`` with its exception class resolved."""

    line: int
    col: int
    name: str
    target_kind: str  # "class" | "external" | "unknown"
    target: Optional[str]


@dataclass(frozen=True)
class FunctionNode:
    """One function in the linked program."""

    fid: str
    module: str
    qualname: str
    name: str
    path: str
    line: int
    col: int
    is_async: bool
    owner_class: Optional[str]  # cid of the lexically enclosing class
    decorators: Tuple[str, ...] = ()
    sinks: Tuple[SinkSite, ...] = ()  # direct blocking calls
    calls: Tuple[ResolvedCall, ...] = ()
    raises: Tuple[ResolvedRaise, ...] = ()

    @property
    def display(self) -> str:
        return f"{self.module}.{self.qualname}"


@dataclass(frozen=True)
class ClassNode:
    """One class in the linked program."""

    cid: str
    module: str
    qualname: str
    name: str
    path: str
    line: int
    base_ids: Tuple[str, ...] = ()  # internal bases (cids)
    external_bases: Tuple[str, ...] = ()  # unresolved/external base names
    methods: Tuple[Tuple[str, str], ...] = ()  # (bare name, fid)
    attr_types: Tuple[Tuple[str, str], ...] = ()  # (attr, cid)


@dataclass
class Program:
    """The linked whole-program view the program rules consume."""

    modules: Dict[str, ModuleSummary] = field(default_factory=dict)
    by_path: Dict[str, ModuleSummary] = field(default_factory=dict)
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    #: Reverse call edges: callee fid -> ((caller fid, edge), ...).
    callers: Dict[str, Tuple[Tuple[str, ResolvedCall], ...]] = field(
        default_factory=dict
    )
    #: Per-module symbol tables (name -> Resolution-ish).
    symbols: Dict[str, Dict[str, Tuple[str, str]]] = field(default_factory=dict)

    # -- resolution helpers (shared with the rules) -------------------

    def resolve_absolute(self, dotted: str, _depth: int = 0) -> Resolution:
        """Resolve an absolute dotted path, chasing re-exports."""
        if _depth > _MAX_ALIAS_DEPTH:
            return ("unknown", None)
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            module = ".".join(parts[:i])
            if module in self.modules:
                break
        else:
            return ("external", dotted)
        rest = parts[i:]
        if not rest:
            return ("module", module)
        return self._resolve_members(module, rest, _depth)

    def _resolve_members(
        self, module: str, rest: Sequence[str], depth: int
    ) -> Resolution:
        symbols = self.symbols.get(module, {})
        head, tail = rest[0], list(rest[1:])
        entry = symbols.get(head)
        if entry is None:
            return ("unknown", None)
        kind, value = entry
        if kind == "alias":
            return self.resolve_absolute(".".join([value] + tail), depth + 1)
        if kind == "function":
            return (kind, value) if not tail else ("unknown", None)
        if kind == "class":
            if not tail:
                return ("class", value)
            if len(tail) == 1:
                fid = self.lookup_method(value, tail[0])
                return ("function", fid) if fid else ("unknown", None)
            return ("unknown", None)
        return ("unknown", None)

    def resolve_in_module(self, module: str, raw: Optional[str]) -> Resolution:
        """Resolve a raw dotted name in a module's top-level scope."""
        if raw is None:
            return ("unknown", None)
        parts = raw.split(".")
        head, tail = parts[0], parts[1:]
        symbols = self.symbols.get(module, {})
        entry = symbols.get(head)
        if entry is not None:
            kind, value = entry
            if kind == "alias":
                return self.resolve_absolute(".".join([value] + tail))
            return self._resolve_members(module, parts, 0)
        if head in _BUILTIN_NAMES:
            return ("external", raw)
        return ("unknown", None)  # a local value, or an attribute chain on one

    def resolve_in_function(
        self, fn: FunctionNode, raw: Optional[str]
    ) -> Resolution:
        """Resolve a raw dotted name as seen from inside a function."""
        if raw is None:
            return ("unknown", None)
        parts = raw.split(".")
        head, tail = parts[0], parts[1:]
        if head in ("self", "cls") and fn.owner_class:
            return self._resolve_self(fn.owner_class, tail)
        if not tail:
            # A bare name may be a function nested in an enclosing scope.
            scopes = fn.qualname.split(".<locals>.")
            for i in range(len(scopes), 0, -1):
                scope = ".<locals>.".join(scopes[:i])
                candidate = f"{fn.module}:{scope}.<locals>.{head}"
                if candidate in self.functions:
                    return ("function", candidate)
        return self.resolve_in_module(fn.module, raw)

    def _resolve_self(self, cid: str, tail: Sequence[str]) -> Resolution:
        if len(tail) == 1:
            fid = self.lookup_method(cid, tail[0])
            return ("function", fid) if fid else ("unknown", None)
        if len(tail) == 2:
            attr, method = tail
            node = self.classes.get(cid)
            attr_cid = dict(node.attr_types).get(attr) if node else None
            if attr_cid is None:
                return ("unknown", None)
            fid = self.lookup_method(attr_cid, method)
            return ("function", fid) if fid else ("unknown", None)
        return ("unknown", None)

    def lookup_method(self, cid: str, name: str) -> Optional[str]:
        """Find ``name`` on the class or its internal bases (MRO-ish)."""
        seen: Set[str] = set()
        queue = deque([cid])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            node = self.classes.get(current)
            if node is None:
                continue
            table = dict(node.methods)
            if name in table:
                return table[name]
            queue.extend(node.base_ids)
        return None

    # -- exception hierarchy helpers (REP009) -------------------------

    def is_repro_error(self, cid: str) -> bool:
        """True when the class derives (internally) from ReproError."""
        seen: Set[str] = set()
        queue = deque([cid])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            node = self.classes.get(current)
            if node is None:
                continue
            if (
                node.module == _REPRO_ERROR_MODULE
                and node.name == _REPRO_ERROR_CLASS
            ):
                return True
            queue.extend(node.base_ids)
        return False

    def external_exception_roots(self, cid: str) -> Tuple[str, ...]:
        """External base names reachable from a class, sorted."""
        roots: Set[str] = set()
        seen: Set[str] = set()
        queue = deque([cid])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            node = self.classes.get(current)
            if node is None:
                continue
            roots.update(node.external_bases)
            queue.extend(node.base_ids)
        return tuple(sorted(roots))


def link_program(summaries: Iterable[ModuleSummary]) -> Program:
    """Join per-file summaries into one linked :class:`Program`."""
    program = Program()
    for summary in sorted(summaries, key=lambda s: s.path):
        module = summary.module
        if module in program.modules:
            # Two files mapping to the same module name (e.g. two
            # standalone scripts both called ``demo.py``): re-key the
            # later one by path so neither silently shadows the other.
            module = summary.path
            summary = ModuleSummary(
                module=module,
                path=summary.path,
                is_package=summary.is_package,
                aliases=summary.aliases,
                functions=summary.functions,
                classes=summary.classes,
                suppressions=summary.suppressions,
            )
        program.modules[module] = summary
        program.by_path[summary.path] = summary

    # Symbol tables: local definitions shadow imports.
    for module, summary in program.modules.items():
        table: Dict[str, Tuple[str, str]] = {}
        for local, target in summary.aliases:
            table[local] = ("alias", target)
        for cls in summary.classes:
            if "." not in cls.qualname:
                table[cls.name] = ("class", f"{module}:{cls.qualname}")
        for fn in summary.functions:
            if "." not in fn.qualname:
                table[fn.name] = ("function", f"{module}:{fn.qualname}")
        program.symbols[module] = table

    # Class nodes: bases and attribute types need the symbol tables.
    for module, summary in program.modules.items():
        for cls in summary.classes:
            cid = f"{module}:{cls.qualname}"
            base_ids: List[str] = []
            external: List[str] = []
            for base in cls.bases:
                kind, target = program.resolve_in_module(module, base)
                if kind == "class" and target is not None:
                    base_ids.append(target)
                else:
                    external.append(base)
            methods = tuple(
                (name, f"{module}:{cls.qualname}.{name}")
                for name in cls.methods
            )
            program.classes[cid] = ClassNode(
                cid=cid,
                module=module,
                qualname=cls.qualname,
                name=cls.name,
                path=summary.path,
                line=cls.line,
                base_ids=tuple(base_ids),
                external_bases=tuple(external),
                methods=methods,
                attr_types=(),  # filled below, after all classes exist
            )

    # Attribute types: ``self.x = SomeClass(...)`` — resolved now that
    # every class id exists.  ``SomeClass.factory(...)`` falls back to
    # the head class (classmethod-constructor heuristic).
    for module, summary in program.modules.items():
        for cls in summary.classes:
            cid = f"{module}:{cls.qualname}"
            resolved: List[Tuple[str, str]] = []
            for attr, target in cls.attr_types:
                kind, value = program.resolve_in_module(module, target)
                if kind != "class" and "." in target:
                    kind, value = program.resolve_in_module(
                        module, target.split(".")[0]
                    )
                if kind == "class" and value is not None:
                    resolved.append((attr, value))
            node = program.classes[cid]
            program.classes[cid] = ClassNode(
                cid=node.cid,
                module=node.module,
                qualname=node.qualname,
                name=node.name,
                path=node.path,
                line=node.line,
                base_ids=node.base_ids,
                external_bases=node.external_bases,
                methods=node.methods,
                attr_types=tuple(resolved),
            )

    # Function nodes first (resolution of bare names needs them all).
    for module, summary in program.modules.items():
        for fn in summary.functions:
            fid = f"{module}:{fn.qualname}"
            owner = f"{module}:{fn.owner_class}" if fn.owner_class else None
            program.functions[fid] = FunctionNode(
                fid=fid,
                module=module,
                qualname=fn.qualname,
                name=fn.name,
                path=summary.path,
                line=fn.line,
                col=fn.col,
                is_async=fn.is_async,
                owner_class=owner,
                decorators=fn.decorators,
                sinks=fn.sinks,
            )

    # Now resolve each function's calls and raises.
    reverse: Dict[str, List[Tuple[str, ResolvedCall]]] = {}
    for module, summary in program.modules.items():
        for fn in summary.functions:
            fid = f"{module}:{fn.qualname}"
            node = program.functions[fid]
            calls = tuple(
                _resolve_call(program, node, site) for site in fn.calls
            )
            raises = tuple(
                _resolve_raise(program, node, site) for site in fn.raises
            )
            program.functions[fid] = FunctionNode(
                fid=node.fid,
                module=node.module,
                qualname=node.qualname,
                name=node.name,
                path=node.path,
                line=node.line,
                col=node.col,
                is_async=node.is_async,
                owner_class=node.owner_class,
                decorators=node.decorators,
                sinks=node.sinks,
                calls=calls,
                raises=raises,
            )
            for call in calls:
                if call.target_kind == "function" and call.target is not None:
                    reverse.setdefault(call.target, []).append((fid, call))
    program.callers = {
        callee: tuple(sorted(edges, key=lambda e: (e[0], e[1].line, e[1].col)))
        for callee, edges in reverse.items()
    }
    return program


def _resolve_call(
    program: Program, fn: FunctionNode, site: CallSite
) -> ResolvedCall:
    kind, target = program.resolve_in_function(fn, site.name)
    return ResolvedCall(
        line=site.line,
        col=site.col,
        kind=site.kind,
        raw=site.name,
        target_kind=kind,
        target=target,
    )


def _resolve_raise(
    program: Program, fn: FunctionNode, site: RaiseSite
) -> ResolvedRaise:
    kind, target = program.resolve_in_function(fn, site.name)
    if kind not in ("class", "external"):
        kind, target = "unknown", None
    return ResolvedRaise(
        line=site.line, col=site.col, name=site.name, target_kind=kind,
        target=target,
    )


def propagate_to_callers(
    program: Program,
    seeds: Mapping[str, str],
    *,
    edge_kinds: Tuple[str, ...] = ("call",),
    through: Optional[Callable[[FunctionNode], bool]] = None,
) -> Dict[str, Tuple[str, ...]]:
    """Fixpoint taint: which functions (transitively) reach a seed.

    ``seeds`` maps function id -> sink description.  Taint flows from a
    callee to its callers over edges of the given kinds, but only when
    ``through(callee)`` holds — e.g. REP007 stops at async callees.
    Returns, for every
    tainted function, a shortest witness chain ending in the seed's
    description; BFS over sorted frontiers keeps chains deterministic.
    """
    tainted: Dict[str, Tuple[str, ...]] = {
        fid: (desc,) for fid, desc in sorted(seeds.items())
    }
    queue = deque(sorted(seeds))
    while queue:
        callee = queue.popleft()
        callee_node = program.functions.get(callee)
        if callee_node is None:
            continue
        if through is not None and not through(callee_node):
            continue
        for caller, call in program.callers.get(callee, ()):
            if call.kind not in edge_kinds or caller in tainted:
                continue
            tainted[caller] = (callee_node.display,) + tainted[callee]
            queue.append(caller)
    return tainted


def reachable_from(
    program: Program,
    roots: Iterable[str],
    *,
    edge_kinds: Tuple[str, ...] = ("call", "ref", "bridge"),
) -> Dict[str, Tuple[str, ...]]:
    """Forward reachability with witness chains from the nearest root."""
    chains: Dict[str, Tuple[str, ...]] = {}
    queue: "deque[str]" = deque()
    for fid in sorted(roots):
        node = program.functions.get(fid)
        if node is None:
            continue
        chains[fid] = (node.display,)
        queue.append(fid)
    while queue:
        fid = queue.popleft()
        node = program.functions[fid]
        for call in node.calls:
            if call.kind not in edge_kinds:
                continue
            if call.target_kind != "function" or call.target is None:
                continue
            if call.target in chains or call.target not in program.functions:
                continue
            target = program.functions[call.target]
            chains[call.target] = chains[fid] + (target.display,)
            queue.append(call.target)
    return chains
