"""Checker registry: rule metadata plus select/ignore resolution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from ..errors import LintError
from .finding import FileContext

__all__ = [
    "Rule",
    "Violation",
    "checker",
    "all_rules",
    "resolve_rules",
    "get_rule",
]

#: What a checker yields: (line, col, message), both 1-based.
Violation = Tuple[int, int, str]

CheckFn = Callable[[FileContext], Iterator[Violation]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    ``check`` inspects one AST at a time; it is None for the meta-rule
    the engine implements itself (REP000 suppression hygiene).
    """

    rule_id: str
    name: str
    severity: str
    rationale: str
    check: Optional[CheckFn] = field(default=None, repr=False)


_REGISTRY: Dict[str, Rule] = {}


def _register(rule: Rule) -> None:
    if rule.rule_id in _REGISTRY:
        raise LintError(f"duplicate lint rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule


def checker(
    rule_id: str, name: str, rationale: str, severity: str = "error"
) -> Callable[[CheckFn], CheckFn]:
    """Decorator registering a checker function as a lint rule."""

    def decorate(fn: CheckFn) -> CheckFn:
        _register(Rule(rule_id, name, severity, rationale, check=fn))
        return fn

    return decorate


# The engine's own meta-rule: suppression comments must name a known
# rule, carry a non-empty reason, and actually mask a finding.
_register(
    Rule(
        "REP000",
        "suppressions",
        "error",
        "An inline suppression that names no known rule, gives no reason, "
        "or masks nothing is a stale exemption waiting to hide a real bug.",
    )
)


def _load_builtin_rules() -> None:
    # Imported for their registration side effects; late import breaks
    # the registry <-> rules module cycle.
    from . import rules  # noqa: F401


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, ordered by id."""
    _load_builtin_rules()
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError(f"unknown lint rule {rule_id!r}") from None


def _normalise(spec: Optional[Iterable[str]]) -> Optional[Tuple[str, ...]]:
    if spec is None:
        return None
    ids = tuple(item.strip().upper() for item in spec if item.strip())
    return ids or None


def resolve_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[Rule, ...]:
    """The active rule set for a run, validating the filters.

    ``select`` keeps only the named rules; ``ignore`` then removes
    rules.  Unknown ids in either filter raise :class:`LintError` —
    a typo in a filter must not silently disable nothing.
    """
    rules = all_rules()
    known = {rule.rule_id for rule in rules}
    selected = _normalise(select)
    ignored = _normalise(ignore)
    for spec in (selected, ignored):
        for rule_id in spec or ():
            if rule_id not in known:
                raise LintError(
                    f"unknown lint rule {rule_id!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
    if selected is not None:
        rules = tuple(rule for rule in rules if rule.rule_id in selected)
    if ignored is not None:
        rules = tuple(rule for rule in rules if rule.rule_id not in ignored)
    return rules
