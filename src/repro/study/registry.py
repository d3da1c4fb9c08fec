"""Experiment objects, results, and the id → experiment registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from .report import render_table

__all__ = [
    "Series",
    "ExperimentResult",
    "Experiment",
    "register",
    "get_experiment",
    "experiment_ids",
    "run_experiment",
]


@dataclass(frozen=True)
class Series:
    """One plotted line/table of an experiment (e.g. an envelope)."""

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ExperimentError(
                    f"series {self.name!r}: row width {len(row)} != "
                    f"{len(self.columns)} columns"
                )

    def column(self, name: str) -> List[object]:
        """All values of one named column."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise ExperimentError(
                f"series {self.name!r} has no column {name!r}"
            ) from None
        return [row[index] for row in self.rows]


@dataclass(frozen=True)
class ExperimentResult:
    """All series recomputed for one paper exhibit."""

    experiment_id: str
    title: str
    series: Tuple[Series, ...]
    notes: str = ""

    def get_series(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        known = ", ".join(s.name for s in self.series)
        raise ExperimentError(f"no series {name!r}; available: {known}")

    def render(self) -> str:
        """Human-readable text rendition of every series."""
        blocks = [f"== {self.experiment_id}: {self.title} =="]
        if self.notes:
            blocks.append(self.notes)
        for series in self.series:
            blocks.append(f"-- {series.name} --")
            blocks.append(render_table(series.columns, series.rows))
        return "\n".join(blocks)


@dataclass(frozen=True)
class Experiment:
    """A registered, re-runnable reproduction of one table/figure."""

    experiment_id: str
    title: str
    paper_reference: str
    runner: Callable[[Optional[float]], ExperimentResult] = field(repr=False)

    def run(self, scale: Optional[float] = None) -> ExperimentResult:
        """Recompute the exhibit; ``scale`` is the trace scale (if used)."""
        return self.runner(scale)


_REGISTRY: Dict[str, Experiment] = {}


def register(
    experiment_id: str,
    title: str,
    paper_reference: str,
) -> Callable[[Callable[[Optional[float]], ExperimentResult]], Experiment]:
    """Decorator registering a runner function as an experiment."""

    def wrap(runner: Callable[[Optional[float]], ExperimentResult]) -> Experiment:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"duplicate experiment id {experiment_id!r}")
        experiment = Experiment(
            experiment_id=experiment_id,
            title=title,
            paper_reference=paper_reference,
            runner=runner,
        )
        _REGISTRY[experiment_id] = experiment
        return experiment

    return wrap


def _register_exhibits() -> None:
    # Importing the experiment modules registers them, once per process.
    from . import experiments  # noqa: F401


def experiment_ids() -> List[str]:
    """All registered ids, sorted naturally (fig2 before fig10)."""
    _register_exhibits()

    def natural(eid: str) -> Tuple[str, int]:
        prefix = eid.rstrip("0123456789")
        digits = eid[len(prefix):]
        return (prefix, int(digits) if digits else -1)

    return sorted(_REGISTRY, key=natural)


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (e.g. ``"fig5"``, ``"table1"``)."""
    _register_exhibits()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(experiment_ids())}"
        ) from None


def run_experiment(
    experiment_id: str, scale: Optional[float] = None
) -> ExperimentResult:
    """Convenience wrapper: look up and run in one call."""
    return get_experiment(experiment_id).run(scale)
