"""Experiment registry: one runnable experiment per paper exhibit.

Every table and figure in the paper's evaluation maps to a registered
:class:`~repro.study.registry.Experiment` that recomputes its series
from the library and renders them as text tables shaped like the
original plot (config label, area in rbe, TPI in ns, …).

>>> from repro.study import get_experiment, experiment_ids
>>> "fig5" in experiment_ids()
True
>>> result = get_experiment("fig1").run(scale=0.05)  # doctest: +SKIP
>>> print(result.render())                            # doctest: +SKIP
"""

from .registry import (
    Experiment,
    ExperimentResult,
    Series,
    experiment_ids,
    get_experiment,
    run_experiment,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "Series",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
]
