"""One module per figure/table group of the paper (see DESIGN.md §4).

Importing this package registers every exhibit; the registry does so on
the first lookup (:func:`repro.study.registry.experiment_ids`).
"""

from . import (  # noqa: F401
    dual_ported,
    exclusion_demo,
    exclusive,
    extensions,
    long_offchip,
    single_level,
    table1,
    timing_figures,
    two_level_baseline,
)
