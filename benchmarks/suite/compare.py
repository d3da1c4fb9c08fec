"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/suite/compare.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are each a results document written by
``run.py`` (``benchmarks/output/suite/*.json``) or a directory of them.
Every document contributes one value per (workload, metric): its
median over its rounds.  Both sides pool the same kind of value, so
their spreads are comparable; a side of one document has no spread.

For every (workload, end-to-end metric) it prints one verdict:

* ``worse``      the median moved the wrong way by more than the bound;
* ``better``     it moved the right way by more than the bound;
* ``unchanged``  neither;
* ``unresolved`` the run-to-run spread (inter-quartile range over the
  median) of either side exceeds the bound, unless every AFTER value
  beats every BEFORE value (``better``), or every AFTER value is worse
  than every BEFORE value and the median moved by more than the bound
  (``worse``).

Per-layer metrics have no bound and are listed with their change only.
Exits 1 if any metric is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from stats import relative_spread

SUITE = Path(__file__).resolve().parent


def load_side(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one median per results document of the side."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no results documents under {path}")
    pooled: Dict[Tuple[str, str], List[float]] = {}
    for file in files:
        for workload, result in json.loads(file.read_text())["workloads"].items():
            for metric, entry in result["metrics"].items():
                pooled.setdefault((workload, metric), []).append(entry["value"])
    return pooled


def verdict(before: List[float], after: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (statistics.median(before) - statistics.median(after)) / statistics.median(before)
    if max(relative_spread(before), relative_spread(after)) > bound:
        if all(sign * (b - a) > 0 for a in after for b in before):
            return "better"
        if gain < -bound and all(sign * (a - b) > 0 for a in after for b in before):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())
    bounds = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    before, after = load_side(args.before), load_side(args.after)
    failing = 0
    for key in sorted(set(before) & set(after)):
        workload, metric = key
        a, b = before[key], after[key]
        base = statistics.median(a)
        change = (statistics.median(b) - base) / base if base else float("nan")
        spread = max(relative_spread(a), relative_spread(b))
        spec = bounds.get(metric)
        if spec is None:
            result = "info"
        else:
            result = verdict(a, b, spec["better"], spec["bound"])
            failing += result in ("worse", "unresolved")
        print(
            f"{workload:<16} {metric:<26} {base:>12.5g} -> "
            f"{statistics.median(b):<12.5g} {change:+7.1%}  spread {spread:5.1%}  {result}"
        )
    for key in sorted(set(before) ^ set(after)):
        print(f"{key[0]:<16} {key[1]:<26} only in {'BEFORE' if key in before else 'AFTER'}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
