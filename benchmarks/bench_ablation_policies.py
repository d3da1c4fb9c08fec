"""Ablation: the three content-management policies side by side.

Strict inclusion (Baer–Wang back-invalidation) vs the paper's
non-inclusive baseline vs two-level exclusive caching, at several
L2:L1 capacity ratios.  The paper's §8 argument is that duplication
hurts most when the ratio is small; exclusion removes it, inclusion
doubles down on it.
"""

from repro.cache.hierarchy import Policy, simulate_hierarchy
from repro.ext.inclusion import simulate_strict_inclusion
from repro.runner import write_text_atomic
from repro.study.report import render_table
from repro.traces.store import get_trace
from repro.units import kb


def test_ablation_inclusion_policies(benchmark, bench_scale, output_dir):
    # Strict inclusion replays only the L1 miss streams, but the table
    # stays at the scale its shape is gated at in tier-1
    # (tests/test_ext_inclusion.py::TestPolicySpectrum).
    scale = min(bench_scale, 0.2)

    def run():
        trace = get_trace("gcc1", scale)
        rows = []
        for l1_kb, l2_kb in ((8, 16), (8, 32), (8, 64), (8, 128)):
            strict = simulate_strict_inclusion(trace, kb(l1_kb), kb(l2_kb))
            baseline = simulate_hierarchy(
                trace, kb(l1_kb), kb(l2_kb), 4, Policy.CONVENTIONAL
            )
            exclusive = simulate_hierarchy(
                trace, kb(l1_kb), kb(l2_kb), 4, Policy.EXCLUSIVE
            )
            rows.append(
                (
                    f"{l1_kb}:{l2_kb}",
                    strict.l1_miss_rate,
                    baseline.l1_miss_rate,
                    strict.global_miss_rate,
                    baseline.global_miss_rate,
                    exclusive.global_miss_rate,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_table(
        (
            "config",
            "strict_l1_mr",
            "baseline_l1_mr",
            "strict_offchip",
            "baseline_offchip",
            "exclusive_offchip",
        ),
        rows,
    )
    write_text_atomic(output_dir / "ablation_policies.txt", text + "\n")
    print("\n" + text)
