"""The qualitative shape of every exhibit, one table row each.

A row is ``(id, build, check)``: ``build`` regenerates the data behind
one paper exhibit (a registered figure or table) or one ablation around
the paper's fixed choices, and ``check`` asserts the shape the paper
reports or the ablation establishes.  Rows run at ``MEDIUM`` scale, so
traces and L1 miss streams are shared in-process with
``test_paper_claims_more.py``.  Below ``MEDIUM`` some shapes are noise:
at scale 0.05 fig5 and the fig23 floor fail, at 0.02 also the fig17 3x
penalty, the replacement ablation and the line-size sweep.

The rendered series themselves come from ``repro report --ids …``;
per-exhibit wall time from ``repro report --telemetry`` and
``repro spans``.
"""

from functools import lru_cache, partial

import pytest

from conftest import MEDIUM
from repro.cache.hierarchy import Policy, simulate_hierarchy
from repro.core.config import SystemConfig
from repro.core.evaluate import evaluate
from repro.ext.banking import evaluate_banked
from repro.ext.l3 import evaluate_with_board_cache
from repro.ext.multicycle import evaluate_multicycle
from repro.ext.multiprogramming import multiprogramming_study
from repro.ext.nonblocking import evaluate_non_blocking
from repro.ext.stream_buffer import simulate_stream_buffer
from repro.ext.victim import simulate_victim_cache
from repro.ext.writes import count_write_traffic, evaluate_with_writes
from repro.power.energy import optimal_access_energy
from repro.power.system import energy_per_instruction
from repro.study import run_experiment
from repro.study.sensitivity import (
    line_size_sensitivity,
    off_chip_sensitivity,
    warmup_sensitivity,
)
from repro.traces.store import get_trace
from repro.units import kb

#: Exhibits that simulate no trace and take no scale.
SCALE_FREE = {"fig1", "fig2", "fig21"}


@lru_cache(maxsize=None)
def exhibit(experiment_id):
    scale = None if experiment_id in SCALE_FREE else MEDIUM
    return run_experiment(experiment_id, scale=scale)


def is_staircase(tpis):
    return tpis == sorted(tpis, reverse=True)


def staircases(result):
    """Envelope and single-level series (clouds are not monotone)."""
    return [s for s in result.series if "best" in s.name or "1-level" in s.name]


# -- the paper's exhibits ----------------------------------------------


def check_fig1(result):
    cycles = result.get_series("L1 pair timing (0.5um)").column("cycle_ns")
    # Monotone growth, roughly 2x spread over the range.
    assert cycles == sorted(cycles)
    assert 1.6 <= cycles[-1] / cycles[0] <= 2.6


def check_fig2(result):
    series = result.get_series("L2 timing with 4KB L1 (4-way)")
    # Quantisation never rounds down, and the paper's example penalty
    # (2x2)+1 = 5 cycles appears for the 64 KB L2.
    raw = series.column("cycle_ns")
    assert all(q >= r - 1e-9 for q, r in zip(series.column("quantised_cycle_ns"), raw))
    by_size = dict(zip(series.column("l2_size"), series.column("l2_cycles")))
    assert by_size["64K"] == 2


def check_fig3(result):
    for series in result.series:
        tpis = series.column("tpi_ns")
        assert len(tpis) == 9
        assert tpis[0] > min(tpis)  # larger is not always better


def check_fig4(result):
    # Every workload has an interior minimum between 8K and 128K.
    for series in result.series:
        tpis = series.column("tpi_ns")
        best_label = series.column("config")[tpis.index(min(tpis))]
        assert 8 <= int(best_label.split(":")[0]) <= 128, series.name


def check_fig5(result):
    cloud = result.get_series("gcc1 all configs")
    env_tpis = result.get_series("gcc1 best 2-level config").column("tpi_ns")
    assert len(cloud.rows) == 45  # the paper's full configuration set
    assert is_staircase(env_tpis)
    assert min(env_tpis) == min(cloud.column("tpi_ns"))
    # Two-level eventually wins at the right edge.
    assert env_tpis[-1] < result.get_series("gcc1 1-level only").column("tpi_ns")[-1]


def check_baseline_envelopes(result):
    assert len(result.series) == 4  # two workloads x (best + 1-level)
    for series in result.series:
        tpis = series.column("tpi_ns")
        assert is_staircase(tpis)
        assert all(t > 0 for t in tpis)


def check_fig9(result):
    assert len(result.get_series("gcc1 all configs").rows) == 45
    assert is_staircase(result.get_series("gcc1 best 2-level config").column("tpi_ns"))


def check_dual_ported(workload, result):
    dual = result.get_series(f"{workload} 1-level dual ported")
    best = result.get_series(f"{workload} best 2-level config")
    for series in (result.get_series(f"{workload} 1-level base system"), dual, best):
        assert is_staircase(series.column("tpi_ns"))
    # The two-level dual-ported envelope contains the single-level
    # dual-ported configs, so it reaches at least as low.
    assert min(best.column("tpi_ns")) <= min(dual.column("tpi_ns")) + 1e-9


def check_staircases(result):
    for series in staircases(result):
        assert is_staircase(series.column("tpi_ns"))


def check_fig17_penalty(result):
    cloud = result.get_series("gcc1 all configs")
    by_label = dict(zip(cloud.column("config"), cloud.column("tpi_ns")))
    # At 200 ns the 1:0 machine is dramatically slower than 32:256.
    assert by_label["1:0"] > 3 * by_label["32:256"]


def check_fig21(result):
    rows = {(r[0], r[1]): r for r in result.series[0].rows}
    conv_a = rows[("(a) L2 conflict (A,E)", "conventional")]
    excl_a = rows[("(a) L2 conflict (A,E)", "exclusive")]
    # Conventional thrashes off-chip on every reference; exclusive
    # services everything on-chip via swaps.
    assert conv_a[5] == conv_a[2]  # off_chip == data_refs
    assert excl_a[5] == 0
    for policy in ("conventional", "exclusive"):
        assert rows[("(b) L1-only conflict (A,B)", policy)][5] == 0


def check_fig23_floor(result):
    # The §8 improvement in compact form: the exclusive 4-way envelope
    # reaches below the single-level staircase.
    envelope = result.get_series("gcc1 best 2-level config")
    singles = result.get_series("gcc1 1-level only")
    assert min(envelope.column("tpi_ns")) < min(singles.column("tpi_ns"))


def check_table1(result):
    series = result.series[0]
    assert len(series.rows) == 7
    # Data-per-instruction ratios track the paper's Table 1.
    for synth, paper in zip(
        series.column("synth_data_ratio"), series.column("paper_data_ratio")
    ):
        assert abs(synth - paper) < 0.05


_DUAL_PORTED = {
    "fig10": "gcc1",
    "fig11": "espresso",
    "fig12": "doduc",
    "fig13": "fpppp",
    "fig14": "li",
    "fig15": "eqntott",
    "fig16": "tomcatv",
}

EXHIBIT_ROWS = [
    ("fig1", "fig1", check_fig1),
    ("fig2", "fig2", check_fig2),
    ("fig3", "fig3", check_fig3),
    ("fig4", "fig4", check_fig4),
    ("fig5", "fig5", check_fig5),
    *((f, f, check_baseline_envelopes) for f in ("fig6", "fig7", "fig8")),
    ("fig9", "fig9", check_fig9),
    *((f, f, partial(check_dual_ported, w)) for f, w in _DUAL_PORTED.items()),
    *((f, f, check_staircases) for f in ("fig17", "fig18", "fig19", "fig20")),
    ("fig17-penalty-3x", "fig17", check_fig17_penalty),
    ("fig21", "fig21", check_fig21),
    *((f, f, check_staircases) for f in ("fig22", "fig23", "fig24", "fig25", "fig26")),
    ("fig23-floor", "fig23", check_fig23_floor),
    ("table1", "table1", check_table1),
]

# -- ablations around the paper's fixed choices -----------------------


def multicycle_gains():
    """§10 conjecture 1: (workload, 2-level gain, multicycle 2-level gain)."""
    single, two = SystemConfig(l1_bytes=kb(64)), SystemConfig(l1_bytes=kb(8), l2_bytes=kb(128))
    rows = []
    for workload in ("gcc1", "tomcatv", "espresso"):
        base_gain = (
            evaluate(single, workload, scale=MEDIUM).tpi_ns
            / evaluate(two, workload, scale=MEDIUM).tpi_ns
        )
        multi_gain = (
            evaluate_multicycle(single, workload, scale=MEDIUM).tpi_ns
            / evaluate_multicycle(two, workload, scale=MEDIUM).tpi_ns
        )
        rows.append((workload, base_gain, multi_gain))
    return rows


def check_multicycle(rows):
    # Multicycle L1s shrink the two-level gain.
    for _, base_gain, multi_gain in rows:
        assert multi_gain < base_gain


def non_blocking_gains():
    """§10 conjecture 2: the 2:32-over-2:0 gain at each load overlap."""
    single, two = SystemConfig(l1_bytes=kb(2)), SystemConfig(l1_bytes=kb(2), l2_bytes=kb(32))
    return [
        evaluate_non_blocking(single, "gcc1", overlap=overlap, scale=MEDIUM).tpi_ns
        / evaluate_non_blocking(two, "gcc1", overlap=overlap, scale=MEDIUM).tpi_ns
        for overlap in (0.0, 0.3, 0.6, 0.9)
    ]


def check_non_blocking(gains):
    assert all(gain > 1.0 for gain in gains)


def multiprogramming_inflation():
    """espresso+li interleaved: interference factor by (quantum, config)."""
    inflation = {}
    for quantum in (2_000, 20_000, 100_000):
        for l2_kb in (0, 64, 256):
            result = multiprogramming_study(
                "espresso", "li", kb(8), kb(l2_kb) if l2_kb else 0,
                quantum_instructions=quantum, scale=MEDIUM,
            )
            inflation[(quantum, f"8:{l2_kb}")] = result.interference_factor
    return inflation


def check_multiprogramming(inflation):
    # Finer quanta interfere at least as much as coarse ones, and a
    # 256 KB L2 absorbs interference better than none.
    assert inflation[(2_000, "8:0")] >= inflation[(100_000, "8:0")] - 0.05
    assert inflation[(2_000, "8:256")] <= inflation[(2_000, "8:0")] + 0.05


def stream_buffer_hit_rates():
    return {
        workload: simulate_stream_buffer(
            workload, kb(4), n_buffers=4, buffer_depth=4, scale=MEDIUM
        ).buffer_hit_rate
        for workload in ("fpppp", "gcc1", "eqntott")
    }


def check_stream_buffers(hit_rates):
    # Sequential code (fpppp) gains most; branchy tables (eqntott) least.
    assert hit_rates["fpppp"] > hit_rates["eqntott"]


def board_cache_tpis():
    config = SystemConfig(l1_bytes=kb(8), l2_bytes=kb(64))
    return [
        evaluate_with_board_cache(config, "gcc1", l3_bytes=kb(l3_kb), scale=MEDIUM).tpi_ns
        for l3_kb in (256, 1024, 4096)
    ]


def check_board_cache(tpis):
    assert is_staircase(tpis)  # a bigger L3 never hurts


def bandwidth_organisations():
    """(tpi_ns, area_rbe) of single-issue, banked x4 and dual-ported 8:64."""
    config = SystemConfig(l1_bytes=kb(8), l2_bytes=kb(64))
    return {
        name: (perf.tpi_ns, perf.area_rbe)
        for name, perf in (
            ("single-issue", evaluate(config, "gcc1", scale=MEDIUM)),
            ("banked x4", evaluate_banked(config, "gcc1", n_banks=4, scale=MEDIUM)),
            ("dual-ported", evaluate(config.dual_ported(), "gcc1", scale=MEDIUM)),
        )
    }


def check_banking(by_name):
    # Banking sits between single-issue and dual-ported on both axes.
    single, banked, dual = by_name["single-issue"], by_name["banked x4"], by_name["dual-ported"]
    assert dual[0] < banked[0] < single[0]
    assert single[1] < banked[1] < dual[1]


def replacement_rows():
    """(lfsr L2 miss rate, lru L2 miss rate, random penalty %) per 4:x."""
    trace = get_trace("gcc1", MEDIUM)
    rows = []
    for l2_kb in (16, 32, 64, 128, 256):
        lfsr = simulate_hierarchy(trace, kb(4), kb(l2_kb), 4, l2_replacement="lfsr")
        lru = simulate_hierarchy(trace, kb(4), kb(l2_kb), 4, l2_replacement="lru")
        penalty = (lfsr.l2_misses / lru.l2_misses - 1.0) * 100.0 if lru.l2_misses else 0.0
        rows.append((lfsr.l2_local_miss_rate, lru.l2_local_miss_rate, penalty))
    return rows


def check_replacement(rows):
    # Random replacement never beats LRU, and its penalty is bounded.
    for lfsr_mr, lru_mr, penalty in rows:
        assert lfsr_mr >= lru_mr - 1e-9
        assert penalty < 60.0


def check_off_chip_sweep(series):
    # The two-level advantage at the big budget grows with latency.
    big = [r for r in series.rows if r[1] == 2e6]
    assert big[-1][4] >= big[0][4] - 1.0


def check_line_size_sweep(series):
    rates = series.column("l1_miss_rate")
    assert is_staircase(rates)  # spatial prefetch helps


def check_warmup_sweep(series):
    rates = series.column("global_miss_rate")
    assert rates[0] >= rates[-1] - 1e-6  # cold misses only inflate


def victim_rates():
    """Off-chip miss rates: plain 8K L1s, then each buffer or tiny L2."""
    trace = get_trace("gcc1", MEDIUM)
    rates = [simulate_hierarchy(trace, kb(8)).global_miss_rate]
    for lines in (4, 16, 64, 128):
        rates.append(simulate_victim_cache(trace, kb(8), victim_lines=lines).miss_rate_below)
        if lines * 16 >= 1024:  # smallest valid L2 geometry here
            rates.append(
                simulate_hierarchy(trace, kb(8), lines * 16, 1, Policy.EXCLUSIVE).global_miss_rate
            )
    return rates


def check_victim(rates):
    for rate in rates[1:]:
        assert rate <= rates[0] + 1e-9, "any buffer must not add misses"


def writeback_overheads():
    return [
        evaluate_with_writes(config, "gcc1", scale=MEDIUM).writeback_overhead * 100.0
        for config in (
            SystemConfig(l1_bytes=kb(8)),
            SystemConfig(l1_bytes=kb(8), l2_bytes=kb(64)),
            SystemConfig(l1_bytes=kb(8), l2_bytes=kb(64), policy=Policy.EXCLUSIVE),
            SystemConfig(l1_bytes=kb(32), l2_bytes=kb(256)),
        )
    ]


def check_writeback_overheads(overheads):
    # The writes-as-reads abstraction holds: the overhead stays small.
    assert all(overhead < 10.0 for overhead in overheads)


def exclusive_direct_writebacks():
    return [
        count_write_traffic(
            "gcc1", kb(8), kb(l2_kb), 4, Policy.EXCLUSIVE, scale=MEDIUM
        ).l1_writebacks_offchip
        for l2_kb in (32, 128)
    ]


def check_exclusive_direct_writebacks(counts):
    # Exclusion writes every victim into the L2: nothing bypasses it.
    assert counts == [0] * len(counts)


def access_energies():
    return [optimal_access_energy(kb(k)).total for k in (1, 2, 4, 8, 16, 32, 64, 128, 256)]


def check_access_energies(energies):
    assert energies == sorted(energies)


def power_ratios():
    """Single-level over two-level energy per instruction, near-equal area."""
    pairs = [
        (SystemConfig(l1_bytes=kb(64)), SystemConfig(l1_bytes=kb(8), l2_bytes=kb(128))),
        (SystemConfig(l1_bytes=kb(128)), SystemConfig(l1_bytes=kb(16), l2_bytes=kb(256))),
    ]
    return [
        energy_per_instruction(single, workload, scale=MEDIUM).epi_pj
        / energy_per_instruction(two, workload, scale=MEDIUM).epi_pj
        for single, two in pairs
        for workload in ("gcc1", "li")
    ]


def check_power_ratios(ratios):
    assert all(ratio > 1.0 for ratio in ratios), "two-level must use less energy"


ABLATION_ROWS = [
    ("future-work-multicycle", multicycle_gains, check_multicycle),
    ("future-work-non-blocking", non_blocking_gains, check_non_blocking),
    ("multiprogramming", multiprogramming_inflation, check_multiprogramming),
    ("stream-buffers", stream_buffer_hit_rates, check_stream_buffers),
    ("board-cache", board_cache_tpis, check_board_cache),
    ("banked-vs-dual-ported", bandwidth_organisations, check_banking),
    ("l2-replacement", replacement_rows, check_replacement),
    (
        "sensitivity-off-chip",
        partial(
            off_chip_sensitivity,
            "gcc1",
            area_budgets_rbe=[5e5, 2e6],
            off_chip_values_ns=(25.0, 50.0, 100.0, 200.0, 400.0),
            scale=MEDIUM,
        ),
        check_off_chip_sweep,
    ),
    (
        "sensitivity-line-size",
        partial(
            line_size_sensitivity,
            "gcc1",
            SystemConfig(l1_bytes=kb(8), l2_bytes=kb(64)),
            line_sizes=(16, 32, 64),
            scale=MEDIUM,
        ),
        check_line_size_sweep,
    ),
    (
        "sensitivity-warmup",
        partial(warmup_sensitivity, "gcc1", kb(16), kb(128), scale=MEDIUM),
        check_warmup_sweep,
    ),
    ("victim-vs-exclusive-tiny-l2", victim_rates, check_victim),
    ("writeback-tpi-overhead", writeback_overheads, check_writeback_overheads),
    ("exclusive-write-traffic", exclusive_direct_writebacks, check_exclusive_direct_writebacks),
    ("power-access-energy", access_energies, check_access_energies),
    ("power-two-level-less-energy", power_ratios, check_power_ratios),
]

ROWS = [
    (row_id, partial(exhibit, experiment_id), check)
    for row_id, experiment_id, check in EXHIBIT_ROWS
] + ABLATION_ROWS


@pytest.mark.parametrize(
    "build, check", [pytest.param(build, check, id=row_id) for row_id, build, check in ROWS]
)
def test_exhibit_shape(build, check):
    check(build())
