"""Table 3 — Power, clock period, LUTs, and multiplexer results.

The paper's headline table: LOPASS vs HLPower (alpha = 0.5), per
benchmark and on average — dynamic power, clock period, LUT count,
largest mux and mux length, with percentage changes.

Paper averages: power -19.28%, clock +0.58%, LUTs -9.11%,
largest mux -2.6 (absolute), mux length -7.2%.

Shape assertions (see EXPERIMENTS.md for the magnitude discussion):
HLPower must win power and area on the benchmark average and must
reduce the average largest mux.
"""

import statistics

from repro.flow import format_table, percent_change

from benchmarks.conftest import bench_names, write_result


def build_table3_rows(suite):
    rows = []
    deltas = {"power": [], "clock": [], "luts": [], "largest": [], "length": []}
    for name in bench_names():
        lo = suite.of(name, "lopass")
        hl = suite.of(name, "hlpower_a05")
        d_power = percent_change(
            lo.power.dynamic_power_mw, hl.power.dynamic_power_mw
        )
        d_clock = percent_change(
            lo.timing.clock_period_ns, hl.timing.clock_period_ns
        )
        d_luts = percent_change(lo.area_luts, hl.area_luts)
        d_largest = hl.muxes.largest_mux - lo.muxes.largest_mux
        d_length = percent_change(lo.muxes.mux_length, hl.muxes.mux_length)
        deltas["power"].append(d_power)
        deltas["clock"].append(d_clock)
        deltas["luts"].append(d_luts)
        deltas["largest"].append(d_largest)
        deltas["length"].append(d_length)
        rows.append(
            [
                name,
                f"{lo.power.dynamic_power_mw:.2f}/{hl.power.dynamic_power_mw:.2f}",
                f"{lo.timing.clock_period_ns:.1f}/{hl.timing.clock_period_ns:.1f}",
                f"{lo.area_luts}/{hl.area_luts}",
                f"{lo.muxes.largest_mux}/{hl.muxes.largest_mux}",
                f"{lo.muxes.mux_length}/{hl.muxes.mux_length}",
                f"{d_power:+.2f}",
                f"{d_clock:+.2f}",
                f"{d_luts:+.2f}",
                f"{d_largest:+d}",
                f"{d_length:+.1f}",
            ]
        )
    averages = {key: statistics.mean(values) for key, values in deltas.items()}
    rows.append(
        [
            "Average",
            "",
            "",
            "",
            "",
            "",
            f"{averages['power']:+.2f}",
            f"{averages['clock']:+.2f}",
            f"{averages['luts']:+.2f}",
            f"{averages['largest']:+.1f}",
            f"{averages['length']:+.1f}",
        ]
    )
    return rows, averages, deltas


def test_table3_power_area(suite):
    rows, averages, deltas = build_table3_rows(suite)
    text = format_table(
        [
            "Bench", "Pow mW L/H", "Clk ns L/H", "LUTs L/H",
            "LrgMux L/H", "MuxLen L/H", "dPow%", "dClk%", "dLUT%",
            "dLrg", "dLen%",
        ],
        rows,
        title=(
            "Table 3: LOPASS vs HLPower (alpha=0.5) — paper averages: "
            "power -19.28%, clock +0.58%, LUTs -9.11%, largest -2.6, "
            "length -7.2%"
        ),
    )
    write_result("table3.txt", text)

    # Shape: HLPower reduces power, area, largest mux and mux length on
    # the benchmark average (the paper's direction). The strict checks
    # apply to the full suite; subsets (REPRO_BENCH_BENCHMARKS) only
    # get the weak direction checks, since per-benchmark results are
    # noisy (the paper's own spread is -1.9% .. -42.8%).
    full_suite = len(bench_names()) == 7
    assert averages["luts"] < 0.0
    assert averages["length"] < 0.0
    # Clock period stays within a few percent either way (paper +0.6%).
    assert abs(averages["clock"]) < 10.0
    if full_suite:
        assert averages["power"] < 0.0
        assert averages["largest"] < 0.0
        # Most benchmarks individually see a power win (paper: all 7).
        wins = sum(1 for d in deltas["power"] if d < 0)
        assert wins >= (len(deltas["power"]) + 1) // 2
    else:
        assert averages["largest"] <= 0.5
