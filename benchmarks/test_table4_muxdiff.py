"""Table 4 — muxDiff mean and variance across allocated resources.

The paper shows LOPASS -> HLPower(alpha=1) -> HLPower(alpha=0.5)
progressively shrinking both the mean and the variance of the
difference between each FU's two input multiplexer sizes (averages
3.9/13.8 -> 3.2/8.3 -> 2.6/6.2), i.e. the muxDiff term in Equation (4)
actively balances multiplexers.
"""

import statistics

from repro.flow import format_table

from benchmarks.conftest import CONFIGS, bench_names, write_result


def build_table4_rows(suite):
    rows = []
    means = {config: [] for config in CONFIGS}
    variances = {config: [] for config in CONFIGS}
    for name in bench_names():
        row = [name]
        for config in CONFIGS:
            report = suite.of(name, config).muxes
            row.append(
                f"{report.mux_diff_mean:.1f}/{report.mux_diff_variance:.1f}"
            )
            means[config].append(report.mux_diff_mean)
            variances[config].append(report.mux_diff_variance)
        row.append(suite.of(name, "hlpower_a05").muxes.n_fus)
        rows.append(row)
    average = ["average"]
    for config in CONFIGS:
        average.append(
            f"{statistics.mean(means[config]):.1f}"
            f"/{statistics.mean(variances[config]):.1f}"
        )
    average.append("")
    rows.append(average)
    return rows, means, variances


def test_table4_muxdiff(suite):
    rows, means, variances = build_table4_rows(suite)
    text = format_table(
        [
            "Bench", "LOPASS m/v", "HL a=1 m/v", "HL a=0.5 m/v", "# muxes",
        ],
        rows,
        title=(
            "Table 4: muxDiff mean/variance — paper averages: "
            "LOPASS 3.9/13.8, HL a=1 3.2/8.3, HL a=0.5 2.6/6.2"
        ),
    )
    write_result("table4.txt", text)

    mean_lo = statistics.mean(means["lopass"])
    mean_a1 = statistics.mean(means["hlpower_a1"])
    mean_a05 = statistics.mean(means["hlpower_a05"])
    var_lo = statistics.mean(variances["lopass"])
    var_a05 = statistics.mean(variances["hlpower_a05"])
    # The paper's trend on the average: HLPower's muxDiff term improves
    # balance over LOPASS. Strict on the full suite, tolerant on
    # subsets (per-benchmark numbers are noisy; the paper's own Table 4
    # has wang/pr moving against the trend at alpha=0.5).
    if len(bench_names()) == 7:
        assert mean_a05 <= mean_lo
        assert mean_a05 <= mean_a1 + 0.25
        assert var_a05 <= var_lo + 1e-9
    else:
        assert mean_a05 <= mean_lo + 0.75
        assert var_a05 <= var_lo + 2.0
