"""Ablation (extension) — port-assignment optimization.

The paper binds operator ports randomly; its reference [2] (Chen &
Cong, ASP-DAC'04) optimizes port orientation of commutative operations
for multiplexer reduction. This bench measures how much of HLPower's
remaining mux cost the cited optimization recovers on top of the
paper's flow.
"""

import statistics

from repro.flow import format_table, percent_change
from repro.binding import optimize_ports
from repro.rtl import mux_report

from benchmarks.conftest import bench_names, write_result


def run_portopt(suite):
    rows = []
    length_gains = []
    for name in bench_names():
        solution = suite.of(name, "hlpower_a05").solution
        before = mux_report(solution)
        optimized, flips = optimize_ports(solution)
        after = mux_report(optimized)
        gain = percent_change(before.fu_mux_length, after.fu_mux_length)
        length_gains.append(gain)
        rows.append(
            [
                name,
                flips,
                f"{before.fu_mux_length}->{after.fu_mux_length}",
                f"{gain:+.1f}",
                f"{before.mux_diff_mean:.2f}->{after.mux_diff_mean:.2f}",
                f"{before.largest_mux}->{after.largest_mux}",
            ]
        )
    return rows, length_gains


def test_ablation_portopt(suite):
    rows, gains = run_portopt(suite)
    text = format_table(
        ["Bench", "Flips", "FU mux length", "dLen%", "muxDiff mean",
         "largest"],
        rows,
        title=(
            "Extension: port-assignment optimization [2] applied after "
            "HLPower (paper binds ports randomly)"
        ),
    )
    write_result("ablation_portopt.txt", text)

    # The pass is monotone by construction; it must help on average.
    assert statistics.mean(gains) <= 0.0
    assert all(g <= 1e-9 for g in gains)
