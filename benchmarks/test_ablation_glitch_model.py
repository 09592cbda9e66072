"""Ablation — glitch-aware vs zero-delay switching-activity estimation.

The paper's core premise: glitches are a major, *estimable* component
of dynamic activity ("glitches can account for up to 19% of the total
power", and much more of the dynamic part). This bench quantifies, on
the actual partial datapaths the binder scores, how much activity the
unit-delay glitch model sees that a zero-delay model misses — and
checks the estimator's glitch fraction against the glitch fraction the
exact simulation measures on full designs.
"""

from repro import FlowConfig, benchmark_spec, list_schedule, load_benchmark
from repro.activity import estimate_switching_activity
from repro.flow import format_table, run_flow
from repro.netlist.library import build_partial_datapath
from repro.netlist.transform import clean

from benchmarks.conftest import bench_names, bench_width, write_result


def partial_datapath_deltas():
    rows = []
    for fu_class in ("add", "mult"):
        for sizes in ((1, 1), (3, 3), (6, 6), (2, 8)):
            netlist = build_partial_datapath(fu_class, *sizes, 4)
            clean(netlist)
            aware = estimate_switching_activity(netlist, glitch_aware=True)
            blind = estimate_switching_activity(netlist, glitch_aware=False)
            rows.append(
                [
                    f"{fu_class}({sizes[0]},{sizes[1]})",
                    f"{blind.total:.1f}",
                    f"{aware.total:.1f}",
                    f"{aware.glitch_fraction:.1%}",
                ]
            )
    return rows


def test_ablation_glitch_model(sa_table):
    rows = partial_datapath_deltas()
    text = format_table(
        ["Partial datapath", "Zero-delay SA", "Glitch-aware SA", "Glitch %"],
        rows,
        title="Ablation: zero-delay vs unit-delay glitch-aware estimation",
    )

    # A simulated cross-check on one small full design.
    name = "pr" if "pr" in bench_names() else bench_names()[0]
    spec = benchmark_spec(name)
    schedule = list_schedule(load_benchmark(name), spec.constraints)
    result = run_flow(
        schedule,
        spec.constraints,
        "hlpower",
        FlowConfig(width=min(6, bench_width()), n_vectors=64,
                   sa_table=sa_table),
    )
    estimated_fraction = result.mapping.glitch_fraction
    text += (
        f"\n\n{name}: estimated glitch fraction of the mapped design: "
        f"{estimated_fraction:.1%} (paper: glitches up to 19% of total "
        f"power, more of dynamic power)"
    )
    write_result("ablation_glitch_model.txt", text)

    # Every structure must show the glitch model seeing extra activity.
    for row in rows:
        assert float(row[2]) > float(row[1])
    # The estimator attributes a substantial share to glitches.
    assert estimated_fraction > 0.10
