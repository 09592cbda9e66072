"""Table formatting for the reproduction benches.

Small, dependency-free helpers that render the paper-style rows the
benches print (Tables 1-4, Figure 3) and compute the percentage
changes the paper reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.flow.knobs import NESTED_AXES
from repro.flow.pipeline import STAGE_NAMES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flow.batch import SweepResult


def in_stage_order(stages: Iterable[str]) -> List[str]:
    """``stages`` in pipeline order; names the pipeline does not know
    sort after its stages, alphabetically."""
    rank = {stage: index for index, stage in enumerate(STAGE_NAMES)}
    return sorted(stages, key=lambda s: (rank.get(s, len(rank)), s))


def percent_change(before: float, after: float) -> float:
    """Signed percentage change, as in Table 3's "Change" columns."""
    if before == 0:
        return 0.0
    return (after - before) / before * 100.0


def format_change(value: float) -> str:
    """Render a percentage with the paper's sign convention."""
    return f"{value:+.2f}%"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Plain-text aligned table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def render_row(values: Sequence[str]) -> str:
        return "  ".join(
            value.rjust(widths[index]) if index else value.ljust(widths[0])
            for index, value in enumerate(values)
        )

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(render_row(row))
    return "\n".join(lines)


def format_sweep_summary(sweep: "SweepResult") -> str:
    """Aggregate table + execution stats for one sweep.

    One row per aggregate group (every grid axis but the seed).
    Full-flow sweeps show seed-averaged power (with stdev when
    several seeds ran), toggle rate, the seed-invariant area/clock
    numbers, and the power change versus the sweep's baseline binder;
    estimate-only sweeps show the Equation-(3) switching-activity
    estimate and glitch fraction instead. Grid axes held at a single
    value (or collapsed by the estimate flow) are omitted from the
    columns and the title; the axis rows of the knob table declare
    their column and title labels.
    """
    spec = sweep.spec
    estimate = spec.flow == "estimate"
    counts = [(len(spec.axis_values(knob)), knob) for knob in NESTED_AXES]
    columns = [knob for count, knob in counts if count > 1 and knob.column]
    rows = []
    for agg in sweep.aggregates():
        row = [agg["benchmark"], agg["config"]]
        row += [agg[knob.name] for knob in columns]
        if estimate:
            delta = agg["d_sa_vs_baseline_pct"]
            row += [
                f"{agg['sa_mean']:.1f}",
                f"{agg['glitch_fraction'] * 100:.1f}%",
            ]
        else:
            delta = agg["d_power_vs_baseline_pct"]
            power = f"{agg['power_mean_mw']:.2f}"
            if agg["n_seeds"] > 1:
                power += f"±{agg['power_stdev_mw']:.2f}"
            row += [power, f"{agg['toggle_rate_mean_mhz']:.2f}"]
        row += [
            f"{agg['clock_period_ns']:.1f}",
            agg["area_luts"],
            agg["largest_mux"],
            format_change(delta) if delta is not None else "n/a",
        ]
        rows.append(row)
    headers = ["bench", "config"] + [knob.column for knob in columns]
    if estimate:
        headers += ["est SA", "glitch", "clk ns", "LUTs", "lrg mux", "dSA"]
    else:
        headers += ["power mW", "tog MHz", "clk ns", "LUTs", "lrg mux",
                    "dPow"]
    grid = " x ".join(
        [f"{len(spec.benchmarks)} benchmarks",
         f"{len(spec.binder_configs())} configs"]
        + [f"{count} {knob.title}" for count, knob in counts if count > 1]
    )
    flow_tag = "estimate-only, " if estimate else ""
    title = (
        f"Sweep: {len(sweep.cells)} cells ({flow_tag}{grid}), "
        f"jobs={sweep.jobs}, wall {sweep.wall_s:.1f}s"
    )
    stage_total = sweep.stage_cache_hits + sweep.stage_cache_misses
    hit_rate = (
        f" ({100.0 * sweep.stage_cache_hits / stage_total:.0f}% hit rate)"
        if stage_total else ""
    )
    # Collect stats as segments and lines and join once — repeated
    # ``str +=`` re-copies the accumulated summary per append, which
    # goes quadratic on wide sweeps. Bytes are pinned by
    # tests/flow/test_report.py.
    segments = [
        f"elaboration cache: {sweep.schedule_cache_hits} hits / "
        f"{sweep.schedule_cache_misses} misses",
        f"pipeline stages: {sweep.stage_cache_hits} cached / "
        f"{sweep.stage_cache_misses} computed{hit_rate}",
        f"SA table: {sweep.sa_precalc_entries} precalculated, "
        f"{sweep.sa_new_entries} new entries",
    ]
    if sweep.sim_batches:
        segments.append(
            f"batched simulation: {sweep.sim_batched_cells} cells in "
            f"{sweep.sim_batches} kernel passes "
            f"({sweep.sim_batch_wall_s:.1f}s)"
        )
    lines = [
        format_table(headers, rows, title=title),
        "; ".join(segments),
    ]
    totals = sweep.stage_time_totals()
    if totals:
        lines.append("stage wall: " + ", ".join(
            f"{stage} {totals[stage]:.2f}s" for stage in in_stage_order(totals)
        ))
    return "\n".join(lines)
