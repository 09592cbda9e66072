"""Pins of the sweep grid's shape: cell order and record layouts.

The grid axes are rows of the knob table (:mod:`repro.flow.knobs`).
These tests freeze, byte for byte, what the axes drive: the
:func:`expand_grid` cell order (full flow, estimate flow, design
cells), the key order of a cell record, of a serve cell payload and of
an aggregate record, and the stored JSON of a real sweep. Each
expected value is a literal, so any reordering shows here.
"""

import os
from dataclasses import asdict

import pytest

from repro.flow.batch import SweepResult, run_sweep
from repro.flow.grid import SweepSpec, expand_grid
from repro.serve.api import cell_payload

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

#: Every axis at two values, the first of each not its default.
FULL = dict(
    benchmarks=["pr"], binders=("hlpower",), alphas=(0.25, 0.75),
    widths=(4, 8), map_efforts=("exhaustive", "fast"),
    idle_modes=("hold", "zero"), jitters=(1, 0), vector_seeds=(9, 7),
    baseline="none",
)


def cell_order(spec):
    """``benchmark config width map_effort idle_selects delay_jitter
    vector_seed design`` per expanded job, in order."""
    return [
        f"{j.benchmark} {j.config.label} {j.width} {j.map_effort} "
        f"{j.idle_selects} {j.delay_jitter} {j.vector_seed} {j.design}"
        for j in expand_grid(spec)
    ]


FULL_ORDER = [
    "pr hlpower_a0.25 4 exhaustive hold 1 9 None",
    "pr hlpower_a0.25 4 exhaustive hold 1 7 None",
    "pr hlpower_a0.25 4 exhaustive hold 0 9 None",
    "pr hlpower_a0.25 4 exhaustive hold 0 7 None",
    "pr hlpower_a0.25 4 exhaustive zero 1 9 None",
    "pr hlpower_a0.25 4 exhaustive zero 1 7 None",
    "pr hlpower_a0.25 4 exhaustive zero 0 9 None",
    "pr hlpower_a0.25 4 exhaustive zero 0 7 None",
    "pr hlpower_a0.25 4 fast hold 1 9 None",
    "pr hlpower_a0.25 4 fast hold 1 7 None",
    "pr hlpower_a0.25 4 fast hold 0 9 None",
    "pr hlpower_a0.25 4 fast hold 0 7 None",
    "pr hlpower_a0.25 4 fast zero 1 9 None",
    "pr hlpower_a0.25 4 fast zero 1 7 None",
    "pr hlpower_a0.25 4 fast zero 0 9 None",
    "pr hlpower_a0.25 4 fast zero 0 7 None",
    "pr hlpower_a0.25 8 exhaustive hold 1 9 None",
    "pr hlpower_a0.25 8 exhaustive hold 1 7 None",
    "pr hlpower_a0.25 8 exhaustive hold 0 9 None",
    "pr hlpower_a0.25 8 exhaustive hold 0 7 None",
    "pr hlpower_a0.25 8 exhaustive zero 1 9 None",
    "pr hlpower_a0.25 8 exhaustive zero 1 7 None",
    "pr hlpower_a0.25 8 exhaustive zero 0 9 None",
    "pr hlpower_a0.25 8 exhaustive zero 0 7 None",
    "pr hlpower_a0.25 8 fast hold 1 9 None",
    "pr hlpower_a0.25 8 fast hold 1 7 None",
    "pr hlpower_a0.25 8 fast hold 0 9 None",
    "pr hlpower_a0.25 8 fast hold 0 7 None",
    "pr hlpower_a0.25 8 fast zero 1 9 None",
    "pr hlpower_a0.25 8 fast zero 1 7 None",
    "pr hlpower_a0.25 8 fast zero 0 9 None",
    "pr hlpower_a0.25 8 fast zero 0 7 None",
    "pr hlpower_a0.75 4 exhaustive hold 1 9 None",
    "pr hlpower_a0.75 4 exhaustive hold 1 7 None",
    "pr hlpower_a0.75 4 exhaustive hold 0 9 None",
    "pr hlpower_a0.75 4 exhaustive hold 0 7 None",
    "pr hlpower_a0.75 4 exhaustive zero 1 9 None",
    "pr hlpower_a0.75 4 exhaustive zero 1 7 None",
    "pr hlpower_a0.75 4 exhaustive zero 0 9 None",
    "pr hlpower_a0.75 4 exhaustive zero 0 7 None",
    "pr hlpower_a0.75 4 fast hold 1 9 None",
    "pr hlpower_a0.75 4 fast hold 1 7 None",
    "pr hlpower_a0.75 4 fast hold 0 9 None",
    "pr hlpower_a0.75 4 fast hold 0 7 None",
    "pr hlpower_a0.75 4 fast zero 1 9 None",
    "pr hlpower_a0.75 4 fast zero 1 7 None",
    "pr hlpower_a0.75 4 fast zero 0 9 None",
    "pr hlpower_a0.75 4 fast zero 0 7 None",
    "pr hlpower_a0.75 8 exhaustive hold 1 9 None",
    "pr hlpower_a0.75 8 exhaustive hold 1 7 None",
    "pr hlpower_a0.75 8 exhaustive hold 0 9 None",
    "pr hlpower_a0.75 8 exhaustive hold 0 7 None",
    "pr hlpower_a0.75 8 exhaustive zero 1 9 None",
    "pr hlpower_a0.75 8 exhaustive zero 1 7 None",
    "pr hlpower_a0.75 8 exhaustive zero 0 9 None",
    "pr hlpower_a0.75 8 exhaustive zero 0 7 None",
    "pr hlpower_a0.75 8 fast hold 1 9 None",
    "pr hlpower_a0.75 8 fast hold 1 7 None",
    "pr hlpower_a0.75 8 fast hold 0 9 None",
    "pr hlpower_a0.75 8 fast hold 0 7 None",
    "pr hlpower_a0.75 8 fast zero 1 9 None",
    "pr hlpower_a0.75 8 fast zero 1 7 None",
    "pr hlpower_a0.75 8 fast zero 0 9 None",
    "pr hlpower_a0.75 8 fast zero 0 7 None",
]

ESTIMATE_ORDER = [
    "pr hlpower_a0.25 4 exhaustive hold 1 9 None",
    "pr hlpower_a0.25 4 fast hold 1 9 None",
    "pr hlpower_a0.25 8 exhaustive hold 1 9 None",
    "pr hlpower_a0.25 8 fast hold 1 9 None",
    "pr hlpower_a0.75 4 exhaustive hold 1 9 None",
    "pr hlpower_a0.75 4 fast hold 1 9 None",
    "pr hlpower_a0.75 8 exhaustive hold 1 9 None",
    "pr hlpower_a0.75 8 fast hold 1 9 None",
]


class TestCellOrder:
    def test_full_flow(self):
        assert cell_order(SweepSpec(**FULL)) == FULL_ORDER

    def test_estimate_flow_collapses_simulation_axes(self):
        assert cell_order(SweepSpec(**FULL, flow="estimate")) == \
            ESTIMATE_ORDER

    def test_design_cells_follow_the_benchmarks(self):
        with open(os.path.join(EXAMPLES, "mac4.json")) as handle:
            text = handle.read()
        spec = SweepSpec(**FULL, flow="estimate",
                         designs={"mac4": text, "amac": text})
        assert cell_order(spec) == ESTIMATE_ORDER + [
            "design:amac ingest 0 exhaustive hold 1 9 amac",
            "design:amac ingest 0 fast hold 1 9 amac",
            "design:mac4 ingest 0 exhaustive hold 1 9 mac4",
            "design:mac4 ingest 0 fast hold 1 9 mac4",
        ]


@pytest.fixture(scope="module")
def sweep32():
    """pr x lopass x 2 widths x 2 efforts x 2 idle modes x 2 jitters x
    2 seeds: 32 real cells."""
    return run_sweep(SweepSpec(
        benchmarks=["pr"], binders=("lopass",), widths=(4, 8),
        map_efforts=("fast", "exhaustive"), idle_modes=("zero", "hold"),
        jitters=(0, 1), vector_seeds=(7, 8), n_vectors=16,
    ))


class TestRecordLayout:
    def test_cell_record_keys(self, sweep32):
        assert len(sweep32.cells) == 32
        assert list(asdict(sweep32.cells[0])) == [
            "benchmark", "config", "binder", "alpha", "width",
            "vector_seed", "metrics", "runtime_s", "schedule_cache_hit",
            "sa_new_entries", "idle_selects", "delay_jitter", "map_effort",
            "stage_timings", "cache_hits", "sim_batch", "sim_batch_s",
        ]

    def test_cell_keys(self, sweep32):
        assert [cell.key for cell in sweep32.cells[:3]] == [
            ("pr", "lopass", 4, 7, "zero", 0, "event", "fast", "fast",
             "fast"),
            ("pr", "lopass", 4, 8, "zero", 0, "event", "fast", "fast",
             "fast"),
            ("pr", "lopass", 4, 7, "zero", 1, "event", "fast", "fast",
             "fast"),
        ]

    def test_cell_payload_keys(self, sweep32):
        assert list(cell_payload(sweep32.cells[0])) == [
            "benchmark", "config", "binder", "alpha", "width",
            "vector_seed", "idle_selects", "delay_jitter", "map_effort",
            "metrics", "runtime_s", "cache_hits",
        ]

    def test_aggregate_record_keys(self, sweep32):
        aggregates = sweep32.aggregates()
        assert len(aggregates) == 16
        assert list(aggregates[0]) == [
            "benchmark", "config", "width", "idle_selects", "delay_jitter",
            "map_effort", "n_seeds", "area_luts", "largest_mux",
            "clock_period_ns", "runtime_s", "power_mean_mw",
            "power_stdev_mw", "toggle_rate_mean_mhz",
            "toggle_rate_stdev_mhz", "d_power_vs_baseline_pct",
        ]

    def test_json_round_trip_is_byte_identical(self, sweep32):
        text = sweep32.to_json()
        assert SweepResult.from_json(text).to_json() == text
