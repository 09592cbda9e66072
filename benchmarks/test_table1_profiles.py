"""Table 1 — Benchmark Profiles.

Regenerates the paper's benchmark profile table from our synthetic
CDFGs and asserts the published PI/PO/add/mult counts are matched
exactly (the edge count uses our binary-op convention; see
EXPERIMENTS.md).
"""

from repro import benchmark_spec, load_benchmark
from repro.flow import format_table

from benchmarks.conftest import bench_names, write_result


def build_table1_rows():
    rows = []
    for name in bench_names():
        spec = benchmark_spec(name)
        cdfg = load_benchmark(name)
        rows.append(
            [
                name,
                len(cdfg.primary_inputs),
                len(cdfg.primary_outputs),
                cdfg.num_operations("add"),
                cdfg.num_operations("mult"),
                cdfg.num_edges(),
                spec.paper_edges,
            ]
        )
    return rows


def test_table1_profiles():
    rows = build_table1_rows()
    text = format_table(
        ["Bench", "PIs", "POs", "Adds", "Mults", "Edges", "Paper edges"],
        rows,
        title="Table 1: Benchmark Profiles (ours vs paper)",
    )
    write_result("table1.txt", text)

    for row in rows:
        spec = benchmark_spec(row[0])
        assert row[1] == spec.profile.n_inputs
        assert row[2] == spec.profile.n_outputs
        assert row[3] == spec.profile.n_adds
        assert row[4] == spec.profile.n_mults
        assert abs(row[5] - row[6]) <= 0.35 * row[6]
