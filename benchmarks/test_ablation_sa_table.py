"""Ablation — precalculated SA table vs dynamic SA estimation.

Section 5.2.2: "Experimental results show that this method [the
precalculated table] provided us with the same results as running the
algorithm with dynamic SA estimation, but with a much shorter run
time." We verify both halves: identical binding solutions, and a large
speedup for the (warm) table. The committed
``results/ablation_sa_table.txt`` keeps only the deterministic
columns; the timings are printed.
"""

import time

import pytest

from repro import benchmark_spec, list_schedule, load_benchmark
from repro.binding import (
    HLPowerConfig,
    SATable,
    assign_ports,
    bind_hlpower,
    bind_registers,
)
from repro.binding.sa_table import SATableConfig
from repro.flow import format_table

from benchmarks.conftest import bench_names, write_result


class DynamicSATable(SATable):
    """An SA 'table' that never caches — every lookup re-estimates."""

    def get(self, fu_class, mux_a, mux_b):
        key = self.normalize(fu_class, mux_a, mux_b)
        return self._estimate(key)


def compare_modes(sa_table):
    names = [n for n in bench_names() if n in ("pr", "wang")] or list(
        bench_names()
    )[:1]
    rows = []
    all_identical = True
    speedups = []
    for name in names:
        spec = benchmark_spec(name)
        schedule = list_schedule(load_benchmark(name), spec.constraints)
        registers = bind_registers(schedule)
        ports = assign_ports(schedule.cdfg)

        started = time.perf_counter()
        cached = bind_hlpower(
            schedule, spec.constraints, registers, ports,
            HLPowerConfig(sa_table=sa_table),
        )
        cached_time = time.perf_counter() - started

        dynamic_table = DynamicSATable(sa_table.config)
        started = time.perf_counter()
        dynamic = bind_hlpower(
            schedule, spec.constraints, registers, ports,
            HLPowerConfig(sa_table=dynamic_table),
        )
        dynamic_time = time.perf_counter() - started

        identical = [sorted(u.ops) for u in cached.fus.units] == [
            sorted(u.ops) for u in dynamic.fus.units
        ]
        all_identical &= identical
        speedup = dynamic_time / max(cached_time, 1e-9)
        speedups.append(speedup)
        rows.append(
            [name, identical, f"{cached_time:.3f}", f"{dynamic_time:.3f}",
             f"{speedup:.1f}x"]
        )
    return rows, all_identical, speedups


@pytest.mark.slow
def test_ablation_sa_table(benchmark, sa_table):
    # Warm the table first so the cached run measures lookups only.
    for name in bench_names():
        spec = benchmark_spec(name)
        schedule = list_schedule(load_benchmark(name), spec.constraints)
        bind_hlpower(
            schedule, spec.constraints,
            config=HLPowerConfig(sa_table=sa_table),
        )
    rows, all_identical, speedups = benchmark.pedantic(
        compare_modes, args=(sa_table,), rounds=1, iterations=1
    )
    text = format_table(
        ["Bench", "Identical binding"],
        [row[:2] for row in rows],
        title=(
            "Ablation: precalculated SA table vs dynamic estimation "
            "(paper: identical results, much faster)"
        ),
    )
    write_result("ablation_sa_table.txt", text)
    print(format_table(
        ["Bench", "Table (s)", "Dynamic (s)", "Speedup"],
        [[row[0]] + row[2:] for row in rows],
        title="Measured SA-table vs dynamic binding time",
    ))

    assert all_identical
    assert max(speedups) > 2.0
