"""Table 2 — Resource constraints, schedule length, registers, runtime.

Regenerates the paper's Table 2 on our substrate: the schedule length
produced by list scheduling under the published constraints, the
register allocation from lifetime analysis, and the measured HLPower
binding runtime (paper ran a 2.8 GHz Pentium 4; we report our own).
The committed ``results/table2.txt`` keeps only the deterministic
columns; the measured runtimes are printed.
"""

import time

from repro import benchmark_spec, list_schedule, load_benchmark
from repro.binding import HLPowerConfig, bind_hlpower, bind_registers
from repro.flow import format_table

from benchmarks.conftest import bench_names, write_result


def build_table2_rows(sa_table):
    rows = []
    for name in bench_names():
        spec = benchmark_spec(name)
        schedule = list_schedule(load_benchmark(name), spec.constraints)
        registers = bind_registers(schedule)
        started = time.perf_counter()
        solution = bind_hlpower(
            schedule,
            spec.constraints,
            registers,
            config=HLPowerConfig(sa_table=sa_table),
        )
        runtime = time.perf_counter() - started
        rows.append(
            [
                name,
                spec.add_units,
                spec.mult_units,
                schedule.length,
                spec.paper_cycles,
                registers.n_registers,
                spec.paper_registers,
                f"{runtime:.2f}",
                f"{spec.paper_runtime_s:.0f}",
            ]
        )
        assert solution.fus.constraint_met
    return rows


def test_table2_schedule(sa_table):
    rows = build_table2_rows(sa_table)
    text = format_table(
        [
            "Bench", "Add", "Mult", "Cycle", "Paper cyc",
            "Reg", "Paper reg", "Paper rt(s)",
        ],
        [row[:7] + row[8:] for row in rows],
        title="Table 2: Constraints, schedule length, registers, runtime",
    )
    write_result("table2.txt", text)
    print(format_table(["Bench", "Runtime(s)"],
                       [[row[0], row[7]] for row in rows],
                       title="Measured HLPower binding runtime"))

    for row in rows:
        name = row[0]
        spec = benchmark_spec(name)
        # Schedule length must match the paper exactly (the generator
        # is parameterized to Table 2's shape).
        assert row[3] == spec.paper_cycles, name
        # Register counts are substrate-dependent; same order of
        # magnitude as the paper's.
        assert 0.25 * spec.paper_registers <= row[5] <= 2.0 * spec.paper_registers
        # Our binder is dramatically faster than 2009 hardware; just
        # sanity-bound the runtime.
        assert float(row[7]) < 120.0
