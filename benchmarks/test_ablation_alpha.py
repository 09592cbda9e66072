"""Ablation — the alpha weighting coefficient of Equation (4).

The paper reports alpha = 1 (SA only) yielding -6.5% power / -5.1%
area, and alpha = 0.5 yielding -19.3% / -9.1%, i.e. the combination of
SA and muxDiff beats either extreme. This bench sweeps alpha over
{0, 0.25, 0.5, 0.75, 1} on a subset of benchmarks and reports the
power/area/balance trade-off curve.
"""

import statistics

import pytest

from repro import FlowConfig, benchmark_spec, list_schedule, load_benchmark
from repro.binding import assign_ports, bind_registers
from repro.flow import format_table, percent_change, run_flow

from benchmarks.conftest import bench_names, bench_vectors, bench_width, write_result

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def sweep_alpha(sa_table):
    names = [n for n in bench_names() if n in ("pr", "wang", "honda", "mcm")]
    if not names:
        names = list(bench_names())[:2]
    width = bench_width()
    vectors = max(64, bench_vectors() // 2)
    baselines = {}
    sweeps = {alpha: {} for alpha in ALPHAS}
    for name in names:
        spec = benchmark_spec(name)
        schedule = list_schedule(load_benchmark(name), spec.constraints)
        registers = bind_registers(schedule)
        ports = assign_ports(schedule.cdfg)
        config = FlowConfig(width=width, n_vectors=vectors, sa_table=sa_table)
        baselines[name] = run_flow(
            schedule, spec.constraints, "lopass", config, registers, ports
        )
        for alpha in ALPHAS:
            config = FlowConfig(
                width=width, n_vectors=vectors, alpha=alpha,
                sa_table=sa_table,
            )
            sweeps[alpha][name] = run_flow(
                schedule, spec.constraints, "hlpower", config,
                registers, ports,
            )
    return names, baselines, sweeps


@pytest.mark.slow
def test_ablation_alpha(sa_table):
    names, baselines, sweeps = sweep_alpha(sa_table)
    rows = []
    balance_by_alpha = {}
    power_by_alpha = {}
    for alpha in ALPHAS:
        d_power = statistics.mean(
            percent_change(
                baselines[n].power.dynamic_power_mw,
                sweeps[alpha][n].power.dynamic_power_mw,
            )
            for n in names
        )
        d_area = statistics.mean(
            percent_change(
                baselines[n].area_luts, sweeps[alpha][n].area_luts
            )
            for n in names
        )
        balance = statistics.mean(
            sweeps[alpha][n].muxes.mux_diff_mean for n in names
        )
        balance_by_alpha[alpha] = balance
        power_by_alpha[alpha] = d_power
        rows.append(
            [f"{alpha:.2f}", f"{d_power:+.2f}", f"{d_area:+.2f}",
             f"{balance:.2f}"]
        )
    text = format_table(
        ["alpha", "dPower% vs LOPASS", "dArea%", "muxDiff mean"],
        rows,
        title=(
            "Ablation: alpha sweep (paper: a=1 -> -6.5% power, "
            "a=0.5 -> -19.3%)"
        ),
    )
    write_result("ablation_alpha.txt", text)

    # The muxDiff term must do its job: balance improves as alpha
    # decreases from 1 toward 0 (monotone within noise).
    assert balance_by_alpha[0.0] <= balance_by_alpha[1.0] + 0.3
    # Every alpha produces a valid flow with measurable power.
    for alpha in ALPHAS:
        for name in names:
            assert sweeps[alpha][name].power.dynamic_power_mw > 0
