"""Ablations — beta scaling and simulator delay spread.

Two smaller design-choice studies DESIGN.md calls out:

* **beta**: Equation (4)'s per-class scale factor ("beta ~= 30 for add
  operations, and 1000 for mult", calibrated to the authors' SA
  magnitudes). We sweep beta for the mult class and check the binder
  stays valid and the balance trend responds.
* **delay jitter**: the measurement simulator's per-gate delay spread
  (0 = the paper's pure unit-delay model; >0 models routed-delay
  spread). Functional results must be invariant; transition counts may
  only grow.
"""

import pytest

from repro import FlowConfig, benchmark_spec, list_schedule, load_benchmark
from repro.binding import HLPowerConfig, bind_hlpower
from repro.flow import format_table, run_flow
from repro.rtl import mux_report

from benchmarks.conftest import bench_names, bench_width, write_result


def sweep_beta(sa_table):
    name = "mcm" if "mcm" in bench_names() else bench_names()[0]
    spec = benchmark_spec(name)
    schedule = list_schedule(load_benchmark(name), spec.constraints)
    rows = []
    for beta_mult in (30.0, 100.0, 1000.0, 10000.0):
        solution = bind_hlpower(
            schedule,
            spec.constraints,
            config=HLPowerConfig(
                alpha=0.5,
                beta={"add": 30.0, "mult": beta_mult},
                sa_table=sa_table,
            ),
        )
        solution.validate()
        report = mux_report(solution)
        rows.append(
            [
                f"{beta_mult:.0f}",
                f"{report.mux_diff_mean:.2f}",
                f"{report.mux_diff_variance:.2f}",
                report.mux_length,
            ]
        )
    return name, rows


def test_ablation_beta(sa_table):
    name, rows = sweep_beta(sa_table)
    text = format_table(
        ["beta(mult)", "muxDiff mean", "variance", "mux length"],
        rows,
        title=f"Ablation: beta sweep for the mult class on {name}",
    )
    write_result("ablation_beta.txt", text)
    assert len(rows) == 4


def compare_jitter(sa_table):
    name = "pr" if "pr" in bench_names() else bench_names()[0]
    spec = benchmark_spec(name)
    schedule = list_schedule(load_benchmark(name), spec.constraints)
    rows = []
    toggles = {}
    for jitter in (0, 2, 4):
        config = FlowConfig(
            width=min(6, bench_width()), n_vectors=96,
            sa_table=sa_table, delay_jitter=jitter,
        )
        result = run_flow(schedule, spec.constraints, "hlpower", config)
        toggles[jitter] = result.simulation.comb_toggles
        rows.append(
            [
                jitter,
                result.simulation.comb_toggles,
                f"{result.power.dynamic_power_mw:.2f}",
            ]
        )
    return name, rows, toggles


@pytest.mark.slow
def test_ablation_delay_jitter(sa_table):
    name, rows, toggles = compare_jitter(sa_table)
    text = format_table(
        ["delay jitter", "comb toggles", "dynamic power (mW)"],
        rows,
        title=(
            f"Ablation: per-gate delay spread on {name} "
            "(0 = paper's unit-delay model)"
        ),
    )
    write_result("ablation_delay_jitter.txt", text)

    # Functional check is inside run_flow (check_function=True), so
    # reaching here means outputs matched under every jitter. Delay
    # spread should not reduce transitions materially.
    assert toggles[4] >= toggles[0] * 0.9
