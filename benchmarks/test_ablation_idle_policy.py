"""Ablation — idle-step control convention (design-choice study).

DESIGN.md calls out the idle-select convention as a load-bearing
modeling choice: a plain FSM decodes idle selects to 0 (our default,
matching the paper's Quartus flow), while a power-aware controller
would hold them (operand isolation). This bench measures the power
cost of the default-zero convention — i.e. how much power the paper's
future-work controller could save — and verifies function is
unaffected.
"""

import pytest

from repro import FlowConfig, benchmark_spec, list_schedule, load_benchmark
from repro.flow import format_table, percent_change, run_flow

from benchmarks.conftest import bench_names, bench_width, write_result


def compare_policies(sa_table):
    names = [n for n in bench_names() if n in ("pr", "wang", "honda")] or (
        list(bench_names())[:2]
    )
    rows = []
    savings = []
    for name in names:
        spec = benchmark_spec(name)
        schedule = list_schedule(load_benchmark(name), spec.constraints)
        results = {}
        for policy in ("zero", "hold"):
            config = FlowConfig(
                width=bench_width(), n_vectors=128,
                sa_table=sa_table, idle_selects=policy,
            )
            results[policy] = run_flow(
                schedule, spec.constraints, "hlpower", config
            )
        delta = percent_change(
            results["zero"].power.dynamic_power_mw,
            results["hold"].power.dynamic_power_mw,
        )
        savings.append(delta)
        rows.append(
            [
                name,
                f"{results['zero'].power.dynamic_power_mw:.2f}",
                f"{results['hold'].power.dynamic_power_mw:.2f}",
                f"{delta:+.1f}",
            ]
        )
    return rows, savings


@pytest.mark.slow
def test_ablation_idle_policy(sa_table):
    rows, savings = compare_policies(sa_table)
    text = format_table(
        ["Bench", "Default-0 (mW)", "Hold (mW)", "Change %"],
        rows,
        title=(
            "Ablation: idle control convention — holding selects "
            "(operand isolation) vs plain FSM decode-to-zero"
        ),
    )
    write_result("ablation_idle_policy.txt", text)

    # Operand isolation can only help (it removes spurious FU input
    # changes); require it helps on average.
    assert sum(savings) / len(savings) < 0.0
