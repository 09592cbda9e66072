"""Golden regression: the Table 3/4 structural numbers, frozen.

Per benchmark and binder configuration this freezes the binding
metrics the paper's Tables 3 and 4 rest on — total mux length, the
muxDiff sum, and the register count — so engine work (vectorization,
memoization, tie-break changes) cannot silently shift results. The
numbers were recorded from the seed binders; the fast engines must
reproduce them exactly (the differential suite pins fast == reference,
this suite pins the values themselves).

A second concern is tie-break stability: repeated runs of the same
binder on the same inputs must make identical decisions. Both the
vectorized engines and the seed binders (their oracles) are
deterministic by construction (dict insertion order, scipy's
deterministic assignment, networkx's Bland-rule pivots); the repeat
tests turn any future regression into a hard failure instead of a
flaky bench.
"""

import pytest

from repro import BENCHMARK_NAMES, benchmark_spec
from repro.binding import bind_hlpower, bind_lopass
from repro.binding.compile import bind_hlpower_fast, bind_lopass_fast
from repro.binding.hlpower import HLPowerConfig
from repro.cdfg import load_benchmark
from repro.flow.run import prepare_flow_inputs
from repro.rtl.metrics import mux_report
from repro.scheduling import list_schedule

#: benchmark -> config -> (mux_length, muxDiff sum, registers).
#: Regenerate ONLY for a deliberate algorithm change, never to make a
#: red engine PR green.
_GOLDEN = {
    "chem": {
        "lopass": (659, 22, 47),
        "hlpower_a1": (494, 23, 47),
        "hlpower_a05": (578, 6, 47),
    },
    "dir": {
        "lopass": (207, 6, 33),
        "hlpower_a1": (193, 9, 33),
        "hlpower_a05": (199, 6, 33),
    },
    "honda": {
        "lopass": (169, 17, 21),
        "hlpower_a1": (140, 6, 21),
        "hlpower_a05": (148, 3, 21),
    },
    "mcm": {
        "lopass": (141, 10, 18),
        "hlpower_a1": (127, 8, 18),
        "hlpower_a05": (138, 4, 18),
    },
    "pr": {
        "lopass": (78, 5, 13),
        "hlpower_a1": (74, 6, 13),
        "hlpower_a05": (75, 7, 13),
    },
    "steam": {
        "lopass": (410, 20, 29),
        "hlpower_a1": (322, 23, 29),
        "hlpower_a05": (369, 16, 29),
    },
    "wang": {
        "lopass": (89, 6, 13),
        "hlpower_a1": (82, 2, 13),
        "hlpower_a05": (84, 4, 13),
    },
}

#: Tier-1 keeps the fast benchmarks; the rest ride the slow marker.
_SMOKE = ("pr", "wang", "honda", "mcm", "dir")

_ELABORATED = {}


def elaborated(benchmark):
    if benchmark not in _ELABORATED:
        spec = benchmark_spec(benchmark)
        schedule = list_schedule(load_benchmark(benchmark), spec.constraints)
        registers, ports = prepare_flow_inputs(schedule)
        _ELABORATED[benchmark] = (
            schedule, spec.constraints, registers, ports
        )
    return _ELABORATED[benchmark]


def run_config(benchmark, config, sa_table, engine="fast"):
    schedule, limits, registers, ports = elaborated(benchmark)
    if config == "lopass":
        binder = bind_lopass_fast if engine == "fast" else bind_lopass
        return binder(schedule, limits, registers, ports)
    alpha = {"hlpower_a1": 1.0, "hlpower_a05": 0.5}[config]
    hl_cfg = HLPowerConfig(alpha=alpha, sa_table=sa_table)
    binder = bind_hlpower_fast if engine == "fast" else bind_hlpower
    return binder(schedule, limits, registers, ports, hl_cfg)


def golden_of(solution):
    report = mux_report(solution)
    return (
        report.mux_length,
        sum(report.mux_diffs),
        solution.registers.n_registers,
    )


class TestGolden:
    @pytest.mark.parametrize("bench_name", _SMOKE)
    @pytest.mark.parametrize("config", sorted(_GOLDEN["pr"]))
    def test_fast_engine(self, bench_name, config, sa_table):
        solution = run_config(bench_name, config, sa_table)
        assert golden_of(solution) == _GOLDEN[bench_name][config]

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "bench_name", sorted(set(BENCHMARK_NAMES) - set(_SMOKE))
    )
    @pytest.mark.parametrize("config", sorted(_GOLDEN["pr"]))
    def test_fast_engine_large(self, bench_name, config, sa_table):
        solution = run_config(bench_name, config, sa_table)
        assert golden_of(solution) == _GOLDEN[bench_name][config]

    @pytest.mark.slow
    @pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("config", sorted(_GOLDEN["pr"]))
    def test_reference_engine(self, bench_name, config, sa_table):
        solution = run_config(bench_name, config, sa_table, "reference")
        assert golden_of(solution) == _GOLDEN[bench_name][config]


class TestTieBreakStability:
    """Same inputs, repeated runs, identical decisions — both engines."""

    @pytest.mark.parametrize("config", sorted(_GOLDEN["pr"]))
    @pytest.mark.parametrize("engine", ("fast", "reference"))
    def test_repeat_runs_identical(self, config, engine, sa_table):
        first = run_config("wang", config, sa_table, engine)
        second = run_config("wang", config, sa_table, engine)
        assert [
            (unit.fu_id, unit.fu_class, unit.ops)
            for unit in first.fus.units
        ] == [
            (unit.fu_id, unit.fu_class, unit.ops)
            for unit in second.fus.units
        ]
