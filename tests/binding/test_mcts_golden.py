"""Golden regression: the MCTS binder's numbers and cache keys, frozen.

Two things are pinned per paper benchmark at the default budget/seed:

* the structural result — total mux length, muxDiff sum, register
  count — so search-policy work (UCT constants, playout ordering, RNG
  stream layout) cannot silently shift solutions;
* the bind stage's content fingerprint with ``binder="mcts"``, so
  cache-key drift is caught: the budget and seed enter the digest, and
  any change to the token shape would silently orphan (or worse,
  alias) persisted artifacts.

Regenerate ONLY for a deliberate algorithm change, never to make a
red PR green.
"""

import pytest

from repro import benchmark_spec
from repro.binding import DEFAULT_MCTS_BUDGET, DEFAULT_MCTS_SEED
from repro.binding.mcts import MCTSConfig, bind_mcts
from repro.cdfg import load_benchmark
from repro.flow.run import FlowConfig, build_pipeline, prepare_flow_inputs
from repro.rtl.metrics import mux_report
from repro.scheduling import list_schedule

#: benchmark -> (mux_length, muxDiff sum, registers, bind fingerprint)
#: at the default budget/seed. The fingerprints were re-pinned when the
#: bind stage stopped reading a bind-engine knob (its config set went
#: empty); the metric columns are unchanged since they were recorded.
_GOLDEN = {
    "chem": (487, 10, 47,
             "28f3830d8a82b0fb504e641e2f3417560d48f827bda7f9e699d33e1392e60e13"),
    "dir": (184, 7, 33,
            "59709d908a41c93f5e1ddfef0cf5924a2618398085fefd639d2324e62e1e7017"),
    "honda": (132, 5, 21,
              "ac32e2c603b723bb98cfca46e212490be25f7653279e43885f493cef2ed7044e"),
    "mcm": (115, 12, 18,
            "1f1bc5ecb4441608184395c741cd59c11f48835bf4ec94cb00185085314ffde4"),
    "pr": (67, 3, 13,
           "5daa7b2638cb73b666ca5eff2e109d4abe376e660d7f3b9cc2148c20e52d6c3d"),
    "steam": (319, 14, 29,
              "b5d24634942fecf918f8d7ca8a0712076b04fb62378c3912a6f169d94eb37d92"),
    "wang": (74, 2, 13,
             "bd85a8fc5c40f03c5b2475090e3325fb928ef0a9cd8f8f50bae892edd4543d98"),
}

#: Tier-1 keeps the fast benchmarks; the rest ride the slow marker.
_SMOKE = ("pr", "wang", "honda", "mcm")

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


def golden_of(benchmark):
    schedule, limits, registers, ports = elaborated(benchmark)
    solution = bind_mcts(schedule, limits, registers, ports, MCTSConfig())
    report = mux_report(solution)
    pipeline = build_pipeline(schedule, limits, "mcts", FlowConfig(),
                              registers, ports)
    return (
        report.mux_length,
        sum(report.mux_diffs),
        solution.registers.n_registers,
        pipeline.stage_fingerprint("bind"),
    )


def test_defaults_match_frozen_knobs():
    # The golden values were recorded at these settings; changing a
    # default silently invalidates the whole table.
    cfg = MCTSConfig()
    assert (cfg.budget, cfg.seed) == (256, 1)
    assert (DEFAULT_MCTS_BUDGET, DEFAULT_MCTS_SEED) == (256, 1)
    flow = FlowConfig()
    assert (flow.mcts_budget, flow.mcts_seed) == (256, 1)


@pytest.mark.parametrize("bench_name", _SMOKE)
def test_golden(bench_name):
    assert golden_of(bench_name) == _GOLDEN[bench_name]


@pytest.mark.slow
@pytest.mark.parametrize(
    "bench_name", sorted(set(_GOLDEN) - set(_SMOKE))
)
def test_golden_large(bench_name):
    assert golden_of(bench_name) == _GOLDEN[bench_name]


def test_budget_and_seed_enter_bind_fingerprint():
    schedule, limits, registers, ports = elaborated("pr")

    def fp(**kwargs):
        pipeline = build_pipeline(schedule, limits, "mcts",
                                  FlowConfig(**kwargs), registers, ports)
        return pipeline.stage_fingerprint("bind")

    base = fp()
    assert base == _GOLDEN["pr"][3]
    assert fp(mcts_budget=128) != base
    assert fp(mcts_seed=2) != base
    # The other binders' tokens must not absorb the mcts knobs: an
    # hlpower artifact is reusable across any mcts budget.
    hl = build_pipeline(schedule, limits, "hlpower", FlowConfig(),
                        registers, ports)
    hl_other = build_pipeline(
        schedule, limits, "hlpower", FlowConfig(mcts_budget=128),
        registers, ports,
    )
    assert hl.stage_fingerprint("bind") == hl_other.stage_fingerprint("bind")
