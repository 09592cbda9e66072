"""Differential bounds: heuristics >= MCTS >= exact, instance by instance.

The MCTS binder's contract is a sandwich on the branch-and-bound
objective (total FU mux inputs):

* **never worse than the best heuristic** — the search starts from the
  better of HLPower/LOPASS as its incumbent and only replaces it with
  strictly better completions, so ``mcts <= min(hlpower, lopass)``
  must hold on *every* instance, not just on average;
* **never better than the oracle** — ``mcts >= optimal`` on every
  oracle-feasible instance; a violation would mean the search's cheap
  bitset costing disagrees with :func:`~repro.rtl.metrics.mux_report`
  (exactly the kind of bug a gap-closed average would hide).

Tier-1 runs a 3-instance smoke; the full 62-instance oracle-feasible
slice rides the ``slow`` marker (the nightly CI job runs it).
"""

import pytest

from repro.binding import bind_optimal
from repro.binding.compile import bind_hlpower_fast, bind_lopass_fast
from repro.binding.mcts import MCTSConfig, bind_mcts
from repro.cdfg import load_benchmark
from repro.cdfg.corpus import (
    classic_corpus_names,
    corpus_instances,
    oracle_feasible,
)
from repro.flow.run import prepare_flow_inputs
from repro.rtl.metrics import mux_report
from repro.scheduling import list_schedule

_ELABORATED = {}


def oracle_slice():
    classic = set(classic_corpus_names())
    return [
        instance for instance in corpus_instances()
        if instance.name in classic and oracle_feasible(instance)
    ]


def elaborated(instance):
    if instance.name not in _ELABORATED:
        schedule = list_schedule(
            load_benchmark(instance.name), instance.constraints
        )
        registers, ports = prepare_flow_inputs(schedule)
        _ELABORATED[instance.name] = (
            schedule, instance.constraints, registers, ports
        )
    return _ELABORATED[instance.name]


def check_sandwich(instance):
    schedule, limits, registers, ports = elaborated(instance)
    hlpower = bind_hlpower_fast(schedule, limits, registers, ports)
    lopass = bind_lopass_fast(schedule, limits, registers, ports)
    mcts = bind_mcts(schedule, limits, registers, ports, MCTSConfig())
    optimal = bind_optimal(schedule, limits, registers, ports)
    lengths = {
        name: mux_report(solution).fu_mux_length
        for name, solution in (
            ("hlpower", hlpower), ("lopass", lopass),
            ("mcts", mcts), ("optimal", optimal),
        )
    }
    best_heuristic = min(lengths["hlpower"], lengths["lopass"])
    assert lengths["mcts"] <= best_heuristic, (instance.name, lengths)
    assert lengths["mcts"] >= lengths["optimal"], (instance.name, lengths)
    return lengths


_SMOKE_COUNT = 3


@pytest.mark.parametrize(
    "instance", oracle_slice()[:_SMOKE_COUNT], ids=lambda i: i.name
)
def test_sandwich_smoke(instance):
    check_sandwich(instance)


@pytest.mark.slow
@pytest.mark.parametrize(
    "instance", oracle_slice()[_SMOKE_COUNT:], ids=lambda i: i.name
)
def test_sandwich_full_slice(instance):
    check_sandwich(instance)


@pytest.mark.slow
def test_default_budget_closes_gap_somewhere():
    # The acceptance bar: at the default budget the search strictly
    # improves on the better heuristic for a measurable subset of the
    # oracle-feasible slice (bench_mcts.py records the exact counts).
    improved = 0
    for instance in oracle_slice():
        lengths = check_sandwich(instance)
        if lengths["mcts"] < min(lengths["hlpower"], lengths["lopass"]):
            improved += 1
    assert improved > 0
