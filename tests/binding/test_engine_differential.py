"""Differential pinning: the vectorized bind engines vs the seed binders.

The flow's vectorized binders (``bind_*_fast``) must be a pure
speedup — identical BindingSolutions (same units, same operations per
unit, same order) and byte-identical downstream FlowResults versus the
seed binders (``bind_hlpower``/``bind_lopass``), kept verbatim as the
oracles and called directly here. The full benchmark x binder
cross-product (including perturbed resource constraints) is
slow-marked; a smoke subset stays in tier-1 so every push checks the
contract.

The suite also measures both heuristics against the exact
branch-and-bound binder (:func:`repro.binding.bind_optimal`) on the
oracle-feasible corpus instances, pinning the FU-mux-length quality
gaps as golden numbers — engine work that shifts a heuristic's
decisions shows up here immediately.
"""

import pytest

from repro import BENCHMARK_NAMES, benchmark_spec
from repro.binding import bind_hlpower, bind_lopass, bind_optimal
from repro.binding.compile import (
    BindMemo,
    bind_hlpower_fast,
    bind_lopass_fast,
)
from repro.binding.hlpower import HLPowerConfig
from repro.cdfg import load_benchmark
from repro.cdfg.corpus import (
    CORPUS,
    classic_corpus_names,
    corpus_instance,
    oracle_feasible,
)
from repro.flow.run import FlowConfig, run_flow
from repro.rtl.metrics import mux_report
from repro.scheduling import list_schedule
from repro.flow.run import prepare_flow_inputs
from tests.conftest import oracle_flow_metrics

#: Small benchmarks that keep the smoke subset inside tier-1 budget.
_SMOKE_BENCHMARKS = ("pr", "wang", "honda")

_ELABORATED = {}


def elaborated(benchmark: str, constraints=None):
    """Memoized (schedule, constraints, registers, ports)."""
    spec = benchmark_spec(benchmark)
    constraints = dict(constraints or spec.constraints)
    key = (benchmark, tuple(sorted(constraints.items())))
    if key not in _ELABORATED:
        schedule = list_schedule(load_benchmark(benchmark), constraints)
        registers, ports = prepare_flow_inputs(schedule)
        _ELABORATED[key] = (schedule, constraints, registers, ports)
    return _ELABORATED[key]


def assert_identical(reference, fast):
    """Every observable of the two BindingSolutions must match."""
    assert reference.algorithm == fast.algorithm
    assert reference.fus.constraint_met == fast.fus.constraint_met
    assert len(reference.fus.units) == len(fast.fus.units)
    for expected, actual in zip(reference.fus.units, fast.fus.units):
        assert expected.fu_id == actual.fu_id
        assert expected.fu_class == actual.fu_class
        assert expected.ops == actual.ops
    assert reference.registers.assignment == fast.registers.assignment
    assert reference.ports.ports == fast.ports.ports


def both_engines(benchmark, binder, sa_table, constraints=None):
    schedule, limits, registers, ports = elaborated(benchmark, constraints)
    if binder == "hlpower":
        cfg = HLPowerConfig(sa_table=sa_table)
        reference = bind_hlpower(schedule, limits, registers, ports, cfg)
        fast = bind_hlpower_fast(schedule, limits, registers, ports, cfg)
    else:
        reference = bind_lopass(schedule, limits, registers, ports)
        fast = bind_lopass_fast(schedule, limits, registers, ports)
    return reference, fast


class TestSmoke:
    """Tier-1: the contract holds on small benchmarks, every push."""

    @pytest.mark.parametrize("bench_name", _SMOKE_BENCHMARKS)
    @pytest.mark.parametrize("binder", ("lopass", "hlpower"))
    def test_fast_matches_reference(self, bench_name, binder, sa_table):
        reference, fast = both_engines(bench_name, binder, sa_table)
        assert_identical(reference, fast)

    def test_wide_lopass_matches_reference(self, sa_table):
        """A 96-operation instance, whose flow networks span more
        pivot-search blocks than one batch holds."""
        reference, fast = both_engines(
            "wide-n96-m50-d90-s0", "lopass", sa_table
        )
        assert_identical(reference, fast)

    def test_memo_reuse_changes_nothing(self, sa_table):
        """A warm BindMemo must reproduce the cold run exactly."""
        schedule, limits, registers, ports = elaborated("honda")
        cfg = HLPowerConfig(sa_table=sa_table)
        memo = BindMemo()
        cold = bind_hlpower_fast(
            schedule, limits, registers, ports, cfg, memo
        )
        assert memo.stats()["entries"] > 0
        assert memo.stats()["hits"] == 0
        warm = bind_hlpower_fast(
            schedule, limits, registers, ports, cfg, memo
        )
        assert memo.stats()["hits"] > 0
        assert_identical(cold, warm)

    def test_memo_is_alpha_independent(self, sa_table):
        """Alpha sweeps share every block whose node sets coincide."""
        schedule, limits, registers, ports = elaborated("wang")
        memo = BindMemo()
        bind_hlpower_fast(
            schedule, limits, registers, ports,
            HLPowerConfig(alpha=0.5, sa_table=sa_table), memo,
        )
        entries = memo.stats()["entries"]
        reference = bind_hlpower(
            schedule, limits, registers, ports,
            HLPowerConfig(alpha=1.0, sa_table=sa_table),
        )
        fast = bind_hlpower_fast(
            schedule, limits, registers, ports,
            HLPowerConfig(alpha=1.0, sa_table=sa_table), memo,
        )
        assert_identical(reference, fast)
        # The first round's node sets are alpha-independent, so the
        # alpha=1.0 run must have reused at least that block.
        assert memo.stats()["hits"] >= 1
        assert memo.stats()["entries"] >= entries

    def test_flow_results_identical(self, sa_table):
        """Downstream measurements match the seed oracles chained."""
        schedule, limits, registers, ports = elaborated("pr")
        config = FlowConfig(n_vectors=32, sa_table=sa_table)
        for binder in ("lopass", "hlpower"):
            flow = run_flow(schedule, limits, binder, config, registers,
                            ports)
            assert oracle_flow_metrics(
                schedule, limits, binder, config, registers, ports
            ) == flow.metrics()


@pytest.mark.slow
class TestFullCrossProduct:
    """All 7 benchmarks x binders, plus perturbed constraints."""

    @pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("binder", ("lopass", "hlpower"))
    def test_fast_matches_reference(self, bench_name, binder, sa_table):
        reference, fast = both_engines(bench_name, binder, sa_table)
        assert_identical(reference, fast)

    @pytest.mark.parametrize("bench_name", ("honda", "mcm", "dir"))
    @pytest.mark.parametrize("binder", ("lopass", "hlpower"))
    @pytest.mark.parametrize("extra", (1, 2))
    def test_relaxed_constraints(self, bench_name, binder, extra, sa_table):
        """Looser FU budgets change the instance, not the contract."""
        spec = benchmark_spec(bench_name)
        limits = {
            cls: count + extra for cls, count in spec.constraints.items()
        }
        reference, fast = both_engines(
            bench_name, binder, sa_table, constraints=limits
        )
        assert_identical(reference, fast)

    # The classic 90-instance corpus; the extended seed ranges and the
    # huge/soc scaling families are exercised by sampled tests and the
    # scaling bench, not the full cross-product.
    @pytest.mark.parametrize("name", sorted(classic_corpus_names()))
    @pytest.mark.parametrize("binder", ("lopass", "hlpower"))
    def test_corpus_cross_product(self, name, binder, sa_table):
        reference, fast = both_engines(name, binder, sa_table)
        assert_identical(reference, fast)


# ---------------------------------------------------------------------------
# Oracle differential: heuristics vs the exact binder.
# ---------------------------------------------------------------------------

#: Golden FU-mux-length gaps on a pinned slice of the micro family:
#: instance -> (optimal, lopass, hlpower alpha=0.5). Regenerate ONLY
#: when a deliberate algorithm change shifts binding decisions (and
#: record why in the commit).
_GOLDEN_ORACLE = {
    "micro-n8-m30-d70-s0": (11, 11, 11),
    "micro-n8-m30-d70-s1": (10, 12, 10),
    "micro-n8-m30-d100-s0": (8, 8, 14),
    "micro-n10-m50-d70-s0": (13, 13, 13),
    "micro-n12-m70-d100-s2": (11, 15, 21),
}


def oracle_lengths(name, sa_table):
    instance = corpus_instance(name)
    schedule, limits, registers, ports = elaborated(
        name, instance.constraints
    )
    optimal = bind_optimal(schedule, limits, registers, ports)
    lopass = bind_lopass_fast(schedule, limits, registers, ports)
    hlpower = bind_hlpower_fast(
        schedule, limits, registers, ports,
        HLPowerConfig(sa_table=sa_table),
    )
    return (
        mux_report(optimal).fu_mux_length,
        mux_report(lopass).fu_mux_length,
        mux_report(hlpower).fu_mux_length,
    )


class TestOracleGap:
    @pytest.mark.parametrize("name", sorted(_GOLDEN_ORACLE))
    def test_golden_gaps(self, name, sa_table):
        assert oracle_lengths(name, sa_table) == _GOLDEN_ORACLE[name]

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "name",
        sorted(
            n for n in classic_corpus_names()
            if oracle_feasible(CORPUS[n])
        ),
    )
    def test_heuristics_never_beat_the_oracle(self, name, sa_table):
        """The exact binder's objective is a true lower bound."""
        optimal, lopass, hlpower = oracle_lengths(name, sa_table)
        assert lopass >= optimal
        assert hlpower >= optimal
