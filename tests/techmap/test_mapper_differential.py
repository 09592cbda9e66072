"""Differential pinning: the fast mapper vs the seed mapper.

``effort="fast"`` must be a pure speedup — byte-identical covers, SA
accounting and downstream flow measurements versus the seed mapper,
kept verbatim as :func:`repro.techmap.mapper._map_reference` and
called directly here. Downstream, the whole flow must match the seed
oracles chained end to end (:func:`tests.conftest.oracle_flow_metrics`).
The full benchmark x K x cut-cap cross-product is slow-marked; a small
smoke subset stays in tier-1 so every push checks the contract.
"""

import pytest

import repro.techmap.compile as compile_mod
from repro import benchmark_spec, BENCHMARK_NAMES
from repro.cdfg import load_benchmark
from repro.errors import MappingError
from repro.flow.cache import ArtifactCache
from repro.flow.run import (
    FlowConfig,
    build_pipeline,
    compare_binders,
    run_flow,
)
from repro.netlist.gates import GateType, Netlist
from repro.scheduling import list_schedule
from repro.techmap import map_netlist
from repro.techmap.compile import ConeMemo
from repro.techmap.cuts import DEFAULT_CUT_CAP
from repro.techmap.mapper import _map_reference
from tests.conftest import oracle_flow_metrics

_DESIGNS = {}


def elaborated(benchmark: str, width: int, binder: str = "lopass"):
    """Memoized (netlist, control activities) for one benchmark."""
    key = (benchmark, width, binder)
    if key not in _DESIGNS:
        spec = benchmark_spec(benchmark)
        schedule = list_schedule(load_benchmark(benchmark), spec.constraints)
        pipe = build_pipeline(
            schedule, spec.constraints, binder, FlowConfig(width=width)
        )
        design = pipe.artifact("elaborate")
        activities = {
            net: 0.1
            for nets in design.control_nets.values()
            for net in nets
        }
        _DESIGNS[key] = (design.netlist, activities)
    return _DESIGNS[key]


def assert_identical(reference, fast):
    """Every observable of the two MapResults must match exactly."""
    assert reference.selected_cuts == fast.selected_cuts
    assert reference.lut_sa == fast.lut_sa
    assert reference.total_sa == fast.total_sa
    assert reference.functional_sa == fast.functional_sa
    assert reference.glitch_sa == fast.glitch_sa
    assert reference.area == fast.area
    assert reference.depth == fast.depth
    assert set(reference.waveforms) == set(fast.waveforms)
    for net, wave in reference.waveforms.items():
        other = fast.waveforms[net]
        assert wave.probability == other.probability, net
        assert wave.steps == other.steps, net
        assert wave.depth == other.depth, net
    assert sorted(reference.netlist.gates) == sorted(fast.netlist.gates)
    for net, gate in reference.netlist.gates.items():
        other = fast.netlist.gates[net]
        assert gate.inputs == other.inputs, net
        assert gate.table == other.table, net


def run_pair(benchmark: str, width: int, k: int, cut_cap: int):
    netlist, activities = elaborated(benchmark, width)
    reference = _map_reference(
        netlist, k=k, cut_cap=cut_cap, input_activities=activities,
    )
    fast = map_netlist(
        netlist, k=k, cut_cap=cut_cap, input_activities=activities,
        effort="fast",
    )
    assert_identical(reference, fast)


def assert_flow_matches_oracles(benchmark: str):
    """``run_flow`` metrics equal the seed oracles chained end to end
    (the simulated outputs are checked against CDFG semantics on both
    sides)."""
    spec = benchmark_spec(benchmark)
    schedule = list_schedule(load_benchmark(benchmark), spec.constraints)
    config = FlowConfig(width=4, n_vectors=64)
    flow = run_flow(schedule, spec.constraints, "lopass", config)
    assert oracle_flow_metrics(
        schedule, spec.constraints, "lopass", config
    ) == flow.metrics()


SMOKE = [("wang", 4), ("pr", 4)]


class TestSmoke:
    """Tier-1 subset: every push checks the bit-identity contract."""

    @pytest.mark.parametrize("bench_name,width", SMOKE)
    def test_default_knobs(self, bench_name, width):
        run_pair(bench_name, width, k=4, cut_cap=8)

    def test_k6_and_small_cap(self):
        run_pair("wang", 4, k=6, cut_cap=8)
        run_pair("wang", 4, k=4, cut_cap=4)

    def test_warm_memo_is_equivalent(self):
        """A pre-warmed cone memo must not change a single bit."""
        netlist, activities = elaborated("pr", 4)
        memo = ConeMemo()
        first = map_netlist(
            netlist, input_activities=activities, effort="fast",
            cone_memo=memo,
        )
        assert memo.stats()["entries"] > 0
        warm = map_netlist(
            netlist, input_activities=activities, effort="fast",
            cone_memo=memo,
        )
        assert_identical(first, warm)
        reference = _map_reference(netlist, input_activities=activities)
        assert_identical(reference, warm)

    def test_wide_cone_refusal_matches_reference(self):
        """Beyond MAX_EXACT_INPUTS the reference path refuses the
        exact pair computation; the batched path must refuse too
        instead of silently computing what the seed mapper cannot."""
        from repro.errors import EstimationError
        from repro.netlist.gates import GateType, Netlist

        netlist = Netlist()
        inputs = [netlist.add_input(f"i{n}") for n in range(7)]
        y = netlist.add_simple(GateType.AND, inputs, "y")
        netlist.set_output(y)
        with pytest.raises(EstimationError):
            _map_reference(netlist, k=7)
        with pytest.raises(EstimationError):
            map_netlist(netlist, k=7, effort="fast")

    def test_glitch_blind_identical(self):
        netlist, activities = elaborated("pr", 4)
        reference = _map_reference(
            netlist, input_activities=activities, glitch_aware=False,
        )
        fast = map_netlist(
            netlist, input_activities=activities, glitch_aware=False,
            effort="fast",
        )
        assert_identical(reference, fast)

    def test_flow_results_byte_identical(self):
        """Downstream FlowResults agree metric for metric."""
        assert_flow_matches_oracles("wang")

    @pytest.mark.parametrize("bench_name,width", SMOKE)
    @pytest.mark.parametrize("glitch_aware", (True, False))
    def test_exhaustive_equals_reference_without_budget(
        self, bench_name, width, glitch_aware
    ):
        """``effort="exhaustive"`` is the seed mapper with its
        evaluation budget lifted to every kept cut, cold and warm."""
        netlist, activities = elaborated(bench_name, width)
        reference = _map_reference(
            netlist, input_activities=activities,
            sa_eval_limit=DEFAULT_CUT_CAP, glitch_aware=glitch_aware,
        )
        memo = ConeMemo()
        for _ in ("cold", "warm"):
            assert_identical(reference, map_netlist(
                netlist, input_activities=activities, effort="exhaustive",
                glitch_aware=glitch_aware, cone_memo=memo,
            ))


class TestSelection:
    """Directed cases of the per-level array selection."""

    @staticmethod
    def tied_netlist():
        """y = AND(p, q), p = AND(a1, a2), q = AND(b1, b2), at k=3.

        y's candidates, in the reference's order, are (p, q), (b1, b2,
        p) and (a1, a2, q). The last two evaluate the same memo key (an
        AND3 over two equal sources and one equal AND2 output), so they
        tie exactly on SA-flow, depth and area-flow, and both beat
        (p, q) on area-flow.
        """
        netlist = Netlist()
        a1, a2, b1, b2 = (netlist.add_input(n) for n in ("a1", "a2", "b1",
                                                         "b2"))
        p = netlist.add_simple(GateType.AND, (a1, a2), "p")
        q = netlist.add_simple(GateType.AND, (b1, b2), "q")
        netlist.set_output(netlist.add_simple(GateType.AND, (p, q), "y"))
        return netlist

    @pytest.mark.parametrize("glitch_aware", (True, False))
    def test_exact_tie_takes_first_candidate(self, glitch_aware):
        netlist = self.tied_netlist()
        reference = _map_reference(netlist, k=3, glitch_aware=glitch_aware)
        fast = map_netlist(netlist, k=3, glitch_aware=glitch_aware)
        assert fast.selected_cuts["y"] == ("b1", "b2", "p")
        assert_identical(reference, fast)

    def test_wide_cone_in_budget_refused_like_reference(self):
        """A cut wider than MAX_CONE_LEAVES inside the evaluation budget
        is refused with the reference's error."""
        netlist = Netlist()
        inputs = [netlist.add_input(f"i{n:02d}") for n in range(17)]
        netlist.set_output(netlist.add_simple(GateType.AND, inputs, "y"))
        message = "cone collapse limited to 16 leaves, got 17"
        with pytest.raises(MappingError, match=message):
            _map_reference(netlist, k=17)
        with pytest.raises(MappingError, match=message):
            map_netlist(netlist, k=17)


#: The netlists one shared memo is pushed through, in order: two binders
#: of one benchmark, then another benchmark.
SHARED_MEMO_NETLISTS = [("chem", "lopass"), ("chem", "hlpower"),
                        ("wang", "lopass")]


def map_through(memo, glitch_aware, k):
    """Map every shared-memo netlist with ``memo``; each mapping must
    equal the seed mapper's byte for byte. Returns the memo hits each
    mapping scored."""
    hits = []
    for bench_name, binder in SHARED_MEMO_NETLISTS:
        netlist, activities = elaborated(bench_name, 4, binder)
        before = memo.hits
        fast = map_netlist(
            netlist, k=k, input_activities=activities,
            glitch_aware=glitch_aware, cone_memo=memo,
        )
        hits.append(memo.hits - before)
        reference = _map_reference(
            netlist, k=k, input_activities=activities,
            glitch_aware=glitch_aware,
        )
        assert_identical(reference, fast)
    return hits


class TestSharedMemo:
    """One memo serves every netlist: entries are exact-match
    evaluations, so reusing them across binders, benchmarks, ``k`` and
    glitch modes must not move a bit."""

    def test_one_memo_across_netlists(self):
        memo = ConeMemo()
        for k in (4, 6):
            for glitch_aware in (True, False):
                hits = map_through(memo, glitch_aware, k)
                # The HLPower netlist and the second benchmark reuse
                # what the netlists before them stored.
                assert hits[1] > 0 and hits[2] > 0, (k, glitch_aware, hits)
        assert memo.stats()["resets"] == 0

    def test_counters_match_recorded(self):
        """The memo counters stay comparable across mapper changes:
        chem (HLPower, then LOPASS, width 8) on one memo scores the hits,
        misses and classes recorded from the per-candidate mapper."""
        memo = ConeMemo()
        recorded = [
            {"npn_classes": 29, "entries": 6086, "hits": 0,
             "misses": 11199, "resets": 0},
            {"npn_classes": 29, "entries": 11412, "hits": 5254,
             "misses": 17896, "resets": 0},
        ]
        for binder, expected in zip(("hlpower", "lopass"), recorded):
            netlist, activities = elaborated("chem", 8, binder)
            map_netlist(netlist, input_activities=activities, cone_memo=memo)
            assert memo.stats() == expected, binder

    def test_forced_resets_mid_run(self, monkeypatch):
        """A memo that fills up mid-mapping empties itself and carries
        on; the mapping stays byte-identical."""
        monkeypatch.setattr(compile_mod, "CONE_MEMO_MAX_ENTRIES", 64)
        memo = ConeMemo()
        map_through(memo, True, 4)
        stats = memo.stats()
        assert stats["resets"] > 0
        assert stats["entries"] <= 64
        assert len(memo.prob_cache) <= stats["entries"]

    def test_shared_cache_flow_equals_fresh_caches(self):
        """``compare_binders`` over several benchmarks with one cache
        (one cone memo) gives the metrics of runs on fresh caches."""
        config = FlowConfig(width=4, n_vectors=32)
        shared = ArtifactCache()
        for bench_name in ("wang", "pr"):
            spec = benchmark_spec(bench_name)
            schedule = list_schedule(
                load_benchmark(bench_name), spec.constraints
            )
            warm = compare_binders(schedule, spec.constraints, config,
                                   cache=shared)
            for binder, flow in warm.items():
                cold = compare_binders(
                    schedule, spec.constraints, config,
                    binders={binder: binder}, cache=ArtifactCache(),
                )[binder]
                assert flow.metrics() == cold.metrics(), (bench_name, binder)
        assert shared.cone_memo.hits > 0


@pytest.mark.slow
class TestFullCrossProduct:
    """All 7 benchmarks x K in {4, 6} x cut caps in {4, 8}."""

    @pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("k", (4, 6))
    @pytest.mark.parametrize("cut_cap", (4, 8))
    def test_cover_identical(self, bench_name, k, cut_cap):
        run_pair(bench_name, 8, k=k, cut_cap=cut_cap)


@pytest.mark.slow
class TestFullFlowDifferential:
    """End-to-end flow agreement on every benchmark."""

    @pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
    def test_flow_metrics_identical(self, bench_name):
        assert_flow_matches_oracles(bench_name)
