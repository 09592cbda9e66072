"""Tests for the glitch-aware LUT mapper."""

import random

import pytest

from repro.errors import MappingError
from repro.netlist.gates import GateType, Netlist
from repro.netlist.library import (
    build_adder,
    build_multiplier,
    build_partial_datapath,
    build_register,
)
from repro.netlist.transform import clean, propagate_constants
from repro.techmap import map_netlist

from tests.conftest import evaluate_netlist, rebuilt


def assert_equivalent(original: Netlist, mapped: Netlist, seed: int = 0):
    rng = random.Random(seed)
    for _ in range(30):
        assignment = {pi: rng.random() < 0.5 for pi in original.inputs}
        expected = evaluate_netlist(original, assignment)
        actual = evaluate_netlist(mapped, assignment)
        for out in original.outputs:
            assert actual[out] == expected[out], out


class TestCorrectness:
    def test_adder_equivalence(self):
        netlist = build_adder(6)
        clean(netlist)
        result = map_netlist(netlist)
        assert_equivalent(netlist, result.netlist)

    def test_multiplier_equivalence(self):
        netlist = build_multiplier(4)
        clean(netlist)
        result = map_netlist(netlist)
        assert_equivalent(netlist, result.netlist)

    def test_partial_datapath_equivalence(self):
        netlist = build_partial_datapath("mult", 3, 2, 4)
        clean(netlist)
        result = map_netlist(netlist)
        assert_equivalent(netlist, result.netlist)

    def test_k_bound_respected(self):
        netlist = build_adder(8)
        clean(netlist)
        for k in (3, 4, 5):
            result = map_netlist(netlist, k=k)
            widest = max(
                len(gate.inputs) for gate in result.netlist.gates.values()
            )
            assert widest <= k

    def test_latches_preserved(self):
        netlist = build_register(3)
        result = map_netlist(netlist)
        assert result.netlist.num_latches() == 3
        assert set(result.netlist.outputs) == set(netlist.outputs)

    def test_output_names_survive(self):
        netlist = build_adder(4)
        clean(netlist)
        result = map_netlist(netlist)
        assert result.netlist.outputs == netlist.outputs

    def test_constant_node_mapped(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        one = netlist.add_const(True, "one")
        y = netlist.add_simple(GateType.AND, (a, one), "y")
        netlist.set_output(y)
        result = map_netlist(netlist)
        assert_equivalent(netlist, result.netlist)


class TestQuality:
    def test_mapping_reduces_node_count(self):
        netlist = build_adder(8)
        clean(netlist)
        result = map_netlist(netlist)
        assert result.area < netlist.num_gates()

    def test_area_counts_luts(self):
        netlist = build_adder(4)
        clean(netlist)
        result = map_netlist(netlist)
        assert result.area == result.netlist.num_gates()

    def test_depth_le_gate_depth(self):
        netlist = build_multiplier(4)
        clean(netlist)
        result = map_netlist(netlist)
        assert result.depth <= netlist.depth()
        assert result.depth >= 1

    def test_sa_accounting_consistent(self):
        netlist = build_adder(5)
        clean(netlist)
        result = map_netlist(netlist)
        assert result.total_sa == pytest.approx(sum(result.lut_sa.values()))
        assert result.glitch_sa == pytest.approx(
            result.total_sa - result.functional_sa
        )
        assert 0.0 <= result.glitch_fraction <= 1.0

    def test_glitch_blind_mode_reports_no_glitch(self):
        netlist = build_adder(5)
        clean(netlist)
        result = map_netlist(netlist, glitch_aware=False)
        assert result.glitch_sa == pytest.approx(0.0)

    def test_glitch_aware_estimate_higher(self):
        """The glitch-aware model must see activity a zero-delay model
        misses on ripple structures (the paper's motivation)."""
        netlist = build_adder(8)
        clean(netlist)
        aware = map_netlist(netlist, glitch_aware=True)
        blind = map_netlist(netlist, glitch_aware=False)
        assert aware.total_sa > blind.total_sa

    def test_input_activity_override(self):
        netlist = build_adder(4)
        clean(netlist)
        quiet = map_netlist(
            netlist,
            input_activities={pi: 0.0 for pi in netlist.inputs},
        )
        assert quiet.total_sa == pytest.approx(0.0)

    def test_selected_cuts_cover_all_luts(self):
        netlist = build_adder(4)
        clean(netlist)
        result = map_netlist(netlist)
        for net, gate in result.netlist.gates.items():
            assert result.selected_cuts[net] == gate.inputs

    def test_in_place_rewrite_recompiles(self):
        """Constant folding keeps the input, gate and latch counts, so
        only the netlist version can tell the cached compiled view is
        stale: the second mapping must not see the folded-away input."""
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        one = netlist.add_const(True, "one")
        x = netlist.add_simple(GateType.AND, (a, one), "x")
        netlist.set_output(netlist.add_simple(GateType.XOR, (x, b), "y"))
        assert map_netlist(netlist).selected_cuts["y"] == ("a", "b", "one")
        counts = (len(netlist.inputs), len(netlist.gates))
        assert propagate_constants(netlist) == 1
        assert (len(netlist.inputs), len(netlist.gates)) == counts
        result = map_netlist(netlist)
        fresh = map_netlist(rebuilt(netlist))
        assert result.selected_cuts == fresh.selected_cuts
        assert result.selected_cuts["y"] == ("a", "b")
        assert result.total_sa == fresh.total_sa
