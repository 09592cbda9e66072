"""Property tests for K-feasible cut enumeration on random netlists.

Every property below holds for the reference
:func:`repro.techmap.cuts.enumerate_cuts` *and* pins the compiled
array enumeration (:func:`repro.techmap.compile.enumerate_cuts_ids`)
to the reference's exact candidate order and to the tables
:func:`repro.techmap.cuts.cone_function` collapses, which is what lets
the fast mapper reproduce the seed mapper's selections bit for bit.

The generator grows adversarial netlists on purpose: zero-input
constant gates, duplicate fanins, latch leaves (both as cut leaves and
as cover roots), dead logic, nets that are simultaneously primary
input and output, and gates up to 3 (or, for the compiled-enumeration
properties, 5) inputs with arbitrary truth tables.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MappingError
from repro.netlist.compile import net_arrays
from repro.netlist.gates import Netlist, TruthTable
from repro.techmap import (
    enumerate_cuts,
    enumerate_cuts_ids,
    map_netlist,
)
from repro.techmap.cuts import cone_function, cone_nodes
from repro.techmap.mapper import _map_reference

#: The seed mapper (the oracle) and the fast one.
MAPPERS = (_map_reference, map_netlist)


@st.composite
def random_netlists(draw, max_arity: int = 3) -> Netlist:
    netlist = Netlist("rand")
    n_inputs = draw(st.integers(1, 4))
    for index in range(n_inputs):
        netlist.add_input(f"pi{index}")
    nets = list(netlist.inputs)

    # Early latches: their outputs are sources that gates may read, so
    # cuts can have latch leaves. Data defaults to a primary input and
    # may be rewired to a gate net below.
    n_latches = draw(st.integers(0, 2))
    for index in range(n_latches):
        data = draw(st.sampled_from(nets))
        nets.append(netlist.add_latch(data, f"q{index}"))

    n_gates = draw(st.integers(0, 14))
    for index in range(n_gates):
        arity = draw(st.integers(0, max_arity))
        if arity == 0:
            nets.append(netlist.add_const(draw(st.booleans()), f"g{index}"))
            continue
        # sampled_from with replacement: duplicate fanins are legal.
        fanins = [draw(st.sampled_from(nets)) for _ in range(arity)]
        bits = draw(st.integers(0, (1 << (1 << arity)) - 1))
        nets.append(
            netlist.add_gate(TruthTable(arity, bits), fanins, f"g{index}")
        )

    # Late latches exercise latch-data cover roots over gate nets.
    if draw(st.booleans()) and n_gates:
        netlist.add_latch(draw(st.sampled_from(nets)), "qlate")

    n_outputs = draw(st.integers(1, 3))
    for _ in range(n_outputs):
        netlist.set_output(draw(st.sampled_from(nets)))
    netlist.validate()
    return netlist


CUT_SETTINGS = settings(max_examples=60, deadline=None)


class TestCutProperties:
    @CUT_SETTINGS
    @given(random_netlists(), st.integers(2, 4), st.integers(1, 8))
    def test_cuts_k_feasible_and_capped(self, netlist, k, cap):
        cuts = enumerate_cuts(netlist, k, cap)
        for net, cut_list in cuts.items():
            assert len(cut_list) <= cap
            for cut in cut_list:
                assert 1 <= len(cut) <= max(k, 1)

    @CUT_SETTINGS
    @given(random_netlists(), st.integers(2, 4), st.integers(1, 8))
    def test_trivial_cut_always_first(self, netlist, k, cap):
        cuts = enumerate_cuts(netlist, k, cap)
        for net, cut_list in cuts.items():
            assert cut_list[0] == frozenset((net,))

    @CUT_SETTINGS
    @given(random_netlists(), st.integers(2, 4), st.integers(1, 8))
    def test_no_dominated_cut_survives(self, netlist, k, cap):
        cuts = enumerate_cuts(netlist, k, cap)
        for cut_list in cuts.values():
            for i, a in enumerate(cut_list):
                for j, b in enumerate(cut_list):
                    if i != j:
                        assert not a < b, (a, b)
                        assert a != b or i == j

    @CUT_SETTINGS
    @given(random_netlists(), st.integers(2, 4), st.integers(1, 8))
    def test_leaves_are_reachable_nets(self, netlist, k, cap):
        cuts = enumerate_cuts(netlist, k, cap)
        for net, cut_list in cuts.items():
            fanin = netlist.transitive_fanin([net])
            for cut in cut_list:
                assert cut <= fanin

    @CUT_SETTINGS
    @given(random_netlists(), st.integers(2, 4), st.integers(1, 8))
    def test_every_cut_bounds_its_cone(self, netlist, k, cap):
        cuts = enumerate_cuts(netlist, k, cap)
        for net in netlist.gates:
            for cut in cuts[net]:
                if cut == frozenset((net,)):
                    continue
                # cone_nodes raises MappingError when a cut leaks.
                cone_nodes(netlist, net, cut)

    @CUT_SETTINGS
    @given(random_netlists(), st.integers(2, 4), st.integers(1, 8))
    def test_constant_gates_have_trivial_cut_only(self, netlist, k, cap):
        cuts = enumerate_cuts(netlist, k, cap)
        for net, gate in netlist.gates.items():
            if not gate.inputs:
                assert cuts[net] == [frozenset((net,))]

    @CUT_SETTINGS
    @given(random_netlists(max_arity=5), st.integers(2, 6),
           st.integers(1, 8))
    def test_compiled_enumeration_matches_reference(self, netlist, k, cap):
        """The array engine yields the reference candidate lists,
        element for element and in order."""
        reference = enumerate_cuts(netlist, k, cap)
        cm = net_arrays(netlist)
        compiled = enumerate_cuts_ids(cm, k, cap)
        for net, gate in netlist.gates.items():
            expected = [
                cut for cut in reference[net] if cut != frozenset((net,))
            ]
            # Leaf order is the reference's sorted(cut).
            assert [
                tuple(cm.names[leaf] for leaf in leaf_ids)
                for leaf_ids, _ in compiled[cm.ids[net]]
            ] == [tuple(sorted(cut)) for cut in expected]

    @CUT_SETTINGS
    @given(random_netlists(max_arity=5), st.integers(2, 6),
           st.integers(1, 8))
    def test_carried_tables_equal_cone_function(self, netlist, k, cap):
        cm = net_arrays(netlist)
        for net_id, candidates in enumerate(enumerate_cuts_ids(cm, k, cap)):
            for leaf_ids, table in candidates or ():
                leaves = tuple(cm.names[leaf] for leaf in leaf_ids)
                assert table == cone_function(
                    netlist, cm.names[net_id], leaves
                ), (cm.names[net_id], leaves)


class TestEdgeCases:
    """The audit items: cap=1, constants, latch leaves."""

    def test_cap_one_keeps_trivial_only_and_mapping_reports_it(self):
        from repro.netlist.gates import GateType
        netlist = Netlist()
        a = netlist.add_input("a")
        y = netlist.add_simple(GateType.NOT, (a,), "y")
        netlist.set_output(y)
        cuts = enumerate_cuts(netlist, k=4, cap=1)
        assert cuts["y"] == [frozenset(("y",))]
        # A cap-1 enumeration leaves no implementable cut; the mapper
        # must say so (and name the knob) instead of crashing deeper.
        for mapper in MAPPERS:
            with pytest.raises(MappingError, match="cut_cap"):
                mapper(netlist, cut_cap=1)

    def test_constant_only_netlist_maps(self):
        netlist = Netlist()
        one = netlist.add_const(True, "one")
        netlist.set_output(one)
        for mapper in MAPPERS:
            result = mapper(netlist)
            assert result.netlist.gates["one"].table.is_constant() is True
            assert result.total_sa == 0.0

    def test_latch_leaf_cut_and_latch_data_root(self):
        from repro.netlist.gates import GateType
        netlist = Netlist()
        a = netlist.add_input("a")
        q = netlist.add_latch("d", "q")
        y = netlist.add_simple(GateType.AND, (a, q), "y")
        d = netlist.add_simple(GateType.NOT, (y,), "d")
        netlist.set_output(y)
        netlist.validate()
        cuts = enumerate_cuts(netlist, k=4)
        assert frozenset(("a", "q")) in cuts["y"]
        assert cuts["q"] == [frozenset(("q",))]
        for mapper in MAPPERS:
            result = mapper(netlist)
            # The latch survives and its data cone is covered.
            assert result.netlist.num_latches() == 1
            assert "d" in result.netlist.gates

    def test_compiled_cap_one_lists_no_candidates(self):
        from repro.netlist.gates import GateType
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        x = netlist.add_simple(GateType.AND, (a, b), "x")
        netlist.set_output(netlist.add_simple(GateType.NOT, (x,), "y"))
        cm = net_arrays(netlist)
        compiled = enumerate_cuts_ids(cm, 4, 1)
        assert [compiled[cm.ids[net]] for net in ("x", "y")] == [[], []]
        assert compiled[cm.ids["a"]] is None  # sources list nothing

    def test_compiled_constant_and_latch_leaves_carry_exact_tables(self):
        from repro.netlist.gates import GateType
        netlist = Netlist()
        a = netlist.add_input("a")
        one = netlist.add_const(True, "one")
        q = netlist.add_latch("d", "q")
        x = netlist.add_simple(GateType.AND, (a, one), "x")
        y = netlist.add_simple(GateType.XOR, (x, q), "y")
        netlist.add_simple(GateType.NOT, (y,), "d")
        netlist.set_output(y)
        cm = net_arrays(netlist)
        compiled = enumerate_cuts_ids(cm, 4, 8)
        assert compiled[cm.ids["one"]] == []
        leaf_sets = []
        for net in ("x", "y", "d"):
            for leaf_ids, table in compiled[cm.ids[net]]:
                leaves = tuple(cm.names[leaf] for leaf in leaf_ids)
                leaf_sets.append(leaves)
                assert table == cone_function(netlist, net, leaves)
        # The constant and the latch output are leaves like any net.
        assert ("a", "one", "q") in leaf_sets
        assert ("a", "one") in leaf_sets

    def test_redundant_cut_table_matches_cone_function(self):
        """A kept cut may hold a leaf inside the cone of another fanin
        cut it was merged from: here y's cut (a, w, x) comes from p's
        cut (a), whose cone runs through x. The reference treats x as
        a free input, so composing p's table would be wrong; the
        enumeration must return cone_function's table instead."""
        from repro.netlist.gates import GateType
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        x = netlist.add_simple(GateType.NOT, (a,), "x")
        p = netlist.add_simple(GateType.NOR, (a, x), "p")
        w = netlist.add_simple(GateType.NOT, (b,), "w")
        q = netlist.add_simple(GateType.AND, (x, w), "q")
        netlist.set_output(netlist.add_simple(GateType.NOR, (a, p, q), "y"))
        cm = net_arrays(netlist)
        tables = {
            tuple(cm.names[leaf] for leaf in leaf_ids): table
            for leaf_ids, table in enumerate_cuts_ids(cm, 3, 3)[cm.ids["y"]]
        }
        assert tables[("a", "w", "x")] == cone_function(
            netlist, "y", ("a", "w", "x")
        )
        ref = _map_reference(netlist, k=3, cut_cap=3)
        fast = map_netlist(netlist, k=3, cut_cap=3)
        assert ref.selected_cuts == fast.selected_cuts
        assert ref.total_sa == fast.total_sa

    def test_duplicate_fanins_map_identically(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        y = netlist.add_gate(TruthTable(2, 0b1000), (a, a), "y")  # a AND a
        netlist.set_output(y)
        ref = _map_reference(netlist)
        fast = map_netlist(netlist)
        assert ref.selected_cuts == fast.selected_cuts
        assert ref.total_sa == fast.total_sa

    @CUT_SETTINGS
    @given(random_netlists(), st.integers(2, 4))
    def test_mapping_agrees_across_paths(self, netlist, k):
        """Both mapper paths agree on every random netlist: identical
        covers when mappable, and the same refusal when a gate is
        wider than any K-feasible cut (the seed mapper does not
        decompose gates — a 3-input gate under k=2 is unmappable by
        design, surfaced by this suite and pinned here).
        """
        try:
            ref = _map_reference(netlist, k=k)
        except MappingError:
            with pytest.raises(MappingError):
                map_netlist(netlist, k=k)
            return
        fast = map_netlist(netlist, k=k)
        assert ref.selected_cuts == fast.selected_cuts
        assert ref.total_sa == fast.total_sa
        assert ref.lut_sa == fast.lut_sa

    @CUT_SETTINGS
    @given(random_netlists())
    def test_mapping_succeeds_when_k_covers_every_gate(self, netlist):
        """k >= the widest gate arity guarantees mappability (each
        gate's own fanin set is then a feasible cut)."""
        widest = max(
            (len(g.inputs) for g in netlist.gates.values()), default=0
        )
        k = max(2, widest)
        ref = _map_reference(netlist, k=k)
        fast = map_netlist(netlist, k=k)
        assert ref.selected_cuts == fast.selected_cuts
        assert ref.total_sa == fast.total_sa
