"""Unit tests for the :class:`repro.netlist.gates.Netlist` IR."""

import pytest

from repro.errors import NetlistError
from repro.netlist.gates import GateType, Netlist, TruthTable


def build_half_adder() -> Netlist:
    netlist = Netlist("ha")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    total = netlist.add_simple(GateType.XOR, (a, b), "sum")
    carry = netlist.add_simple(GateType.AND, (a, b), "carry")
    netlist.set_output(total)
    netlist.set_output(carry)
    return netlist


class TestConstruction:
    def test_half_adder_validates(self):
        build_half_adder().validate()

    def test_duplicate_driver_rejected(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        netlist.add_simple(GateType.NOT, (a,), "n")
        with pytest.raises(NetlistError):
            netlist.add_simple(GateType.BUF, (a,), "n")

    def test_input_name_collision_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_input("a")

    def test_new_net_avoids_collisions(self):
        netlist = Netlist()
        netlist.add_input("n0")
        assert netlist.new_net("n") != "n0"

    def test_gate_arity_mismatch_rejected(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_gate(TruthTable.for_type(GateType.AND, 2), (a,))

    def test_const_gates(self):
        netlist = Netlist()
        one = netlist.add_const(True)
        zero = netlist.add_const(False)
        assert netlist.gates[one].gate_type is GateType.CONST1
        assert netlist.gates[zero].gate_type is GateType.CONST0

    def test_undriven_nets_detected(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        netlist.add_simple(GateType.AND, (a, "ghost"), "y")
        assert netlist.undriven_nets() == {"ghost"}
        with pytest.raises(NetlistError):
            netlist.validate()

    def test_set_output_idempotent(self):
        netlist = build_half_adder()
        netlist.set_output("sum")
        assert netlist.outputs.count("sum") == 1


class TestTraversal:
    def test_topological_order_respects_dependencies(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        n1 = netlist.add_simple(GateType.NOT, (a,))
        n2 = netlist.add_simple(GateType.NOT, (n1,))
        n3 = netlist.add_simple(GateType.NOT, (n2,))
        order = netlist.topological_order()
        assert order.index(n1) < order.index(n2) < order.index(n3)

    def test_cycle_detected(self):
        from repro.netlist.gates import Gate

        netlist = Netlist()
        # Create a cycle by hand (the builder API cannot).
        netlist.gates["x"] = Gate(
            "x", ("y",), TruthTable.for_type(GateType.BUF, 1), GateType.BUF
        )
        netlist.gates["y"] = Gate(
            "y", ("x",), TruthTable.for_type(GateType.BUF, 1), GateType.BUF
        )
        with pytest.raises(NetlistError):
            netlist.topological_order()

    def test_topological_order_memoized_per_version(self):
        from repro.netlist.gates import Gate

        buf = TruthTable.for_type(GateType.BUF, 1)
        netlist = Netlist()
        a = netlist.add_input("a")
        x = netlist.add_gate(buf, (a,), "x")
        y = netlist.add_gate(buf, (a,), "y")
        order = netlist.topological_order()
        assert order == [x, y]
        order.append("junk")  # the caller's list is its own
        assert netlist.topological_order() == [x, y]
        # An in-place rewrite that bumps the version: x now reads y.
        netlist.gates[x] = Gate(x, (y,), buf, GateType.BUF)
        netlist.touch()
        assert netlist.topological_order() == [y, x]
        # Closing a cycle raises on every call, not only the first.
        netlist.gates[y] = Gate(y, (x,), buf, GateType.BUF)
        netlist.touch()
        for _ in range(2):
            with pytest.raises(NetlistError, match="cycle"):
                netlist.topological_order()

    def test_levels_and_depth(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        n1 = netlist.add_simple(GateType.NOT, (a,))
        n2 = netlist.add_simple(GateType.NOT, (n1,))
        netlist.set_output(n2)
        levels = netlist.levels()
        assert levels[a] == 0
        assert levels[n1] == 1
        assert levels[n2] == 2
        assert netlist.depth() == 2

    def test_latch_breaks_combinational_depth(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        q = netlist.add_latch(a)
        y = netlist.add_simple(GateType.NOT, (q,))
        netlist.set_output(y)
        assert netlist.levels()[y] == 1

    def test_fanout_map(self):
        netlist = build_half_adder()
        fanout = netlist.fanout_map()
        assert sorted(fanout["a"]) == ["carry", "sum"]
        assert fanout["sum"] == []

    def test_transitive_fanin(self):
        netlist = build_half_adder()
        cone = netlist.transitive_fanin(["sum"])
        assert cone == {"sum", "a", "b"}


class TestLatches:
    def test_latch_is_source(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        q = netlist.add_latch(a, init=True)
        assert netlist.is_source(q)
        assert netlist.latches[q].init is True

    def test_latch_with_enable_validates(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        en = netlist.add_input("en")
        q = netlist.add_latch(a, enable=en)
        netlist.set_output(q)
        netlist.validate()

    def test_latch_name_collision_rejected(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        netlist.add_latch(a, "q")
        with pytest.raises(NetlistError):
            netlist.add_latch(a, "q")


class TestInstantiate:
    def test_instantiate_connects_ports(self):
        sub = build_half_adder()
        top = Netlist("top")
        x = top.add_input("x")
        y = top.add_input("y")
        out_map = top.instantiate(sub, {"a": x, "b": y}, "u0/")
        top.set_output(out_map["sum"])
        top.validate()
        assert out_map["sum"] == "u0/sum"

    def test_instantiate_requires_all_inputs(self):
        sub = build_half_adder()
        top = Netlist("top")
        x = top.add_input("x")
        with pytest.raises(NetlistError):
            top.instantiate(sub, {"a": x}, "u0/")

    def test_output_map_forces_names(self):
        sub = build_half_adder()
        top = Netlist("top")
        x = top.add_input("x")
        y = top.add_input("y")
        out_map = top.instantiate(
            sub, {"a": x, "b": y}, "u0/", output_map={"sum": "result"}
        )
        assert out_map["sum"] == "result"
        assert "result" in top.gates

    def test_output_map_rejects_non_outputs(self):
        sub = build_half_adder()
        top = Netlist("top")
        x = top.add_input("x")
        y = top.add_input("y")
        with pytest.raises(NetlistError):
            top.instantiate(
                sub, {"a": x, "b": y}, "u0/", output_map={"a": "oops"}
            )

    def test_two_instances_do_not_collide(self):
        sub = build_half_adder()
        top = Netlist("top")
        x = top.add_input("x")
        y = top.add_input("y")
        m1 = top.instantiate(sub, {"a": x, "b": y}, "u0/")
        m2 = top.instantiate(sub, {"a": x, "b": m1["sum"]}, "u1/")
        top.set_output(m2["carry"])
        top.validate()
