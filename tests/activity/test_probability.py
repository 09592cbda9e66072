"""Tests for signal probability propagation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EstimationError
from repro.activity.estimator import estimate_switching_activity
from repro.activity.probability import (
    gate_output_probability,
    minterm_probabilities,
    propagate_probabilities,
)
from repro.netlist.gates import GateType, Netlist, TruthTable

probs = st.floats(0.0, 1.0, allow_nan=False)


class TestMintermProbabilities:
    def test_uniform_inputs(self):
        weights = minterm_probabilities(2, [0.5, 0.5])
        assert weights.tolist() == [0.25] * 4

    def test_biased_input(self):
        weights = minterm_probabilities(1, [0.9])
        assert weights[0] == pytest.approx(0.1)
        assert weights[1] == pytest.approx(0.9)

    def test_sums_to_one(self):
        weights = minterm_probabilities(3, [0.2, 0.7, 0.4])
        assert weights.sum() == pytest.approx(1.0)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            minterm_probabilities(2, [0.5])

    def test_out_of_range_rejected(self):
        with pytest.raises(EstimationError):
            minterm_probabilities(1, [1.5])


class TestGateProbability:
    def test_and_gate(self):
        table = TruthTable.for_type(GateType.AND, 2)
        assert gate_output_probability(table, [0.5, 0.5]) == pytest.approx(0.25)

    def test_or_gate(self):
        table = TruthTable.for_type(GateType.OR, 2)
        assert gate_output_probability(table, [0.5, 0.5]) == pytest.approx(0.75)

    def test_xor_gate_biased(self):
        table = TruthTable.for_type(GateType.XOR, 2)
        # P(xor) = p(1-q) + q(1-p).
        assert gate_output_probability(table, [0.3, 0.8]) == pytest.approx(
            0.3 * 0.2 + 0.8 * 0.7
        )

    def test_not_gate(self):
        table = TruthTable.for_type(GateType.NOT, 1)
        assert gate_output_probability(table, [0.25]) == pytest.approx(0.75)

    @given(probs, probs)
    def test_and_formula(self, p, q):
        table = TruthTable.for_type(GateType.AND, 2)
        assert gate_output_probability(table, [p, q]) == pytest.approx(p * q)

    def test_rounding_past_one_is_capped(self):
        """These minterm weights sum to one ulp above 1.0; a constant-1
        gate must still give a probability its readers accept."""
        inputs = {"a": 0.9571162814602269, "b": 0.005709129450392925}
        one = TruthTable(2, 0b1111)
        assert gate_output_probability(one, list(inputs.values())) == 1.0
        netlist = Netlist()
        fanins = [netlist.add_input(name) for name in inputs]
        y = netlist.add_gate(one, fanins, "y")
        netlist.set_output(netlist.add_simple(GateType.BUF, (y,), "z"))
        report = estimate_switching_activity(netlist, input_probs=inputs)
        assert report.waveforms["z"].probability == 1.0

    @given(st.integers(0, 2 ** 8 - 1), probs, probs, probs)
    def test_result_in_unit_interval(self, bits, p1, p2, p3):
        table = TruthTable(3, bits)
        result = gate_output_probability(table, [p1, p2, p3])
        assert -1e-9 <= result <= 1 + 1e-9


class TestPropagation:
    def test_default_inputs_are_half(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        y = netlist.add_simple(GateType.NOT, (a,), "y")
        netlist.set_output(y)
        result = propagate_probabilities(netlist)
        assert result["a"] == 0.5
        assert result["y"] == pytest.approx(0.5)

    def test_override_per_input(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        y = netlist.add_simple(GateType.AND, (a, b), "y")
        netlist.set_output(y)
        result = propagate_probabilities(netlist, {"a": 1.0, "b": 0.25})
        assert result["y"] == pytest.approx(0.25)

    def test_chain_of_ands_decays(self):
        netlist = Netlist()
        current = netlist.add_input("a")
        for _ in range(3):
            other = netlist.add_input()
            current = netlist.add_simple(GateType.AND, (current, other))
        netlist.set_output(current)
        result = propagate_probabilities(netlist)
        assert result[current] == pytest.approx(0.5 ** 4)

    def test_latch_output_is_source(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        q = netlist.add_latch(a, "q")
        y = netlist.add_simple(GateType.NOT, (q,), "y")
        netlist.set_output(y)
        result = propagate_probabilities(netlist, {"q": 0.9})
        assert result["y"] == pytest.approx(0.1)

    def test_reconvergence_uses_independence(self):
        # y = a AND a is really a, but the independence assumption gives
        # P(y) = P(a)^2 — the documented approximation.
        netlist = Netlist()
        a = netlist.add_input("a")
        y = netlist.add_simple(GateType.AND, (a, a), "y")
        netlist.set_output(y)
        result = propagate_probabilities(netlist, {"a": 0.5})
        assert result["y"] == pytest.approx(0.25)
