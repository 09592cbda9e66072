"""Tests for max-weight bipartite matching (scipy + pure-Python oracle)."""

import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BindingError
from repro.binding import matching
from repro.binding.compile import bind_hlpower_fast, bind_lopass_fast
from repro.binding.hlpower import HLPowerConfig
from repro.binding.matching import (
    matching_weight,
    max_weight_matching,
    max_weight_matching_python,
)
from repro.flow.run import prepare_flow_inputs
from tests.binding.test_engine_differential import (
    assert_identical,
    elaborated,
)
from tests.conftest import run_fresh


class TestBasics:
    def test_single_edge(self):
        result = max_weight_matching(["u"], ["v"], {("u", "v"): 1.0})
        assert result == {"u": "v"}

    def test_empty_graph(self):
        assert max_weight_matching(["u"], ["v"], {}) == {}

    def test_prefers_heavier_edge(self):
        weights = {("u", "a"): 1.0, ("u", "b"): 5.0}
        result = max_weight_matching(["u"], ["a", "b"], weights)
        assert result == {"u": "b"}

    def test_chooses_global_optimum_over_greedy(self):
        # Greedy would give u1-a (10) leaving u2 unmatched (worth 10);
        # optimum is u1-b (9) + u2-a (8) = 17.
        weights = {
            ("u1", "a"): 10.0,
            ("u1", "b"): 9.0,
            ("u2", "a"): 8.0,
        }
        result = max_weight_matching(["u1", "u2"], ["a", "b"], weights)
        assert result == {"u1": "b", "u2": "a"}

    def test_unmatched_nodes_allowed(self):
        weights = {("u1", "a"): 2.0}
        result = max_weight_matching(["u1", "u2"], ["a"], weights)
        assert result == {"u1": "a"}

    def test_rectangular_graphs(self):
        weights = {(f"u{i}", "v0"): float(i + 1) for i in range(5)}
        result = max_weight_matching(
            [f"u{i}" for i in range(5)], ["v0"], weights
        )
        assert result == {"u4": "v0"}


class TestValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(BindingError):
            max_weight_matching(["u"], ["v"], {("u", "v"): 0.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(BindingError):
            max_weight_matching(["u"], ["v"], {("u", "v"): -1.0})

    def test_unknown_node_rejected(self):
        with pytest.raises(BindingError):
            max_weight_matching(["u"], ["v"], {("u", "x"): 1.0})

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(BindingError):
            max_weight_matching(["u", "u"], ["v"], {("u", "v"): 1.0})


@st.composite
def bipartite_instance(draw):
    n_left = draw(st.integers(1, 6))
    n_right = draw(st.integers(1, 6))
    left = [f"u{i}" for i in range(n_left)]
    right = [f"v{j}" for j in range(n_right)]
    weights = {}
    for u in left:
        for v in right:
            if draw(st.booleans()):
                weights[(u, v)] = draw(
                    st.floats(0.1, 100.0, allow_nan=False)
                )
    return left, right, weights


class TestOracle:
    @settings(max_examples=80, deadline=None)
    @given(bipartite_instance())
    def test_scipy_and_python_agree_on_weight(self, instance):
        left, right, weights = instance
        fast = max_weight_matching(left, right, weights)
        slow = max_weight_matching_python(left, right, weights)
        assert matching_weight(fast, weights) == pytest.approx(
            matching_weight(slow, weights)
        )

    @settings(max_examples=50, deadline=None)
    @given(bipartite_instance())
    def test_matching_is_valid(self, instance):
        left, right, weights = instance
        result = max_weight_matching(left, right, weights)
        assert len(set(result.values())) == len(result)  # injective
        for u, v in result.items():
            assert (u, v) in weights

    @settings(max_examples=50, deadline=None)
    @given(bipartite_instance())
    def test_matching_is_maximal(self, instance):
        """With positive weights, no edge between two free vertices can
        remain (adding it would strictly increase the total)."""
        left, right, weights = instance
        result = max_weight_matching(left, right, weights)
        used_right = set(result.values())
        for (u, v), _ in weights.items():
            assert u in result or v in used_right


class TestSolverLoading:
    def test_installed_scipy_loads_compiled_module_directly(self):
        """The compiled ``_lsap`` file is found where scipy ships it, so
        no ``scipy.optimize`` import happens. A scipy release that moves
        the file fails here instead of silently paying the import."""
        seen = run_fresh("""
import json, sys
from repro.binding.matching import _linear_sum_assignment
solve = _linear_sum_assignment()
package_loaded = "scipy.optimize" in sys.modules
lsap = sys.modules["scipy.optimize._lsap"]
import scipy.optimize
print(json.dumps({
    "package_loaded": package_loaded,
    "file": lsap.__file__,
    "direct": solve is lsap.linear_sum_assignment,
    "public": solve is scipy.optimize.linear_sum_assignment,
}))
""")
        assert seen["package_loaded"] is False
        assert os.path.basename(os.path.dirname(seen["file"])) == "optimize"
        assert seen["direct"] and seen["public"]

    def test_missing_file_falls_back_to_public_import(self, monkeypatch):
        from scipy.optimize import linear_sum_assignment

        monkeypatch.setattr(matching, "_lsap_file", lambda: None)
        monkeypatch.delitem(sys.modules, matching._LSAP, raising=False)
        assert matching._linear_sum_assignment() is linear_sum_assignment

    @pytest.mark.parametrize("binder", ["lopass", "hlpower"])
    @pytest.mark.parametrize("instance", ["chem", "wide-n96-m50-d90-s0"])
    def test_bindings_identical_both_ways(self, monkeypatch, sa_table,
                                          instance, binder):
        """Register, port and FU binding give the same solution with the
        directly loaded solver and with the public fallback."""
        schedule, limits, _, _ = elaborated(instance)

        def bind():
            registers, ports = prepare_flow_inputs(schedule)
            if binder == "lopass":
                return bind_lopass_fast(schedule, limits, registers, ports)
            return bind_hlpower_fast(schedule, limits, registers, ports,
                                     HLPowerConfig(sa_table=sa_table))

        direct = bind()
        monkeypatch.setattr(matching, "_lsap_file", lambda: None)
        monkeypatch.delitem(sys.modules, matching._LSAP, raising=False)
        assert_identical(direct, bind())
