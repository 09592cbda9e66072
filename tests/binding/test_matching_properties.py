"""Property tests: matching solvers and the corpus generator.

Three invariant families back the binding engine work:

* the scipy-backed :func:`max_weight_matching` and the pure-Python
  Hungarian oracle :func:`max_weight_matching_python` must agree on
  the *value* of every random weighted bipartite graph (the matchings
  themselves may differ between optimal ties) while both emitting only
  real edges, at most one partner per node, and rejecting non-positive
  weights;
* the vectorized network simplex behind the fast LOPASS engine must
  compute the *same flow* (not just the same cost) as networkx's
  ``min_cost_flow`` on arbitrary random graphs — the pivot-for-pivot
  fidelity the chain extraction depends on;
* the corpus generator must be deterministic per seed, emit acyclic
  graphs, and honor its profile's counts (the properties every sweep
  over ``repro.cdfg.corpus`` instances silently relies on).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BindingError
from repro.binding.matching import (
    matching_weight,
    max_weight_matching,
    max_weight_matching_python,
)
from repro.cdfg.corpus import CORPUS_FAMILIES, corpus_instances
from repro.cdfg.generate import generate_cdfg


# ---------------------------------------------------------------------------
# Random weighted bipartite graphs.
# ---------------------------------------------------------------------------


@st.composite
def bipartite_graphs(draw):
    """(left, right, weights) with strictly positive float weights."""
    n_left = draw(st.integers(min_value=1, max_value=7))
    n_right = draw(st.integers(min_value=1, max_value=7))
    left = [f"u{i}" for i in range(n_left)]
    right = [f"v{j}" for j in range(n_right)]
    pairs = [(u, v) for u in left for v in right]
    edges = draw(
        st.lists(
            st.sampled_from(pairs),
            unique=True,
            max_size=len(pairs),
        )
    )
    weights = {}
    for edge in edges:
        weights[edge] = draw(
            st.floats(
                min_value=0.001,
                max_value=100.0,
                allow_nan=False,
                allow_infinity=False,
            )
        )
    return left, right, weights


class TestMatchingAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs())
    def test_equal_total_weight(self, graph):
        left, right, weights = graph
        scipy_matching = max_weight_matching(left, right, weights)
        python_matching = max_weight_matching_python(left, right, weights)
        assert matching_weight(scipy_matching, weights) == pytest.approx(
            matching_weight(python_matching, weights), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs())
    def test_only_real_edges(self, graph):
        left, right, weights = graph
        for solver in (max_weight_matching, max_weight_matching_python):
            for u, v in solver(left, right, weights).items():
                assert (u, v) in weights

    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs())
    def test_no_duplicate_right_nodes(self, graph):
        left, right, weights = graph
        for solver in (max_weight_matching, max_weight_matching_python):
            matching = solver(left, right, weights)
            matched_right = list(matching.values())
            assert len(matched_right) == len(set(matched_right))
            assert set(matching) <= set(left)
            assert set(matched_right) <= set(right)

    @settings(max_examples=60, deadline=None)
    @given(
        bipartite_graphs(),
        st.sampled_from([0.0, -1.0, -0.5]),
    )
    def test_non_positive_weight_rejected(self, graph, bad_weight):
        left, right, weights = graph
        weights = dict(weights)
        weights[(left[0], right[0])] = bad_weight
        for solver in (max_weight_matching, max_weight_matching_python):
            with pytest.raises(BindingError):
                solver(left, right, weights)


# ---------------------------------------------------------------------------
# The vectorized network simplex vs networkx, on arbitrary graphs.
# ---------------------------------------------------------------------------


@st.composite
def flow_problems(draw):
    """(n, edges, demands) with finite capacities and zero-sum demands."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                 max_size=len(pairs))
    )
    attrs = [
        (
            draw(st.integers(min_value=1, max_value=5)),   # capacity
            draw(st.integers(min_value=-3, max_value=6)),  # weight
        )
        for _ in edges
    ]
    demands = [
        draw(st.integers(min_value=-3, max_value=3)) for _ in range(n - 1)
    ]
    demands.append(-sum(demands))
    return n, list(zip(edges, attrs)), demands


@st.composite
def path_cover_networks(draw):
    """LOPASS-shaped flow networks over 40-120 operations.

    Built like ``lopass._bind_class``: S->T idle edge, per operation
    in->out (cover reward), S->in (weight 2) and out->T, then out_i->in_j
    for every later operation that starts after operation i ends, with
    the two-port transition cost in {0, 1, 2}. Operations spread over
    the schedule depth, so every network has hundreds of edges.
    """
    import networkx as nx

    from repro.binding.lopass import _COVER_REWARD

    n_ops = draw(st.integers(min_value=40, max_value=120))
    depth = draw(st.integers(min_value=8, max_value=24))
    ops = sorted(
        (
            k * depth // n_ops + draw(st.integers(0, 2)),  # start
            k,
            draw(st.integers(1, 2)),                      # duration
            draw(st.integers(0, 2)),                      # port a
            draw(st.integers(0, 2)),                      # port b
        )
        for k in range(n_ops)
    )
    busy = [0] * (depth + 4)
    for start, _, duration, _, _ in ops:
        for step in range(start, start + duration):
            busy[step] += 1
    limit = max(busy) + draw(st.integers(0, 2))

    graph = nx.DiGraph()
    graph.add_node("S", demand=-limit)
    graph.add_node("T", demand=limit)
    graph.add_edge("S", "T", capacity=limit, weight=0)
    for _, k, _, _, _ in ops:
        graph.add_edge(("in", k), ("out", k), capacity=1,
                       weight=-_COVER_REWARD)
        graph.add_edge("S", ("in", k), capacity=1, weight=2)
        graph.add_edge(("out", k), "T", capacity=1, weight=0)
    for i, (start_i, k, duration, a_i, b_i) in enumerate(ops):
        for start_j, l, _, a_j, b_j in ops[i + 1:]:
            if start_i + duration - 1 < start_j:
                graph.add_edge(("out", k), ("in", l), capacity=1,
                               weight=(a_i != a_j) + (b_i != b_j))
    return graph


def assert_same_flow_as_networkx(graph):
    """The fast solver computes networkx's flow edge for edge on
    ``graph``, or raises where networkx finds no feasible flow."""
    import networkx as nx
    import numpy as np

    from repro.binding.compile import _network_simplex

    # Present nodes and edges to the fast solver in networkx's own
    # iteration order, exactly as the LOPASS engine builds its arrays.
    index = {node: k for k, node in enumerate(graph)}
    ordered = list(graph.edges(data=True))
    srcs = np.array([index[e[0]] for e in ordered], dtype=np.int64)
    tgts = np.array([index[e[1]] for e in ordered], dtype=np.int64)
    caps = np.array([e[2]["capacity"] for e in ordered], dtype=np.int64)
    weights = np.array([e[2]["weight"] for e in ordered], dtype=np.int64)
    demands = [graph.nodes[node].get("demand", 0) for node in graph]
    demand_arr = np.array(demands, dtype=np.int64)

    try:
        flow_dict = nx.min_cost_flow(graph)
    except nx.NetworkXUnfeasible:
        with pytest.raises(BindingError):
            _network_simplex(demand_arr, srcs, tgts, caps, weights)
        return
    flow = _network_simplex(demand_arr, srcs, tgts, caps, weights)
    for position, (u, v, _) in enumerate(ordered):
        assert flow[position] == flow_dict[u][v], (u, v)


class TestNetworkSimplexAgainstNetworkx:
    @settings(max_examples=120, deadline=None)
    @given(flow_problems())
    def test_same_flow_as_networkx(self, problem):
        import networkx as nx

        n, edges, demands = problem
        graph = nx.DiGraph()
        for node in range(n):
            graph.add_node(node, demand=demands[node])
        for (u, v), (capacity, weight) in edges:
            graph.add_edge(u, v, capacity=capacity, weight=weight)
        assert_same_flow_as_networkx(graph)

    @settings(max_examples=8, deadline=None)
    @given(path_cover_networks())
    def test_lopass_networks_past_the_batch_cap(self, graph):
        """Networks large enough that the final optimality sweep grows
        its batch to the cap and wraps around the edge list."""
        from repro.binding.compile import _PIVOT_CHUNK

        n_edges = graph.number_of_edges()
        block = math.isqrt(n_edges - 1) + 1  # ceil(sqrt(E))
        n_blocks = -(-n_edges // block)
        # The final sweep misses 1 + 2 + 4 + ... blocks before its
        # first full-size batch; twice the cap guarantees it gets there.
        assert n_blocks > 2 * _PIVOT_CHUNK, n_edges
        assert_same_flow_as_networkx(graph)


# ---------------------------------------------------------------------------
# Corpus-generator invariants.
# ---------------------------------------------------------------------------


@st.composite
def corpus_picks(draw):
    """One shipped corpus instance (drawn from the full registry)."""
    instances = corpus_instances()
    return instances[draw(st.integers(0, len(instances) - 1))]


def assert_dag(cdfg):
    """Operand variables are always produced by earlier operations."""
    produced_by = {}
    for op_id in sorted(cdfg.operations):
        op = cdfg.operations[op_id]
        for var in op.inputs:
            producer = cdfg.variables[var].producer
            if producer is not None:
                assert producer in produced_by, (
                    f"op {op_id} reads variable {var} produced by the "
                    f"later (or same) operation {producer}"
                )
        produced_by[op_id] = op.output


def graph_signature(cdfg):
    return (
        sorted(cdfg.primary_inputs),
        sorted(cdfg.primary_outputs),
        sorted(
            (op.op_id, op.op_type, op.inputs, op.output)
            for op in cdfg.operations.values()
        ),
    )


class TestCorpusGenerator:
    @settings(max_examples=40, deadline=None)
    @given(corpus_picks())
    def test_deterministic_per_seed(self, instance):
        first = generate_cdfg(instance.profile, instance.seed)
        second = generate_cdfg(instance.profile, instance.seed)
        assert graph_signature(first) == graph_signature(second)

    @settings(max_examples=40, deadline=None)
    @given(corpus_picks())
    def test_dag_and_validates(self, instance):
        cdfg = generate_cdfg(instance.profile, instance.seed)
        cdfg.validate()
        assert_dag(cdfg)

    @settings(max_examples=40, deadline=None)
    @given(corpus_picks())
    def test_profile_counts_honored(self, instance):
        profile = instance.profile
        cdfg = generate_cdfg(profile, instance.seed)
        ops = list(cdfg.operations.values())
        assert len(cdfg.primary_inputs) == profile.n_inputs
        assert len(cdfg.primary_outputs) == profile.n_outputs
        assert sum(op.op_type == "add" for op in ops) == profile.n_adds
        assert sum(op.op_type == "mult" for op in ops) == profile.n_mults

    def test_registry_is_consistent(self):
        instances = corpus_instances()
        assert len(instances) == sum(
            family.size() for family in CORPUS_FAMILIES.values()
        )
        assert len({inst.name for inst in instances}) == len(instances)
        # Every family appears, and names parse back to their family.
        for instance in instances:
            assert instance.family in CORPUS_FAMILIES
            assert instance.name.startswith(instance.family + "-")

    def test_round_robin_limit_samples_every_family(self):
        picked = corpus_instances(limit=len(CORPUS_FAMILIES))
        assert {inst.family for inst in picked} == set(CORPUS_FAMILIES)


class TestScalingFamilies:
    """The huge/soc families and the >=1000-instance registry."""

    def test_registry_reaches_sweep_scale(self):
        assert len(corpus_instances()) >= 1000

    def test_classic_corpus_is_unchanged(self):
        from repro.cdfg.corpus import CLASSIC_SEEDS, classic_corpus_names

        classic = classic_corpus_names()
        assert len(classic) == 90
        assert set(CLASSIC_SEEDS) == {"micro", "kernel", "wide"}

    def test_scaling_families_registered(self):
        assert "huge" in CORPUS_FAMILIES
        assert "soc" in CORPUS_FAMILIES
        ops = [
            inst.n_ops for inst in corpus_instances(families=("soc",))
        ]
        assert max(ops) >= 4096

    def test_every_scaling_profile_derives(self):
        # Profile derivation (not generation) for every huge/soc point;
        # the registry build would have raised otherwise, so this pins
        # the constraints convention instead.
        for inst in corpus_instances(families=("huge", "soc")):
            assert inst.constraints["add"] >= 1
            assert inst.constraints["mult"] >= 1
            assert inst.profile.n_adds + inst.profile.n_mults == inst.n_ops

    def test_huge_instance_generates(self):
        from repro.cdfg import load_benchmark

        instance = corpus_instances(families=("huge",))[0]
        cdfg = load_benchmark(instance.name)
        cdfg.validate()
        assert len(cdfg.operations) == instance.n_ops
