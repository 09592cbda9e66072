"""Differential test: the simulation kernel vs the reference simulator.

The kernel (compiled netlist + tick-vectorized time-wheel settling) and
the seed timed-waveform loop, kept verbatim as
:func:`repro.fpga.simulate._simulate_reference` and called directly
here, implement the same delay model, so for every design their
:class:`SimulationResult` records must be *byte-identical* — all four
toggle counters, the per-net toggle map, and the primary-output values
— not merely close. This is pinned across every built-in benchmark,
both idle-select conventions, and jittered delays.

:func:`simulate_design` is a batch of one of :func:`simulate_batch`,
so the same contract holds per configuration of a batch: every
per-config record must equal a solo reference run of that
configuration (a fast chem smoke here, the full benchmark
cross-product slow-marked, and hypothesis properties over batches of
one and over random small netlists with mixed batches). The last
sections pin the settle per delay segment (eight jitters in one pass,
segments of unequal width) and the evaluator classes up to input
order (chem's class count, every gate's permuted fanin row, and the
input order of a table wider than six inputs).
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import BENCHMARK_NAMES, benchmark_spec, list_schedule, load_benchmark
from repro.binding import assign_ports, bind_lopass, bind_registers
from repro.fpga import (
    BatchConfig,
    ElaboratedDesign,
    compile_netlist,
    elaborate_datapath,
    random_vectors,
    simulate_batch,
    simulate_design,
)
from repro.errors import SimulationError
from repro.flow import FlowConfig, build_pipeline
import repro.fpga.simulate as simulate_mod
from repro.fpga.simulate import _class_key, _gate_delay, _simulate_reference
from repro.fpga.vectors import VectorSet
from repro.netlist.gates import Gate, GateType, Netlist, TruthTable
from repro.netlist.transform import propagate_constants
from repro.rtl import build_datapath
from repro.techmap import map_netlist
from tests.conftest import rebuilt

WIDTH = 4
#: Not a multiple of 64, so the tail-lane masking is exercised too.
LANES = 48
SEED = 11

_BUILT = {}


def build_mapped(name):
    """LUT-mapped design + stimulus for one built-in benchmark
    (memoized — the batch tests and the param fixture share builds)."""
    if name in _BUILT:
        return _BUILT[name]
    spec = benchmark_spec(name)
    schedule = list_schedule(load_benchmark(name), spec.constraints)
    registers = bind_registers(schedule)
    ports = assign_ports(schedule.cdfg)
    solution = bind_lopass(schedule, spec.constraints, registers, ports)
    datapath = build_datapath(solution, WIDTH)
    design = elaborate_datapath(datapath)
    mapping = map_netlist(design.netlist, k=4)
    mapped = ElaboratedDesign(
        datapath,
        mapping.netlist,
        design.pad_nets,
        design.register_nets,
        design.fu_nets,
        design.control_nets,
        design.output_nets,
    )
    vectors = random_vectors(
        len(schedule.cdfg.primary_inputs), WIDTH, LANES, seed=SEED
    )
    _BUILT[name] = (mapped, vectors)
    return _BUILT[name]


@pytest.fixture(scope="module", params=BENCHMARK_NAMES)
def mapped_design(request):
    """LUT-mapped design + stimulus for one built-in benchmark."""
    return build_mapped(request.param)


def _n_pads(design):
    return len(design.datapath.cdfg.primary_inputs)


@pytest.mark.parametrize("idle_selects", ["zero", "hold"])
@pytest.mark.parametrize("delay_jitter", [0, 2])
def test_kernels_byte_identical(mapped_design, idle_selects, delay_jitter):
    design, vectors = mapped_design
    event = simulate_design(
        design, vectors, collect_per_net=True,
        idle_selects=idle_selects, delay_jitter=delay_jitter,
    )
    reference = _simulate_reference(
        design, vectors, collect_per_net=True,
        idle_selects=idle_selects, delay_jitter=delay_jitter,
    )
    # Dataclass equality covers every counter, the per-net map and the
    # per-lane outputs.
    assert event == reference


def test_compiled_netlist_is_cached(mapped_design):
    design, _ = mapped_design
    first = compile_netlist(design.netlist, 0)
    assert compile_netlist(design.netlist, 0) is first
    # A different delay spread compiles (and caches) separately.
    jittered = compile_netlist(design.netlist, 2)
    assert jittered is not first
    assert compile_netlist(design.netlist, 2) is jittered


def test_jitters_share_one_lowering(monkeypatch):
    """Every delay spread of one netlist version shares one lowering
    (only the gate delays differ) and still simulates as the reference
    does; an in-place rewrite lowers the netlist again for all of
    them."""
    design, vectors = build_mapped("pr")
    netlist = rebuilt(design.netlist)
    design = dataclasses.replace(design, netlist=netlist)
    lowered = []
    lower = simulate_mod._lower
    monkeypatch.setattr(
        simulate_mod, "_lower",
        lambda views: lowered.append(views) or lower(views),
    )

    def check_both_jitters():
        for jitter in (0, 2):
            assert simulate_design(
                design, vectors, collect_per_net=True, delay_jitter=jitter
            ) == _simulate_reference(
                design, vectors, collect_per_net=True, delay_jitter=jitter
            )

    check_both_jitters()
    assert len(lowered) == 1
    zero, two = compile_netlist(netlist, 0), compile_netlist(netlist, 2)
    assert two.gate_fanins is zero.gate_fanins
    assert two.gate_delays.tolist() == [
        _gate_delay(zero.net_names[out], 2) for out in zero.gate_out
    ]
    # Constant-fold one LUT input in place: same net counts, new
    # version, so both delay spreads are rebuilt from one new lowering.
    name, gate = next(
        (name, gate) for name, gate in netlist.gates.items()
        if len(gate.inputs) == 2
    )
    one = netlist.add_const(True, "one_for_folding")
    netlist.gates[name] = Gate(
        name, gate.inputs + (one,),
        TruthTable(3, gate.table.bits << 4), GateType.LUT,
    )
    netlist.touch()
    assert propagate_constants(netlist) == 1
    check_both_jitters()
    assert len(lowered) == 2
    assert compile_netlist(netlist, 2) is not two


def test_compiled_netlist_invalidated_on_mutation(mapped_design):
    design, _ = mapped_design
    netlist = design.netlist
    first = compile_netlist(netlist, 0)
    pi = netlist.add_input()
    try:
        recompiled = compile_netlist(netlist, 0)
        assert recompiled is not first
        assert recompiled.n_nets == first.n_nets + 1
    finally:
        netlist.inputs.remove(pi)
        netlist.touch()


def test_compiled_netlist_rebuilt_after_in_place_rewrite():
    """Constant folding keeps the input, gate and latch counts; the
    cached lowering must still be rebuilt, and the simulation must
    equal one of a fresh copy of the folded netlist."""
    design, vectors = build_mapped("pr")
    netlist = rebuilt(design.netlist)
    design = dataclasses.replace(design, netlist=netlist)
    # Feed one LUT a constant-1 input it ignores, for folding to drop.
    name, gate = next(
        (name, gate) for name, gate in netlist.gates.items()
        if len(gate.inputs) == 2
    )
    one = netlist.add_const(True, "one_for_folding")
    netlist.gates[name] = Gate(
        name, gate.inputs + (one,),
        TruthTable(3, gate.table.bits << 4), GateType.LUT,
    )
    netlist.touch()
    before = simulate_design(design, vectors)
    stale = compile_netlist(netlist, 0)
    counts = (len(netlist.inputs), len(netlist.gates), len(netlist.latches))
    assert propagate_constants(netlist) == 1
    assert (len(netlist.inputs), len(netlist.gates),
            len(netlist.latches)) == counts
    assert netlist.gates[name].inputs == gate.inputs
    after = simulate_design(design, vectors)
    assert compile_netlist(netlist, 0) is not stale
    fresh = simulate_design(
        dataclasses.replace(design, netlist=rebuilt(netlist)), vectors
    )
    assert after == fresh == before


# ---------------------------------------------------------------------------
# Batched kernel: every per-config record == a solo reference run.
# ---------------------------------------------------------------------------

def _solo_reference(design, config, collect_per_net=True):
    return _simulate_reference(
        design, config.vectors, collect_per_net=collect_per_net,
        idle_selects=config.idle_selects, delay_jitter=config.delay_jitter,
    )


def test_batch_matches_reference_chem():
    """Tier-1 smoke: a mixed batch (two stimuli, both idle conventions,
    three delay spreads) on chem, each config byte-identical to solo."""
    design, vectors = build_mapped("chem")
    alt = random_vectors(_n_pads(design), WIDTH, LANES, seed=SEED + 3)
    configs = [
        BatchConfig(vectors, "zero", 0),
        BatchConfig(alt, "zero", 2),
        BatchConfig(vectors, "hold", 1),
        BatchConfig(alt, "hold", 0),
    ]
    results = simulate_batch(design, configs, collect_per_net=True)
    assert len(results) == len(configs)
    for config, result in zip(configs, results):
        assert result == _solo_reference(design, config)


def test_batch_mixed_lane_counts():
    """Configs with different lane counts share one packed word; the
    narrow config's block mask must isolate it from its wide sibling."""
    design, vectors = build_mapped("pr")
    narrow = random_vectors(_n_pads(design), WIDTH, 10, seed=SEED + 5)
    configs = [BatchConfig(vectors, "zero", 0), BatchConfig(narrow, "hold", 3)]
    results = simulate_batch(design, configs, collect_per_net=True)
    for config, result in zip(configs, results):
        assert result == _solo_reference(design, config)


@pytest.mark.slow
@pytest.mark.parametrize("idle_selects", ["zero", "hold"])
@pytest.mark.parametrize("delay_jitter", [0, 2])
def test_batch_matches_reference_all_benchmarks(
    mapped_design, idle_selects, delay_jitter
):
    design, vectors = mapped_design
    alt = random_vectors(_n_pads(design), WIDTH, LANES, seed=SEED + 3)
    configs = [
        BatchConfig(vectors, idle_selects, delay_jitter),
        BatchConfig(alt, idle_selects, delay_jitter),
    ]
    results = simulate_batch(design, configs, collect_per_net=True)
    for config, result in zip(configs, results):
        assert result == _solo_reference(design, config)


def test_batch_empty():
    design, _ = build_mapped("pr")
    assert simulate_batch(design, []) == []


@settings(max_examples=12, deadline=None)
@given(
    lanes=st.integers(min_value=1, max_value=70),
    seed=st.integers(min_value=0, max_value=2**16),
    idle_selects=st.sampled_from(["zero", "hold"]),
    delay_jitter=st.integers(min_value=0, max_value=3),
)
def test_batch_of_one_matches_reference(
    lanes, seed, idle_selects, delay_jitter
):
    """Property: a batch of one is the reference run of its config."""
    design, _ = build_mapped("pr")
    vectors = random_vectors(_n_pads(design), WIDTH, lanes, seed=seed)
    config = BatchConfig(vectors, idle_selects, delay_jitter)
    [batched] = simulate_batch(design, [config], collect_per_net=True)
    assert batched == _solo_reference(design, config)


# ---------------------------------------------------------------------------
# Random small netlists: the kernel's corner cases (constant tables,
# zero-fanin gates, duplicate fanins, latch feedback, lane counts off
# the 64-lane word boundary) in mixed batches.
# ---------------------------------------------------------------------------

def _custom_design(netlist, output_nets):
    """``netlist`` driven by pr's pads, controls and control table."""
    base, _ = build_mapped("pr")
    return ElaboratedDesign(
        base.datapath, netlist, base.pad_nets, {}, {}, base.control_nets,
        output_nets,
    )


def _source_netlist():
    """A netlist holding pr's pad and control inputs, nothing else."""
    base, _ = build_mapped("pr")
    netlist = Netlist("random")
    for nets in base.pad_nets.values():
        for net in nets:
            netlist.add_input(net)
    for nets in base.control_nets.values():
        for net in nets:
            netlist.add_input(net)
    return netlist


def _random_design(seed):
    """A random netlist over pr's sources: constant tables, zero-fanin
    gates, duplicate fanins and latch feedback all occur."""
    rng = random.Random(seed)
    netlist = _source_netlist()
    latches = [
        netlist.add_latch("", output=f"q{i}")
        for i in range(rng.randint(0, 3))
    ]
    nets = list(netlist.inputs) + latches
    for _ in range(rng.randint(1, 32)):
        arity = rng.choice([0, 1, 2, 3, 3, 4, 4])
        full = (1 << (1 << arity)) - 1
        # Parity passes every input change on, so glitches reach far.
        parity = sum(
            1 << i for i in range(1 << arity) if bin(i).count("1") % 2
        )
        bits = rng.choice([0, full, parity, rng.randint(0, full)])
        # A first fanin among the latest nets chains the gates into deep
        # logic; the others reconverge from anywhere (repeats included).
        # Delay groups drift apart along such paths.
        fanins = [rng.choice(nets) for _ in range(arity)]
        if fanins:
            fanins[0] = rng.choice(nets[-3:])
        nets.append(netlist.add_gate(TruthTable(arity, bits), fanins))
    for latch in latches:
        netlist.latches[latch].data = rng.choice(nets)
    return _custom_design(netlist, {0: rng.sample(nets, min(5, len(nets)))})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_random_netlist_batches_match_reference(seed):
    """Property: every config of a mixed batch (lane counts on and off
    the word boundary, both idle modes, jitters 0-2) over a random
    netlist is byte-identical to its solo reference run."""
    design = _random_design(seed)
    rng = random.Random(seed + 1)
    batch = [
        BatchConfig(
            random_vectors(_n_pads(design), WIDTH,
                           rng.choice([1, 63, 65, 200]),
                           seed=rng.randrange(2**16)),
            rng.choice(["zero", "hold"]), rng.choice([0, 1, 2]),
        )
        for _ in range(rng.randint(2, 4))
    ]
    results = simulate_batch(design, batch, collect_per_net=True)
    for config, result in zip(batch, results):
        assert result == _solo_reference(design, config)


def _name_with_delay(prefix, jitter, delay):
    return next(
        f"{prefix}{i}" for i in range(1000)
        if _gate_delay(f"{prefix}{i}", jitter) == delay
    )


def test_disjoint_transitions_on_one_net_at_one_tick():
    """Jitter-0 and jitter-1 lanes land on one net at one tick.

    ``g = p XOR h`` with ``h = BUF(p)``. Under jitter 1, ``g`` has delay
    2 and ``h`` delay 1; under jitter 0 both have delay 1. ``p`` changes
    at tick 0: ``g`` evaluates at ticks 0 and 1 (after ``h`` lands), so
    its jitter-1 transition from tick 0 and its jitter-0 transition
    from tick 1 both land at tick 2, each on its own lanes. ``k = g XOR
    h`` glitches according to when each lane of ``g`` lands.
    """
    netlist = _source_netlist()
    design = _custom_design(netlist, {})
    pad = design.pad_nets[0][0]
    buffered = netlist.add_gate(
        TruthTable(1, 0b10), [pad], output=_name_with_delay("h", 1, 1)
    )
    xored = netlist.add_gate(
        TruthTable(2, 0b0110), [pad, buffered],
        output=_name_with_delay("g", 1, 2),
    )
    glitchy = netlist.add_gate(TruthTable(2, 0b0110), [xored, buffered])
    design.output_nets[0] = [xored, glitchy]
    vectors = random_vectors(_n_pads(design), WIDTH, LANES, seed=SEED)
    alt = random_vectors(_n_pads(design), WIDTH, 65, seed=SEED + 1)
    configs = [
        BatchConfig(vectors, "zero", 0),
        BatchConfig(alt, "hold", 1),
        BatchConfig(alt, "zero", 0),
    ]
    results = simulate_batch(design, configs, collect_per_net=True)
    for config, result in zip(configs, results):
        assert result.per_net[xored] > 0 and result.per_net[glitchy] > 0
        assert result == _solo_reference(design, config)


# ---------------------------------------------------------------------------
# Stimulus validation: a vector set that does not cover the design's pads
# is a named error, not a KeyError/IndexError from inside the kernel.
# ---------------------------------------------------------------------------

def test_missing_pad_bus_is_named_error():
    design, vectors = build_mapped("pr")
    last = max(design.pad_nets)
    short = VectorSet(vectors.lanes, {
        position: bus for position, bus in vectors.pads.items()
        if position != last
    })
    with pytest.raises(SimulationError, match=rf"pad {last}: .*takes "
                       rf"{WIDTH} bits.* no bus"):
        simulate_design(design, short)


def test_narrow_pad_bus_is_named_error():
    design, vectors = build_mapped("pr")
    narrow = VectorSet(vectors.lanes, {
        position: bus[:WIDTH - 1] for position, bus in vectors.pads.items()
    })
    with pytest.raises(SimulationError, match=rf"pad 0: .*takes {WIDTH} "
                       rf"bits.* has {WIDTH - 1} bits"):
        simulate_batch(design, [BatchConfig(vectors), BatchConfig(narrow)])


# ---------------------------------------------------------------------------
# Union passes: several designs in one kernel pass, each member's configs
# byte-identical to its solo run and to the reference.
# ---------------------------------------------------------------------------

def _assert_members_match(designs, configs):
    results = simulate_batch(designs, configs, collect_per_net=True)
    assert len(results) == len(configs)
    for design, config, result in zip(designs, configs, results):
        [solo] = simulate_batch(design, [config], collect_per_net=True)
        assert result == solo == _solo_reference(design, config)


def test_union_of_benchmarks_matches_solo_and_reference():
    """pr (17 control steps) and wang (19) in one pass: different
    designs, step counts, per-member jitters and lane counts, with
    multi-config members interleaved in the config list."""
    pr, pr_vectors = build_mapped("pr")
    wang, wang_vectors = build_mapped("wang")
    assert len(pr.datapath.control) != len(wang.datapath.control)
    wide = random_vectors(_n_pads(pr), WIDTH, 130, seed=SEED + 7)
    designs = [pr, wang, pr, wang]
    configs = [
        BatchConfig(pr_vectors, "zero", 0),
        BatchConfig(wang_vectors, "hold", 1),
        BatchConfig(wide, "hold", 2),
        BatchConfig(wang_vectors, "zero", 1),
    ]
    _assert_members_match(designs, configs)


def test_union_one_design_equals_plain_batch():
    """A design given once per config is one member: the same pass as
    the single-design call."""
    design, vectors = build_mapped("pr")
    alt = random_vectors(_n_pads(design), WIDTH, 65, seed=SEED + 2)
    configs = [BatchConfig(vectors, "zero", 1), BatchConfig(alt, "hold", 0)]
    assert simulate_batch([design, design], configs, collect_per_net=True) \
        == simulate_batch(design, configs, collect_per_net=True)


def test_union_needs_one_design_per_config():
    design, vectors = build_mapped("pr")
    with pytest.raises(SimulationError, match="1 designs for 2"):
        simulate_batch([design], [BatchConfig(vectors), BatchConfig(vectors)])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_random_netlist_unions_match_reference(seed):
    """Property: two random netlists (and a third member, pr itself)
    in one pass, each with its own lane counts, idle modes and jitters,
    every config byte-identical to its solo and reference runs."""
    rng = random.Random(seed)
    members = [_random_design(seed), _random_design(seed + 1),
               build_mapped("pr")[0]]
    designs = [rng.choice(members) for _ in range(rng.randint(2, 5))]
    configs = [
        BatchConfig(
            random_vectors(_n_pads(design), WIDTH,
                           rng.choice([1, 63, 65, 200]),
                           seed=rng.randrange(2**16)),
            rng.choice(["zero", "hold"]), rng.choice([0, 1, 2]),
        )
        for design in designs
    ]
    _assert_members_match(designs, configs)


# ---------------------------------------------------------------------------
# Delay segments: each word range where every member has one jitter
# settles on its own, with one per-gate delay vector.
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_eight_jitters_in_one_pass():
    """Eight delay groups cut one pass into eight segments, each with
    its own delay vector; every config equals its solo and reference
    runs (~4 s, most of it the eight reference runs)."""
    design, _ = build_mapped("pr")
    designs = [design] * 8
    configs = [
        BatchConfig(
            random_vectors(_n_pads(design), WIDTH, 16, seed=SEED + jitter),
            ("zero", "hold")[jitter % 2], jitter,
        )
        for jitter in (3, 0, 7, 1, 5, 2, 6, 4)
    ]
    _assert_members_match(designs, configs)


def test_union_segments_of_unequal_width():
    """pr's delay groups span words [0, 3) and [3, 4), wang's [0, 1)
    and [1, 3) (and its last group's jitter past them), so the pass
    settles segments of 1, 2 and 1 words."""
    pr, _ = build_mapped("pr")
    wang, _ = build_mapped("wang")

    def vectors(design, lanes, seed):
        return random_vectors(_n_pads(design), WIDTH, lanes, seed=seed)

    designs = [pr, wang, pr, wang]
    configs = [
        BatchConfig(vectors(pr, 130, SEED), "zero", 0),
        BatchConfig(vectors(wang, 48, SEED + 1), "hold", 2),
        BatchConfig(vectors(pr, 48, SEED + 2), "hold", 1),
        BatchConfig(vectors(wang, 65, SEED + 3), "zero", 0),
    ]
    _assert_members_match(designs, configs)


# ---------------------------------------------------------------------------
# Evaluator classes: one per distinct truth table up to input order.
# ---------------------------------------------------------------------------

def _class_of(compiled, position):
    return int(np.searchsorted(compiled.class_start, position,
                               side="right")) - 1


def _assert_class_tables_match(netlist, compiled):
    """Every gate's class table, read over its permuted fanin row,
    computes the gate's own table."""
    for position, out in enumerate(compiled.gate_out.tolist()):
        gate = netlist.gates[compiled.net_names[out]]
        n = gate.table.n_inputs
        own = [compiled.net_id[net] for net in gate.inputs]
        row = compiled.gate_fanins[position, :n].tolist()
        assert sorted(row) == sorted(own)
        table = TruthTable(*compiled.class_keys[_class_of(compiled, position)])
        for index in range(1 << n):
            value = {net: bool((index >> k) & 1) for k, net in enumerate(own)}
            assert table.evaluate([value[net] for net in row]) == \
                gate.table.evaluate([value[net] for net in own])


def test_chem_classes_merge_up_to_input_order():
    """chem's LOPASS design (width 8, k=4, as the flow maps it) has 23
    distinct LUT tables in 11 classes up to input order."""
    spec = benchmark_spec("chem")
    schedule = list_schedule(load_benchmark("chem"), spec.constraints)
    design = build_pipeline(
        schedule, spec.constraints, "lopass", FlowConfig(width=8, k=4),
    ).artifact("techmap").design
    compiled = compile_netlist(design.netlist)
    tables = {(gate.table.n_inputs, gate.table.bits)
              for gate in design.netlist.gates.values()}
    assert (len(tables), len(compiled.class_keys)) == (23, 11)
    _assert_class_tables_match(design.netlist, compiled)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=0, max_value=4), data=st.data())
def test_class_key_is_the_least_permuted_table(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    least, order = _class_key(n, bits)
    table = TruthTable(n, bits)
    assert table.permute(order).bits == least
    assert least == min(table.permute(each).bits
                        for each in itertools.permutations(range(n)))


def test_seven_input_gate_keeps_its_input_order():
    """A table wider than MAX_EXACT_INPUTS is its own class, read in
    port order, and still simulates as the reference does."""
    netlist = _source_netlist()
    design = _custom_design(netlist, {})
    sources = [net for nets in design.pad_nets.values() for net in nets]
    wide = netlist.add_gate(
        TruthTable(7, random.Random(SEED).getrandbits(1 << 7)),
        sources[:7],
    )
    narrow = netlist.add_gate(TruthTable(3, 0b10010110),
                              [wide, sources[7], sources[0]])
    design.output_nets[0] = [wide, narrow]
    compiled = compile_netlist(netlist)
    position = compiled.gate_out.tolist().index(compiled.net_id[wide])
    assert compiled.class_keys[_class_of(compiled, position)] == (
        7, netlist.gates[wide].table.bits
    )
    assert compiled.gate_fanins[position].tolist() == [
        compiled.net_id[net] for net in sources[:7]
    ]
    _assert_class_tables_match(netlist, compiled)
    vectors = random_vectors(_n_pads(design), WIDTH, LANES, seed=SEED)
    for jitter in (0, 2):
        assert simulate_design(
            design, vectors, collect_per_net=True, delay_jitter=jitter
        ) == _simulate_reference(
            design, vectors, collect_per_net=True, delay_jitter=jitter
        )


def test_constant_gates_only():
    """No gate has a fanin, so the fanin matrix has no columns."""
    netlist = _source_netlist()
    design = _custom_design(netlist, {})
    design.output_nets[0] = [
        netlist.add_gate(TruthTable(0, bits), []) for bits in (0, 1)
    ]
    vectors = random_vectors(_n_pads(design), WIDTH, LANES, seed=SEED)
    assert simulate_design(design, vectors, collect_per_net=True) == \
        _simulate_reference(design, vectors, collect_per_net=True)
