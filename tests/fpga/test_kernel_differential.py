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
one and over random small netlists with mixed batches).
"""

import random

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
from repro.fpga.simulate import _gate_delay, _simulate_reference
from repro.fpga.vectors import VectorSet
from repro.netlist.gates import Netlist, TruthTable
from repro.rtl import build_datapath
from repro.techmap import map_netlist

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
        netlist._sim_compiled.clear()


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
