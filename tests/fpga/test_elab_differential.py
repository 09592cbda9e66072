"""Differential pinning: the template-stamped elaborator vs the seed one.

The flow's elaborator (:func:`elaborate_design`, template stamping)
must be a pure speedup — byte-identical netlists (net names, gate
insertion order, truth tables, latches, BLIF bytes) and identical
design maps (pads, register/FU/control/output nets) versus the seed
elaborator :func:`elaborate_datapath`, kept verbatim as the oracle.
The paper benchmarks stay in tier-1; the classic 90-instance corpus
cross-product is slow-marked.
"""

import io
import os
import time
from typing import Tuple

import pytest

from repro import BENCHMARK_NAMES, benchmark_spec, load_benchmark
from repro.cdfg.corpus import classic_corpus_names, corpus_instance
from repro.flow.pipeline import run_binder
from repro.flow.run import prepare_flow_inputs
from repro.fpga.compile import elaborate_design
from repro.fpga.elaborate import elaborate_datapath
from repro.netlist.blif import write_blif
from repro.rtl.datapath import build_datapath
from repro.scheduling import list_schedule
from tests.conftest import run_fresh

#: Every ~15th classic corpus instance: cheap tier-1 sampling across
#: all three families (the full 90 runs slow-marked below).
_CORPUS_SAMPLE = sorted(classic_corpus_names())[::15]


def datapath_for(name: str, width: int = 8):
    try:
        constraints = dict(benchmark_spec(name).constraints)
    except Exception:
        constraints = corpus_instance(name).constraints
    schedule = list_schedule(load_benchmark(name), constraints)
    registers, ports = prepare_flow_inputs(schedule)
    solution = run_binder("lopass", schedule, constraints, registers, ports)
    return build_datapath(solution, width)


def blif_bytes(netlist) -> str:
    stream = io.StringIO()
    write_blif(netlist, stream)
    return stream.getvalue()


def assert_identical_designs(reference, fast) -> None:
    ref_net, fast_net = reference.netlist, fast.netlist
    assert list(ref_net.inputs) == list(fast_net.inputs)
    assert list(ref_net.outputs) == list(fast_net.outputs)
    assert list(ref_net.gates) == list(fast_net.gates)
    for net, gate in ref_net.gates.items():
        other = fast_net.gates[net]
        assert gate.inputs == other.inputs
        assert gate.gate_type == other.gate_type
        assert gate.table.bits == other.table.bits
    assert list(ref_net.latches) == list(fast_net.latches)
    for name, latch in ref_net.latches.items():
        other = fast_net.latches[name]
        assert (latch.data, latch.output, latch.enable) == (
            other.data, other.output, other.enable
        )
    assert blif_bytes(ref_net) == blif_bytes(fast_net)
    assert reference.pad_nets == fast.pad_nets
    assert reference.register_nets == fast.register_nets
    assert reference.fu_nets == fast.fu_nets
    assert reference.control_nets == fast.control_nets
    assert reference.output_nets == fast.output_nets


def assert_engines_agree(name: str, width: int = 8) -> None:
    datapath = datapath_for(name, width)
    reference = elaborate_datapath(datapath)
    fast = elaborate_design(datapath)
    assert_identical_designs(reference, fast)


class TestPaperBenchmarks:
    @pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
    def test_byte_identical(self, bench_name):
        assert_engines_agree(bench_name)

    @pytest.mark.parametrize("width", (4, 12))
    def test_widths(self, width):
        assert_engines_agree("pr", width)


class TestCorpusSample:
    @pytest.mark.parametrize("name", _CORPUS_SAMPLE)
    def test_byte_identical(self, name):
        assert_engines_agree(name)


@pytest.mark.slow
class TestClassicCorpusCrossProduct:
    @pytest.mark.parametrize("name", sorted(classic_corpus_names()))
    def test_byte_identical(self, name):
        assert_engines_agree(name)


def _best_cpu_times(runs: int, datapath) -> Tuple[float, float]:
    """Best process CPU time of the compiled elaborator and of the
    oracle over ``runs`` interleaved rounds. CPU time, so another
    process sharing the CPUs does not skew the ratio."""
    best = [float("inf"), float("inf")]
    for _ in range(runs):
        for k, elaborate in enumerate((elaborate_design, elaborate_datapath)):
            started = time.process_time()
            elaborate(datapath)
            best[k] = min(best[k], time.process_time() - started)
    return best[0], best[1]


#: The speedup timing, run in a fresh interpreter: inside a test
#: session the heap is large, and the full collections it triggers
#: land in whichever timed elaboration crosses the threshold, so the
#: ratio swung with the suite order.
_FRESH_SPEEDUP = """
import json, sys
sys.path.insert(0, {root!r})
from tests.fpga.test_elab_differential import _best_cpu_times, datapath_for
print(json.dumps(_best_cpu_times(3, datapath_for("huge-n1024-m40-d100-s0"))))
"""


@pytest.mark.slow
def test_compiled_elaborator_speedup():
    # The compiled elaborator exists to be faster; on a 1024-op
    # instance it must stay at least 2x ahead of the oracle
    # (elaborate + clean, best of 3).
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    fast, reference = run_fresh(_FRESH_SPEEDUP.format(root=root))
    assert reference / fast >= 2.0, (fast, reference)
