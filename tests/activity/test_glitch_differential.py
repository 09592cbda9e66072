"""Differential tests: batched ``propagate_waveforms`` vs the per-gate oracle.

:func:`repro.activity.glitch.propagate_waveforms` evaluates each
(structural depth, arity) group of gates with one call of the batched
kernel; :func:`tests.activity.glitch_reference.propagate_waveforms_reference`
is the seed's per-gate loop, kept verbatim. Every waveform must be
byte-identical — probability, depth and the ordered step items — and
so must the estimator's reports and every entry of the shipped SA
table.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.activity.estimator as estimator
from repro.activity import estimate_switching_activity
from repro.activity.glitch import propagate_waveforms
from repro.binding.sa_table import SHIPPED_TABLE_PATH, SATable
from repro.errors import EstimationError
from repro.netlist.gates import Netlist, TruthTable
from repro.netlist.library import build_partial_datapath
from repro.netlist.transform import clean
from tests.activity.glitch_reference import propagate_waveforms_reference


def encoded(waves):
    """Waveforms as comparable bytes, in the mapping's order."""
    return [
        (net, np.float64(wave.probability).tobytes(), wave.depth,
         [(t, np.float64(s).tobytes()) for t, s in wave.steps.items()])
        for net, wave in waves.items()
    ]


def outcome(propagate, *args):
    """Encoded waveforms, or the error raised: the fanin-probability
    check can fire on a gate probability that rounds past 1.0, and both
    implementations must then fail alike."""
    try:
        return encoded(propagate(*args))
    except EstimationError as exc:
        return str(exc)


def encoded_report(report):
    return (
        [np.float64(v).tobytes()
         for v in (report.total, report.functional, report.glitch)],
        [(net, np.float64(v).tobytes()) for net, v in report.per_net.items()],
        encoded(report.waveforms),
    )


unit_floats = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def random_netlists(draw):
    """A random DAG: inputs, latches (fed back from gates), constants
    and gates of 1 to 7 inputs (7 takes the wide fallback), with
    repeated fanins; plus source overrides and defaults."""
    netlist = Netlist("random")
    nets = [netlist.add_input(f"i{k}") for k in range(draw(st.integers(1, 5)))]
    n_gates = draw(st.integers(1, 14))
    for k in range(draw(st.integers(0, 2))):
        data = f"g{draw(st.integers(0, n_gates - 1))}"
        nets.append(netlist.add_latch(data, f"q{k}"))
    for k in range(n_gates):
        if draw(st.integers(0, 9)) == 0:
            nets.append(netlist.add_const(draw(st.booleans()), f"g{k}"))
            continue
        arity = draw(st.integers(1, 7))
        fanins = draw(st.lists(
            st.sampled_from(nets), min_size=arity, max_size=arity
        ))
        bits = draw(st.integers(0, (1 << (1 << arity)) - 1))
        table = TruthTable(arity, bits)
        nets.append(netlist.add_gate(table, fanins, f"g{k}"))
    netlist.set_output(nets[-1])
    sources = list(netlist.inputs) + list(netlist.latches)
    input_probs = draw(st.dictionaries(st.sampled_from(sources), unit_floats))
    input_activities = draw(st.dictionaries(
        st.sampled_from(sources), st.floats(0.0, 1.2, allow_nan=False)
    ))
    defaults = draw(st.tuples(unit_floats, unit_floats))
    return netlist, input_probs, input_activities, defaults


@given(random_netlists())
@settings(max_examples=200, deadline=None)
def test_waveforms_equal_the_per_gate_oracle(case):
    netlist, input_probs, input_activities, (prob, act) = case
    args = (netlist, input_probs, input_activities, prob, act)
    assert outcome(propagate_waveforms, *args) == \
        outcome(propagate_waveforms_reference, *args)


@given(random_netlists(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_estimator_reports_equal(case, include_sources):
    netlist, input_probs, input_activities, _ = case

    def report():
        try:
            return encoded_report(estimate_switching_activity(
                netlist, input_probs, input_activities,
                include_sources=include_sources,
            ))
        except EstimationError as exc:
            return str(exc)

    batched = report()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            estimator, "propagate_waveforms", propagate_waveforms_reference
        )
        assert batched == report()


@pytest.mark.parametrize("fu_class, mux_a, mux_b", [
    ("add", 1, 1), ("add", 5, 7), ("mult", 3, 5), ("mult", 17, 18),
])
def test_partial_datapaths_equal_the_oracle(fu_class, mux_a, mux_b):
    netlist = build_partial_datapath(fu_class, mux_a, mux_b, 4)
    clean(netlist)
    assert encoded(propagate_waveforms(netlist)) == \
        encoded(propagate_waveforms_reference(netlist))


def test_out_of_range_input_probability_raises():
    netlist = Netlist()
    a = netlist.add_input("a")
    netlist.add_gate(TruthTable(1, 0b01), (a,), "y")
    with pytest.raises(EstimationError):
        propagate_waveforms(netlist, input_probs={"a": 1.5})


def test_shipped_sa_table_recomputes_byte_identical():
    """Every entry of the checked-in table, estimated afresh, prints as
    the file does; the file is only read."""
    with open(SHIPPED_TABLE_PATH) as handle:
        shipped = {
            (fu, int(a), int(b)): value
            for fu, a, b, *_, value in (
                line.split() for line in handle
                if line.strip() and not line.startswith("#")
            )
        }
    assert len(shipped) == 122
    fresh = SATable()
    for key, value in shipped.items():
        assert f"{fresh.get(*key):.9f}" == value, key
