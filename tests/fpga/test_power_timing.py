"""Tests for the device model, timing, and power reports."""

import os

import pytest

from repro import BENCHMARK_NAMES, benchmark_spec
from repro.cdfg import load_benchmark
from repro.flow.cache import ArtifactCache
from repro.flow.run import FlowConfig, run_estimate
from repro.fpga.device import CYCLONE_II_LIKE, DeviceModel
from repro.fpga.power import power_report
from repro.fpga.simulate import SimulationResult
from repro.fpga.timing import timing_report
from repro.ingest import load_design, load_design_text, run_design_estimate
from repro.netlist.gates import GateType, Netlist
from repro.scheduling import list_schedule
from tests.ingest.test_flow import TINY_TEXT

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def fake_sim(comb=1000, reg=100, pad=10, control=20, lanes=64, steps=4):
    return SimulationResult(
        lanes=lanes,
        steps=steps,
        comb_toggles=comb,
        register_toggles=reg,
        pad_toggles=pad,
        control_toggles=control,
    )


class TestDevice:
    def test_clock_period_monotone_in_depth(self):
        device = CYCLONE_II_LIKE
        periods = [device.clock_period_ns(d) for d in (1, 5, 10, 20)]
        assert periods == sorted(periods)
        assert periods[0] > 0

    def test_paper_range_for_typical_depths(self):
        """Depths of 12-18 levels land in Table 3's 20-27 ns range."""
        device = CYCLONE_II_LIKE
        assert 15 < device.clock_period_ns(12) < 30
        assert 15 < device.clock_period_ns(18) < 30

    def test_switch_energy(self):
        device = DeviceModel(vdd_v=2.0, c_lut_ff=100.0)
        # 0.5 * 100fF * 4V^2 = 2e-13 J.
        assert device.switch_energy_j(100.0) == pytest.approx(2e-13)


class TestTiming:
    def test_depth_from_netlist(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        n1 = netlist.add_simple(GateType.NOT, (a,))
        n2 = netlist.add_simple(GateType.NOT, (n1,))
        netlist.set_output(n2)
        report = timing_report(netlist)
        assert report.depth_levels == 2
        assert report.clock_period_ns == CYCLONE_II_LIKE.clock_period_ns(2)
        assert report.fmax_mhz == pytest.approx(
            1e3 / report.clock_period_ns
        )


class TestMapDepth:
    """The flows take the clock's depth from ``MapResult.depth``; it must
    be the levelized depth of the mapped netlist."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_estimate_flows(self, name, sa_table):
        spec = benchmark_spec(name)
        schedule = list_schedule(load_benchmark(name), spec.constraints)
        cache = ArtifactCache()
        for width in (4, 8):
            cfg = FlowConfig(flow="estimate", width=width, sa_table=sa_table)
            for binder in ("lopass", "hlpower"):
                result = run_estimate(schedule, spec.constraints, binder,
                                      cfg, cache=cache)
                assert result.timing == timing_report(result.mapping.netlist)

    def test_ingest_examples(self):
        for design in (load_design(os.path.join(EXAMPLES, "mac4.json")),
                       load_design_text(TINY_TEXT)):
            result = run_design_estimate(design)
            assert result.timing == timing_report(result.mapping.netlist)


class TestPower:
    def test_components_sum(self):
        report = power_report(fake_sim(), sim_clock_ns=40.0, n_nets=100)
        assert report.dynamic_power_mw == pytest.approx(
            report.comb_power_mw
            + report.register_power_mw
            + report.io_power_mw
        )

    def test_power_scales_with_toggles(self):
        low = power_report(fake_sim(comb=1000), 40.0, n_nets=10)
        high = power_report(fake_sim(comb=2000), 40.0, n_nets=10)
        assert high.comb_power_mw == pytest.approx(2 * low.comb_power_mw)

    def test_power_inverse_in_clock(self):
        fast = power_report(fake_sim(), 20.0, n_nets=10)
        slow = power_report(fake_sim(), 40.0, n_nets=10)
        assert fast.dynamic_power_mw == pytest.approx(
            2 * slow.dynamic_power_mw
        )

    def test_toggle_rate_per_net(self):
        sim = fake_sim(comb=1000, reg=100)
        per10 = power_report(sim, 40.0, n_nets=10)
        per100 = power_report(sim, 40.0, n_nets=100)
        assert per10.toggle_rate_mhz == pytest.approx(
            10 * per100.toggle_rate_mhz
        )

    def test_invalid_clock_rejected(self):
        with pytest.raises(ValueError):
            power_report(fake_sim(), 0.0)

    def test_io_power_uses_pad_capacitance(self):
        device = CYCLONE_II_LIKE
        report = power_report(
            fake_sim(comb=0, reg=0, pad=100, control=0), 40.0, device
        )
        assert report.io_power_mw > 0
        assert report.comb_power_mw == 0.0
