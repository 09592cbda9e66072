"""End-to-end flow tests."""

import pytest

from repro.errors import SimulationError
from repro.binding import SATable, bind_lopass
from repro.binding.sa_table import SATableConfig
from repro.flow import FlowConfig, compare_binders, run_flow


@pytest.fixture()
def flow_config(sa_table):
    return FlowConfig(width=4, n_vectors=32, sa_table=sa_table)


class TestRunFlow:
    def test_full_flow_hlpower(self, figure1_schedule, flow_config):
        result = run_flow(
            figure1_schedule, {"add": 2, "mult": 1}, "hlpower", flow_config
        )
        assert result.solution.algorithm == "hlpower"
        assert result.power.dynamic_power_mw > 0
        assert result.area_luts > result.controller_luts > 0
        assert result.timing.depth_levels >= 1
        assert result.muxes.n_fus == 3
        assert result.estimated_sa > 0
        assert result.runtime_s > 0

    def test_full_flow_lopass(self, figure1_schedule, flow_config):
        result = run_flow(
            figure1_schedule, {"add": 2, "mult": 1}, "lopass", flow_config
        )
        assert result.solution.algorithm == "lopass"
        assert result.power.dynamic_power_mw > 0

    def test_functional_check_enforced(self, figure1_schedule, flow_config):
        # Sanity: check passes by default (no exception raised).
        run_flow(figure1_schedule, {"add": 2, "mult": 1}, "hlpower",
                 flow_config)

    def test_custom_binder_callable(self, figure1_schedule, flow_config):
        calls = []

        def binder(schedule, constraints, registers, ports):
            calls.append(1)
            return bind_lopass(schedule, constraints, registers, ports)

        result = run_flow(
            figure1_schedule, {"add": 2, "mult": 1}, binder, flow_config
        )
        assert calls == [1]
        assert result.power.dynamic_power_mw > 0

    def test_unknown_binder_rejected(self, figure1_schedule, flow_config):
        with pytest.raises(ValueError):
            run_flow(figure1_schedule, {"add": 2, "mult": 1}, "magic",
                     flow_config)

    def test_small_benchmark_flow(self, small_schedule, flow_config):
        result = run_flow(
            small_schedule, {"add": 2, "mult": 2}, "hlpower", flow_config
        )
        assert result.power.dynamic_power_mw > 0


class TestFlowConfigValidation:
    """FlowConfig rejects bad knobs eagerly, not deep inside the flow."""

    @pytest.mark.parametrize("field,value", [
        ("width", 0), ("width", -3), ("k", 0), ("n_vectors", 0),
        ("n_vectors", -1),
    ])
    def test_non_positive_sizes_rejected(self, field, value):
        with pytest.raises(ValueError):
            FlowConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("map_effort", "reference"),
        ("idle_selects", "float"),
        ("flow", "partial"),
    ])
    def test_unknown_enum_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            FlowConfig(**{field: value})

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(delay_jitter=-1)

    def test_bool_sizes_rejected(self):
        # bool is an int subclass; a typo'd True must not become width=1.
        with pytest.raises(ValueError):
            FlowConfig(width=True)

    def test_config_error_is_a_value_error(self):
        from repro.errors import ConfigError

        assert issubclass(ConfigError, ValueError)

    def test_defaults_valid(self):
        assert FlowConfig().flow == "full"


class TestCompareBinders:
    def test_shared_registers_and_ports(self, figure1_schedule, flow_config):
        results = compare_binders(
            figure1_schedule, {"add": 2, "mult": 1}, flow_config
        )
        assert set(results) == {"lopass", "hlpower"}
        lo, hl = results["lopass"], results["hlpower"]
        assert lo.solution.registers is hl.solution.registers
        assert lo.solution.ports is hl.solution.ports

    def test_same_stimulus_time_base(self, figure1_schedule, flow_config):
        results = compare_binders(
            figure1_schedule, {"add": 2, "mult": 1}, flow_config
        )
        assert (
            results["lopass"].power.simulated_time_ns
            == results["hlpower"].power.simulated_time_ns
        )

    def test_custom_binder_set(self, figure1_schedule, flow_config):
        results = compare_binders(
            figure1_schedule,
            {"add": 2, "mult": 1},
            flow_config,
            binders={"only": "lopass"},
        )
        assert set(results) == {"only"}

    def test_caller_config_never_mutated(self, figure1_schedule):
        """A table-less config stays table-less after the comparison."""
        cfg = FlowConfig(width=4, n_vectors=16)
        before = dict(cfg.__dict__)
        compare_binders(figure1_schedule, {"add": 2, "mult": 1}, cfg)
        assert cfg.__dict__ == before
        assert cfg.sa_table is None


class TestReportHelpers:
    def test_percent_change(self):
        from repro.flow import percent_change

        assert percent_change(100.0, 81.0) == pytest.approx(-19.0)
        assert percent_change(0.0, 5.0) == 0.0

    def test_format_change(self):
        from repro.flow import format_change

        assert format_change(-19.28) == "-19.28%"
        assert format_change(0.58) == "+0.58%"

    def test_format_table(self):
        from repro.flow import format_table

        text = format_table(
            ["name", "value"],
            [["chem", 1602.3], ["dir", 709.1]],
            title="Table",
        )
        lines = text.splitlines()
        assert lines[0] == "Table"
        assert set(lines[2]) <= {"-", " "}
        assert "chem" in lines[3]
        assert "709.1" in lines[4]
