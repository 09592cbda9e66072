"""Flow entry for external designs: caching, sweeps, pool, CLI."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.flow.batch import SweepResult, run_sweep
from repro.flow.cache import ArtifactCache
from repro.flow.grid import SweepSpec, expand_grid
from repro.flow.run import FlowConfig
from repro.ingest import (
    INGEST_STAGES,
    DesignPipeline,
    load_design,
    load_design_text,
    run_design_estimate,
)
from repro.techmap.mapper import MAP_EFFORTS

MAC4_PATH = Path(__file__).resolve().parents[2] / "examples" / "mac4.json"

TINY_TEXT = json.dumps({
    "format": "repro-module-v1",
    "name": "tiny",
    "signals": [
        {"name": "a", "width": 2, "input": True},
        {"name": "b", "width": 2, "input": True},
        {"name": "clear", "width": 1, "input": True, "control": True},
        {"name": "s", "width": 2},
        {"name": "zero", "width": 2},
        {"name": "nxt", "width": 2},
        {"name": "r", "width": 2, "reg": True, "init": 2},
        {"name": "y", "width": 2, "output": True},
    ],
    "ops": [
        {"op": "add", "inputs": ["a", "b"], "output": "s"},
        {"op": "const", "value": 0, "output": "zero"},
        {"op": "mux", "select": "clear", "inputs": ["s", "zero"],
         "output": "nxt"},
        {"op": "dff", "inputs": ["nxt"], "output": "r"},
        {"op": "xor", "inputs": ["r", "a"], "output": "y"},
    ],
})


class TestRunDesignEstimate:
    def test_cold_warm_identical(self):
        design = load_design_text(TINY_TEXT)
        cache = ArtifactCache(32)
        cold = run_design_estimate(design, cache=cache)
        warm = run_design_estimate(design, cache=cache)
        assert cold.cache_hits == []
        assert warm.cache_hits == list(INGEST_STAGES)
        assert cold.metrics() == warm.metrics()

    def test_cache_off_identical(self):
        design = load_design_text(TINY_TEXT)
        uncached = run_design_estimate(design)
        cached = run_design_estimate(design, cache=ArtifactCache(32))
        assert uncached.metrics() == cached.metrics()

    def test_metrics_schema_matches_estimate_flow(self):
        from repro.flow.run import run_estimate
        from repro.cdfg import load_benchmark
        from repro.scheduling import list_schedule

        design_keys = set(
            run_design_estimate(load_design_text(TINY_TEXT)).metrics()
        )
        schedule = list_schedule(load_benchmark("pr"),
                                 {"add": 2, "mult": 2})
        flow_keys = set(
            run_estimate(schedule, {"add": 2, "mult": 2}).metrics()
        )
        assert design_keys == flow_keys

    def test_fingerprint_is_content_addressed(self):
        def design_fingerprint(design):
            return DesignPipeline(design).stage_fingerprint("elaborate")

        base = load_design_text(TINY_TEXT)
        again = load_design_text(TINY_TEXT, name="other")
        assert design_fingerprint(base) == design_fingerprint(again)
        changed = json.loads(TINY_TEXT)
        changed["ops"][0]["op"] = "sub"
        other = load_design_text(json.dumps(changed))
        assert design_fingerprint(base) != design_fingerprint(other)

    def test_config_axes_reach_result(self):
        design = load_design_text(TINY_TEXT)
        k4 = run_design_estimate(design, FlowConfig(k=4, flow="estimate"))
        k2 = run_design_estimate(design, FlowConfig(k=2, flow="estimate"))
        assert k2.metrics()["area_luts"] > k4.metrics()["area_luts"]


def _digest(records):
    """SHA-256 of the records' JSON dump (key order included)."""
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


class TestBytePins:
    """Byte pins of the design flow's observable output: a change to
    how design stages run (their engine, digests or bookkeeping) must
    leave every metric, cache outcome and stage name as it is."""

    def test_design_grid_cold_and_warm(self):
        records = []
        for design in (load_design(str(MAC4_PATH)),
                       load_design_text(TINY_TEXT)):
            cache = ArtifactCache(256)
            for phase in ("cold", "warm"):
                for k in range(2, 7):
                    for effort in MAP_EFFORTS:
                        for activity in (0.1, 0.5):
                            result = run_design_estimate(design, FlowConfig(
                                k=k, map_effort=effort,
                                control_activity=activity, flow="estimate",
                            ), cache=cache)
                            records.append([
                                design.name, phase, k, effort, activity,
                                result.metrics(), result.cache_hits,
                                list(result.stage_timings),
                            ])
        assert _digest(records) == (
            "3e5c653fd15be42acccacbeae59775c9b48b41432cd7117708e9d4b52ed2ed02"
        )

    def test_mixed_benchmark_and_design_sweep_cells(self):
        from repro.flow.executor import FlowExecutor

        mac4 = MAC4_PATH.read_text()
        spec = _design_spec(
            benchmarks=["pr"], binders=("lopass", "hlpower"), widths=(4,),
            designs={"mac4": mac4, "tiny": TINY_TEXT},
            map_efforts=("fast", "exhaustive"),
        )
        records = []
        with FlowExecutor() as executor:
            for _ in ("cold", "warm"):
                sweep = run_sweep(spec, executor=executor)
                records.append([
                    [list(cell.key), cell.metrics, cell.cache_hits,
                     cell.schedule_cache_hit]
                    for cell in sweep.cells
                ])
        assert _digest(records) == (
            "ee7f9af38ed19b8c2aa2ea3cf0e51dc3d29b3c8be9e0d34041f7aa8b3a82fb1e"
        )


def _design_spec(**overrides):
    kwargs = dict(
        benchmarks=[],
        designs={"tiny": TINY_TEXT},
        flow="estimate",
        baseline="none",
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepIntegration:
    def test_design_cells(self):
        sweep = run_sweep(_design_spec(), jobs=1)
        assert len(sweep.cells) == 1
        cell = sweep.cells[0]
        assert cell.benchmark == "design:tiny"
        assert cell.config == "ingest" and cell.binder == "ingest"
        assert cell.width == 0
        direct = run_design_estimate(
            load_design_text(TINY_TEXT, name="tiny"),
            FlowConfig(k=4, map_effort="fast", flow="estimate"),
        )
        assert cell.metrics == direct.metrics()

    def test_pool_matches_serial(self):
        spec = _design_spec(map_efforts=("fast", "exhaustive"))
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=2)
        assert len(serial.cells) == 2
        assert ([cell.metrics for cell in serial.cells]
                == [cell.metrics for cell in pooled.cells])

    def test_mixed_benchmarks_and_designs(self):
        spec = _design_spec(benchmarks=["pr"], widths=(4,))
        sweep = run_sweep(spec, jobs=1)
        names = [cell.benchmark for cell in sweep.cells]
        # Benchmark cells first, then design cells.
        assert names == ["pr", "pr", "design:tiny"]

    def test_warm_executor_reuses_design_artifacts(self):
        from repro.flow.executor import FlowExecutor

        spec = _design_spec()
        with FlowExecutor(jobs=1) as executor:
            cold = run_sweep(spec, executor=executor)
            warm = run_sweep(spec, executor=executor)
        assert not cold.cells[0].schedule_cache_hit
        assert warm.cells[0].schedule_cache_hit
        assert cold.cells[0].metrics == warm.cells[0].metrics
        assert warm.cells[0].cache_hits == list(INGEST_STAGES)

    def test_spec_round_trips_with_designs(self):
        spec = _design_spec()
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone.designs == {"tiny": TINY_TEXT}
        assert ([job.design for job in expand_grid(clone)]
                == [job.design for job in expand_grid(spec)])

    def test_result_round_trips(self):
        sweep = run_sweep(_design_spec(), jobs=1)
        clone = SweepResult.from_json(sweep.to_json())
        assert ([cell.metrics for cell in clone.cells]
                == [cell.metrics for cell in sweep.cells])


class TestSpecValidation:
    def test_designs_require_estimate_flow(self):
        with pytest.raises(ConfigError, match="estimate"):
            _design_spec(flow="full").validate()

    def test_malformed_design_named(self):
        with pytest.raises(ConfigError, match="design 'bad'"):
            _design_spec(designs={"bad": "{not json"}).validate()

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError, match="no benchmarks or designs"):
            SweepSpec(benchmarks=[], flow="estimate").validate()


class TestCli:
    def test_estimate_design_runs_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        module_path = tmp_path / "tiny.json"
        module_path.write_text(TINY_TEXT)
        outputs = []
        for run in range(2):
            out = tmp_path / f"sweep{run}.json"
            assert main(["estimate", "--design", str(module_path),
                         "--out", str(out),
                         "--sa-table", str(tmp_path / "sa.txt")]) == 0
            result = SweepResult.load(str(out))
            outputs.append([cell.metrics for cell in result.cells])
            assert result.cells[0].benchmark == "design:tiny"
        assert outputs[0] == outputs[1]
        assert "design:tiny" in capsys.readouterr().out

    def test_sweep_design_requires_estimate_flow(self, tmp_path):
        from repro.cli import main

        module_path = tmp_path / "tiny.json"
        module_path.write_text(TINY_TEXT)
        with pytest.raises(SystemExit, match="estimate"):
            main(["sweep", "--design", str(module_path), "--flow", "full"])

    def test_missing_design_file(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot read"):
            main(["estimate", "--design", "/nonexistent/x.json"])
