"""Sweep engine tests: grid expansion, parallel determinism, caching,
and (de)serialization of the result store."""

import dataclasses
import json
import os

import pytest

from repro.binding import SATable
from repro.binding.sa_table import SATableConfig
from repro.cdfg import benchmark_spec, load_benchmark
from repro.errors import ConfigError
from repro.flow import (
    BinderConfig,
    SweepResult,
    SweepSpec,
    expand_grid,
    run_sweep,
)
from repro.flow.run import FlowConfig
from repro.scheduling import list_schedule
from tests.conftest import oracle_flow_metrics


def small_spec(**overrides):
    """A pr-only grid small enough for full in-test execution."""
    kwargs = dict(
        benchmarks=["pr"],
        binders=("lopass", "hlpower"),
        alphas=(0.5,),
        widths=(4,),
        vector_seeds=(7, 8),
        n_vectors=16,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


@pytest.fixture(scope="module")
def serial_sweep():
    """The small grid, run in-process with results retained."""
    return run_sweep(small_spec(), jobs=1, keep_results=True)


@pytest.fixture(scope="module")
def parallel_sweep():
    """The same grid across two worker processes."""
    return run_sweep(small_spec(), jobs=2)


class TestExpandGrid:
    def test_cross_product_size_and_order(self):
        spec = SweepSpec(
            benchmarks=["pr", "wang"],
            binders=("lopass", "hlpower"),
            alphas=(0.0, 1.0),
            widths=(4, 8),
            vector_seeds=(7, 8, 9),
        )
        jobs = expand_grid(spec)
        assert len(jobs) == 2 * 2 * 2 * 2 * 3
        assert [job.index for job in jobs] == list(range(len(jobs)))
        # Benchmark-major: all pr jobs precede all wang jobs.
        benchmarks = [job.benchmark for job in jobs]
        assert benchmarks == sorted(benchmarks, key=["pr", "wang"].index)

    def test_alpha_labels(self):
        spec = SweepSpec(benchmarks=["pr"], alphas=(0.0, 0.5))
        labels = {config.label for config in spec.binder_configs()}
        assert labels == {
            "lopass_a0", "lopass_a0.5", "hlpower_a0", "hlpower_a0.5"
        }

    def test_explicit_configs_override_product(self):
        spec = SweepSpec(
            benchmarks=["pr"],
            configs=[
                BinderConfig("lopass", "lopass", 0.5),
                BinderConfig("hlpower_a1", "hlpower", 1.0),
                BinderConfig("hlpower_a05", "hlpower", 0.5),
            ],
        )
        assert len(expand_grid(spec)) == 3

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(Exception):
            expand_grid(SweepSpec(benchmarks=["nope"]))

    def test_bad_scheduler_rejected(self):
        with pytest.raises(ConfigError):
            expand_grid(SweepSpec(benchmarks=["pr"], scheduler="magic"))

    def test_unknown_binder_rejected_before_any_job_runs(self):
        with pytest.raises(ConfigError):
            expand_grid(SweepSpec(benchmarks=["pr"], binders=("magic",)))

    def test_unknown_binder_rejected_at_construction(self):
        # Regression: a typo'd binder used to survive until run_binder
        # saw the first job. Construction itself must fail, naming the
        # offending binder.
        with pytest.raises(ConfigError, match="bogus"):
            SweepSpec(benchmarks=["pr"], binders=("lopass", "bogus"))

    def test_unknown_binder_rejected_in_explicit_configs(self):
        with pytest.raises(ConfigError, match="bogus"):
            SweepSpec(
                benchmarks=["pr"],
                configs=[BinderConfig("label", "bogus")],
            )

    def test_unknown_binder_rejected_by_from_dict(self):
        good = SweepSpec(benchmarks=["pr"]).to_dict()
        bad = dict(good, binders=["lopass", "bogus"])
        with pytest.raises(ConfigError, match="bogus"):
            SweepSpec.from_dict(bad)

    def test_mcts_knobs_round_trip_through_dict(self):
        spec = SweepSpec(benchmarks=["pr"], binders=("mcts",),
                         baseline="none", mcts_budget=64, mcts_seed=9)
        again = SweepSpec.from_dict(spec.to_dict())
        assert (again.mcts_budget, again.mcts_seed) == (64, 9)

    def test_duplicate_labels_rejected(self):
        spec = SweepSpec(
            benchmarks=["pr"],
            configs=[
                BinderConfig("x", "lopass"),
                BinderConfig("x", "hlpower"),
            ],
        )
        with pytest.raises(ConfigError):
            expand_grid(spec)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            expand_grid(SweepSpec(benchmarks=[]))
        with pytest.raises(ConfigError):
            expand_grid(SweepSpec(benchmarks=["pr"], widths=()))

    @pytest.mark.parametrize("field", [
        "sim_kernel", "sim_kernels", "bind_engine", "bind_engines",
        "elab_engine", "elab_engines",
    ])
    def test_retired_engine_fields_rejected(self, field):
        # One engine per stage: a stored or served spec naming a
        # retired engine knob fails loudly instead of being ignored.
        data = small_spec().to_dict()
        data[field] = "fast"
        with pytest.raises(TypeError, match=field):
            SweepSpec.from_dict(data)


class TestSimKernel:
    def test_reference_kernel_metrics_identical(self):
        """The seed oracles (reference kernel included) reproduce a
        sweep cell's metrics byte for byte."""
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        [cell] = run_sweep(spec, jobs=1).cells
        constraints = benchmark_spec("pr").constraints
        schedule = list_schedule(load_benchmark("pr"), constraints)
        cfg = FlowConfig(width=4, n_vectors=16, vector_seed=7)
        assert oracle_flow_metrics(
            schedule, constraints, "lopass", cfg
        ) == cell.metrics


class TestParallelDeterminism:
    def test_jobs1_vs_jobs2_metrics_identical(
        self, serial_sweep, parallel_sweep
    ):
        """Per-cell metrics must not depend on the execution mode."""
        serial = {cell.key: cell.metrics for cell in serial_sweep.cells}
        parallel = {cell.key: cell.metrics for cell in parallel_sweep.cells}
        assert serial == parallel  # exact, not approx

    def test_all_cells_present(self, serial_sweep):
        keys = {cell.key for cell in serial_sweep.cells}
        assert len(keys) == 4
        # Cell keys carry every grid axis, sim-only axes included.
        assert ("pr", "lopass", 4, 7, "zero", 0, "event", "fast",
                "fast", "fast") in keys
        assert ("pr", "hlpower", 4, 8, "zero", 0, "event", "fast",
                "fast", "fast") in keys

    def test_jobs_recorded(self, serial_sweep, parallel_sweep):
        assert serial_sweep.jobs == 1
        assert parallel_sweep.jobs == 2
        assert serial_sweep.wall_s > 0


class TestCacheAccounting:
    def test_serial_elaboration_cache(self, serial_sweep):
        # One benchmark, four jobs: first elaborates, the rest hit.
        assert serial_sweep.schedule_cache_misses == 1
        assert serial_sweep.schedule_cache_hits == 3

    def test_parallel_elaboration_cache(self, parallel_sweep):
        # Each worker elaborates at most once per benchmark; with four
        # jobs on two workers at least one must be a hit.
        assert (
            parallel_sweep.schedule_cache_hits
            + parallel_sweep.schedule_cache_misses
            == 4
        )
        assert parallel_sweep.schedule_cache_hits > 0

    def test_sa_entries_flow_back_from_workers(self, tmp_path):
        table = SATable(SATableConfig(width=3), str(tmp_path / "sa.txt"))
        sweep = run_sweep(small_spec(vector_seeds=(7,)), jobs=2,
                          sa_table=table)
        # Workers computed entries the parent never saw; they must be
        # merged into the parent's table and counted.
        assert sweep.sa_new_entries > 0
        assert len(table) == sweep.sa_new_entries
        table.save_if_dirty()
        assert os.path.exists(table.path)

    def test_precalc_runs_once_up_front(self, tmp_path):
        table = SATable(SATableConfig(width=3), str(tmp_path / "sa.txt"))
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        sweep = run_sweep(spec, jobs=1, sa_table=table, precalc_max_mux=2)
        # add/mult x {(1,1),(1,2),(2,2)} = 6 entries precalculated.
        assert sweep.sa_precalc_entries == 6
        assert len(table) >= 6


class TestKeepResults:
    def test_results_retained_in_process(self, serial_sweep):
        result = serial_sweep.result_of("pr", "lopass", vector_seed=7)
        assert result.power.dynamic_power_mw > 0
        assert result.solution.algorithm == "lopass"

    def test_keep_results_needs_jobs1(self):
        with pytest.raises(ConfigError):
            run_sweep(small_spec(), jobs=2, keep_results=True)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(small_spec(), jobs=0)

    def test_cache_dir_without_cache_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(small_spec(), jobs=1, use_cache=False,
                      cache_dir=str(tmp_path))


class TestSweepResultStore:
    def test_json_round_trip(self, serial_sweep):
        restored = SweepResult.from_json(serial_sweep.to_json())
        assert [vars(c) for c in restored.cells] == [
            vars(c) for c in serial_sweep.cells
        ]
        assert restored.schedule_cache_hits == (
            serial_sweep.schedule_cache_hits
        )
        assert list(restored.spec.benchmarks) == ["pr"]
        assert restored.spec.n_vectors == 16
        # Aggregates recompute identically from the restored cells.
        assert restored.aggregates() == serial_sweep.aggregates()

    def test_save_load(self, serial_sweep, tmp_path):
        path = str(tmp_path / "sweep.json")
        serial_sweep.save(path)
        restored = SweepResult.load(path)
        assert len(restored.cells) == len(serial_sweep.cells)

    def test_cell_lookup(self, serial_sweep):
        cell = serial_sweep.cell("pr", "hlpower", vector_seed=7)
        assert cell.binder == "hlpower"
        assert cell.metrics["dynamic_power_mw"] > 0
        with pytest.raises(KeyError):
            serial_sweep.cell("pr", "nope")
        with pytest.raises(KeyError):
            serial_sweep.cell("pr", "hlpower")  # ambiguous: two seeds

    def test_aggregates(self, serial_sweep):
        aggs = {
            (a["benchmark"], a["config"]): a
            for a in serial_sweep.aggregates()
        }
        assert set(aggs) == {("pr", "lopass"), ("pr", "hlpower")}
        lo = aggs[("pr", "lopass")]
        assert lo["n_seeds"] == 2
        assert lo["power_mean_mw"] > 0
        assert lo["power_stdev_mw"] >= 0
        assert lo["d_power_vs_baseline_pct"] == pytest.approx(0.0)
        hl = aggs[("pr", "hlpower")]
        expected = (
            (hl["power_mean_mw"] - lo["power_mean_mw"])
            / lo["power_mean_mw"] * 100.0
        )
        assert hl["d_power_vs_baseline_pct"] == pytest.approx(expected)

    def test_metrics_exclude_wall_clock(self, serial_sweep):
        for cell in serial_sweep.cells:
            assert "runtime_s" not in cell.metrics
            assert cell.runtime_s > 0

    def test_aggregates_without_baseline_report_none(self):
        """baseline='none' -> None deltas, not a misleading +0.00%."""
        sweep = run_sweep(
            small_spec(
                binders=("hlpower",), vector_seeds=(7,), baseline="none"
            ),
            jobs=1,
        )
        (agg,) = sweep.aggregates()
        assert agg["d_power_vs_baseline_pct"] is None
        from repro.flow import format_sweep_summary

        assert "n/a" in format_sweep_summary(sweep)

    def test_missing_baseline_rejected_up_front(self):
        """A typo'd or absent baseline fails before any job runs."""
        with pytest.raises(ConfigError):
            expand_grid(small_spec(binders=("hlpower",)))  # lopass absent
        with pytest.raises(ConfigError):
            expand_grid(small_spec(baseline="lopas"))  # typo

    def test_ambiguous_baseline_rejected(self):
        """'hlpower' across several alphas must be named by label."""
        with pytest.raises(ConfigError):
            expand_grid(
                small_spec(alphas=(0.0, 0.5), baseline="hlpower")
            )
        # LOPASS ignores alpha, so its columns are interchangeable.
        jobs = expand_grid(small_spec(alphas=(0.0, 0.5)))
        assert jobs  # baseline="lopass" stays valid


class TestSimOnlyAxes:
    """Grid axes that vary nothing before the simulate stage."""

    def test_grid_size_includes_new_axes(self):
        spec = small_spec(
            binders=("lopass",), vector_seeds=(7,),
            idle_modes=("zero", "hold"), jitters=(0, 1),
        )
        jobs = expand_grid(spec)
        assert len(jobs) == 2 * 2
        assert {(job.idle_selects, job.delay_jitter) for job in jobs} == {
            ("zero", 0), ("zero", 1), ("hold", 0), ("hold", 1)
        }

    def test_invalid_axis_values_rejected(self):
        with pytest.raises(ConfigError):
            expand_grid(small_spec(idle_modes=("float",)))
        with pytest.raises(ConfigError):
            expand_grid(small_spec(jitters=(-1,)))
        with pytest.raises(ConfigError):
            expand_grid(small_spec(map_efforts=("fast", "reference")))
        with pytest.raises(ConfigError):
            expand_grid(small_spec(flow="partial"))

    @pytest.mark.slow
    def test_cached_sweep_metrics_identical_to_cold(self):
        """The acceptance property: a sweep varying only simulation
        knobs reuses cached bind/map artifacts while every metric stays
        byte-identical to the uncached path."""
        spec = small_spec(
            binders=("lopass",), vector_seeds=(7, 8),
            idle_modes=("zero", "hold"), jitters=(0, 1),
        )
        cached = run_sweep(spec, jobs=1, use_cache=True)
        cold = run_sweep(spec, jobs=1, use_cache=False)
        assert [c.key for c in cached.cells] == [c.key for c in cold.cells]
        assert [c.metrics for c in cached.cells] == [
            c.metrics for c in cold.cells
        ]
        # Eight cells share one (benchmark, binder, alpha, width)
        # prefix: everything after the first cell is simulate-only.
        assert cached.stage_cache_hits > 0
        assert cold.stage_cache_hits == 0
        prefix = {"bind", "datapath", "elaborate", "techmap", "timing"}
        for cell in cached.cells[1:]:
            assert prefix <= set(cell.cache_hits)

    def test_cell_lookup_by_axis(self):
        spec = small_spec(
            binders=("lopass",), vector_seeds=(7,),
            idle_modes=("zero", "hold"),
        )
        sweep = run_sweep(spec, jobs=1)
        cell = sweep.cell("pr", "lopass", idle_selects="hold")
        assert cell.idle_selects == "hold"
        with pytest.raises(KeyError):
            sweep.cell("pr", "lopass")  # ambiguous across idle modes

    def test_stage_timings_surfaced_in_cells(self):
        sweep = run_sweep(
            small_spec(binders=("lopass",), vector_seeds=(7,)), jobs=1
        )
        (cell,) = sweep.cells
        assert set(cell.stage_timings) >= {"bind", "techmap", "simulate"}
        assert sweep.stage_time_totals()["simulate"] > 0

    def test_disk_cache_layer_shared_across_sweeps(self, tmp_path):
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        first = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        second = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        assert first.stage_cache_hits == 0
        # A fresh in-process worker state: every hit came from disk.
        # Simulate/power (unique per cell) and bind (SA-table side
        # effect) are deliberately memory-only.
        assert set(second.cells[0].cache_hits) == {
            "datapath", "elaborate", "techmap", "timing", "vectors"
        }
        assert second.cells[0].metrics == first.cells[0].metrics

    def test_disk_cache_never_skips_sa_table_population(self, tmp_path):
        """A warm disk cache must not leave a fresh SA table empty."""
        spec = small_spec(binders=("hlpower",), vector_seeds=(7,),
                          baseline="none")
        cache_dir = str(tmp_path / "artifacts")
        run_sweep(spec, jobs=1, sa_table=SATable(SATableConfig(width=3)),
                  cache_dir=cache_dir)
        table = SATable(SATableConfig(width=3), str(tmp_path / "sa.txt"))
        sweep = run_sweep(spec, jobs=1, sa_table=table, cache_dir=cache_dir)
        assert sweep.sa_new_entries > 0
        assert len(table) > 0


class TestBatchedSimulate:
    """Batched dispatch of the simulate stage, across designs."""

    @staticmethod
    def _knob_spec(**overrides):
        kwargs = dict(
            binders=("lopass",), vector_seeds=(7, 8),
            idle_modes=("zero", "hold"), jitters=(0, 1),
        )
        kwargs.update(overrides)
        return small_spec(**kwargs)

    def test_batched_metrics_identical_to_solo_and_cold(self):
        """The acceptance property: batching the simulate stage must not
        move any metric relative to per-cell dispatch or a cold run."""
        batched = run_sweep(self._knob_spec(), jobs=1)
        solo = run_sweep(self._knob_spec(sim_batch=1), jobs=1)
        cold = run_sweep(self._knob_spec(), jobs=1, use_cache=False)
        assert [c.key for c in batched.cells] == [c.key for c in solo.cells]
        assert [c.metrics for c in batched.cells] == [
            c.metrics for c in solo.cells
        ]
        assert [c.metrics for c in batched.cells] == [
            c.metrics for c in cold.cells
        ]
        # Eight cells share one techmap fingerprint: one kernel pass.
        assert batched.sim_batches == 1
        assert batched.sim_batched_cells == 8
        assert batched.sim_batch_wall_s > 0
        assert any(cell.sim_batch == 8 for cell in batched.cells)
        # Solo dispatch and the cache-less path never batch.
        assert solo.sim_batches == 0
        assert all(cell.sim_batch == 0 for cell in solo.cells)
        assert cold.sim_batches == 0

    def test_mixed_benchmark_pass_matches_per_cell(self):
        """Cells of two benchmarks and two binders (four designs) share
        one union pass; every metric equals per-cell dispatch."""
        spec = self._knob_spec(benchmarks=["pr", "wang"],
                               binders=("lopass", "hlpower"),
                               vector_seeds=(7,), idle_modes=("zero",))
        batched = run_sweep(spec, jobs=1)
        solo = run_sweep(dataclasses.replace(spec, sim_batch=1), jobs=1)
        assert batched.sim_batches == 1
        assert batched.sim_batched_cells == len(batched.cells) == 8
        assert [json.dumps(c.metrics, sort_keys=True)
                for c in batched.cells] == \
            [json.dumps(c.metrics, sort_keys=True) for c in solo.cells]

    def test_batch_size_limit_respected(self):
        sweep = run_sweep(self._knob_spec(sim_batch=2), jobs=1)
        sizes = [cell.sim_batch for cell in sweep.cells if cell.sim_batch]
        assert sizes and max(sizes) <= 2
        assert sweep.sim_batches == 4
        assert sweep.sim_batched_cells == 8

    def test_batched_cells_annotated_with_wall_clock(self):
        sweep = run_sweep(self._knob_spec(), jobs=1)
        for cell in sweep.cells:
            if cell.sim_batch:
                assert cell.sim_batch_s > 0

    def test_invalid_sim_batch_rejected(self):
        with pytest.raises(ConfigError):
            expand_grid(small_spec(sim_batch=0))

    def test_round_trip_carries_batch_fields(self):
        sweep = run_sweep(self._knob_spec(), jobs=1)
        restored = SweepResult.from_json(sweep.to_json())
        assert restored.sim_batches == sweep.sim_batches
        assert restored.sim_batched_cells == sweep.sim_batched_cells
        assert restored.sim_batch_wall_s == pytest.approx(
            sweep.sim_batch_wall_s
        )
        assert [c.sim_batch for c in restored.cells] == [
            c.sim_batch for c in sweep.cells
        ]

    def test_summary_reports_batching(self):
        from repro.flow import format_sweep_summary

        sweep = run_sweep(self._knob_spec(), jobs=1)
        assert "batched simulation: 8 cells" in format_sweep_summary(sweep)

    def test_summary_reports_hit_rate_and_stage_wall(self):
        from repro.flow import format_sweep_summary

        sweep = run_sweep(self._knob_spec(), jobs=1)
        summary = format_sweep_summary(sweep)
        assert "% hit rate)" in summary
        # Per-stage wall clock, in pipeline order.
        wall_line = summary.splitlines()[-1]
        assert wall_line.startswith("stage wall: ")
        assert wall_line.index("bind ") < wall_line.index("techmap ")
        assert "simulate " in wall_line


class TestEstimateFlow:
    def test_estimate_cells_carry_equation3_metrics(self):
        sweep = run_sweep(small_spec(flow="estimate"), jobs=1)
        for cell in sweep.cells:
            assert cell.metrics["estimated_sa"] > 0
            assert "dynamic_power_mw" not in cell.metrics

    def test_sim_axes_collapse_in_estimate_mode(self):
        spec = small_spec(
            flow="estimate", vector_seeds=(7, 8, 9),
            idle_modes=("zero", "hold"), jitters=(0, 1, 2),
        )
        # 1 benchmark x 2 binders; sim-only axes cannot move any
        # estimate metric, so they do not multiply cells.
        assert len(expand_grid(spec)) == 2

    def test_estimate_aggregates_and_summary(self):
        from repro.flow import format_sweep_summary

        sweep = run_sweep(small_spec(flow="estimate"), jobs=1)
        aggs = {a["config"]: a for a in sweep.aggregates()}
        assert aggs["lopass"]["sa_mean"] > 0
        assert aggs["lopass"]["d_sa_vs_baseline_pct"] == pytest.approx(0.0)
        assert aggs["hlpower"]["d_sa_vs_baseline_pct"] is not None
        assert "est SA" in format_sweep_summary(sweep)

    def test_estimate_round_trip(self):
        sweep = run_sweep(small_spec(flow="estimate"), jobs=1)
        restored = SweepResult.from_json(sweep.to_json())
        assert restored.spec.flow == "estimate"
        assert restored.aggregates() == sweep.aggregates()

    def test_corpus_instance_through_sweep(self):
        """A corpus name is a first-class benchmark in the sweep engine."""
        spec = small_spec(
            benchmarks=["micro-n8-m30-d70-s0"],
            binders=("lopass", "hlpower"), vector_seeds=(7,),
            flow="estimate",
        )
        sweep = run_sweep(spec, jobs=1)
        assert len(sweep.cells) == 2
        for cell in sweep.cells:
            assert cell.metrics["mux_length"] > 0
            assert cell.metrics["fu_mux_length"] >= 0


class TestForceScheduler:
    def test_force_schedule_binds_its_own_lower_bound(self):
        """Table 2 constraints can be infeasible for a latency-balanced
        schedule ('dir' needs 3 mult units); the sweep must bind
        against the schedule's min_resources, like repro.hls does."""
        spec = SweepSpec(
            benchmarks=["dir"],
            binders=("lopass",),
            widths=(4,),
            vector_seeds=(7,),
            n_vectors=8,
            scheduler="force",
        )
        sweep = run_sweep(spec, jobs=1)
        assert sweep.cell("dir", "lopass").metrics["area_luts"] > 0
