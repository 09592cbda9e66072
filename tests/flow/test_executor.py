"""Resident-executor tests: warm state across submissions, byte-identical
results versus transient sweeps, stats accounting, and lifecycle."""

import json
import os
import signal
from collections import Counter

import pytest

import repro.flow.executor as executor_mod
import repro.flow.pipeline as pipeline_mod
import repro.flow.run as run_mod
from repro.binding import SATable
from repro.errors import ConfigError, WorkerLostError
from repro.flow import CacheStats, FlowExecutor, SweepSpec, run_sweep
from repro.flow.executor import DEFAULT_CACHE_ENTRIES
from repro.flow.grid import expand_grid


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


class TestWarmState:
    def test_memos_survive_across_submissions(self):
        """A second identical submission must be all warm: every stage
        served from the resident cache, every schedule from the memo."""
        spec = small_spec()
        with FlowExecutor() as executor:
            first = executor.run_jobs(spec, expand_grid(spec))
            second = executor.run_jobs(spec, expand_grid(spec))
        cold_hits = sum(len(c.cache_hits) for c in first.cells)
        warm_hits = sum(len(c.cache_hits) for c in second.cells)
        warm_total = sum(len(c.stage_timings) for c in second.cells)
        assert warm_hits == warm_total > cold_hits
        # Simulate artifacts are memory-only but resident, so even the
        # seed-specific stages hit on the second pass.
        assert all(c.schedule_cache_hit for c in second.cells)
        assert second.sa_new_entries == 0

    def test_warm_submission_metrics_identical(self):
        """Warm state only ever substitutes byte-identical work."""
        spec = small_spec()
        with FlowExecutor() as executor:
            first = executor.run_jobs(spec, expand_grid(spec))
            second = executor.run_jobs(spec, expand_grid(spec))
        assert [c.metrics for c in first.cells] == \
            [c.metrics for c in second.cells]

    def test_resident_matches_transient_run_sweep(self):
        """run_sweep through a resident executor is byte-identical to
        the default transient path."""
        spec = small_spec()
        transient = run_sweep(spec, jobs=1)
        with FlowExecutor() as executor:
            resident = run_sweep(spec, executor=executor)
            rewarm = run_sweep(spec, executor=executor)
        for other in (resident, rewarm):
            assert [c.metrics for c in other.cells] == \
                [c.metrics for c in transient.cells]
        # The transient baseline starts cold every call; the resident
        # executor's second sweep is entirely cache-served.
        assert transient.stage_cache_hits == resident.stage_cache_hits
        assert rewarm.stage_cache_misses == 0

    def test_run_sweep_default_state_stays_fresh(self):
        """The historical contract: without executor=, consecutive
        run_sweep calls share nothing in-process."""
        spec = small_spec()
        first = run_sweep(spec, jobs=1)
        second = run_sweep(spec, jobs=1)
        assert first.stage_cache_hits == second.stage_cache_hits
        assert second.schedule_cache_misses > 0


class TestWarmRepeat:
    def test_warm_estimate_repeat_skips_encoding_and_reports(
            self, monkeypatch):
        """The flow-input token is encoded once per elaboration-memo
        entry, and the controller and mux report once per artifact: a
        warm repeat of an estimate cell does neither, adds no SA-table
        entry so copies no table, and answers the cold cell's
        metrics."""
        calls = Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(pipeline_mod, "schedule_token")
        count(run_mod, "build_controller")
        count(run_mod, "mux_report")
        count(SATable, "snapshot")
        spec = small_spec(binders=("hlpower",), vector_seeds=(7,),
                          baseline="none", flow="estimate")
        with FlowExecutor(jobs=1) as executor:
            cold = executor.run_jobs(spec, expand_grid(spec))
            assert cold.sa_new_entries > 0
            assert (calls["schedule_token"], calls["build_controller"],
                    calls["mux_report"]) == (1, 1, 1)
            calls.clear()
            warm = executor.run_jobs(spec, expand_grid(spec))
        assert calls == {}
        assert warm.cells[0].schedule_cache_hit
        assert warm.cells[0].metrics == cold.cells[0].metrics


class TestStats:
    def test_executor_stats_accumulate(self):
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        with FlowExecutor() as executor:
            executor.run_jobs(spec, expand_grid(spec))
            executor.run_jobs(spec, expand_grid(spec))
            stats = executor.stats
        assert stats.submissions == 2
        assert stats.cells == 2
        assert stats.chunks == 2
        assert stats.schedule_cache_hits == 1  # second submission only
        assert stats.wall_s > 0.0

    def test_submission_carries_cache_delta(self):
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        with FlowExecutor() as executor:
            cold = executor.run_jobs(spec, expand_grid(spec))
            warm = executor.run_jobs(spec, expand_grid(spec))
        assert isinstance(cold.cache, CacheStats)
        assert cold.cache.hits == 0 and cold.cache.misses > 0
        assert warm.cache.misses == 0 and warm.cache.hits > 0
        assert warm.cache.hit_rate == 1.0

    def test_lifetime_cache_stats_merge_submissions(self):
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        with FlowExecutor() as executor:
            cold = executor.run_jobs(spec, expand_grid(spec))
            warm = executor.run_jobs(spec, expand_grid(spec))
            total = executor.cache_stats()
        assert total.hits == cold.cache.hits + warm.cache.hits
        assert total.misses == cold.cache.misses + warm.cache.misses

    def test_cone_memo_counters_accumulate(self):
        """The cache's one cone memo serves both binders' netlists; its
        hit/miss/reset deltas land in the executor stats."""
        spec = small_spec(vector_seeds=(7,))
        with FlowExecutor() as executor:
            executor.run_jobs(spec, expand_grid(spec))
            memo = executor._state["cache"].cone_memo
            counts = dict(executor.stats.cone_memo)
            data = executor.stats.to_dict()
        assert counts == {"hits": memo.hits, "misses": memo.misses,
                          "resets": memo.resets}
        assert counts["hits"] > 0 and counts["misses"] > 0
        assert data["cone_memo"] == counts

    def test_stats_to_dict_round_trips_cache(self):
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        with FlowExecutor() as executor:
            executor.run_jobs(spec, expand_grid(spec))
            data = executor.stats.to_dict()
        assert data["submissions"] == 1
        assert data["cache"]["misses"] > 0
        assert 0.0 <= data["cache"]["hit_rate"] <= 1.0


class TestLifecycle:
    def test_shutdown_rejects_further_submissions(self):
        executor = FlowExecutor()
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        executor.run_jobs(spec, expand_grid(spec))
        executor.shutdown()
        with pytest.raises(ConfigError):
            executor.run_jobs(spec, expand_grid(spec))
        with pytest.raises(ConfigError):
            executor.start()

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigError):
            FlowExecutor(jobs=0)
        with pytest.raises(ConfigError):
            FlowExecutor(use_cache=False, cache_dir="/tmp/nope")

    def test_keep_results_requires_in_process(self):
        executor = FlowExecutor(jobs=2)
        spec = small_spec()
        try:
            with pytest.raises(ConfigError):
                executor.run_jobs(spec, expand_grid(spec), keep_results=True)
        finally:
            executor.shutdown()

    def test_run_sweep_executor_conflicts_rejected(self):
        with FlowExecutor() as executor:
            spec = small_spec(binders=("lopass",), vector_seeds=(7,))
            with pytest.raises(ConfigError):
                run_sweep(spec, jobs=2, executor=executor)
            with pytest.raises(ConfigError):
                run_sweep(spec, cache_dir="/tmp/nope", executor=executor)
            with pytest.raises(ConfigError):
                run_sweep(spec, use_cache=False, executor=executor)
            with pytest.raises(ConfigError):
                run_sweep(
                    spec, cache_entries=DEFAULT_CACHE_ENTRIES + 1,
                    executor=executor,
                )

    def test_keep_results_retains_flow_results(self):
        spec = small_spec(binders=("lopass",), vector_seeds=(7,))
        with FlowExecutor() as executor:
            submission = executor.run_jobs(
                spec, expand_grid(spec), keep_results=True
            )
        assert len(submission.results) == 1
        (result,) = submission.results.values()
        assert result.metrics() == submission.cells[0].metrics


@pytest.mark.slow
class TestResidentPool:
    def test_pool_children_stay_warm_across_submissions(self):
        """jobs>1: the second submission lands on already-warmed children.

        Chunk-to-child assignment is scheduler-dependent, so not every
        cell is guaranteed a cache hit — but the children keep their
        state, so the second pass must be strictly warmer than the
        first (which starts from zero) and byte-identical.
        """
        spec = small_spec()
        with FlowExecutor(jobs=2) as executor:
            first = executor.run_jobs(spec, expand_grid(spec))
            second = executor.run_jobs(spec, expand_grid(spec))
        assert [c.metrics for c in first.cells] == \
            [c.metrics for c in second.cells]
        cold_hits = sum(len(c.cache_hits) for c in first.cells)
        warm_hits = sum(len(c.cache_hits) for c in second.cells)
        assert warm_hits > cold_hits
        assert any(c.schedule_cache_hit for c in second.cells)

    def test_pool_entries_not_new_to_a_later_in_process_run(self):
        """SA entries the children computed and the parent merged are
        not reported again by a later in-process (one-cell) submission,
        which computes none of its own (LOPASS needs no SA value)."""
        with FlowExecutor(jobs=2) as executor:
            pooled = executor.run_jobs(small_spec(
                binders=("hlpower",), baseline="none", widths=(4, 8),
                vector_seeds=(7,), flow="estimate",
            ))
            assert len(pooled.cells) == 2 and pooled.sa_new_entries > 0
            single = executor.run_jobs(small_spec(
                binders=("lopass",), vector_seeds=(7,), flow="estimate",
            ))
        assert len(single.cells) == 1
        assert single.sa_new_entries == 0

    def test_pool_children_merge_cone_memo_counters(self):
        """jobs>1: each child's cone-memo deltas ship back with its
        chunk and merge into the parent's stats (which child maps which
        netlist is scheduler-dependent, so only misses are certain)."""
        spec = small_spec()
        with FlowExecutor(jobs=2) as executor:
            executor.run_jobs(spec, expand_grid(spec))
            counts = executor.stats.to_dict()["cone_memo"]
            assert executor._state["cache"].cone_memo.misses == 0
        assert counts["misses"] > 0
        assert counts["resets"] == 0


class TestDeadWorker:
    """A pool worker killed mid-chunk: the pool respawns and the lost
    chunks run again, or the cells are named in a WorkerLostError; the
    next submission succeeds either way."""

    @staticmethod
    def _dying_execute(monkeypatch, should_die):
        """Patch the per-job runner the forked children inherit: a pool
        worker SIGKILLs itself when ``should_die()``."""
        real = executor_mod._execute
        parent = os.getpid()

        def execute(*args, **kwargs):
            if os.getpid() != parent and should_die():
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "_execute", execute)

    def test_killed_worker_recovers_byte_identical(self, monkeypatch,
                                                   tmp_path):
        marker = str(tmp_path / "killed-once")

        def first_caller():
            try:  # exactly one worker claims the marker, and dies
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return False
            return True

        self._dying_execute(monkeypatch, first_caller)
        spec = small_spec()
        direct = run_sweep(spec, jobs=1)
        with FlowExecutor(jobs=2) as executor:
            recovered = executor.run_jobs(spec)
            again = executor.run_jobs(spec)
        assert os.path.exists(marker)
        expected = [json.dumps(c.metrics, sort_keys=True)
                    for c in direct.cells]
        for submission in (recovered, again):
            assert [json.dumps(c.metrics, sort_keys=True)
                    for c in submission.cells] == expected

    def test_worker_dying_on_retry_names_the_lost_cells(self, monkeypatch,
                                                         tmp_path):
        doom = tmp_path / "doom"
        doom.touch()
        self._dying_execute(monkeypatch, doom.exists)
        spec = small_spec()
        with FlowExecutor(jobs=2) as executor:
            with pytest.raises(WorkerLostError,
                               match=r"lost cells: .*pr/lopass w4 seed 7"):
                executor.run_jobs(spec)
            doom.unlink()
            after = executor.run_jobs(spec)
        assert [c.metrics for c in after.cells] == \
            [c.metrics for c in run_sweep(spec, jobs=1).cells]

    def test_lost_cells_differing_in_idle_mode_are_told_apart(
            self, monkeypatch, tmp_path):
        doom = tmp_path / "doom"
        doom.touch()
        self._dying_execute(monkeypatch, doom.exists)
        spec = small_spec(binders=("lopass",), vector_seeds=(7,),
                          idle_modes=("zero", "hold"))
        with FlowExecutor(jobs=2) as executor:
            with pytest.raises(WorkerLostError) as info:
                executor.run_jobs(spec)
        message = str(info.value)
        for idle in ("zero", "hold"):
            assert (f"pr/lopass w4 seed 7 idle_selects={idle} "
                    f"delay_jitter=0 map_effort=fast") in message
