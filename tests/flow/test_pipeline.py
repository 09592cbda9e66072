"""Staged-pipeline tests: cache correctness, partial flows, estimates.

The load-bearing property is the determinism contract: a pipeline run
served from the artifact cache must produce byte-identical
``FlowResult.metrics()`` to a cold run — across binders, idle
policies and delay jitter — because the cache only ever substitutes
content-addressed recomputations. The same metrics must also come out
of the seed oracles chained without cache or fast engines.
"""

import pytest

import repro.flow.pipeline as pipeline_mod
from repro.binding import SATable
from repro.binding.sa_table import SATableConfig
from repro.errors import ConfigError
from repro.flow import (
    ArtifactCache,
    ESTIMATE_STAGES,
    EstimateResult,
    FlowConfig,
    STAGE_NAMES,
    build_pipeline,
    execute_flow,
    run_estimate,
    run_flow,
)
from tests.conftest import oracle_flow_metrics

CONSTRAINTS = {"add": 2, "mult": 1}

#: Pipeline prefix untouched by simulation-only knobs.
PREFIX = ("bind", "datapath", "elaborate", "techmap", "timing")


def config(**overrides):
    kwargs = dict(width=4, n_vectors=16,
                  sa_table=SATable(SATableConfig(width=3)))
    kwargs.update(overrides)
    return FlowConfig(**kwargs)


class TestCachedVsCold:
    @pytest.mark.parametrize(
        "binder,idle,jitter",
        [
            ("lopass", "zero", 0),
            ("hlpower", "zero", 0),
            ("hlpower", "hold", 1),
            ("lopass", "zero", 1),
        ],
    )
    def test_warm_run_metrics_byte_identical(
        self, figure1_schedule, binder, idle, jitter
    ):
        cfg = config(idle_selects=idle, delay_jitter=jitter)
        cache = ArtifactCache()
        cold = run_flow(figure1_schedule, CONSTRAINTS, binder, cfg,
                        cache=cache)
        warm = run_flow(figure1_schedule, CONSTRAINTS, binder, cfg,
                        cache=cache)
        independent = run_flow(figure1_schedule, CONSTRAINTS, binder, cfg)
        assert cold.cache_hits == []
        assert set(warm.cache_hits) == set(STAGE_NAMES)
        assert warm.metrics() == cold.metrics()  # exact, not approx
        assert independent.metrics() == cold.metrics()

    @pytest.mark.parametrize(
        "binder,idle,jitter", [("lopass", "zero", 1), ("hlpower", "hold", 0)]
    )
    def test_oracle_chain_metrics_byte_identical(
        self, figure1_schedule, binder, idle, jitter
    ):
        """The seed oracles, chained, reproduce the flow's metrics."""
        cfg = config(idle_selects=idle, delay_jitter=jitter)
        flow = run_flow(figure1_schedule, CONSTRAINTS, binder, cfg)
        assert oracle_flow_metrics(
            figure1_schedule, CONSTRAINTS, binder, cfg
        ) == flow.metrics()

    @pytest.mark.slow
    def test_full_knob_cross_product(self, figure1_schedule):
        """Exhaustive cached-vs-cold-vs-oracle sweep over every
        simulation knob."""
        for binder in ("lopass", "hlpower"):
            cache = ArtifactCache()
            for idle in ("zero", "hold"):
                for jitter in (0, 1):
                    cfg = config(idle_selects=idle, delay_jitter=jitter)
                    shared = run_flow(figure1_schedule, CONSTRAINTS,
                                      binder, cfg, cache=cache)
                    cold = run_flow(figure1_schedule, CONSTRAINTS,
                                    binder, cfg)
                    assert shared.metrics() == cold.metrics()
                    assert oracle_flow_metrics(
                        figure1_schedule, CONSTRAINTS, binder, cfg
                    ) == cold.metrics()
                    # Simulation knobs never invalidate the prefix.
                    if (idle, jitter) != ("zero", 0):
                        assert set(PREFIX) <= set(shared.cache_hits)

    def test_eviction_pressure_keeps_results_identical(
        self, figure1_schedule
    ):
        cfg = config()
        cache = ArtifactCache(max_entries=2)
        first = run_flow(figure1_schedule, CONSTRAINTS, "lopass", cfg,
                         cache=cache)
        second = run_flow(figure1_schedule, CONSTRAINTS, "lopass", cfg,
                          cache=cache)
        assert cache.evictions > 0
        assert second.metrics() == first.metrics()


class TestFingerprintInvalidation:
    def run_pair(self, schedule, cfg_a, cfg_b, binder="lopass"):
        cache = ArtifactCache()
        run_flow(schedule, CONSTRAINTS, binder, cfg_a, cache=cache)
        return run_flow(schedule, CONSTRAINTS, binder, cfg_b, cache=cache)

    def test_vector_seed_change_reuses_prefix(self, figure1_schedule):
        second = self.run_pair(
            figure1_schedule, config(), config(vector_seed=8)
        )
        assert set(second.cache_hits) == set(PREFIX)

    def test_k_change_invalidates_mapping_not_bind(self, figure1_schedule):
        second = self.run_pair(figure1_schedule, config(), config(k=3))
        assert set(second.cache_hits) == {
            "bind", "datapath", "elaborate", "vectors"
        }

    def test_width_change_invalidates_all_but_bind(self, figure1_schedule):
        # Binding is width-independent; every built artifact is not.
        second = self.run_pair(figure1_schedule, config(), config(width=5))
        assert second.cache_hits == ["bind"]

    def test_alpha_change_misses_for_hlpower_only(self, figure1_schedule):
        # HLPower reads alpha: the whole bind cone recomputes.
        second = self.run_pair(
            figure1_schedule, config(alpha=0.5), config(alpha=1.0),
            binder="hlpower",
        )
        assert set(second.cache_hits) == {"vectors"}
        # LOPASS ignores alpha: everything hits.
        second = self.run_pair(
            figure1_schedule, config(alpha=0.5), config(alpha=1.0),
            binder="lopass",
        )
        assert set(second.cache_hits) == set(STAGE_NAMES)

    def test_callable_binder_is_uncacheable(self, figure1_schedule):
        from repro.binding import bind_lopass

        def binder(schedule, constraints, registers, ports):
            return bind_lopass(schedule, constraints, registers, ports)

        cfg = config()
        cache = ArtifactCache()
        run_flow(figure1_schedule, CONSTRAINTS, binder, cfg, cache=cache)
        second = run_flow(figure1_schedule, CONSTRAINTS, binder, cfg,
                          cache=cache)
        # Only the binder-independent vectors stage can be shared.
        assert set(second.cache_hits) == {"vectors"}

    def test_sa_table_settings_enter_bind_fingerprint(
        self, figure1_schedule
    ):
        # Different SATableConfig widths can change HLPower's weights,
        # so they must not share a cached binding.
        cache = ArtifactCache()
        run_flow(
            figure1_schedule, CONSTRAINTS, "hlpower",
            config(sa_table=SATable(SATableConfig(width=3))), cache=cache,
        )
        second = run_flow(
            figure1_schedule, CONSTRAINTS, "hlpower",
            config(sa_table=SATable(SATableConfig(width=4))), cache=cache,
        )
        assert "bind" not in second.cache_hits


class TestPartialFlows:
    def test_estimate_never_simulates(self, figure1_schedule, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the estimate flow must not simulate")

        monkeypatch.setattr(pipeline_mod, "simulate_design", boom)
        monkeypatch.setattr(pipeline_mod, "random_vectors", boom)
        result = run_estimate(figure1_schedule, CONSTRAINTS, "hlpower",
                              config())
        assert isinstance(result, EstimateResult)
        assert result.estimated_sa > 0
        assert result.metrics()["estimated_sa"] == result.mapping.total_sa
        assert set(result.stage_timings) == set(ESTIMATE_STAGES)

    def test_estimate_matches_full_flow_equation3(self, figure1_schedule):
        cfg = config()
        cache = ArtifactCache()
        estimate = run_estimate(figure1_schedule, CONSTRAINTS, "hlpower",
                                cfg, cache=cache)
        full = run_flow(figure1_schedule, CONSTRAINTS, "hlpower", cfg,
                        cache=cache)
        assert estimate.estimated_sa == full.estimated_sa
        assert estimate.area_luts == full.area_luts
        assert estimate.metrics()["largest_mux"] == (
            full.metrics()["largest_mux"]
        )
        # The full flow reused the estimate's entire prefix.
        assert set(PREFIX) <= set(full.cache_hits)

    def test_run_flow_rejects_estimate_config(self, figure1_schedule):
        with pytest.raises(ConfigError):
            run_flow(figure1_schedule, CONSTRAINTS, "lopass",
                     config(flow="estimate"))

    def test_execute_flow_dispatches_on_flow_mode(self, figure1_schedule):
        estimate = execute_flow(figure1_schedule, CONSTRAINTS, "lopass",
                                config(flow="estimate"))
        assert isinstance(estimate, EstimateResult)
        full = execute_flow(figure1_schedule, CONSTRAINTS, "lopass",
                            config())
        assert full.power.dynamic_power_mw > 0

    def test_pipeline_materializes_only_requested_stages(
        self, figure1_schedule
    ):
        pipe = build_pipeline(figure1_schedule, CONSTRAINTS, "lopass",
                              config())
        pipe.artifact("techmap")
        assert set(pipe.timings) == {
            "bind", "datapath", "elaborate", "techmap"
        }

    def test_unknown_stage_rejected(self, figure1_schedule):
        pipe = build_pipeline(figure1_schedule, CONSTRAINTS, "lopass",
                              config())
        with pytest.raises(ConfigError):
            pipe.artifact("route")


class TestStageInstrumentation:
    def test_timings_cover_all_stages(self, figure1_schedule):
        result = run_flow(figure1_schedule, CONSTRAINTS, "lopass", config())
        assert set(result.stage_timings) == set(STAGE_NAMES)
        assert all(t >= 0 for t in result.stage_timings.values())
        assert "runtime_s" not in result.metrics()
        assert "stage_timings" not in result.metrics()
