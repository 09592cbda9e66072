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
from repro import benchmark_spec
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
from repro.cdfg import load_benchmark
from repro.scheduling import list_schedule
from repro.serve.api import request_key, single_cell_spec, sweep_spec
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


# ---------------------------------------------------------------------------
# Fingerprint golden: stage digests and serve dedup keys are persistent
# identities (on-disk cache entries, in-flight request keys), so a
# refactor of how configs are declared must leave every one of them
# byte-identical. Regenerate only for a deliberate CACHE_SALT bump.
# ---------------------------------------------------------------------------

#: Non-default FlowConfigs whose knobs jointly touch every stage.
GOLDEN_CONFIGS = {
    "default": {},
    "sim": dict(width=4, k=5, n_vectors=32, vector_seed=9, alpha=0.25,
                idle_selects="hold", delay_jitter=2),
    "map": dict(map_effort="exhaustive", mcts_budget=16, mcts_seed=3,
                check_function=False, control_activity=0.2,
                sim_clock_ns=20.0),
    "estimate": dict(flow="estimate", alpha=1.0, width=16,
                     sa_table=SATable(SATableConfig(width=3))),
}

#: (config, binder) -> stage fingerprints in STAGE_NAMES order, on pr.
FINGERPRINT_GOLDEN = {
    ('default', 'lopass'): (
        'd75151456ca6bee3ff6139e7e63863795381bb21ba41471611fefd31c4767b9f',
        '11ba05a77e5a42dd7e4e5eb85e55fdec9e9f5ea282dcd32bfcebbfc9726d40c8',
        '571d8c14acf5bf2b589b67fd8a03b2ee5a3286daa06a044e079578bf6c5c78b2',
        'e5fc86af3b6389845a825342452380d69feb5817196b2a970392f9ff8dfdf9a2',
        '39c563c848d5c72c6400f7e0d0da4e8a760df3cbbce860ce92c9128ccbf2e2b5',
        '5747bcd2953e00544fc98f013e666ddc2dc01d582b289757cf2da5ae9593dace',
        '2d42ce89036d4734bc619a2f6ac93c1f258e054d3ecca02595583944331e9cd0',
        '86de14281d6746c76f167e1b675cac4da119a283a685e15f8818dde85fcd116f',
    ),
    ('default', 'hlpower'): (
        '45dbacfb8df0a3ed0a8b7a236c3049e7c3df57ab4f92c40f33e346ea66f27e46',
        '953df2d6ff7d3d245d7476c1a81c9b038d83d76a03be6981f7064cd1050f4252',
        'e92b6705a811163fc50d023ce89c6f23b7fd9810b22f7546fb9510c2f18bd3d9',
        'beba69bbb36ca92873d39ae14cc1151d1847f6aab2b66a834017c6b03ddfa07a',
        '130db60dc9a2db196b4b391d7adb565f61de0bcdc1f270b8f57a0e194724cec9',
        '5747bcd2953e00544fc98f013e666ddc2dc01d582b289757cf2da5ae9593dace',
        '2c37e5ee6f102aa34ce1cdb839fed0d3830f3757bc30d1249c8d033d638c91af',
        '970e15f32fe5af39ab47264e859d6e11868d2741ed31ffbd8669b276dc7b9275',
    ),
    ('default', 'mcts'): (
        '5daa7b2638cb73b666ca5eff2e109d4abe376e660d7f3b9cc2148c20e52d6c3d',
        '3c15a5154570dc158ca7b8d208b32bb0db65fa76853683dae8862dd8d0d30b30',
        '97f8c4ebc79b3d4445c80b3fe31350ac8a8e01e1995e2dee20dafe948d99461d',
        '9bb88427f04dc86bf96602a932e2b10beb832c056a2dc0a6adc7e09f344e215b',
        '42a32a658cc36251f3cdbc0310d1d56faf2b3bf8d57ae3f5c9e9274cca08f33c',
        '5747bcd2953e00544fc98f013e666ddc2dc01d582b289757cf2da5ae9593dace',
        '32b66b75d61f10296728a2787edc6a85e80ba06639f48d823de849360c07ab91',
        '1b7dcda71a524cc2d6cff0f17153f6917b67fb483879fc7fb2dfda48700c6765',
    ),
    ('sim', 'lopass'): (
        'd75151456ca6bee3ff6139e7e63863795381bb21ba41471611fefd31c4767b9f',
        'b23fa954bc7f6dea3a1bd4dd9faa98e83f5139995f63e5b13e1137f43e49f88b',
        '06fa3dabd86c7a4dc093a4d3ea85f45b3c5cb97bbf4f7b4daafd0df7860765b8',
        '6983f16c38833441bfaf825b20b13985424b3b938086812c04ec401c34e9feb0',
        'a3d2f2e75d164d70fd8219bede226133963c2a58d932a9de45bc185ef9e4c982',
        'eaa1f8b1c63c06fe3247adf2984b4bb5e19819796d5e203862ac322d4aa5affd',
        'a131d15781aef1be3a525e038673e1b091d9fc972ab4d1d98bf507093a19433a',
        '52e49bfe16af619af0a3af69348faa7876ebdbe94fbd28210fa92efc051d2f37',
    ),
    ('sim', 'hlpower'): (
        '3adaf132fa3fe164fb41004bd0184f25a9b5fcf7d43be878b8711ef0c4c02f0a',
        '66290946afe29d1d65ab1510e7feb47565a9637472b2b1d239cd7ab0baddac3c',
        '6296ff5d109787112506450240b5fdf601ab3ef7c8775d64abe4b80f63a6da1b',
        '8b9222bdda242855b82ce21fc53741d01a1d7a3aae5d1fd18088361fdbb113af',
        '5654d682261a61761e8c95356da582a05a91876d17c14d2ae78d8b9efc40e245',
        'eaa1f8b1c63c06fe3247adf2984b4bb5e19819796d5e203862ac322d4aa5affd',
        '43281c1ba245471438481ac58de33e13813a35279929739c347c0f6571a00565',
        'e11dabf665d492e0fd39a6d3459a7e4188cdf7dbf56678c571bcdde79c5b3ace',
    ),
    ('sim', 'mcts'): (
        'c5a2a7f480b8eabb47cb154dc047cd0f23789c32200c5826570894e72239160c',
        '7aa0ec190f6aa47fe009342e42ce10b2bdd658043fe46d4bc2963bfaa623e40c',
        'fcef1ac697e48caaf761c7105af5b769214902dc7ee0ea2a16bdbc4bbc241825',
        'e5ed8aaeac46687bed3e7c79de8fa363b5775ae31d99ca5af850a6bd50dbe613',
        'acfe487641b665a5c6944528f510d0405b38f1a30d203f22fe8a001d1b2f3242',
        'eaa1f8b1c63c06fe3247adf2984b4bb5e19819796d5e203862ac322d4aa5affd',
        'd69e99ea96739a4c7d1f9c62b2ff5b70c1c19e6afff889c69b2df57e67465c94',
        'aede313ef36c09942ddf992d7b574744039be6aa6e35238f10759da4eef6b4bf',
    ),
    ('map', 'lopass'): (
        'd75151456ca6bee3ff6139e7e63863795381bb21ba41471611fefd31c4767b9f',
        '11ba05a77e5a42dd7e4e5eb85e55fdec9e9f5ea282dcd32bfcebbfc9726d40c8',
        '571d8c14acf5bf2b589b67fd8a03b2ee5a3286daa06a044e079578bf6c5c78b2',
        '5b626b7c11cabf0366e393b0876e9e3de43603fdb6076738f37bad52f6e8e41c',
        '65e3e23d4947ef66a6e0d64bc3bf5b5e7d9fe128a2079dddc361d8e14d56b6e8',
        '5747bcd2953e00544fc98f013e666ddc2dc01d582b289757cf2da5ae9593dace',
        '696a686efd4ad3e70030d4a67f53a9d5e812a6689d6d6df43b72fcce811a517a',
        '6f5916d81193fc7bec8d411d6c194358d1a1c819b9acfe8108673877ee483a7c',
    ),
    ('map', 'hlpower'): (
        '45dbacfb8df0a3ed0a8b7a236c3049e7c3df57ab4f92c40f33e346ea66f27e46',
        '953df2d6ff7d3d245d7476c1a81c9b038d83d76a03be6981f7064cd1050f4252',
        'e92b6705a811163fc50d023ce89c6f23b7fd9810b22f7546fb9510c2f18bd3d9',
        '5f653230d79475b68eb2d17fcf52f4ef30c832c2dae00e728289fe94827b26c7',
        '42a25da60d5fc809eff3d0d88df3e98074b47bad553bbe762983219142354ea2',
        '5747bcd2953e00544fc98f013e666ddc2dc01d582b289757cf2da5ae9593dace',
        '7d1f806f48428f0a87b580c44859106b34ab505d69b7673e7c3c56355aa71ab6',
        'a0dfc7222017688ffdf438601568de43f9c5117bd775e7deb90eebd9ee231bd8',
    ),
    ('map', 'mcts'): (
        'd0630824190029b629240f011b662b78fa803b8b1142424d6a71fc37d7d1433e',
        '48099f90415dcf7926bd97dd3e47ff3fe672411d1d50a91bc07a7cf13cab7bdf',
        '245251bc5373eb46473ebdb65645167a771cf987d0c1bda397786e47d13fdcff',
        '8d57275734cad6bc61a947b205aeaa8d3de4916b68f0d75aa4cf88323268afcb',
        '8d4d14f3e5112410874d0a4f308156a204eb6299ae76e140c1a62498167a33d3',
        '5747bcd2953e00544fc98f013e666ddc2dc01d582b289757cf2da5ae9593dace',
        'c19210ae32bf57cf2aa4acfb39948a3188874dd1ab8b63a8b368440b0097542e',
        'd6d7d6a30e249638b950784ca9575879b616c2b71178cbcf7166d1275c509ae5',
    ),
    ('estimate', 'lopass'): (
        'd75151456ca6bee3ff6139e7e63863795381bb21ba41471611fefd31c4767b9f',
        'e95384ff6eb13e0d2ed8179b3abec5fa14fb67795856b20dff94f309bbbe695e',
        '9406055324681fda545d6a6381f02ff32fce70058f1a24a30870021f42b2ee8c',
        '9114fe664a4545a039164916966fd665ec109db5c7c61f5d51e91670f1814bd4',
        '91cf88ebd777400500ec694a23edcaa32f934f911cd207b20238f1f11312221f',
        '140a9d88d214478734b2bc1d2cc00e088c082323cab555cedd2a9d079ebc84ea',
        'c46a52481fe08e4c8262f9e5c73a8226ccfa98850a728acabf2890764c4d7c9f',
        'b97579f6870a22f41aae9b5b0784206306c1138f03ca787a1325043085debf12',
    ),
    ('estimate', 'hlpower'): (
        'c3c26d4772261df6595f5521fc162972c89ff223c8c4c6de8b7426801ce0ea09',
        'ca514700547affe98fcf358b66a0fddcdba4cb515a3af7efebf8c3e7a3012dd6',
        'ab0e34435ea5c6dd9f3c90b53cfa09b8b197f2dc3078781452c9f93a8865b30d',
        '5cd54df9311ba67deaa1c6664db8b3bec8c8024a16d671ed933a64ab9155af6a',
        'b5e24f25b9ea13ac863dd3092d7598fa06dd8e5db8159fc4d11415735c85f81d',
        '140a9d88d214478734b2bc1d2cc00e088c082323cab555cedd2a9d079ebc84ea',
        '43ae0786c99ba2c65e995346ea18284a5f6bc313c3cf79d4418c7e71c3e055b3',
        '3654dba34d55f7e6b0f0b1022664cad076383af7a3b296986cdd515ffe7e36a0',
    ),
    ('estimate', 'mcts'): (
        '8cd86963c3dc2e7832dee79503cbde4eaa2707f7bde902b3ba88e8a86f95aa9a',
        '46031aaf2a0df1705ba78695b1d84d0db9c8d4b4c5b83ca78c0734a508908644',
        '6da27553f7c09958e38e9fb00e9e1372a84422dd0902b27d398e228421ad6eee',
        'aa0ef85a98774ff87c99190de0d9d82d4bf337e2d636d6454f7a1a467ea97351',
        '901815c1e17c1cf26db3c9ab265a294247f5d3a81521dbc8ab09b3722bb7cbd6',
        '140a9d88d214478734b2bc1d2cc00e088c082323cab555cedd2a9d079ebc84ea',
        '4d0bb7b14122b54896b63b25714013a334fca3c3c0035443d990c2dfa2087421',
        'e351975dacb692d7ee7751eb067d0127f5b376be3ac2b4748c344d9113f7dc42',
    ),
}

#: Serve request bodies and their in-flight dedup keys.
GOLDEN_REQUEST_KEYS = [
    ("flow", {"benchmark": "pr"},
     "4fe46c6eb16bcfa2364f0443ed6383fbbc0b0a1eb4aa7a7896e768f95089dbc4"),
    ("flow", {"benchmark": "pr", "binder": "mcts", "width": 4,
              "n_vectors": 16, "vector_seed": 11, "delay_jitter": 1,
              "idle_selects": "hold", "alpha": 0.25, "mcts_budget": 8,
              "k": 5, "map_effort": "exhaustive"},
     "0fe8d4be59ac414c51a0a5006e672428bbfab4891eb12294e60d8af75c9b00dc"),
    ("sweep", {"benchmarks": ["pr", "wang"], "binders": ["lopass", "hlpower"],
               "alphas": [0.5, 1.0], "widths": [4], "vector_seeds": [7, 8],
               "n_vectors": 16, "jitters": [0, 1],
               "idle_modes": ["zero", "hold"]},
     "b7169f79d22b647e6170a038e21160b1e85f2cba6e67729722672e6bb461295a"),
]


class TestFingerprintGolden:
    @pytest.mark.parametrize("name,binder", sorted(FINGERPRINT_GOLDEN))
    def test_stage_fingerprints_pinned(self, name, binder):
        bench = benchmark_spec("pr")
        schedule = list_schedule(load_benchmark("pr"), bench.constraints)
        pipe = build_pipeline(schedule, bench.constraints, binder,
                              FlowConfig(**GOLDEN_CONFIGS[name]))
        digests = tuple(pipe.stage_fingerprint(s) for s in STAGE_NAMES)
        assert digests == FINGERPRINT_GOLDEN[name, binder]

    @pytest.mark.parametrize("kind,body,key", GOLDEN_REQUEST_KEYS)
    def test_request_keys_pinned(self, kind, body, key):
        if kind == "sweep":
            spec = sweep_spec(body)
        else:
            spec = single_cell_spec(body, "full")
        assert request_key(kind, spec) == key
