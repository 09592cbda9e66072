"""The knob table (repro.flow.knobs) and the surfaces derived from it.

Two properties, both parametrized over ``KNOBS`` so a new row is
covered without editing this file:

* consistency — each row's FlowConfig / SweepSpec field exists with the
  row's default, and changing its value moves exactly the fingerprints
  of the stages it names (plus their downstream), no earlier stage;
* eager rejection — every malformed value fails when the FlowConfig or
  SweepSpec is built (or re-validated), with a ConfigError.
"""

import dataclasses

import pytest

from repro import benchmark_spec
from repro.cdfg import load_benchmark
from repro.errors import ConfigError
from repro.flow import (
    STAGE_NAMES,
    STAGES,
    FlowConfig,
    SweepSpec,
    build_pipeline,
    expand_grid,
)
from repro.flow.batch import run_sweep
from repro.flow.executor import _flow_config
from repro.flow.knobs import (
    AXIS_KNOBS,
    CONFIG_KNOBS,
    KNOBS,
    SWEEP_KNOBS,
    check_knob,
)
from repro.serve.api import cell_payload
from repro.scheduling import list_schedule
from tests.knob_values import bad_values, cases, other_value


def _field_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


class TestTableConsistency:
    def test_flow_config_fields_are_the_config_rows_in_order(self):
        assert [f.name for f in dataclasses.fields(FlowConfig)] == [
            knob.name for knob in CONFIG_KNOBS
        ]

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_defaults_pass_their_own_check(self, name):
        knob = KNOBS[name]
        other = other_value(knob)
        assert check_knob(name, knob.default) is knob.default
        assert check_knob(name, other) is other

    @pytest.mark.parametrize("name", [k.name for k in CONFIG_KNOBS])
    def test_flow_config_field_default(self, name):
        assert _field_defaults(FlowConfig)[name] == KNOBS[name].default

    @pytest.mark.parametrize("name", [k.name for k in SWEEP_KNOBS])
    def test_sweep_spec_fields_and_defaults(self, name):
        knob = KNOBS[name]
        defaults = _field_defaults(SweepSpec)
        if knob.scalar:
            assert defaults[name] == knob.default
        if knob.axis:
            expected = None if knob.scalar else (knob.default,)
            assert defaults[knob.axis] == expected

    @pytest.mark.parametrize("name", sorted(KNOBS))
    def test_stages_exist(self, name):
        assert set(KNOBS[name].stages) <= set(STAGE_NAMES)

    @pytest.mark.parametrize("name", [k.name for k in SWEEP_KNOBS])
    def test_sweep_value_reaches_the_cell_flow_config(self, name):
        # SweepSpec -> SweepJob -> FlowConfig is derived from the table:
        # a value set on the spec is the value every cell runs with.
        knob = KNOBS[name]
        value = other_value(knob)
        field = knob.name if knob.scalar else knob.axis
        spec = SweepSpec(
            benchmarks=["pr"], binders=("hlpower",), baseline="none",
            **{field: value if knob.scalar else (value,)},
        )
        jobs = expand_grid(spec)
        assert jobs
        if knob.config:
            assert getattr(_flow_config(jobs[0], spec, None), name) == value
        else:
            assert getattr(spec, name) == value


class TestAxisSurfaces:
    """Each grid axis row reaches every surface derived from it."""

    @pytest.mark.parametrize("name", [k.name for k in AXIS_KNOBS])
    def test_axis_value_reaches_every_surface(self, name):
        knob = KNOBS[name]
        value = other_value(knob)
        fields = dict(benchmarks=["pr"], binders=("lopass",), widths=(4,),
                      n_vectors=8, baseline="none")
        spec = SweepSpec(**dict(fields, **{knob.axis: (value,)}))
        (job,) = expand_grid(spec)
        assert getattr(job, name) == value
        sweep = run_sweep(spec)
        (cell,) = sweep.cells
        assert getattr(cell, name) == value
        assert cell_payload(cell)[name] == value
        (aggregate,) = sweep.aggregates()
        if knob.column:
            assert aggregate[name] == value
        else:  # the averaged axis: one seed in the group
            assert name not in aggregate and aggregate["n_seeds"] == 1
        assert sweep.cell("pr", "lopass", **{name: value}) is cell
        with pytest.raises(KeyError):
            sweep.cell("pr", "lopass", **{name: knob.default})

    @pytest.mark.parametrize("lookup", ["cell", "result_of"])
    def test_unknown_coordinate_names_the_axes(self, lookup):
        sweep = run_sweep(SweepSpec(
            benchmarks=["pr"], binders=("lopass",), widths=(4,),
            n_vectors=8, baseline="none",
        ), keep_results=True)
        with pytest.raises(TypeError, match="widht") as info:
            getattr(sweep, lookup)("pr", "lopass", widht=4)
        for knob in AXIS_KNOBS:
            assert knob.name in str(info.value)


def _downstream(stages, graph=STAGES):
    """The named stages of ``graph`` plus every stage depending on one
    of them."""
    closure = set(stages) & set(graph)
    for name, stage in graph.items():  # topological order
        if closure & set(stage.deps):
            closure.add(name)
    return closure


@pytest.fixture(scope="module")
def pr_inputs():
    bench = benchmark_spec("pr")
    return (list_schedule(load_benchmark("pr"), bench.constraints),
            bench.constraints)


@pytest.mark.parametrize("name", [k.name for k in CONFIG_KNOBS])
def test_knob_moves_exactly_its_stages_fingerprints(pr_inputs, name):
    knob = KNOBS[name]
    schedule, constraints = pr_inputs

    def digests(cfg):
        # mcts reads every bind knob (alpha, SA settings, budget, seed).
        pipe = build_pipeline(schedule, constraints, "mcts", cfg)
        return {s: pipe.stage_fingerprint(s) for s in STAGE_NAMES}

    before = digests(FlowConfig())
    after = digests(FlowConfig(**{name: other_value(knob)}))
    changed = {s for s in STAGE_NAMES if before[s] != after[s]}
    assert changed == _downstream(knob.stages)


@pytest.mark.parametrize("name", [k.name for k in CONFIG_KNOBS])
def test_knob_moves_exactly_its_design_stages_fingerprints(pr_inputs,
                                                           name):
    """The same rule for an ingested design's stage rows: a knob moves
    its design stages (control_activity the techmap, device the
    timing) and their downstream, nothing else."""
    from repro.ingest import DesignPipeline, load_design_text
    from tests.ingest.test_flow import TINY_TEXT

    knob = KNOBS[name]
    design = load_design_text(TINY_TEXT)
    graph = DesignPipeline.stages

    def digests(cfg):
        pipe = DesignPipeline(design, cfg)
        return {s: pipe.stage_fingerprint(s) for s in graph}

    before = digests(FlowConfig())
    after = digests(FlowConfig(**{name: other_value(knob)}))
    changed = {s for s in graph if before[s] != after[s]}
    assert changed == _downstream(knob.stages, graph)
    # Design and generator digests live in one cache: they never meet.
    schedule, constraints = pr_inputs
    generator = build_pipeline(schedule, constraints, "lopass",
                               FlowConfig())
    assert before["elaborate"] not in {
        generator.stage_fingerprint(s) for s in STAGE_NAMES
    }


class TestMalformedFlowConfig:
    @pytest.mark.parametrize("name,value", cases(CONFIG_KNOBS, bad_values))
    def test_rejected_at_construction(self, name, value):
        with pytest.raises(ConfigError, match=name):
            FlowConfig(**{name: value})

    @pytest.mark.parametrize("kwargs", [
        {"delay_jitter": 1.5}, {"delay_jitter": True}, {"width": 0},
        {"k": 0}, {"k": 1}, {"k": 7}, {"n_vectors": 0},
        {"alpha": float("nan")}, {"alpha": -3.0}, {"check_function": "no"},
    ])
    def test_reported_cases(self, kwargs):
        with pytest.raises(ConfigError):
            FlowConfig(**kwargs)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(FlowConfig(), k=0)


def _sweep_field_cases():
    """(SweepSpec field, bad value) per knob: scalars take the bad
    value itself, axes a one-element list of it or an empty list."""
    out = []
    for knob in SWEEP_KNOBS:
        for value in bad_values(knob):
            if knob.scalar:
                out.append((knob.name, value))
            if knob.axis:
                out.append((knob.axis, [value]))
        if knob.axis:
            out.append((knob.axis, []))
    return out


class TestMalformedSweepSpec:
    @pytest.mark.parametrize("field,value", _sweep_field_cases())
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError):
            SweepSpec(benchmarks=["pr"], **{field: value})

    @pytest.mark.parametrize("field,value", _sweep_field_cases())
    def test_rejected_by_validate(self, field, value):
        spec = SweepSpec(benchmarks=["pr"])
        setattr(spec, field, value)
        with pytest.raises(ConfigError):
            spec.validate()

    @pytest.mark.parametrize("data", [
        {"jitters": ["a"]}, {"jitters": [1.5]}, {"sim_batch": "x"},
        {"alphas": ["x"]}, {"vector_seeds": ["x"]}, {"widths": [0]},
        {"n_vectors": 0}, {"k": 0}, {"k": 1}, {"k": 7},
        {"map_efforts": []},
        {"check_function": "no"}, {"alphas": [float("nan")]},
        {"alphas": [-3.0]}, {"widths": 8},
    ])
    def test_reported_cases_via_from_dict(self, data):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict(dict(benchmarks=["pr"], **data))

    def test_binder_column_alpha_checked(self):
        from repro.flow import BinderConfig

        with pytest.raises(ConfigError, match="alpha"):
            SweepSpec(benchmarks=["pr"],
                      configs=[BinderConfig("h", "hlpower", 1.5)])
