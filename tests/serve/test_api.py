"""Request-model tests: normalization, validation, dedup keys."""

import pytest

from repro.serve.api import (
    RequestError,
    request_key,
    request_priority,
    single_cell_spec,
    sweep_spec,
)
from repro.flow.grid import SweepSpec, expand_grid


class TestSingleCellSpec:
    def test_minimal_estimate_request(self):
        spec = single_cell_spec({"benchmark": "pr"}, "estimate")
        jobs = expand_grid(spec)
        assert len(jobs) == 1
        job = jobs[0]
        assert job.benchmark == "pr"
        assert job.config.binder == "hlpower"
        assert job.width == 8
        assert spec.flow == "estimate"

    def test_flow_request_carries_sim_knobs(self):
        spec = single_cell_spec(
            {
                "benchmark": "chem", "binder": "lopass", "width": 4,
                "vector_seed": 11, "n_vectors": 32, "delay_jitter": 2,
                "idle_selects": "hold",
            },
            "full",
        )
        (job,) = expand_grid(spec)
        assert job.vector_seed == 11
        assert job.delay_jitter == 2
        assert job.idle_selects == "hold"
        assert spec.n_vectors == 32

    def test_estimate_rejects_simulation_fields(self):
        with pytest.raises(RequestError):
            single_cell_spec(
                {"benchmark": "pr", "vector_seed": 9}, "estimate"
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError):
            single_cell_spec({"benchmark": "pr", "bencmark": "pr"}, "full")

    def test_missing_benchmark_rejected(self):
        with pytest.raises(RequestError):
            single_cell_spec({}, "estimate")

    def test_bad_value_types_rejected(self):
        with pytest.raises(RequestError):
            single_cell_spec({"benchmark": "pr", "width": "wide"}, "full")
        with pytest.raises(RequestError):
            single_cell_spec({"benchmark": "pr", "width": True}, "full")

    def test_unknown_benchmark_rejected_at_parse_time(self):
        with pytest.raises(RequestError):
            single_cell_spec({"benchmark": "nope"}, "estimate")

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError):
            single_cell_spec(["pr"], "estimate")


class TestSweepSpecRequest:
    def test_wrapped_and_bare_bodies_equivalent(self):
        payload = {"benchmarks": ["pr"], "widths": [4]}
        bare = sweep_spec(dict(payload))
        wrapped = sweep_spec({"spec": dict(payload), "priority": 3})
        assert bare.to_dict() == wrapped.to_dict()

    def test_invalid_spec_rejected(self):
        with pytest.raises(RequestError):
            sweep_spec({"benchmarks": []})
        with pytest.raises(RequestError):
            sweep_spec({"benchmarks": ["pr"], "bogus_axis": [1]})


class TestRequestKey:
    def test_defaults_and_explicit_defaults_share_a_key(self):
        implicit = single_cell_spec({"benchmark": "pr"}, "estimate")
        explicit = single_cell_spec(
            {"benchmark": "pr", "binder": "hlpower", "alpha": 0.5,
             "width": 8, "k": 4},
            "estimate",
        )
        assert request_key("estimate", implicit) == \
            request_key("estimate", explicit)

    def test_distinct_requests_get_distinct_keys(self):
        a = single_cell_spec({"benchmark": "pr"}, "estimate")
        b = single_cell_spec({"benchmark": "pr", "width": 4}, "estimate")
        assert request_key("estimate", a) != request_key("estimate", b)

    def test_kind_is_part_of_the_key(self):
        spec = single_cell_spec({"benchmark": "pr"}, "full")
        assert request_key("flow", spec) != request_key("sweep", spec)


class TestPriority:
    def test_default_and_explicit(self):
        assert request_priority({}, 10) == 10
        assert request_priority({"priority": -5}, 10) == -5

    def test_bad_priority_rejected(self):
        with pytest.raises(RequestError):
            request_priority({"priority": "high"}, 0)
        with pytest.raises(RequestError):
            request_priority({"priority": True}, 0)
