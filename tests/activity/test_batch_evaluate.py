"""Exactness of the batched glitch-step kernel.

:func:`repro.activity.glitch.batch_evaluate` must return, per job, the
very floats the seed mapper and the seed estimator compute for one cut
or gate: one :func:`~repro.activity.transition.mixed_joint_matrix` per
trigger time and a 1-D sum over the "output differs" pairs. The kernel
builds the joint matrices as a Kronecker broadcast and sums every
(job, time) row in one last-axis reduction; the tests here pin both
against the reference arithmetic, and pin the numpy reduction property
the kernel relies on, so a numpy upgrade that changes it fails here
first. :func:`clamped_totals` must equal the reference's sequential
``sum()`` over the clamped positive steps.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.activity.glitch import GlitchSteps, batch_evaluate, clamped_totals
from repro.activity.transition import (
    MAX_EXACT_INPUTS,
    clamp_activity,
    held_distribution,
    mixed_joint_matrix,
    pair_distribution,
)
from repro.errors import EstimationError
from repro.netlist.gates import TruthTable


def evaluate_jobs(jobs):
    """``batch_evaluate`` over ``(table, leaf_stats)`` jobs, jobs with
    equal leaf statistics sharing one row (as the mapper and
    ``propagate_waveforms`` send them): per job, its
    ``((time, raw), ...)`` steps, and the kernel's result."""
    n = jobs[0][0].n_inputs
    rows = {}
    job_row = [rows.setdefault(stats, len(rows)) for _, stats in jobs]
    leaves = [leaf for stats in rows for leaf in stats]
    result = batch_evaluate(
        n, [table.bits for table, _ in jobs], job_row,
        [prob for prob, _ in leaves], [len(steps) for _, steps in leaves],
        [t for _, steps in leaves for t, _ in steps],
        [s for _, steps in leaves for _, s in steps],
    )
    ptr = result.ptr.tolist()
    steps = list(zip(result.time.tolist(), result.raw.tolist()))
    return [tuple(steps[lo:hi]) for lo, hi in zip(ptr, ptr[1:])], result


def reference_steps(table, leaf_stats):
    """The seed mapper's glitch-aware cut evaluation, before the output
    clamp: ``((time + 1, activity), ...)`` ascending in time."""
    column = np.array(table.output_column(), dtype=np.float64)
    differs = column[:, None] != column[None, :]
    times = sorted({t for _, steps in leaf_stats for t, _ in steps})
    out = []
    for t in times:
        joints = []
        for prob, steps in leaf_stats:
            s_t = dict(steps).get(t, 0.0)
            if s_t > 0.0:
                s_t = clamp_activity(prob, s_t)
                joints.append(pair_distribution(prob, s_t))
            else:
                joints.append(held_distribution(prob))
        matrix = mixed_joint_matrix(table.n_inputs, joints)
        out.append((t + 1, float(matrix[differs].sum())))
    return tuple(out)


probabilities = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0, 0.1, 0.9)),
    st.floats(0.0, 1.0, allow_nan=False),
)
# Activities above 2 * min(p, 1 - p) exercise the clamp; 0.0 is a step
# the mapper records when an output clamps to zero.
activities = st.one_of(st.just(0.0), st.floats(1e-9, 1.0, allow_nan=False))


@st.composite
def leaf_stat(draw):
    times = draw(st.lists(st.integers(0, 9), max_size=5, unique=True))
    steps = tuple((t, draw(activities)) for t in sorted(times))
    return (draw(probabilities), steps)


@st.composite
def job_batches(draw):
    """Same-arity jobs over small pools of tables and leaf statistics, so
    batches mix trigger counts, repeat tables and share statistics."""
    n = draw(st.integers(1, MAX_EXACT_INPUTS))
    full = (1 << (1 << n)) - 1
    tables = draw(st.lists(
        st.integers(0, full).map(lambda bits: TruthTable(n, bits)),
        min_size=1, max_size=3,
    ))
    stats = draw(st.lists(
        st.tuples(*[leaf_stat() for _ in range(n)]), min_size=1, max_size=4,
    ))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(tables) - 1),
                  st.integers(0, len(stats) - 1)),
        min_size=1, max_size=8,
    ))
    return [(tables[t], stats[s]) for t, s in picks]


@given(job_batches())
@settings(max_examples=150, deadline=None)
def test_batch_matches_reference_per_job(jobs):
    results, _ = evaluate_jobs(jobs)
    assert len(results) == len(jobs)
    for (table, leaf_stats), result in zip(jobs, results):
        expected = reference_steps(table, leaf_stats)
        assert [t for t, _ in result] == [t for t, _ in expected]
        # Bit-for-bit: compare the IEEE encodings, not just values.
        assert [np.float64(a).tobytes() for _, a in result] == \
            [np.float64(a).tobytes() for _, a in expected]


def test_mixed_trigger_counts_and_shared_rows():
    """One batch: a trigger-free row, rows with 1 and 3 trigger times,
    and two tables reading the same statistics."""
    and2 = TruthTable(2, 0b1000)
    xor2 = TruthTable(2, 0b0110)
    quiet = ((0.5, ()), (0.3, ()))
    one = ((0.5, ((0, 0.4),)), (0.3, ()))
    three = ((0.5, ((0, 0.4), (2, 0.1))), (0.3, ((1, 0.2),)))
    jobs = [(and2, three), (xor2, quiet), (xor2, three), (and2, one),
            (xor2, one)]
    results, _ = evaluate_jobs(jobs)
    assert results[1] == ()
    assert [len(r) for r in results] == [3, 0, 3, 1, 1]
    for (table, stats), result in zip(jobs, results):
        assert result == reference_steps(table, stats)


def test_wide_cone_with_triggers_is_refused():
    wide = TruthTable(MAX_EXACT_INPUTS + 1, 1)
    quiet = tuple((0.5, ()) for _ in range(MAX_EXACT_INPUTS + 1))
    assert evaluate_jobs([(wide, quiet)])[0] == [()]
    busy = ((0.5, ((0, 0.2),)),) + quiet[1:]
    with pytest.raises(EstimationError):
        evaluate_jobs([(wide, busy)])


@given(job_batches(), st.lists(probabilities, min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_totals_are_the_sequential_sum_of_clamped_steps(jobs, out_probs):
    """``total[j]`` is the waveform total the estimator and the mapper
    compute: ``sum()`` over the positive steps, each clamped to the
    output's bound, in ascending time."""
    out_probs = out_probs[:len(jobs)]
    _, result = evaluate_jobs(jobs)
    for (table, leaf_stats), out_prob, total in zip(
        jobs, out_probs, clamped_totals(result, out_probs).tolist()
    ):
        expected = float(sum(
            clamp_activity(out_prob, raw)
            for _, raw in reference_steps(table, leaf_stats) if raw > 0.0
        ))
        assert np.float64(total).tobytes() == \
            np.float64(expected).tobytes()


def test_jobs_sharing_a_row_equal_jobs_with_their_own():
    and2, xor2 = TruthTable(2, 0b1000), TruthTable(2, 0b0110)
    shared = batch_evaluate(
        2, [and2.bits, xor2.bits], [0, 0], [0.5, 0.3], [2, 1],
        [0, 2, 1], [0.4, 0.1, 0.2],
    )
    separate = batch_evaluate(
        2, [and2.bits, xor2.bits], [0, 1], [0.5, 0.3] * 2, [2, 1] * 2,
        [0, 2, 1] * 2, [0.4, 0.1, 0.2] * 2,
    )
    for a, b in zip(shared, separate):
        assert a.tobytes() == b.tobytes()


class TestArrayInterface:
    def test_single_job(self):
        xor2 = TruthTable(2, 0b0110)
        result = batch_evaluate(
            2, [xor2.bits], [0], [0.5, 0.3], [1, 1], [0, 1], [0.4, 0.2],
        )
        assert isinstance(result, GlitchSteps)
        assert result.ptr.tolist() == [0, 2]
        assert result.time.tolist() == [1, 2]
        stats = ((0.5, ((0, 0.4),)), (0.3, ((1, 0.2),)))
        assert tuple(zip(result.time.tolist(), result.raw.tolist())) == \
            reference_steps(xor2, stats)
        assert clamped_totals(result, [0.5]).tolist() == \
            [sum(result.raw.tolist())]

    def test_no_steps(self):
        and2 = TruthTable(2, 0b1000)
        result = batch_evaluate(
            2, [and2.bits, and2.bits], [0, 1], [0.5] * 4, [0] * 4, [], [],
        )
        assert result.ptr.tolist() == [0, 0, 0]
        assert len(result.time) == len(result.raw) == 0
        assert clamped_totals(result, [0.25, 0.25]).tolist() == [0.0, 0.0]

    def test_wide_cone_refused(self):
        n = MAX_EXACT_INPUTS + 1
        quiet = batch_evaluate(n, [1], [0], [0.5] * n, [0] * n, [], [])
        assert quiet.ptr.tolist() == [0, 0]
        with pytest.raises(EstimationError):
            batch_evaluate(
                n, [1], [0], [0.5] * n, [1] + [0] * (n - 1), [0], [0.2],
            )


@pytest.mark.parametrize("length", [
    1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257,
    1000, 1023, 2047, 2048, 4096,
])
def test_contiguous_last_axis_reduce_equals_row_sums(length):
    """The kernel sums each (job, time) row of a C-contiguous 2-D array
    with one last-axis ``np.add.reduce``; the reference sums each row
    as its own 1-D array. Numpy runs the same pairwise summation for
    both — this pins it, with values spread over 12 decades so any
    change of association shows in the low bits."""
    rng = np.random.default_rng(length)
    rows = 41
    data = rng.random((rows, length)) * 10.0 ** rng.uniform(
        -12, 0, size=(rows, length)
    )
    assert data.flags.c_contiguous
    batched = np.add.reduce(data, axis=-1)
    for row in range(rows):
        single = np.add.reduce(data[row].copy())
        assert batched[row].tobytes() == single.tobytes(), row
