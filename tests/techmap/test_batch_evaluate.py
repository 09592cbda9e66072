"""Exactness of the batched cone-evaluation kernel.

:func:`repro.techmap.compile.batch_evaluate` must return, per job, the
very floats the seed mapper computes for one cut: one
:func:`~repro.activity.transition.mixed_joint_matrix` per trigger time
and a 1-D sum over the "output differs" pairs. The kernel builds the
joint matrices as a Kronecker broadcast and sums every (job, time) row
in one last-axis reduction; the tests here pin both against the
reference arithmetic, and pin the numpy reduction property the kernel
relies on, so a numpy upgrade that changes it fails here first.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.activity.transition import (
    MAX_EXACT_INPUTS,
    clamp_activity,
    held_distribution,
    mixed_joint_matrix,
    pair_distribution,
)
from repro.errors import EstimationError
from repro.netlist.gates import TruthTable
from repro.techmap.compile import batch_evaluate


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
    results = batch_evaluate(jobs)
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
    results = batch_evaluate(jobs)
    assert results[1] == ()
    assert [len(r) for r in results] == [3, 0, 3, 1, 1]
    for (table, stats), result in zip(jobs, results):
        assert result == reference_steps(table, stats)


def test_wide_cone_with_triggers_is_refused():
    wide = TruthTable(MAX_EXACT_INPUTS + 1, 1)
    quiet = tuple((0.5, ()) for _ in range(MAX_EXACT_INPUTS + 1))
    assert batch_evaluate([(wide, quiet)]) == [()]
    busy = ((0.5, ((0, 0.2),)),) + quiet[1:]
    with pytest.raises(EstimationError):
        batch_evaluate([(wide, busy)])


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
