import numpy as np
import pytest

from ttrnn import recurrence, training
from ttrnn.errors import ShapeMismatch
from ttrnn.recurrence import _logistic, _steps
from ttrnn.tensor import sigmoid_array

# ---------------------------------------------------------------------------
# the logistic in tanh form


EDGES = np.array([1e308, -1e308, np.inf, -np.inf])


def test_logistic_stays_in_the_unit_interval_and_is_one_half_at_zero():
    z = np.concatenate([np.linspace(-800.0, 800.0, 100001), EDGES, [0.0, -0.0, 5e-324, -5e-324]])
    out = _logistic(z.copy())
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert out[-4] == 0.5 and out[-3] == 0.5
    assert _logistic(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]


def test_logistic_is_within_2_to_the_minus_52_of_the_exp_form():
    z = np.concatenate([np.linspace(-745.0, 745.0, 2000001), np.linspace(-40.0, 40.0, 1000001), EDGES])
    ref = sigmoid_array(z)
    assert np.max(np.abs(_logistic(z.copy()) - ref)) <= 2.0**-52
    assert _logistic(EDGES.copy()).tolist() == [1.0, 0.0, 1.0, 0.0]


def test_logistic_raises_nothing_under_the_training_error_state():
    z = np.concatenate([np.linspace(-1e4, 1e4, 20001), EDGES, [5e-324, -5e-324]])
    with training._finite(1, "logistic"):  # over, invalid and divide raise here
        out = _logistic(z)
    assert np.all(np.isfinite(out))


def test_logistic_writes_into_its_argument():
    z = np.array([[-2.0, 0.0], [3.0, 40.0]])
    view = np.zeros((3, 4))[1:, 1:3]  # a block of a larger array, as the step loop passes
    view[...] = z
    want = sigmoid_array(z)
    assert _logistic(z) is z
    assert np.allclose(z, want, rtol=0.0, atol=2.0**-52)
    assert _logistic(view) is view
    assert np.array_equal(view, z)


# ---------------------------------------------------------------------------
# step descriptors: every step reads and writes prefix slices


@pytest.mark.parametrize("batch_sizes", [[1], [5], [4, 4, 4], [5, 3, 3, 1], [3, 2, 1, 1, 1]])
@pytest.mark.parametrize("need_grad", [True, False])
def test_steps_are_basic_slices_over_prefixes(batch_sizes, need_grad):
    steps = _steps(np.array(batch_sizes), sum(batch_sizes), need_grad)
    assert len(steps) == len(batch_sizes)
    start = 0
    for (p, q, r), n in zip(steps, batch_sizes):
        assert all(type(s) is slice for s in (p, q, r))
        assert (p.start, p.stop, p.step) == (start, start + n, None)  # the packed rows, in turn
        assert (r.start, r.stop, r.step) == (0, n, None)  # the batch prefix
        assert q == (p if need_grad else r)
        start += n


def _elman_args(batch_sizes, rows):
    gen = np.random.default_rng(3)
    width = max(batch_sizes)
    return dict(
        family="elman",
        x=gen.standard_normal((rows, 4)),
        batch_sizes=batch_sizes,
        ws=[gen.standard_normal((3, 4))],
        us=[gen.standard_normal((3, 3))],
        bs=[None],
        state=[np.zeros((width, 3))],
    )


@pytest.mark.parametrize(
    "batch_sizes,rows",
    [
        ([2, 3], 5),  # increases
        ([3, 1, 2], 6),  # increases after a drop
        ([3, 2], 4),  # sums to more than x has rows
        ([3, 2], 6),  # sums to fewer
    ],
)
@pytest.mark.parametrize("need_grad", [True, False])
def test_run_rejects_batch_sizes_that_increase_or_miscount_x(batch_sizes, rows, need_grad):
    with pytest.raises(ShapeMismatch):
        recurrence.run(**_elman_args(batch_sizes, rows), need_grad=need_grad)
