import numpy as np
import pytest

import ttrnn.tensor as tz
from ttrnn.errors import ShapeMismatch
from ttrnn.tensor import DenseTensor, tensor


def test_tensor_is_float64_and_frozen():
    t = tensor([[1, 2], [3, 4]])
    assert t.array.dtype == np.float64
    assert t.shape == (2, 2)
    with pytest.raises(ValueError):
        t.array[0, 0] = 5.0


def test_tensor_does_not_freeze_or_alias_the_caller():
    src = np.ones((3, 3))
    t = tensor(src)
    src[0, 0] = 42.0  # caller's buffer stays writable
    assert t.array[0, 0] == 1.0


def test_scalar_tensor_keeps_zero_dims():
    t = tensor(3.5)
    assert t.shape == ()
    assert float(t.array) == 3.5


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        tensor([1.0, np.inf])
    with pytest.raises(ValueError):
        tensor([np.nan])


def test_zero_length_dim_rejected():
    with pytest.raises(ShapeMismatch):
        tensor(np.ones((2, 0)))


def test_sigmoid_is_stable_at_extremes():
    z = np.array([[-1000.0, 0.0, 1000.0]])
    out = tz.logistic(z.copy())
    assert np.all(np.isfinite(out))
    assert out[0, 0] == 0.0 or out[0, 0] < 1e-300
    assert out[0, 1] == 0.5
    assert out[0, 2] == 1.0


def test_dense_tensor_equality_and_hash():
    a = tensor([1.0, 2.0])
    b = tensor([1.0, 2.0])
    assert a == b and hash(a) == hash(b)
    assert a != tensor([2.0, 1.0])
