"""Dense tensor value type, the shared numeric kernels and the work-buffer size.

A DenseTensor is an immutable row-major float64 array with positive
dims, checked finite on construction.  The numeric work runs on the
underlying numpy arrays in autodiff, recurrence and ttcore; this module
adds the one kernel of each formula autodiff and recurrence share
(logistic, softmax_rows, softmax_adjoint) and WORK_CHUNK, the length of
the scratch buffers through which rng.normal and training.adam_step
stream arrays of any size.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatch

Shape = tuple  # ordered dims, each >= 1

WORK_CHUNK = 16_384  # float64 entries (128 KiB) per streaming work buffer


def check_shape(dims: Iterable[int]) -> Shape:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ShapeMismatch("shape dims must all be >= 1, got %r" % (dims,))
    return dims


class DenseTensor:
    """Row-major float64 tensor; treat as immutable after construction."""

    __slots__ = ("array",)

    def __init__(self, values, shape: Sequence[int] | None = None, _check: bool = True):
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        if shape is not None:
            arr = arr.reshape(check_shape(shape))
        if _check:
            if arr is values:
                arr = arr.copy()  # never alias or freeze the caller's buffer
            check_shape(arr.shape)
            if not np.all(np.isfinite(arr)):
                raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def shape(self) -> Shape:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def __repr__(self):
        return "DenseTensor(shape=%r)" % (self.shape,)

    def __eq__(self, other):
        return (
            isinstance(other, DenseTensor)
            and self.shape == other.shape
            and np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.shape, self.array.tobytes()))


def _wrap(arr: np.ndarray) -> DenseTensor:
    # internal fast path: trusted finite float64 input
    return DenseTensor(arr, _check=False)


def tensor(values) -> DenseTensor:
    return DenseTensor(values)


def logistic(z: np.ndarray) -> np.ndarray:
    """The logistic in tanh form, 0.5 * tanh(0.5 z) + 0.5, computed in place over z."""
    z *= 0.5
    np.tanh(z, out=z)
    z *= 0.5
    z += 0.5
    return z


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place over z, max-shifted so exp never overflows."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax_adjoint(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The adjoint of the softmax input, given its output y and the output adjoint g."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))
