"""Dense tensor value type, the stable logistic and the work-buffer size.

A DenseTensor is an immutable row-major float64 array with positive
dims, checked finite on construction.  The numeric work runs on the
underlying numpy arrays in autodiff and ttcore; this module adds only
sigmoid_array, the overflow-free logistic that only autodiff.sigmoid uses,
and WORK_CHUNK, the length of the scratch buffers through which
rng.normal and training.adam_step stream arrays of any size.
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

    @property
    def flat(self) -> np.ndarray:
        return self.array.reshape(-1)

    def tolist(self):
        return self.array.tolist()

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


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic: never exponentiates a positive argument."""
    e = np.exp(-np.abs(z))
    r = 1.0 / (1.0 + e)
    return np.where(z >= 0, r, e * r)
