"""Dense tensor value type and the primitive numeric operations.

A DenseTensor is an immutable row-major float64 array.  All public
operations are pure functions returning new tensors, validate shapes, and
guarantee finite entries in their results.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import rng
from .errors import ShapeMismatch

Shape = tuple  # ordered dims, each >= 1


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


def zeros(shape: Sequence[int]) -> DenseTensor:
    return _wrap(np.zeros(check_shape(shape)))


def reshape(t: DenseTensor, shape: Sequence[int]) -> DenseTensor:
    shape = check_shape(shape)
    if int(np.prod(shape, dtype=np.int64)) != t.size:
        raise ShapeMismatch(
            "cannot reshape %d elements into shape %r" % (t.size, shape)
        )
    return _wrap(t.array.reshape(shape))


def matmul(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    if a.array.ndim != 2 or b.array.ndim != 2:
        raise ShapeMismatch("matmul expects rank-2 tensors")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(
            "inner dims disagree: %r x %r" % (a.shape, b.shape)
        )
    return _wrap(a.array @ b.array)


def _same_shape(*ts: DenseTensor):
    first = ts[0].shape
    for t in ts[1:]:
        if t.shape != first:
            raise ShapeMismatch(
                "elementwise operands differ in shape: %r vs %r" % (first, t.shape)
            )


def add(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _same_shape(a, b)
    return _wrap(a.array + b.array)


def sub(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _same_shape(a, b)
    return _wrap(a.array - b.array)


def hadamard(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    _same_shape(a, b)
    return _wrap(a.array * b.array)


def scale(t: DenseTensor, factor: float) -> DenseTensor:
    return _wrap(t.array * float(factor))


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic: never exponentiates a positive argument."""
    e = np.exp(-np.abs(z))
    r = 1.0 / (1.0 + e)
    return np.where(z >= 0, r, e * r)


def sigmoid(t: DenseTensor) -> DenseTensor:
    return _wrap(sigmoid_array(t.array))


def tanh(t: DenseTensor) -> DenseTensor:
    return _wrap(np.tanh(t.array))


_ELEMENTWISE = {
    "add": add,
    "sub": sub,
    "hadamard": hadamard,
    "scale": scale,
    "sigmoid": sigmoid,
    "tanh": tanh,
}


def elementwise(op: str, *args) -> DenseTensor:
    """Dispatch by name to the pointwise operations above."""
    try:
        fn = _ELEMENTWISE[op]
    except KeyError:
        raise ValueError("unknown elementwise op %r" % op) from None
    return fn(*args)


def random_init(shape: Sequence[int], stddev: float, seed: int) -> DenseTensor:
    """I.i.d. zero-mean Gaussian entries from the splitmix64 counter stream.

    Identical (seed, shape, stddev) give bitwise-identical tensors.
    """
    if not stddev > 0:
        raise ValueError("stddev must be > 0, got %r" % stddev)
    shape = check_shape(shape)
    n = int(np.prod(shape, dtype=np.int64))
    return _wrap(rng.normal(seed, n, stddev=stddev).reshape(shape))


def frobenius_norm(t: DenseTensor) -> float:
    return float(np.sqrt(np.sum(t.array * t.array)))
