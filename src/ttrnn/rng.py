"""Deterministic counter-based random number generation.

The generator is a splitmix64 counter stream: output i is the splitmix64
finalizer applied to ``seed + (i + 1) * GOLDEN`` in 64-bit wrapping
arithmetic.  Every draw is a pure function of (seed, counter), so any
sample can be produced independently of the others, identical seeds give
bitwise-identical streams on every platform, and independent substreams
are derived by hashing a tag into the seed (see ``split``).

Gaussian variates come from the Box-Muller transform: sample i of `count`
pairs the uniforms at counters i and count + i.  `normal` draws and
transforms them WORK_CHUNK samples at a time, straight into its output, so
its scratch memory does not grow with `count`.
"""

from __future__ import annotations

import numpy as np

from .tensor import WORK_CHUNK

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _finalize(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; x is uint64 and all ops wrap mod 2**64
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    return x ^ (x >> _U64(31))


def _raw(seed: int, start: int, count: int) -> np.ndarray:
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _finalize(_U64(seed & 0xFFFFFFFFFFFFFFFF) + counters * _GOLDEN)


def split(seed: int, *tags) -> int:
    """Derive an independent child seed from `seed` and the given tags.

    Tags may be ints or strings; the same (seed, tags) always yields the
    same child.
    """
    acc = _U64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for tag in tags:
            if isinstance(tag, str):
                for byte in tag.encode("utf-8"):
                    acc = _finalize(acc + _GOLDEN * _U64(byte + 1))
            else:
                acc = _finalize(acc ^ _U64(int(tag) & 0xFFFFFFFFFFFFFFFF))
        acc = _finalize(acc + _GOLDEN)
    return int(acc)


def _uniform_into(out: np.ndarray, seed: int, start: int):
    # out[k] = the uniform draw at counter start + k
    bits = _raw(seed, start, len(out))
    bits >>= _U64(11)
    out[...] = bits
    out += 1.0
    out *= 2.0**-53


def uniform(seed: int, count: int, start: int = 0) -> np.ndarray:
    """`count` doubles in (0, 1], from counters start..start+count-1."""
    out = np.empty(count)
    _uniform_into(out, seed, start)
    return out


def normal(seed: int, count: int, stddev: float = 1.0) -> np.ndarray:
    """`count` zero-mean Gaussians with the given standard deviation.

    Bitwise equal to stddev * sqrt(-2 log u1) * cos(2 pi u2) over whole
    arrays u1 = uniform(seed, count), u2 = uniform(seed, count, count).
    """
    out = np.empty(count)
    work = np.empty(min(WORK_CHUNK, count))
    for i in range(0, count, WORK_CHUNK):
        radius = out[i : i + WORK_CHUNK]
        angle = work[: len(radius)]
        _uniform_into(radius, seed, i)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        radius *= stddev
        _uniform_into(angle, seed, count + i)
        angle *= 2.0 * np.pi
        np.cos(angle, out=angle)
        radius *= angle
    return out


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of n uniform draws."""
    keys = uniform(seed, n)
    return np.argsort(keys, kind="stable")


def randint_below(seed: int, bound: int, count: int) -> np.ndarray:
    """`count` integers in [0, bound) by rejection-free modular reduction.

    Bias is bounded by bound / 2**64, negligible for the small bounds used
    here (dataset sampling, token picks).
    """
    bits = _raw(seed, 0, count)
    return (bits % _U64(bound)).astype(np.int64)
