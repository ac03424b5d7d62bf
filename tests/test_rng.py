import tracemalloc

import numpy as np
import pytest

from ttrnn import rng
from ttrnn.tensor import WORK_CHUNK


def test_uniform_open_closed_interval():
    u = rng.uniform(12345, 100000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_uniform_deterministic_and_counter_addressable():
    a = rng.uniform(9, 50)
    b = rng.uniform(9, 50)
    assert np.array_equal(a, b)
    # any slice of the stream can be produced independently
    tail = rng.uniform(9, 30, start=20)
    assert np.array_equal(a[20:], tail)


def test_uniform_mean_is_sane():
    u = rng.uniform(4, 200000)
    assert abs(u.mean() - 0.5) < 2e-3


def test_normal_moments():
    z = rng.normal(21, 200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normal_stddev_scales():
    base = rng.normal(21, 1000)
    scaled = rng.normal(21, 1000, stddev=2.5)
    assert np.allclose(scaled, 2.5 * base)


@pytest.mark.parametrize("count", [1, WORK_CHUNK - 1, WORK_CHUNK + 1, 3 * WORK_CHUNK + 7])
def test_normal_is_bitwise_the_whole_array_box_muller(count):
    for seed, stddev in ((0, 1.0), (2**64 - 1, 0.37)):
        u1 = rng.uniform(seed, count, start=0)
        u2 = rng.uniform(seed, count, start=count)
        expected = stddev * np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        assert rng.normal(seed, count, stddev).tobytes() == expected.tobytes()


def test_normal_allocates_only_its_output():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rng.normal(3, 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 8 * 1_000_000 + 2**20


def test_split_changes_stream_and_is_stable():
    s1 = rng.split(7, "weights")
    s2 = rng.split(7, "weights")
    s3 = rng.split(7, "bias")
    s4 = rng.split(8, "weights")
    assert s1 == s2
    assert s1 != s3
    assert s1 != s4
    assert not np.array_equal(rng.uniform(s1, 10), rng.uniform(s3, 10))


def test_split_tag_types_are_distinguished():
    assert rng.split(3, 1, 2) != rng.split(3, 2, 1)
    assert rng.split(3, "12") != rng.split(3, 12)


def test_permutation_is_a_permutation():
    for n in (1, 2, 17, 256):
        p = rng.permutation(99, n)
        assert sorted(p.tolist()) == list(range(n))


def test_permutation_deterministic_and_seed_sensitive():
    a = rng.permutation(5, 100)
    b = rng.permutation(5, 100)
    c = rng.permutation(6, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_randint_below_bounds():
    draws = rng.randint_below(11, 7, 10000)
    assert draws.min() >= 0
    assert draws.max() < 7
    # every residue shows up over a long stream
    assert set(draws.tolist()) == set(range(7))
