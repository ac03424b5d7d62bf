import logging
import warnings

import numpy as np
import pytest

from ttrnn import rng
from ttrnn.errors import InvalidRank, ShapeMismatch
from ttrnn.tensor import tensor
from ttrnn.ttcore import (
    ModeFactorization,
    check_ranks,
    choose_factorization,
    compression_ratio,
    param_count,
    random_tt,
    reconstruct,
    tt_matvec,
    tt_matvec_macs,
    tt_svd,
)


def _random_matrix(shape, seed):
    return rng.normal(seed, shape[0] * shape[1]).reshape(shape)


# ---------------------------------------------------------------------------
# factorizations and ranks


def test_mode_factorization_validates():
    f = ModeFactorization((4, 8, 8), (4, 8, 8))
    assert f.rows == 256 and f.cols == 256 and f.order == 3
    with pytest.raises(ShapeMismatch):
        ModeFactorization((4, 8), (4, 8, 8))
    with pytest.raises(ShapeMismatch):
        ModeFactorization((0, 8), (4, 8))


def test_check_ranks():
    assert check_ranks((1, 4, 4, 1), 3) == (1, 4, 4, 1)
    assert check_ranks([1, 1], 1) == (1, 1)
    with pytest.raises(InvalidRank):
        check_ranks((2, 4, 4, 1), 3)  # boundary must be 1
    with pytest.raises(InvalidRank):
        check_ranks((1, 4, 1), 3)  # wrong length
    with pytest.raises(InvalidRank):
        check_ranks((1, 0, 1), 2)  # non-positive


def test_choose_factorization_pinned_values():
    f = choose_factorization(256, 64, 3)
    assert f.out_modes == (8, 8, 4)
    assert f.in_modes == (4, 4, 4)
    f = choose_factorization(64, 64, 3)
    assert f.out_modes == (4, 4, 4)
    assert f.in_modes == (4, 4, 4)


def test_choose_factorization_prime_warns_once(caplog):
    caplog.set_level(logging.WARNING, logger="ttrnn")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the notice is a log record, not a Python warning
        f = choose_factorization(7, 8, 2)
    assert f.out_modes == (7, 1)
    assert f.in_modes == (4, 2)
    assert [(r.name, r.levelname) for r in caplog.records] == [("ttrnn", "WARNING")]


def test_choose_factorization_order_one():
    f = choose_factorization(12, 5, 1)
    assert f.out_modes == (12,) and f.in_modes == (5,)


def test_modes_are_non_increasing():
    for rows, cols in ((64, 64), (128, 32), (100, 60), (512, 256)):
        f = choose_factorization(rows, cols, 3)
        assert list(f.out_modes) == sorted(f.out_modes, reverse=True)
        assert list(f.in_modes) == sorted(f.in_modes, reverse=True)
        assert int(np.prod(f.out_modes)) == rows
        assert int(np.prod(f.in_modes)) == cols


# ---------------------------------------------------------------------------
# decomposition


@pytest.mark.parametrize(
    "rows,cols,d",
    [(64, 64, 3), (256, 64, 3), (16, 16, 2), (7, 8, 2), (13, 5, 1), (36, 24, 3)],
)
def test_tt_svd_round_trip_exact(rows, cols, d):
    w = tensor(_random_matrix((rows, cols), seed=rng.split(2, rows, cols)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        facto = choose_factorization(rows, cols, d)
    tt = tt_svd(w, facto)
    err = np.linalg.norm(reconstruct(tt).array - w.array) / np.linalg.norm(w.array)
    assert err <= 1e-12
    assert tt.ranks[0] == 1 and tt.ranks[-1] == 1


def test_tt_svd_respects_max_ranks():
    w = tensor(_random_matrix((64, 64), seed=3))
    facto = choose_factorization(64, 64, 3)
    tt = tt_svd(w, facto, max_ranks=(1, 4, 4, 1))
    assert tt.ranks == (1, 4, 4, 1)
    # truncation loses accuracy but keeps the right shapes
    assert reconstruct(tt).shape == (64, 64)


def test_tt_svd_eps_budget_controls_error():
    # a Kronecker product has exact tensor-train rank 1, so under a loose
    # budget the noisy version should truncate back to tiny ranks
    a1 = _random_matrix((4, 4), seed=4)
    a2 = _random_matrix((4, 4), seed=5)
    a3 = _random_matrix((4, 4), seed=6)
    base = np.kron(a1, np.kron(a2, a3))
    noise = 1e-3 * np.linalg.norm(base) / 64.0 * _random_matrix((64, 64), seed=7)
    w = tensor(base + noise)
    facto = choose_factorization(64, 64, 3)
    loose = tt_svd(w, facto, eps=0.1)
    tight = tt_svd(w, facto, eps=1e-12)
    err_loose = np.linalg.norm(reconstruct(loose).array - w.array) / np.linalg.norm(w.array)
    err_tight = np.linalg.norm(reconstruct(tight).array - w.array) / np.linalg.norm(w.array)
    assert err_loose <= 0.1
    assert err_tight <= 1e-10
    assert max(loose.ranks) <= 3
    assert param_count(loose) < param_count(tight)


def test_kronecker_product_has_tt_rank_one():
    a1 = _random_matrix((4, 4), seed=8)
    a2 = _random_matrix((2, 8), seed=9)
    w = tensor(np.kron(a1, a2))
    tt = tt_svd(w, ModeFactorization((4, 2), (4, 8)), eps=1e-10)
    assert tt.ranks == (1, 1, 1)
    err = np.linalg.norm(reconstruct(tt).array - w.array) / np.linalg.norm(w.array)
    assert err <= 1e-12


def test_tt_svd_zero_matrix():
    w = tensor(np.zeros((16, 16)))
    tt = tt_svd(w, ModeFactorization((4, 2, 2), (2, 4, 2)))
    assert tt.ranks == (1, 1, 1, 1)
    assert np.all(reconstruct(tt).array == 0.0)


def test_tt_svd_shape_guard():
    w = tensor(np.ones((8, 8)))
    with pytest.raises(ShapeMismatch):
        tt_svd(w, ModeFactorization((4, 4), (4, 4)))  # 16x16 != 8x8


# ---------------------------------------------------------------------------
# parameter counting


def test_param_count_pinned_example():
    facto = ModeFactorization((4, 8, 8), (4, 8, 8))
    tt = random_tt(facto, (1, 4, 4, 1), seed=0)
    assert param_count(tt) == 1344
    assert compression_ratio(tt) == 65536 / 1344
    assert round(compression_ratio(tt), 2) == 48.76


def test_param_count_matches_manual_sum():
    facto = ModeFactorization((4, 2, 2), (2, 2, 4))
    ranks = (1, 3, 2, 1)
    tt = random_tt(facto, ranks, seed=1)
    manual = sum(
        facto.out_modes[k] * facto.in_modes[k] * ranks[k] * ranks[k + 1]
        for k in range(3)
    )
    assert param_count(tt) == manual


# ---------------------------------------------------------------------------
# matvec


@pytest.mark.parametrize(
    "out_modes,in_modes,ranks",
    [
        ((4, 8, 8), (4, 8, 8), (1, 4, 4, 1)),
        ((4, 2, 2), (2, 3, 4), (1, 2, 3, 1)),
        ((6, 5), (3, 7), (1, 4, 1)),
        ((10,), (9,), (1, 1)),
    ],
)
def test_tt_matvec_matches_dense(out_modes, in_modes, ranks):
    facto = ModeFactorization(out_modes, in_modes)
    tt = random_tt(facto, ranks, seed=rng.split(10, *out_modes))
    dense = reconstruct(tt).array
    x = tensor(rng.normal(rng.split(11, *in_modes), facto.cols))
    y = tt_matvec(tt, x)
    ref = dense @ x.array
    assert np.linalg.norm(y.array - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_tt_matvec_rejects_bad_length():
    facto = ModeFactorization((4, 4), (4, 4))
    tt = random_tt(facto, (1, 2, 1), seed=0)
    with pytest.raises(ShapeMismatch):
        tt_matvec(tt, tensor(np.ones(15)))


def test_tt_matvec_macs_pinned():
    facto = ModeFactorization((4, 8, 8), (4, 8, 8))
    assert tt_matvec_macs(facto, (1, 4, 4, 1)) == 45056
    # dense equivalent for comparison
    assert facto.rows * facto.cols == 65536


def test_tt_matvec_macs_counts_actual_multiplies():
    # order-1 TT is just the dense matrix: m*n multiplies
    facto = ModeFactorization((6,), (7,))
    assert tt_matvec_macs(facto, (1, 1)) == 42


# ---------------------------------------------------------------------------
# random TT


def test_random_tt_deterministic_and_shaped():
    facto = ModeFactorization((4, 4), (4, 4))
    a = random_tt(facto, (1, 3, 1), seed=5)
    b = random_tt(facto, (1, 3, 1), seed=5)
    c = random_tt(facto, (1, 3, 1), seed=6)
    assert all(np.array_equal(x.array, y.array) for x, y in zip(a.cores, b.cores))
    assert any(not np.array_equal(x.array, y.array) for x, y in zip(a.cores, c.cores))
    assert a.cores[0].shape == (4, 4, 1, 3)
    assert a.cores[1].shape == (4, 4, 3, 1)


def test_random_tt_entry_variance_is_rank_independent():
    facto = ModeFactorization((8, 8), (8, 8))
    target = 2.0 / (facto.rows + facto.cols)
    for ranks in ((1, 1, 1), (1, 4, 1), (1, 16, 1)):
        samples = []
        for s in range(40):
            tt = random_tt(facto, ranks, seed=rng.split(77, s, *ranks))
            samples.append(reconstruct(tt).array.reshape(-1))
        var = float(np.var(np.concatenate(samples)))
        assert abs(var - target) <= 0.35 * target
