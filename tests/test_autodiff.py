import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttrnn import autodiff as ad
from ttrnn import rng
from ttrnn.errors import NotScalar, ShapeMismatch
from ttrnn.tensor import tensor
from ttrnn.ttcore import (
    ModeFactorization,
    _ApplyTrace,
    random_tt,
    reconstruct,
    tt_apply_backward_batch,
    tt_apply_batch,
)


def _var(arr):
    return ad.Variable(tensor(arr))


def _fd_check(build, variables, h=1e-6, tol=1e-5):
    """Compare tape gradients of a scalar graph against central differences."""
    ad.zero_grads(variables)
    tape = ad.Tape()
    loss = build(tape, variables)
    ad.backward(tape, loss)
    for v in variables:
        grad = v.grad.copy()
        flat = v.value.array.reshape(-1)
        for i in range(flat.size):
            probe = flat.copy()
            probe[i] += h
            plus = ad.Variable(tensor(probe.reshape(v.value.shape)))
            probe[i] -= 2 * h
            minus = ad.Variable(tensor(probe.reshape(v.value.shape)))
            others = [x if x is not v else None for x in variables]
            lp = build(ad.Tape(), [plus if o is None else o for o in others])
            lm = build(ad.Tape(), [minus if o is None else o for o in others])
            fd = (float(lp.value.array) - float(lm.value.array)) / (2 * h)
            got = grad.reshape(-1)[i]
            assert abs(fd - got) <= tol * max(1.0, abs(fd)), (i, fd, got)


def test_elementwise_chain_gradient():
    a = _var(rng.normal(1, 6).reshape(2, 3))
    b = _var(rng.normal(2, 6).reshape(2, 3))

    def build(tape, vs):
        x, y = vs
        z = ad.hadamard(tape, ad.sigmoid(tape, x), ad.tanh(tape, y))
        z = ad.add(tape, z, ad.one_minus(tape, x))
        return ad.sum_all(tape, z)

    _fd_check(build, [a, b])


def test_affine_vector_and_batch_gradients():
    w = _var(rng.normal(3, 12).reshape(3, 4))
    x = _var(rng.normal(4, 4))
    b = _var(rng.normal(5, 3))

    def build(tape, vs):
        wv, xv, bv = vs
        return ad.sum_all(tape, ad.tanh(tape, ad.affine(tape, wv, xv, bv)))

    _fd_check(build, [w, x, b])

    xb = _var(rng.normal(6, 8).reshape(2, 4))

    def build_batch(tape, vs):
        wv, xv, bv = vs
        return ad.sum_all(tape, ad.sigmoid(tape, ad.affine(tape, wv, xv, bv)))

    _fd_check(build_batch, [w, xb, b])


def test_tt_linear_gradient_and_sharing():
    facto = ModeFactorization((2, 3), (3, 2))
    tt = random_tt(facto, (1, 2, 1), seed=9)
    cores = [_var(c.array) for c in tt.cores]
    x = _var(rng.normal(10, 12).reshape(2, 6))
    v = _var(rng.normal(11, 6))  # a single vector takes the unbatched path

    def build(tape, vs):
        c0, c1, xv, vv = vs
        y = ad.tt_linear(tape, [c0, c1], facto, tt.ranks, xv)
        # use the same cores twice so shared reverse contractions are exercised
        y2 = ad.tt_linear(tape, [c0, c1], facto, tt.ranks, xv)
        yv = ad.tt_linear(tape, [c0, c1], facto, tt.ranks, vv)
        batch = ad.sum_all(tape, ad.hadamard(tape, ad.tanh(tape, y), ad.sigmoid(tape, y2)))
        return ad.add(tape, batch, ad.sum_all(tape, ad.tanh(tape, yv)))

    _fd_check(build, cores + [x, v], tol=1e-4)


def test_tt_linear_matches_dense_affine():
    facto = ModeFactorization((4, 2), (2, 4))
    tt = random_tt(facto, (1, 3, 1), seed=11)
    dense = reconstruct(tt).array
    x = rng.normal(12, 16).reshape(2, 8)
    tape = ad.Tape()
    y = ad.tt_linear(tape, [_var(c.array) for c in tt.cores], facto, tt.ranks, _var(x))
    assert np.allclose(y.value.array, x @ dense.T, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), min_size=2, max_size=2),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)
def test_tt_weight_core_gradients_match_the_contraction(modes, interior, rows, seed):
    facto = ModeFactorization([m for m, _ in modes], [n for _, n in modes])
    ranks = (1,) + tuple(interior[: facto.order - 1]) + (1,)
    tt = random_tt(facto, ranks, seed=seed)
    arrays = tt.core_arrays()
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((rows, facto.cols))
    dy = gen.standard_normal((rows, facto.rows))
    trace = _ApplyTrace()
    tt_apply_batch(arrays, facto.in_modes, ranks, x, trace)
    want, _ = tt_apply_backward_batch(arrays, facto.in_modes, ranks, trace, dy)

    cores = [_var(a) for a in arrays]
    tape = ad.Tape()
    w = ad.tt_weight(tape, cores, facto)
    assert np.allclose(w.value.array, reconstruct(tt).array, rtol=0, atol=1e-13)
    loss = ad.sum_all(tape, ad.hadamard(tape, w, _var(dy.T @ x)))  # d loss / d w = dy^T x
    ad.backward(tape, loss)
    for core, g in zip(cores, want):
        assert core.grad.shape == g.shape
        assert np.max(np.abs(core.grad - g)) <= 1e-12 * max(1.0, np.max(np.abs(g)))


def test_embed_scatter_gradient_accumulates_repeats():
    table = _var(rng.normal(13, 10).reshape(5, 2))
    ids = np.array([[1, 1, 4], [0, 2, 1]])
    tape = ad.Tape()
    out = ad.embed(tape, table, ids)
    loss = ad.sum_all(tape, out)
    ad.backward(tape, loss)
    expected = np.zeros((5, 2))
    for row in ids:
        for t in row:
            expected[t] += 1.0
    assert np.array_equal(table.grad, expected)


def test_blend_freezes_masked_positions():
    keep = _var(rng.normal(14, 4).reshape(2, 2))
    drop = _var(rng.normal(15, 4).reshape(2, 2))
    mask = np.array([[1.0], [0.0]])
    tape = ad.Tape()
    out = ad.blend(tape, mask, keep, drop)
    assert np.array_equal(out.value.array[0], keep.value.array[0])
    assert np.array_equal(out.value.array[1], drop.value.array[1])
    ad.backward(tape, ad.sum_all(tape, out))
    assert np.array_equal(keep.grad, np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(drop.grad, np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_softmax_rows_sum_to_one_and_gradient():
    a = _var(rng.normal(16, 8).reshape(2, 4))
    tape = ad.Tape()
    y = ad.softmax(tape, a)
    assert np.allclose(y.value.array.sum(axis=-1), 1.0, atol=1e-12)

    def build(tape_, vs):
        p = ad.softmax(tape_, vs[0])
        return ad.sum_all(tape_, ad.hadamard(tape_, p, p))

    _fd_check(build, [_var(a.value.array)])


def test_softmax_cross_entropy_gradient_is_p_minus_onehot():
    logits = _var(rng.normal(17, 12).reshape(3, 4))
    labels = np.array([2, 0, 3])
    tape = ad.Tape()
    probs = ad.softmax(tape, logits)
    loss = ad.cross_entropy_mean(tape, probs, labels)
    ad.backward(tape, loss)
    p = probs.value.array
    onehot = np.eye(4)[labels]
    assert np.allclose(logits.grad, (p - onehot) / 3.0, atol=1e-9)


def test_backward_requires_scalar():
    a = _var(np.ones((2, 2)))
    tape = ad.Tape()
    out = ad.tanh(tape, a)
    with pytest.raises(NotScalar):
        ad.backward(tape, out)


def test_double_backward_doubles_gradients():
    a = _var(rng.normal(18, 4).reshape(2, 2))
    tape = ad.Tape()
    loss = ad.sum_all(tape, ad.sigmoid(tape, a))
    ad.backward(tape, loss)
    once = a.grad.copy()
    ad.backward(tape, loss)
    assert np.allclose(a.grad, 2.0 * once)


def test_a_releasing_backward_frees_each_record_before_earlier_pulls_run():
    a = _var(np.ones(3))
    alive = []  # whether the later record's buffer was alive when the first record's pull ran
    for retain in (True, False):
        tape = ad.Tape(retain_graph=retain)
        first = tape.emit(tensor(np.ones(3)), [(a, lambda g: alive.append(kept() is not None) or g)])
        buffer = np.full(3, 2.0)
        kept = weakref.ref(buffer)
        second = tape.emit(tensor(np.ones(3)), [(first, lambda g, b=buffer: g * b)])
        del buffer
        ad.backward(tape, ad.sum_all(tape, second))
        assert len(tape.records) == (3 if retain else 0)
    assert alive == [True, False]
    assert np.array_equal(a.grad, np.full(3, 4.0))


def test_a_no_grad_tape_records_nothing():
    a = _var(np.ones(3))
    tape = ad.Tape(need_grad=False)
    y = ad.sum_all(tape, ad.sigmoid(tape, a))
    assert tape.records == [] and not tape.need_grad
    assert np.allclose(y.value.array, 3.0 / (1.0 + np.exp(-1.0)))


def test_zero_grads_and_add_grad_shape_guard():
    a = _var(np.ones(3))
    tape = ad.Tape()
    ad.backward(tape, ad.sum_all(tape, a))
    assert np.array_equal(a.grad, np.ones(3))
    ad.zero_grads([a])
    assert a.grad is None
    with pytest.raises(ShapeMismatch):
        a.add_grad(np.ones((2, 2)))


def test_leaves_fed_by_one_add_never_share_a_grad():
    for shape in ((), (3,)):
        a, b = _var(np.full(shape, 2.0)), _var(np.full(shape, -1.0))
        tape = ad.Tape()
        total = ad.add(tape, a, b)
        ad.backward(tape, total if shape == () else ad.sum_all(tape, total))
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        assert np.array_equal(a.grad, np.ones(shape)) and np.array_equal(b.grad, np.ones(shape))


def test_backward_keeps_only_a_fresh_owned_adjoint_uncopied():
    fresh, view, frozen = [], [], []

    def pull_fresh(g):
        fresh.append(np.full(3, float(g)))
        return fresh[-1]

    def pull_view(g):
        view.append(np.full(6, float(g)))
        return view[-1][:3]

    def pull_frozen(g):
        frozen.append(np.full(3, float(g)))
        frozen[-1].flags.writeable = False
        return frozen[-1]

    leaves = [_var(np.zeros(3)) for _ in range(3)]
    tape = ad.Tape()
    loss = tape.emit(tensor(0.0), list(zip(leaves, (pull_fresh, pull_view, pull_frozen))))
    ad.backward(tape, loss)
    assert leaves[0].grad is fresh[0]
    assert not np.shares_memory(leaves[1].grad, view[0])
    assert not np.shares_memory(leaves[2].grad, frozen[0])
    assert leaves[2].grad.flags.writeable
