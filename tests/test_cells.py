import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reftape import sum_all
from ttrnn import autodiff as ad
from ttrnn import rng
from ttrnn.autodiff import Tape, Variable
from ttrnn.cells import (
    KINDS,
    TENSORIZED,
    CellSpec,
    CellState,
    CellWeights,
    _gate_name,
    classify,
    init_state,
    init_weights,
    run_sequence,
    step,
    weight_templates,
)
from ttrnn.errors import EmptySequence, ShapeMismatch
from ttrnn.tensor import tensor
from ttrnn.ttcore import ModeFactorization, tt_svd

TT_KW = dict(tt_out_modes=(2, 2, 2), tt_in_modes=(2, 2, 2), tt_ranks=(1, 3, 3, 1))


def _spec(kind, **kw):
    base = dict(kind=kind, vocab_size=11, embed_dim=8, hidden_dim=8, num_classes=3)
    if kind in TENSORIZED:
        base.update(TT_KW)
    base.update(kw)
    return CellSpec(**base)


def _full_rank_twin(dense_spec, dense_weights, tensor_kind):
    """Tensorized spec/weights equal to a dense cell, via exact tt_svd."""
    h, e = dense_spec.hidden_dim, dense_spec.embed_dim
    facto = ModeFactorization((2, 2, 2), (2, 2, 2))
    values = {}
    realized = None
    for gate in dense_spec.gates:
        wname = "w" if gate == "" else "w_%s" % gate
        tt = tt_svd(dense_weights[wname].value, facto)
        realized = tt.ranks
        for k, core in enumerate(tt.cores):
            values["%s.core%d" % (wname, k)] = Variable(core)
    spec = CellSpec(
        kind=tensor_kind,
        vocab_size=dense_spec.vocab_size,
        embed_dim=e,
        hidden_dim=h,
        num_classes=dense_spec.num_classes,
        tt_out_modes=(2, 2, 2),
        tt_in_modes=(2, 2, 2),
        tt_ranks=realized,
        candidate_bias=dense_spec.candidate_bias,
    )
    for name, _ in weight_templates(spec):
        if name not in values:
            values[name] = Variable(dense_weights[name].value)
    return spec, CellWeights(spec, values)


# ---------------------------------------------------------------------------
# templates and initialization


def test_weight_templates_cover_expected_names():
    spec = _spec("gru")
    names = [n for n, _ in weight_templates(spec)]
    assert names[0] == "embedding"
    for gate in ("r", "z", "d"):
        assert "w_%s" % gate in names
        assert "u_%s" % gate in names
        assert "b_%s" % gate in names
    assert names[-2:] == ["head_w", "head_b"]


def test_weight_templates_tensorized_cores_replace_dense_maps():
    spec = _spec("t_lstm")
    names = [n for n, _ in weight_templates(spec)]
    assert "w_k" not in names
    assert "w_k.core0" in names and "w_k.core2" in names
    core_shape = dict(weight_templates(spec))["w_k.core1"]
    assert core_shape == (2, 2, 3, 3)


def test_jordan_feedback_width_is_class_count():
    spec = _spec("jordan")
    shapes = dict(weight_templates(spec))
    assert shapes["u"] == (spec.hidden_dim, spec.num_classes)


def test_candidate_bias_toggle_removes_one_bias():
    with_bias = [n for n, _ in weight_templates(_spec("gru"))]
    without = [n for n, _ in weight_templates(_spec("gru", candidate_bias=False))]
    assert "b_d" in with_bias and "b_d" not in without
    assert set(with_bias) - set(without) == {"b_d"}


def test_init_weights_deterministic_per_name():
    spec = _spec("lstm")
    a = init_weights(spec, seed=3)
    b = init_weights(spec, seed=3)
    c = init_weights(spec, seed=4)
    for name, _ in weight_templates(spec):
        assert np.array_equal(a[name].value.array, b[name].value.array)
    assert not np.array_equal(a["w_k"].value.array, c["w_k"].value.array)
    assert np.all(a["b_k"].value.array == 0.0)


def test_spec_rejects_inconsistent_modes():
    with pytest.raises(ShapeMismatch):
        _spec("t_gru", tt_out_modes=(2, 2), tt_in_modes=(2, 2, 2))
    with pytest.raises(ShapeMismatch):
        _spec("gru", tt_out_modes=(2, 2, 2))


def test_spec_dict_round_trip():
    for kind in ("gru", "t_lstm", "jordan"):
        spec = _spec(kind)
        assert CellSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# forward behavior


@pytest.mark.parametrize("kind", KINDS)
def test_step_probabilities_sum_to_one(kind):
    spec = _spec(kind)
    weights = init_weights(spec, seed=1)
    x = ad.embed(Tape(), weights["embedding"], np.array([3, 4]))
    tape = Tape()
    state = init_state(spec, batch=2)
    new_state, probs = step(tape, spec, weights, x, state)
    assert probs.value.shape == (2, spec.num_classes)
    assert np.allclose(probs.value.array.sum(axis=-1), 1.0, atol=1e-12)
    assert new_state.h.value.shape == (2, spec.hidden_dim)


# (input shape, state rows or None for vector state parts, last state part's shape or None)
BAD_STEP_SHAPES = [
    ((16,), None, None),  # a width that is a multiple of E once ran on mis-split rows
    ((2, 16), 2, None),
    ((5,), None, None),
    ((), None, None),
    ((1, 2, 8), 2, None),
    ((2, 8), None, None),  # batched input, vector state
    ((8,), 2, None),  # vector input, batched state
    ((2, 8), 3, None),  # the state has other rows than the input
    ((2, 8), 2, (2, 9)),
    ((8,), None, (2, 8)),
    ((8,), None, "missing"),
]


@pytest.mark.parametrize("kind", ["gru", "t_lstm", "jordan"])
@pytest.mark.parametrize("x_shape,rows,last", BAD_STEP_SHAPES)
def test_step_rejects_input_and_state_shapes_that_do_not_match(kind, x_shape, rows, last):
    spec = _spec(kind)
    weights = init_weights(spec, seed=1)
    state = init_state(spec, batch=rows)
    field = {"lstm": "c", "jordan": "y"}.get(spec.family, "h")
    if last is not None:
        setattr(state, field, None if last == "missing" else Variable(tensor(np.zeros(last))))
    x, tape = Variable(tensor(np.ones(x_shape))), Tape()
    with pytest.raises(ShapeMismatch):
        step(tape, spec, weights, x, state)
    assert tape.records == []


@pytest.mark.parametrize("kind", KINDS)
def test_batched_equals_per_sequence_with_padding(kind):
    spec = _spec(kind)
    weights = init_weights(spec, seed=2)
    ids = np.array([[3, 5, 2, 0, 0], [1, 4, 6, 7, 2]])
    mask = (ids != 0).astype(np.float64)
    batched = run_sequence(Tape(), spec, weights, ids, mask=mask).value.array
    for i in range(2):
        real = ids[i][ids[i] != 0]
        single = run_sequence(Tape(), spec, weights, real).value.array
        assert np.allclose(batched[i], single, atol=1e-12)


def test_run_sequence_rejects_empty_and_all_masked():
    spec = _spec("gru")
    weights = init_weights(spec, seed=2)
    with pytest.raises(EmptySequence):
        run_sequence(Tape(), spec, weights, np.zeros((2, 0), dtype=np.int64))
    ids = np.array([[1, 2], [3, 4]])
    mask = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(EmptySequence):
        run_sequence(Tape(), spec, weights, ids, mask=mask)


@pytest.mark.parametrize(
    "row",
    [[1.0, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 1.0, 1.0]],
    ids=["hole", "fractional", "padding-first"],
)
def test_run_sequence_rejects_a_mask_that_is_not_a_prefix(row):
    spec = _spec("gru")
    weights = init_weights(spec, seed=2)
    ids = np.array([[1, 2, 3], [4, 5, 6]])
    mask = np.array([[1.0, 1.0, 1.0], row])
    with pytest.raises(ShapeMismatch, match="prefix"):
        run_sequence(Tape(), spec, weights, ids, mask=mask)
    with pytest.raises(ShapeMismatch, match="prefix"):
        classify(spec, weights, ids[1], mask=mask[1])


def test_classify_returns_indices():
    spec = _spec("lstm")
    weights = init_weights(spec, seed=5)
    ids = np.array([[1, 2, 3], [4, 5, 6]])
    out = classify(spec, weights, ids)
    assert out.shape == (2,)
    assert np.all((out >= 0) & (out < spec.num_classes))


# ---------------------------------------------------------------------------
# dense/tensorized twins


@pytest.mark.parametrize(
    "dense_kind,tensor_kind", [("elman", "t_rnn"), ("lstm", "t_lstm"), ("gru", "t_gru")]
)
def test_full_rank_twin_matches_dense_hidden_state(dense_kind, tensor_kind):
    dense_spec = _spec(dense_kind)
    dense_weights = init_weights(dense_spec, seed=6)
    t_spec, t_weights = _full_rank_twin(dense_spec, dense_weights, tensor_kind)

    state_d = init_state(dense_spec)
    state_t = init_state(t_spec)
    ids = rng.randint_below(rng.split(7, dense_kind), dense_spec.vocab_size, 20)
    for t in range(ids.size):
        x = ad.embed(Tape(), dense_weights["embedding"], int(ids[t]))
        state_d, _ = step(Tape(), dense_spec, dense_weights, x, state_d)
        state_t, _ = step(Tape(), t_spec, t_weights, x, state_t)
        diff = np.max(np.abs(state_d.h.value.array - state_t.h.value.array))
        assert diff <= 1e-8


# ---------------------------------------------------------------------------
# gradients through a full sequence


SEQUENCE_CASES = [
    (np.array([[2, 7, 1, 5]]), None, np.array([1])),
    # two lengths, and a last column that is padding in every row
    (np.array([[2, 7, 1, 0], [5, 3, 0, 0]]), np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=float), np.array([1, 2])),
]


def _sequence_loss(spec, weights, ids, mask, labels):
    tape = Tape()
    probs = run_sequence(tape, spec, weights, ids, mask=mask)
    return tape, ad.cross_entropy_mean(tape, probs, labels)


@pytest.mark.parametrize("kind", KINDS)
def test_sequence_gradient_finite_difference(kind):
    spec = _spec(kind)
    for ids, mask, labels in SEQUENCE_CASES:
        weights = init_weights(spec, seed=8)
        tape, loss = _sequence_loss(spec, weights, ids, mask, labels)
        ad.backward(tape, loss)

        h = 1e-6
        checked = 0
        for name, _ in weight_templates(spec):
            var = weights[name]
            if var.grad is None:
                continue
            flat_grad = var.grad.reshape(-1)
            # probe the largest-gradient coordinate of each parameter
            i = int(np.argmax(np.abs(flat_grad)))
            base = var.value.array.reshape(-1).copy()
            lossed = {}
            for sign in (1.0, -1.0):
                probe = base.copy()
                probe[i] += sign * h
                values = dict(weights.values)
                values[name] = Variable(tensor(probe.reshape(var.value.shape)))
                _, l2 = _sequence_loss(spec, CellWeights(spec, values), ids, mask, labels)
                lossed[sign] = float(l2.value.array)
            fd = (lossed[1.0] - lossed[-1.0]) / (2 * h)
            if abs(fd) > 1e-10:
                assert abs(fd - flat_grad[i]) <= 1e-4 * max(1.0, abs(fd)), name
                checked += 1
        assert checked >= 5


@pytest.mark.parametrize("kind", KINDS)
def test_two_backward_calls_leave_exactly_twice_the_gradient(kind):
    spec = _spec(kind)
    weights = init_weights(spec, seed=9)
    ids, mask, labels = SEQUENCE_CASES[1]
    once = None
    for _ in range(2):  # a tape serves one backward: each run records on a fresh one
        tape, loss = _sequence_loss(spec, weights, ids, mask, labels)
        ad.backward(tape, loss)
        assert tape.records == []
        if once is None:
            once = {name: np.array(v.grad) for name, v in weights.values.items() if v.grad is not None}
    assert "embedding" in once
    for name, g in once.items():
        assert np.array_equal(weights[name].grad, 2.0 * g), name


def _ragged(rows, steps, lengths, seed):
    """(ids, mask) of a batch whose row i has lengths[i] real tokens."""
    mask = (np.arange(steps) < np.asarray(lengths)[:, None]).astype(np.float64)
    ids = np.array(rng.permutation(seed, rows * steps)).reshape(rows, steps) % 10 + 1
    return ids * mask.astype(np.int64), mask


FORWARD_CASES = [(kind, True) for kind in KINDS] + [("gru", False), ("t_gru", False)]


@pytest.mark.parametrize("kind,candidate_bias", FORWARD_CASES)
def test_forward_only_probabilities_equal_the_recording_run(kind, candidate_bias):
    spec = _spec(kind, candidate_bias=candidate_bias)
    weights = init_weights(spec, seed=12)
    ids, mask = _ragged(4, 6, [3, 6, 1, 4], seed=12)  # rows not in length order
    for case in ((ids, mask), (ids[1], None)):
        recorded = run_sequence(Tape(), spec, weights, *case).value.array
        tape = Tape(need_grad=False)
        free = run_sequence(tape, spec, weights, *case).value.array
        assert tape.records == []
        assert np.array_equal(free, recorded)
        assert np.array_equal(classify(spec, weights, *case), np.argmax(recorded, axis=-1))


@pytest.mark.parametrize("kind", KINDS)
def test_forward_only_run_keeps_nothing_per_token_beyond_x_and_xg(kind):
    rows, steps, embed, hidden = 8, 128, 8, 32
    tt = dict(tt_out_modes=(2, 4, 4), tt_in_modes=(2, 2, 2), tt_ranks=(1, 2, 2, 1))
    spec = CellSpec(kind, 11, embed, hidden, 3, **(tt if kind in TENSORIZED else {}))
    weights = init_weights(spec, seed=13)
    lengths = np.array([125, 128, 122, 127, 121, 126, 123, 124])
    ids, mask = _ragged(rows, steps, lengths, seed=13)
    run_sequence(Tape(need_grad=False), spec, weights, ids, mask=mask)  # first-call set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_sequence(Tape(need_grad=False), spec, weights, ids, mask=mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width = len(spec.gates) * hidden  # a row of xg
    x_and_xg = int(lengths.sum()) * (embed + width) * 8
    # numpy's 64 KiB ufunc buffer, the step descriptors and some (B, width) temporaries;
    # the recording run's BPTT store alone is 1.8x (jordan) to 6.8x (lstm) larger than this
    margin = 2**17 + 16 * rows * width * 8
    assert peak - before <= x_and_xg + margin


def _records_reading(tape, var):
    return sum(1 for _, pulls in tape.records if any(src is var for src, _ in pulls))


@pytest.mark.parametrize("kind", KINDS)
def test_runner_skips_trailing_padding_and_runs_embed_and_head_once(kind):
    spec = _spec(kind)
    weights = init_weights(spec, seed=10)
    ids = np.array([[3, 5, 2, 0, 0, 0], [1, 4, 0, 0, 0, 0]])
    mask = (ids != 0).astype(np.float64)
    padded, cut = Tape(), Tape()
    out = run_sequence(padded, spec, weights, ids, mask=mask).value.array
    ref = run_sequence(cut, spec, weights, ids[:, :3], mask=mask[:, :3]).value.array
    assert np.array_equal(out, ref)
    assert len(padded.records) == len(cut.records)
    # embedding, each TT gate's W, one recurrence record for the one state part read, head
    records = {"elman": 4, "jordan": 2, "lstm": 4, "gru": 4, "t_rnn": 5, "t_lstm": 8, "t_gru": 7}
    assert len(padded.records) == records[kind]
    assert _records_reading(padded, weights["embedding"]) == 1
    # only the real tokens are embedded, never a padding position
    (embedded,) = [o for o, pulls in padded.records if pulls[0][0] is weights["embedding"]]
    assert embedded.value.shape == (int(mask.sum()), spec.embed_dim)
    # jordan's head runs inside the fused recurrence, which reads head_w once
    assert _records_reading(padded, weights["head_w"]) == 1


# ---------------------------------------------------------------------------
# the fused recurrence against a per-step tape of the elementary ops


def _ref_preact(tape, spec, weights, gate, x, recur_in):
    bias = weights[_gate_name("b", gate)] if spec.has_bias(gate) else None
    rec = ad.affine(tape, weights[_gate_name("u", gate)], recur_in, bias)
    if spec.tensorized:
        inp = ad.tt_linear(tape, weights.tt_cores(gate), spec.facto, spec.tt_ranks, x)
    else:
        inp = ad.affine(tape, weights[_gate_name("w", gate)], x)
    return ad.add(tape, inp, rec)


def _ref_advance(tape, spec, weights, x, state):
    pre = lambda gate, recur_in: _ref_preact(tape, spec, weights, gate, x, recur_in)  # noqa: E731
    if spec.kind in ("elman", "t_rnn"):
        return CellState(h=ad.tanh(tape, pre("", state.h)))
    if spec.kind == "jordan":
        h = ad.tanh(tape, pre("", state.y))
        logits = ad.affine(tape, weights["head_w"], h, weights["head_b"])
        return CellState(h=h, y=ad.softmax(tape, logits))
    if spec.kind in ("gru", "t_gru"):
        r = ad.sigmoid(tape, pre("r", state.h))
        z = ad.sigmoid(tape, pre("z", state.h))
        d = ad.tanh(tape, pre("d", ad.hadamard(tape, r, state.h)))
        keep = ad.hadamard(tape, ad.one_minus(tape, z), state.h)
        return CellState(h=ad.add(tape, keep, ad.hadamard(tape, z, d)))
    k = ad.sigmoid(tape, pre("k", state.h))
    f = ad.sigmoid(tape, pre("f", state.h))
    o = ad.sigmoid(tape, pre("o", state.h))
    g = ad.tanh(tape, pre("g", state.h))
    c = ad.add(tape, ad.hadamard(tape, f, state.c), ad.hadamard(tape, k, g))
    return CellState(h=ad.hadamard(tape, o, ad.tanh(tape, c)), c=c)


def _ref_run(tape, spec, weights, ids, mask):
    """Every column, one op per gate and step, masked steps blended away."""
    state = init_state(spec, batch=ids.shape[0])
    for t in range(ids.shape[1]):
        x = ad.embed(tape, weights["embedding"], ids[:, t])
        new = _ref_advance(tape, spec, weights, x, state)
        m = mask[:, t : t + 1]
        state = CellState(
            **{
                name: ad.blend(tape, m, getattr(new, name), getattr(state, name))
                for name in ("h", "c", "y")
                if getattr(new, name) is not None
            }
        )
    if spec.kind == "jordan":
        return state.y
    logits = ad.affine(tape, weights["head_w"], state.h, weights["head_b"])
    return ad.softmax(tape, logits)


def _loss_and_grads(run, spec, weights, ids, mask, labels):
    ad.zero_grads(weights.params())
    tape = Tape()
    probs = run(tape, spec, weights, ids, mask)
    ad.backward(tape, ad.cross_entropy_mean(tape, probs, labels))
    grads = {
        name: np.zeros(shape) if weights[name].grad is None else weights[name].grad
        for name, shape in weight_templates(spec)
    }
    return probs.value.array, grads


def _rel_close(got, want, rtol=1e-10):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.integers(0, 2),
    st.integers(0, 2**31 - 1),
    st.booleans(),
)
@example("gru", [4, 1, 3], 1, 0, True)  # rows ending early, a row of length 1, a padding column
@example("t_lstm", [5, 2, 1], 2, 1, True)
@example("jordan", [1, 3], 1, 2, True)
@example("lstm", [1, 5, 3], 0, 3, True)  # rows not in length order
@example("t_gru", [3, 2], 1, 4, False)  # no candidate bias: one gate's bias adjoint is skipped
@example("t_gru", [1, 3, 3, 6], 0, 5, True)  # increasing lengths: rows run reversed, the tie in order
@example("jordan", [2, 4, 2, 4], 1, 6, True)  # tied lengths
def test_fused_recurrence_matches_the_per_step_tape(kind, lengths, padding, seed, candidate_bias):
    spec = _spec(kind, candidate_bias=candidate_bias)
    weights = init_weights(spec, seed=seed)
    gen = np.random.default_rng(seed)
    steps = max(lengths) + padding
    mask = (np.arange(steps)[None, :] < np.array(lengths)[:, None]).astype(np.float64)
    ids = gen.integers(1, spec.vocab_size, size=mask.shape) * mask.astype(np.int64)
    labels = gen.integers(0, spec.num_classes, size=len(lengths))

    fused = lambda tape, s, w, i, m: run_sequence(tape, s, w, i, mask=m)  # noqa: E731
    probs, grads = _loss_and_grads(fused, spec, weights, ids, mask, labels)
    want_probs, want_grads = _loss_and_grads(_ref_run, spec, weights, ids, mask, labels)
    assert _rel_close(probs, want_probs)
    for name, want in want_grads.items():
        assert _rel_close(grads[name], want), name


ORDER_CASES = [
    ([3, 5, 3, 1, 5, 2], [4, 1, 0, 5, 3, 2]),  # tied lengths and a row of length 1
    ([4, 4, 4], [2, 0, 1]),  # all lengths equal
    ([1, 2, 3, 4], [3, 2, 1, 0]),  # increasing lengths, permuted into longest first
]


@pytest.mark.parametrize("lengths,perm", ORDER_CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_permuting_the_rows_permutes_the_probabilities_and_keeps_the_gradients(kind, lengths, perm):
    spec = _spec(kind)
    weights = init_weights(spec, seed=21)
    ids, mask = _ragged(len(lengths), max(lengths) + 1, lengths, seed=21)
    labels = np.arange(len(lengths)) % spec.num_classes
    fused = lambda tape, s, w, i, m: run_sequence(tape, s, w, i, mask=m)  # noqa: E731
    probs, grads = _loss_and_grads(fused, spec, weights, ids, mask, labels)
    got, got_grads = _loss_and_grads(fused, spec, weights, ids[perm], mask[perm], labels[perm])
    assert np.allclose(got, probs[perm], rtol=1e-12, atol=0.0)
    free = run_sequence(Tape(need_grad=False), spec, weights, ids[perm], mask=mask[perm])
    assert np.allclose(free.value.array, probs[perm], rtol=1e-12, atol=0.0)
    for name, want in grads.items():
        assert _rel_close(got_grads[name], want), name
    # rows run longest first and tied rows keep their input order, so the tokens are
    # embedded in that order, time-major
    tape = Tape()
    run_sequence(tape, spec, weights, ids, mask=mask)
    (embedded,) = [o for o, pulls in tape.records if pulls[0][0] is weights["embedding"]]
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])  # sorted() is stable
    packed = [ids[i, t] for t in range(max(lengths)) for i in order if t < lengths[i]]
    assert np.array_equal(embedded.value.array, weights["embedding"].value.array[packed])


@pytest.mark.parametrize("kind", ["lstm", "jordan"])
def test_two_chained_steps_gradient_finite_difference(kind):
    """Gradients through two step calls reach the weights, both inputs and the state passed in."""
    spec = _spec(kind)
    weights = init_weights(spec, seed=12)
    gen = np.random.default_rng(12)
    xs = [Variable(tensor(gen.standard_normal((2, spec.embed_dim)))) for _ in range(2)]
    parts = {"h": spec.hidden_dim, "c": spec.hidden_dim} if kind == "lstm" else {
        "h": spec.hidden_dim, "y": spec.num_classes}
    state0 = {name: Variable(tensor(0.5 * gen.standard_normal((2, w)))) for name, w in parts.items()}
    probes = {name: tensor(gen.standard_normal((2, w))) for name, w in parts.items()}
    labels = np.array([0, 2])

    def loss_of(values, inputs, start):
        tape = Tape()
        state = CellState(**start)
        for x in inputs:
            state, probs = step(tape, spec, CellWeights(spec, values), x, state)
        loss = ad.cross_entropy_mean(tape, probs, labels)
        for name, probe in probes.items():  # every part of the final state counts
            part = sum_all(tape, ad.hadamard(tape, getattr(state, name), Variable(probe)))
            loss = ad.add(tape, loss, part)
        return tape, loss

    tape, loss = loss_of(weights.values, xs, state0)
    ad.backward(tape, loss)

    def fd(loss_at, h=1e-6):
        return (float(loss_at(h)[1].value.array) - float(loss_at(-h)[1].value.array)) / (2 * h)

    def shifted(var, i, delta):
        flat = var.value.array.reshape(-1).copy()
        flat[i] += delta
        return Variable(tensor(flat.reshape(var.value.shape)))

    reached = {}
    for name, var in state0.items():
        reached[name] = False
        for i in range(var.value.size):
            want = fd(lambda d: loss_of(weights.values, xs, {**state0, name: shifted(var, i, d)}))
            assert abs(var.grad.reshape(-1)[i] - want) <= 1e-6 * max(1.0, abs(want)), (name, i)
            reached[name] |= abs(want) > 1e-8
    # the fed-back parts of the state passed in reach the loss; jordan feeds back y only
    assert reached == ({"h": True, "c": True} if kind == "lstm" else {"h": False, "y": True})
    for j in range(len(xs)):
        for i in range(xs[j].value.size):
            want = fd(lambda d: loss_of(
                weights.values, [shifted(x, i, d) if k == j else x for k, x in enumerate(xs)], state0))
            assert abs(xs[j].grad.reshape(-1)[i] - want) <= 1e-6 * max(1.0, abs(want)), (j, i)
    assert weights["embedding"].grad is None  # the inputs come in already embedded
    for name, _ in weight_templates(spec)[1:]:
        var = weights[name]
        i = int(np.argmax(np.abs(var.grad)))
        want = fd(lambda d: loss_of({**weights.values, name: shifted(var, i, d)}, xs, state0))
        assert abs(var.grad.reshape(-1)[i] - want) <= 1e-6 * max(1.0, abs(want)), name
