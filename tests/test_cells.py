import numpy as np
import pytest

from ttrnn import autodiff as ad
from ttrnn import rng
from ttrnn.autodiff import Tape, Variable
from ttrnn.cells import (
    KINDS,
    TENSORIZED,
    CellSpec,
    CellState,
    CellWeights,
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
    tape, loss = _sequence_loss(spec, weights, ids, mask, labels)
    ad.backward(tape, loss)
    once = {name: np.array(v.grad) for name, v in weights.values.items() if v.grad is not None}
    ad.backward(tape, loss)
    assert "embedding" in once
    for name, g in once.items():
        assert np.array_equal(weights[name].grad, 2.0 * g), name


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
    assert _records_reading(padded, weights["embedding"]) == 1
    heads = _records_reading(padded, weights["head_w"])
    assert heads == (3 if kind == "jordan" else 1)
