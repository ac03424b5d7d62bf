import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from ttrnn import autodiff as ad
from ttrnn.autodiff import Tape, Variable
from ttrnn import training
from ttrnn.cells import CellSpec, init_weights, run_sequence
from ttrnn.errors import ClassTooSmall, CorpusMismatch, EmptyTestSet, NonFiniteTraining, ShapeMismatch
from ttrnn.tensor import WORK_CHUNK, tensor
from ttrnn.textpipe import CleanExample
from ttrnn.training import (
    TrainConfig,
    adam_step,
    build_cell_spec,
    clip_gradients,
    evaluate_model,
    param_counts,
    prepare_dataset,
    recorded_test_set,
    sgd_step,
    split_train_test,
    train,
)


class _Tagged:
    def __init__(self, i, class_id):
        self.i = i
        self.class_id = class_id


def _balanced(n, classes=2):
    return [_Tagged(i, i % classes) for i in range(n)]


# ---------------------------------------------------------------------------
# configuration


def test_train_config_validation():
    with pytest.raises(ShapeMismatch):
        TrainConfig(split_fraction=1.0)
    with pytest.raises(ShapeMismatch):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ShapeMismatch):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ShapeMismatch):
        TrainConfig(early_stop_patience=-1)
    assert TrainConfig().to_dict()["epochs_max"] == 450


@pytest.mark.parametrize(
    "setting",
    [
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"clip_norm": float("nan")},
        {"clip_norm": float("inf")},
        {"clip_norm": -1.0},
        {"clip_norm": 0.0},
    ],
)
def test_train_config_rejects_a_non_finite_or_non_positive_rate_or_clip(setting):
    with pytest.raises(ShapeMismatch, match="finite and positive"):
        TrainConfig(**setting)


# ---------------------------------------------------------------------------
# splitting


def test_split_pinned_sizes():
    train_part, test_part = split_train_test(_balanced(100), 0.8, seed=0, key=lambda e: e.class_id)
    assert len(train_part) == 80 and len(test_part) == 20
    train_part, test_part = split_train_test(_balanced(10), 0.5, seed=0, key=lambda e: e.class_id)
    assert len(train_part) == 5 and len(test_part) == 5


def test_split_is_stratified():
    examples = [_Tagged(i, 0) for i in range(40)] + [_Tagged(i, 1) for i in range(10)]
    train_part, test_part = split_train_test(examples, 0.8, seed=3, key=lambda e: e.class_id)
    train_minority = sum(1 for e in train_part if e.class_id == 1)
    assert train_minority == 8
    assert sum(1 for e in test_part if e.class_id == 1) == 2


def test_split_partition_properties():
    examples = _balanced(33, classes=3)
    train_part, test_part = split_train_test(examples, 0.7, seed=9, key=lambda e: e.class_id)
    ids = sorted(e.i for e in train_part) + sorted(e.i for e in test_part)
    assert sorted(ids) == list(range(33))
    # every class present on both sides
    for c in range(3):
        assert any(e.class_id == c for e in train_part)
        assert any(e.class_id == c for e in test_part)
    # deterministic, seed-sensitive
    again = split_train_test(examples, 0.7, seed=9, key=lambda e: e.class_id)
    other = split_train_test(examples, 0.7, seed=10, key=lambda e: e.class_id)
    assert [e.i for e in again[0]] == [e.i for e in train_part]
    assert [e.i for e in other[0]] != [e.i for e in train_part]


def test_split_rejects_singleton_class():
    examples = _balanced(9, classes=2) + [_Tagged(99, 7)]
    with pytest.raises(ClassTooSmall):
        split_train_test(examples, 0.8, seed=0, key=lambda e: e.class_id)


def test_split_extreme_fraction_keeps_one_per_side():
    train_part, test_part = split_train_test(_balanced(4), 0.99, seed=0, key=lambda e: e.class_id)
    assert len(test_part) >= 2  # one per class


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_step_exact():
    v = Variable(tensor([1.0, -2.0]))
    v.add_grad(np.array([0.5, 0.5]))
    sgd_step([v], lr=0.1)
    assert np.allclose(v.value.array, [0.95, -2.05])
    assert v.grad is not None  # stepping does not clear gradients


def test_adam_first_step_is_signed_lr():
    v = Variable(tensor([3.0, -1.0]))
    v.add_grad(np.array([0.2, -0.4]))
    adam_step([v], lr=0.01, t=1)
    # bias-corrected first step moves by lr * g/(|g| + eps) = roughly lr * sign
    assert np.allclose(v.value.array, [3.0 - 0.01, -1.0 + 0.01], atol=1e-6)


def test_adam_state_continuity():
    v = Variable(tensor([1.0]))
    v.add_grad(np.array([1.0]))
    state = adam_step([v], lr=0.1, t=1)
    first = float(v.value.array[0])
    v.zero_grad()
    v.add_grad(np.array([1.0]))
    adam_step([v], lr=0.1, t=2, state=state)
    second = float(v.value.array[0])
    assert first == pytest.approx(0.9, abs=1e-6)
    assert second < first  # still descending on a constant gradient


def test_adam_step_is_bitwise_the_whole_array_update():
    # one parameter larger than the work buffers and not a multiple of them,
    # one smaller, and one whose gradient is missing at step 3
    shapes = [(2 * WORK_CHUNK + 123,), (3, 5), (7, 11)]
    draws = np.random.default_rng(0)
    variables = [Variable(tensor(draws.standard_normal(s))) for s in shapes]
    expected = [v.value.array.copy() for v in variables]
    moments = [(0.0, 0.0)] * len(shapes)
    state = None
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for k, v in enumerate(variables):
            v.zero_grad()
            if (k, t) == (2, 3):
                continue
            g = draws.standard_normal(shapes[k]) * 10.0 ** draws.integers(-6, 2)
            v.add_grad(g)
            m, s = moments[k]
            m = b1 * m + (1.0 - b1) * g
            s = b2 * s + (1.0 - b2) * g * g
            moments[k] = (m, s)
            expected[k] = expected[k] - lr * (m / c1) / (np.sqrt(s / c2) + eps)
        old = [(v.value.array, v.value.array.tobytes()) for v in variables]
        state = adam_step(variables, lr, t=t, state=state)
        for k, v in enumerate(variables):
            assert v.value.array.tobytes() == expected[k].tobytes(), (t, k)
            assert old[k][0].tobytes() == old[k][1]  # a held old value is never written to
        if t == 3:
            assert variables[2].value.array is old[2][0]


def test_adam_step_allocates_only_the_new_value_after_the_first_step():
    n = 1_000_000
    v = Variable(tensor(np.linspace(-1.0, 1.0, n)))
    v.add_grad(np.linspace(0.5, -0.5, n))
    state = adam_step([v], 1e-3, t=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        adam_step([v], 1e-3, t=2, state=state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 8 * n + 2**20


def test_a_live_tape_does_not_keep_the_embedding_table_adam_replaced():
    spec = CellSpec("gru", vocab_size=11, embed_dim=8, hidden_dim=8, num_classes=3)
    weights = init_weights(spec, seed=3)
    live = Tape()  # recorded, never backward-ed: its records stay
    ad.cross_entropy_mean(live, run_sequence(live, spec, weights, np.array([[2, 7, 1]])), np.array([1]))
    tape = Tape()
    probs = run_sequence(tape, spec, weights, np.array([[2, 7, 1]]))
    ad.backward(tape, ad.cross_entropy_mean(tape, probs, np.array([1])))
    old = weakref.ref(weights["embedding"].value.array)
    adam_step(weights.params(), 1e-3, t=1)
    assert live.records  # the tape, and the embedding lookup's pull, are still alive
    assert old() is None


def test_batch_mask_is_the_stack_of_example_masks(tiny_corpus):
    data = prepare_dataset(tiny_corpus, TrainConfig(max_len=12, seed=3))
    _, mask, _ = training._batch_arrays(data.train)
    assert mask.dtype == np.float64
    assert np.array_equal(mask, np.array([e.mask for e in data.train]))


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_optimizer_strictly_decreases_square_loss(optimizer):
    # f(w) = w^2, lr = 0.01: every step must strictly shrink the loss
    v = Variable(tensor([1.5]))
    state = {}
    losses = []
    for t in range(1, 26):
        w = float(v.value.array[0])
        losses.append(w * w)
        v.zero_grad()
        v.add_grad(np.array([2.0 * w]))
        if optimizer == "sgd":
            sgd_step([v], lr=0.01)
        else:
            state = adam_step([v], lr=0.01, t=t, state=state)
    losses.append(float(v.value.array[0]) ** 2)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_clip_gradients_caps_global_norm():
    a = Variable(tensor([3.0]))
    b = Variable(tensor([4.0]))
    a.add_grad(np.array([3.0]))
    b.add_grad(np.array([4.0]))  # global norm 5
    clip_gradients([a, b], max_norm=1.0)
    norm = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
    assert norm == pytest.approx(1.0, abs=1e-12)
    # under the cap nothing changes
    clip_gradients([a, b], max_norm=10.0)
    assert norm == pytest.approx(np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2), abs=1e-12)


# ---------------------------------------------------------------------------
# spec building


def test_build_cell_spec_auto_factorization():
    spec = build_cell_spec("t-gru", 50, TrainConfig(hidden_dim=64, embed_dim=64), 6)
    assert spec.kind == "t_gru"
    assert spec.tt_out_modes == (4, 4, 4)
    assert spec.tt_in_modes == (4, 4, 4)
    assert spec.tt_ranks == (1, 4, 4, 1)


def test_build_cell_spec_errors_name_both_numbers():
    config = TrainConfig(hidden_dim=16, embed_dim=16, tt_out_modes=(4, 4, 2), tt_in_modes=(4, 2, 2))
    with pytest.raises(ShapeMismatch) as err:
        build_cell_spec("t_gru", 50, config, 6)
    assert "32" in str(err.value) and "16" in str(err.value)
    with pytest.raises(ShapeMismatch):
        build_cell_spec("cnn", 50, TrainConfig(), 6)
    with pytest.raises(ShapeMismatch):
        build_cell_spec(
            "t_gru", 50, TrainConfig(tt_out_modes=(4, 4, 4)), 6
        )  # one of two mode lists


@pytest.mark.parametrize("kind", ["gru", "t_gru"])
def test_no_candidate_bias_drops_b_d_for_dense_and_tt(kind):
    from ttrnn.cells import weight_templates

    config = TrainConfig(hidden_dim=8, embed_dim=8, candidate_bias=False)
    spec = build_cell_spec(kind, 30, config, 6)
    assert spec.candidate_bias is False
    names = [name for name, _ in weight_templates(spec)]
    assert "b_d" not in names and "b_z" in names


def test_tt_ranks_takes_an_interior_rank_or_a_full_vector():
    base = dict(hidden_dim=16, embed_dim=16, tt_out_modes=(4, 2, 2), tt_in_modes=(2, 4, 2))
    interior = build_cell_spec("t_rnn", 30, TrainConfig(tt_ranks=3, **base), 6)
    assert interior.tt_ranks == (1, 3, 3, 1)
    vector = TrainConfig(tt_ranks=(1, 2, 3, 1), **base)
    assert build_cell_spec("t_rnn", 30, vector, 6).tt_ranks == (1, 2, 3, 1)
    assert tuple(vector.to_dict()["tt_ranks"]) == (1, 2, 3, 1)
    with pytest.raises(ShapeMismatch):
        TrainConfig(tt_ranks=0)

def test_param_counts_match_templates():
    from ttrnn.cells import weight_templates

    spec = build_cell_spec("t-lstm", 30, TrainConfig(hidden_dim=16, embed_dim=16), 4)
    counts = param_counts(spec)
    total = sum(int(np.prod(s)) for _, s in weight_templates(spec))
    assert counts["total"] == total
    assert 0 < counts["input_maps"] < total
    dense = param_counts(build_cell_spec("lstm", 30, TrainConfig(hidden_dim=16, embed_dim=16), 4))
    assert counts["total"] < dense["total"]


# ---------------------------------------------------------------------------
# dataset preparation


def _toy_two_class(n_per_class=40):
    out = []
    pos_words = ["good", "great", "happy", "nice"]
    neg_words = ["bad", "awful", "sad", "gross"]
    for i in range(n_per_class):
        p = " ".join(pos_words[(i + j) % 4] for j in range(3))
        n = " ".join(neg_words[(i + j) % 4] for j in range(3))
        out.append(CleanExample("p%d" % i, p, (), "Happy", "Positive"))
        out.append(CleanExample("n%d" % i, n, (), "Angry", "Negative"))
    return out


def test_prepare_dataset_builds_vocab_on_train_only():
    examples = _toy_two_class(10)
    # plant a token that can only ever appear in the test slice by checking
    # afterwards which side each id landed on
    config = TrainConfig(max_len=6, seed=1, split_fraction=0.8)
    data = prepare_dataset(examples, config, task="sentiment")
    assert data.vocab.size > 2
    train_ids = {id(e) for e in data.train} | {id(e) for e in data.val}
    assert len(data.train) + len(data.val) + len(data.test) == len(examples)
    assert data.labels == ("Negative", "Positive")
    assert data.dropped_empty == 0


def test_prepare_dataset_drops_token_empty_examples():
    examples = _toy_two_class(6) + [
        CleanExample("e1", "", (), "Happy", "Positive"),
        CleanExample("e2", "", (), "Angry", "Negative"),
    ]
    data = prepare_dataset(examples, TrainConfig(seed=0), task="sentiment")
    assert data.dropped_empty == 2


# ---------------------------------------------------------------------------
# full training runs


def test_toy_two_class_reaches_full_train_accuracy():
    examples = _toy_two_class(40)
    config = TrainConfig(
        epochs_max=50,
        early_stop_patience=0,
        batch_size=8,
        seed=4,
        hidden_dim=16,
        embed_dim=16,
        max_len=6,
    )
    bundle, records = train(config, examples, "gru", task="sentiment")
    data = prepare_dataset(examples, config, task="sentiment")
    report = evaluate_model(bundle.spec, bundle.weights, data.train)
    assert report.accuracy == 1.0


def test_train_is_deterministic_and_replayable(tiny_corpus):
    config = TrainConfig(
        epochs_max=2, early_stop_patience=0, seed=11, hidden_dim=8, embed_dim=8, max_len=10
    )
    b1, r1 = train(config, tiny_corpus, "t_rnn")
    b2, r2 = train(config, tiny_corpus, "t_rnn")
    assert r1 == r2
    for v1, v2 in zip(b1.weights.params(), b2.weights.params()):
        assert np.array_equal(v1.value.array, v2.value.array)
    assert json.dumps(r1[0], sort_keys=True) == json.dumps(r2[0], sort_keys=True)


def test_non_finite_gradient_norm_stops_training(tiny_corpus, monkeypatch):
    config = TrainConfig(epochs_max=1, seed=11, hidden_dim=8, embed_dim=8, max_len=10)
    norms = iter([1.0, float("nan")])
    monkeypatch.setattr(training, "gradient_norm", lambda params: next(norms))
    with pytest.raises(NonFiniteTraining, match="epoch 1, batch 2: the gradient norm is nan"):
        train(config, tiny_corpus, "gru")


def test_train_calls_backward_with_only_the_tape_and_loss_and_empties_each_tape(tiny_corpus, monkeypatch):
    # wrappers that profile ad.backward see the (tape, loss) signature; the release rides on the tape
    config = TrainConfig(epochs_max=1, seed=11, hidden_dim=8, embed_dim=8, max_len=10)
    original, tapes = ad.backward, []

    def backward(tape, loss):
        tapes.append(tape)
        original(tape, loss)

    monkeypatch.setattr(ad, "backward", backward)
    train(config, tiny_corpus, "gru")
    assert tapes and all(t.records == [] for t in tapes)


def test_clip_gradients_reuses_a_given_norm():
    a = Variable(tensor([3.0]))
    a.add_grad(np.array([3.0]))
    assert training.gradient_norm([a]) == 3.0
    assert clip_gradients([a], max_norm=1.0, norm=6.0) == 6.0
    assert a.grad[0] == 0.5  # scaled by 1 / 6, the norm it was given


def test_train_log_structure_and_untimed_runs_log_zero_seconds(tiny_bundle):
    bundle, records, config = tiny_bundle
    header, *epochs, footer = records
    assert header["cell"]["kind"] == "gru"
    assert header["counts"]["train"] > 0 and header["counts"]["test"] > 0
    assert len(epochs) == config.epochs_max
    for rec in epochs:
        assert rec["seconds"] == 0.0
        assert 0.0 <= rec["val"]["macro_f1"] <= 1.0
    assert footer["best_val_macro_f1"] == max(r["val"]["macro_f1"] for r in epochs)
    assert footer["best_epoch"] in [r["epoch"] for r in epochs]
    assert footer["stopped_epoch"] == config.epochs_max
    assert "test" in footer


def test_early_stopping_stops_before_cap(tiny_corpus):
    config = TrainConfig(
        epochs_max=30,
        early_stop_patience=1,
        seed=2,
        hidden_dim=8,
        embed_dim=8,
        max_len=10,
        learning_rate=1e-5,  # barely moves, validation goes flat immediately
    )
    bundle, records = train(config, tiny_corpus, "elman")
    footer = records[-1]
    assert footer["stopped_epoch"] < 30
    assert footer["best_epoch"] <= footer["stopped_epoch"]


def test_evaluate_model_reproduces_stored_test_metrics(tiny_corpus, tiny_bundle):
    bundle, records, config = tiny_bundle
    data = prepare_dataset(tiny_corpus, config, task=bundle.task)
    report = evaluate_model(bundle.spec, bundle.weights, data.test)
    assert report.to_dict() == bundle.metrics["test"]
    probs = training.model_probabilities(bundle.spec, bundle.weights, data.test)
    nll = ad.cross_entropy_mean(Tape(), Variable(tensor(probs)), [e.class_id for e in data.test])
    assert report.loss == float(nll.value.array)


def test_recorded_test_set_replays_only_the_training_corpus(tiny_corpus, tiny_bundle):
    bundle, _, _ = tiny_bundle
    test = recorded_test_set(bundle, tiny_corpus)
    report = evaluate_model(bundle.spec, bundle.weights, test)
    assert report.to_dict() == bundle.metrics["test"]
    swapped = tiny_corpus[1::-1] + tiny_corpus[2:]  # same examples, another order
    for other in (swapped, tiny_corpus[:-1]):
        with pytest.raises(CorpusMismatch):
            recorded_test_set(bundle, other)
    # a model file from before the fingerprint replays its split unchecked
    unchecked = dataclasses.replace(bundle, split={"fraction": 0.8, "seed": 7})
    assert len(recorded_test_set(unchecked, swapped)) == len(test)
    with pytest.raises(ShapeMismatch, match="no train/test split"):
        recorded_test_set(dataclasses.replace(bundle, split=None), tiny_corpus)


def test_evaluate_model_empty_rejected(tiny_bundle):
    bundle, _, _ = tiny_bundle
    with pytest.raises(EmptyTestSet):
        evaluate_model(bundle.spec, bundle.weights, [])
