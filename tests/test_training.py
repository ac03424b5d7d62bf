import json

import numpy as np
import pytest

from ttrnn.autodiff import Variable
from ttrnn import training
from ttrnn.errors import ClassTooSmall, EmptyTestSet, NonFiniteTraining, ShapeMismatch
from ttrnn.tensor import tensor
from ttrnn.textpipe import CleanExample
from ttrnn.training import (
    TrainConfig,
    adam_step,
    build_cell_spec,
    clip_gradients,
    evaluate_model,
    param_counts,
    prepare_dataset,
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


def test_evaluate_model_empty_rejected(tiny_bundle):
    bundle, _, _ = tiny_bundle
    with pytest.raises(EmptyTestSet):
        evaluate_model(bundle.spec, bundle.weights, [])
