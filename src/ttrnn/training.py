"""Training loop, optimizers, stratified splitting and model evaluation.

The loop is single-threaded and fully seeded: example shuffles, weight
initialization and the train/validation/test splits all derive from the
config seed through named sub-seeds, so a config run twice on the same
machine, numpy build and BLAS thread setting produces byte-identical logs
and model files.  Wall-clock numbers are recorded only when timing is
switched on, precisely so that logs stay comparable.

Training that leaves the finite range stops with NonFiniteTraining,
naming the epoch and the batch: numpy overflow, invalid values and
division by zero raise inside every batch and validation pass, and each
batch's loss and global gradient norm are checked, so no log or model
ever holds a NaN or an infinity.

Early stopping watches validation macro-F1: the counter resets whenever
the score improves on the best seen by at least 1e-4 and trips after
`early_stop_patience` flat epochs (0 disables stopping).  Whatever epoch
scored the highest validation macro-F1 is the checkpoint returned.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import cells as cells_mod
from . import rng
from .autodiff import Tape, Variable
from .cells import CellSpec, CellWeights, init_weights, run_sequence, weight_templates
from .errors import ClassTooSmall, CorpusMismatch, EmptyTestSet, NonFiniteTraining, ShapeMismatch
from .metrics import MetricsReport, evaluate as evaluate_metrics
from .modelio import ModelBundle
from .tensor import WORK_CHUNK, _wrap
from .textpipe import EMOTIONS, PAD_ID, SENTIMENTS, EncodedExample, build_vocab, encode, tokenize
from .ttcore import tt_options

_EVAL_BATCH = 64  # fixed so stored metrics reproduce regardless of train batch size


@dataclass
class TrainConfig:
    epochs_max: int = 450
    early_stop_patience: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    split_fraction: float = 0.8
    tt_ranks: int | tuple = 4  # one interior rank, or the full vector (1, r1, ..., 1)
    hidden_dim: int = 64
    embed_dim: int = 64
    max_len: int = 40
    tt_out_modes: tuple | None = None
    tt_in_modes: tuple | None = None
    min_count: int = 1
    max_vocab: int | None = None
    candidate_bias: bool = True
    clip_norm: float | None = None
    timing: bool = False

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise ShapeMismatch("split_fraction must be in (0, 1)")
        for name in ("epochs_max", "batch_size", "hidden_dim", "embed_dim", "max_len", "min_count"):
            if int(getattr(self, name)) < 1:
                raise ShapeMismatch("%s must be positive" % name)
        if isinstance(self.tt_ranks, int) and self.tt_ranks < 1:
            raise ShapeMismatch("tt_ranks must be positive")
        if self.early_stop_patience < 0:
            raise ShapeMismatch("early_stop_patience must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ShapeMismatch("learning_rate must be finite and positive, got %r" % self.learning_rate)
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ShapeMismatch("clip_norm must be finite and positive, got %r" % self.clip_norm)
        if self.optimizer not in ("sgd", "adam"):
            raise ShapeMismatch("optimizer must be sgd or adam")

    def to_dict(self) -> dict:
        """Every setting except `timing`, which changes no result."""
        out = asdict(self)
        del out["timing"]
        return out


# ---------------------------------------------------------------------------
# splitting


def split_train_test(examples, fraction: float, seed: int, key):
    """Stratified, seeded, exact partition into (train, test).

    `key(example)` gives the class each example is stratified by.
    Per-class train counts follow the largest-remainder rule against the
    global target round(fraction * n), then are clamped so every class
    keeps at least one example on each side.  Output lists preserve the
    input order.
    """
    examples = list(examples)
    if len(examples) < 2:
        raise ClassTooSmall("need at least 2 examples to split")
    if not 0.0 < fraction < 1.0:
        raise ShapeMismatch("fraction must be in (0, 1)")
    by_class: dict = {}
    for i, ex in enumerate(examples):
        by_class.setdefault(key(ex), []).append(i)
    classes = sorted(by_class, key=str)
    for c in classes:
        if len(by_class[c]) < 2:
            raise ClassTooSmall(
                "class %r has only %d example(s); need at least 2" % (c, len(by_class[c]))
            )

    total_target = math.floor(fraction * len(examples) + 0.5)
    base = {c: math.floor(fraction * len(by_class[c])) for c in classes}
    remainders = sorted(
        classes,
        key=lambda c: (-(fraction * len(by_class[c]) - base[c]), str(c)),
    )
    leftover = total_target - sum(base.values())
    take = dict(base)
    i = 0
    while leftover > 0 and i < 10 * len(classes):
        c = remainders[i % len(classes)]
        if take[c] < len(by_class[c]) - 1:
            take[c] += 1
            leftover -= 1
        i += 1
    for c in classes:
        take[c] = min(max(take[c], 1), len(by_class[c]) - 1)

    train_idx = set()
    for c in classes:
        members = by_class[c]
        perm = rng.permutation(rng.split(seed, "split", str(c)), len(members))
        train_idx.update(members[j] for j in perm[: take[c]])
    train = [ex for i, ex in enumerate(examples) if i in train_idx]
    test = [ex for i, ex in enumerate(examples) if i not in train_idx]
    return train, test


# ---------------------------------------------------------------------------
# optimizers


def sgd_step(variables, lr: float):
    for v in variables:
        if v.grad is not None:
            v.value = _wrap(v.value.array - lr * v.grad)


def adam_step(
    variables,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    t: int = 1,
    state: dict | None = None,
) -> dict:
    """Standard bias-corrected update; returns the moment state for reuse.

    The state maps variable identity to its running first and second
    moments, so pass the same variable objects (and the incremented t)
    on every call.  Variables whose grad is None are skipped and keep
    their moments.

    No temporary grows with the parameters.  The moments are updated in
    place.  Each new value goes into one fresh array, because callers
    (train's best snapshot) may still hold the old one; that array's
    chunk holds the step while it is formed, next to one work buffer of
    min(WORK_CHUNK, largest parameter) floats.  A parameter larger than
    WORK_CHUNK is streamed chunk by chunk.  Results are bitwise those of
    the whole-array expressions m = b1 m + (1 - b1) g,
    s = b2 s + (1 - b2) g g and value - lr (m / c1) / (sqrt(s / c2) + eps).
    """
    if t < 1:
        raise ShapeMismatch("adam step index t starts at 1")
    if state is None:
        state = {}
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    live = [v for v in variables if v.grad is not None]
    if not live:
        return state
    # 0-d arrays: the same float64 operands, but cheaper per ufunc call than floats
    beta1, b1, beta2, b2, c1, c2, lr, eps = (
        np.array(x, dtype=np.float64) for x in (beta1, 1.0 - beta1, beta2, 1.0 - beta2, c1, c2, lr, eps)
    )
    work = np.empty(min(WORK_CHUNK, max(v.grad.size for v in live)))
    for v in live:
        shape = v.value.shape
        if id(v) not in state:
            state[id(v)] = (np.zeros(shape), np.zeros(shape))
        new = np.empty(shape)
        arrays = (v.grad, *state[id(v)], v.value.array, new)
        if new.size <= WORK_CHUNK:  # whole arrays: no per-chunk views for small parameters
            chunks = [arrays]
        else:
            flat = [a.reshape(-1) for a in arrays]
            chunks = [[a[i : i + WORK_CHUNK] for a in flat] for i in range(0, new.size, WORK_CHUNK)]
        for g, m, s, old, out in chunks:
            root = work[: out.size].reshape(out.shape)
            np.multiply(g, b1, out)
            m *= beta1
            m += out
            np.multiply(g, b2, out)
            out *= g
            s *= beta2
            s += out
            np.divide(m, c1, out)
            out *= lr
            np.divide(s, c2, root)
            np.sqrt(root, root)
            root += eps
            out /= root
            np.subtract(old, out, out)
        v.value = _wrap(new)
    return state


def gradient_norm(variables) -> float:
    """Global L2 norm over every gradient present."""
    return math.sqrt(sum(float(np.vdot(v.grad, v.grad)) for v in variables if v.grad is not None))


def clip_gradients(variables, max_norm: float, norm: float | None = None):
    """Scale all gradients down to a global L2 norm of max_norm.

    `norm` is the gradients' current global norm if already known.
    Returns that norm, before clipping.
    """
    if norm is None:
        norm = gradient_norm(variables)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for v in variables:
            if v.grad is not None:
                v.grad = v.grad * factor
    return norm


@contextmanager
def _finite(epoch: int, where: str):
    """numpy overflow, invalid values and division by zero become NonFiniteTraining."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as e:
        raise NonFiniteTraining(
            "training went non-finite at epoch %d, %s: %s" % (epoch, where, e)
        ) from None


def _require_finite(epoch: int, where: str, what: str, value: float):
    if not math.isfinite(value):
        raise NonFiniteTraining(
            "training went non-finite at epoch %d, %s: %s is %r" % (epoch, where, what, value)
        )


# ---------------------------------------------------------------------------
# model plumbing


def build_cell_spec(kind: str, vocab_size: int, config: TrainConfig, num_classes: int) -> CellSpec:
    kind = kind.replace("-", "_")
    dims = (kind, vocab_size, config.embed_dim, config.hidden_dim, num_classes)
    if kind not in cells_mod.TENSORIZED:
        return CellSpec(*dims, candidate_bias=config.candidate_bias)
    facto, ranks = tt_options(
        config.hidden_dim, config.embed_dim, config.tt_out_modes, config.tt_in_modes, config.tt_ranks
    )
    return CellSpec(
        *dims,
        tt_out_modes=facto.out_modes,
        tt_in_modes=facto.in_modes,
        tt_ranks=ranks,
        candidate_bias=config.candidate_bias,
    )


def param_counts(spec: CellSpec) -> dict:
    total = 0
    input_maps = 0
    for name, shape in weight_templates(spec):
        n = int(np.prod(shape, dtype=np.int64))
        total += n
        if name.startswith("w"):
            input_maps += n
    return {"total": total, "input_maps": input_maps}


def _batch_arrays(encoded):
    ids = np.array([e.token_ids for e in encoded], dtype=np.int64)
    mask = (ids != PAD_ID).astype(np.float64)
    labels = np.array([e.class_id for e in encoded], dtype=np.int64)
    return ids, mask, labels


def model_probabilities(spec: CellSpec, weights: CellWeights, encoded):
    """Class probabilities for a list of encoded examples, _EVAL_BATCH at a time, forward only."""
    chunks = []
    for start in range(0, len(encoded), _EVAL_BATCH):
        part = encoded[start : start + _EVAL_BATCH]
        ids, mask, _ = _batch_arrays(part)
        probs = run_sequence(Tape(need_grad=False), spec, weights, ids, mask=mask)
        chunks.append(probs.value.array)
    return np.concatenate(chunks, axis=0)


def evaluate_model(spec: CellSpec, weights: CellWeights, encoded) -> MetricsReport:
    if not encoded:
        raise EmptyTestSet("no examples to evaluate")
    probs = model_probabilities(spec, weights, encoded)
    labels = np.array([e.class_id for e in encoded], dtype=np.int64)
    nll = ad.cross_entropy_mean(Tape(need_grad=False), Variable(_wrap(probs)), labels)
    preds = np.argmax(probs, axis=1)
    return evaluate_metrics(labels, preds, spec.num_classes, loss=float(nll.value.array))


# ---------------------------------------------------------------------------
# dataset preparation


@dataclass
class PreparedData:
    labels: tuple  # class names in id order
    vocab: object
    train: list = field(default_factory=list)  # EncodedExample
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)
    dropped_empty: int = 0
    corpus_sha256: str = ""  # corpus_fingerprint of the usable examples


def resolve_task(task: str):
    """Class-name tuple and label extractor for a classification task."""
    if task == "emotion":
        return EMOTIONS, lambda ex: ex.emotion_label
    if task == "sentiment":
        return SENTIMENTS, lambda ex: ex.sentiment_label
    raise ShapeMismatch("task must be emotion or sentiment")


def drop_untokenizable(clean_examples):
    """Partition off examples whose cleaned text has no tokens at all."""
    usable = []
    dropped = 0
    for ex in clean_examples:
        if tokenize(ex.clean_text):
            usable.append(ex)
        else:
            dropped += 1
    return usable, dropped


def corpus_fingerprint(examples, label_of) -> str:
    """SHA-256 over each example's (clean_text, task label), in order.

    The text's length prefix keeps the boundary between text and label
    unambiguous.
    """
    import hashlib  # here, not at the top: predict never hashes, and _hashlib adds ~3.5 MB to its RSS

    lines = "".join("%d %s %s\n" % (len(ex.clean_text), ex.clean_text, label_of(ex)) for ex in examples)
    return hashlib.sha256(lines.encode("utf-8", "surrogatepass")).hexdigest()


def encode_examples(examples, vocab, max_len: int, labels, label_of) -> list:
    """Encode cleaned examples; each class id is label_of(ex)'s index in labels."""
    label_id = {name: i for i, name in enumerate(labels)}
    return [
        encode(tokenize(ex.clean_text), vocab, max_len, label_id[label_of(ex)])
        for ex in examples
    ]


def prepare_dataset(clean_examples, config: TrainConfig, task: str = "emotion") -> PreparedData:
    """Split cleaned examples, build the vocabulary on train only, encode.

    The vocabulary is built on the whole train side before the validation
    slice is carved out of it.  That slice is 10% of train, stratified,
    carved with a sub-seed so it is independent of the train/test draw.
    """
    labels, label_of = resolve_task(task)

    usable, dropped = drop_untokenizable(clean_examples)

    train_ex, test_ex = split_train_test(
        usable, config.split_fraction, config.seed, key=label_of
    )
    vocab = build_vocab(
        (ex.clean_text for ex in train_ex),
        min_count=config.min_count,
        max_size=config.max_vocab,
    )
    train_enc = encode_examples(train_ex, vocab, config.max_len, labels, label_of)
    test_enc = encode_examples(test_ex, vocab, config.max_len, labels, label_of)
    core, val = split_train_test(
        train_enc, 0.9, rng.split(config.seed, "val"), key=lambda e: e.class_id
    )
    return PreparedData(
        labels=labels,
        vocab=vocab,
        train=core,
        val=val,
        test=test_enc,
        dropped_empty=dropped,
        corpus_sha256=corpus_fingerprint(usable, label_of),
    )


def recorded_test_set(bundle: ModelBundle, clean_examples) -> list:
    """The encoded test split of the corpus `bundle` was trained on.

    Drops untokenizable examples as training did, checks the rest against
    the corpus fingerprint the model records (a model file without one is
    trusted), replays the recorded split and encodes its test side.
    Raises CorpusMismatch when the examples are not that corpus.
    """
    _, label_of = resolve_task(bundle.task)
    usable, _ = drop_untokenizable(clean_examples)
    split = bundle.split or {}
    if "fraction" not in split or "seed" not in split:
        raise ShapeMismatch("model records no train/test split; use --split all")
    recorded = split.get("corpus_sha256")
    if recorded is not None and recorded != corpus_fingerprint(usable, label_of):
        raise CorpusMismatch(
            "these %d usable examples are not the corpus the model was trained on; "
            "use --split all to score them" % len(usable)
        )
    _, test = split_train_test(usable, split["fraction"], split["seed"], key=label_of)
    return encode_examples(test, bundle.vocab, bundle.max_len, bundle.labels, label_of)


# ---------------------------------------------------------------------------
# the training loop


def train(
    config: TrainConfig,
    clean_examples,
    kind: str,
    task: str = "emotion",
    log_stream=None,
):
    """Train one cell on cleaned examples.  Returns (ModelBundle, log records).

    Every record written to log_stream (JSONL) is also returned: a header
    with the resolved configuration, one line per epoch, and a footer with
    the chosen checkpoint and test metrics.
    """
    data = prepare_dataset(clean_examples, config, task=task)
    spec = build_cell_spec(kind, data.vocab.size, config, len(data.labels))
    weights = init_weights(spec, rng.split(config.seed, "init"))
    params = weights.params()
    counts = param_counts(spec)

    records = []

    def emit(record):
        records.append(record)
        if log_stream is not None:
            log_stream.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")

    emit(
        {
            "cell": spec.to_dict(),
            "config": config.to_dict(),
            "counts": {
                "train": len(data.train),
                "val": len(data.val),
                "test": len(data.test),
                "dropped_empty": data.dropped_empty,
            },
            "labels": list(data.labels),
            "params": counts,
            "task": task,
            "vocab_size": data.vocab.size,
        }
    )

    adam_state: dict = {}
    step_index = 0
    best_macro = -1.0
    best_epoch = 0
    best_snapshot = None  # epoch 1 always replaces it: its macro-F1 is >= 0 > best_macro
    patience_ref = -math.inf
    flat_epochs = 0
    stopped_epoch = config.epochs_max

    n_train = len(data.train)
    for epoch in range(1, config.epochs_max + 1):
        tick = time.perf_counter()
        order = rng.permutation(rng.split(config.seed, "epoch", epoch), n_train)
        loss_sum = 0.0
        for number, start in enumerate(range(0, n_train, config.batch_size), start=1):
            batch = [data.train[i] for i in order[start : start + config.batch_size]]
            ids, mask, labels = _batch_arrays(batch)
            where = "batch %d" % number
            with _finite(epoch, where):
                tape = Tape()
                probs = run_sequence(tape, spec, weights, ids, mask=mask)
                loss = ad.cross_entropy_mean(tape, probs, labels)
                ad.backward(tape, loss)
                batch_loss = float(loss.value.array)
                norm = gradient_norm(params)
                _require_finite(epoch, where, "the loss", batch_loss)
                _require_finite(epoch, where, "the gradient norm", norm)
                if config.clip_norm is not None:
                    clip_gradients(params, config.clip_norm, norm)
                if config.optimizer == "adam":
                    step_index += 1
                    adam_state = adam_step(
                        params, config.learning_rate, t=step_index, state=adam_state
                    )
                else:
                    sgd_step(params, config.learning_rate)
            ad.zero_grads(params)
            loss_sum += batch_loss * len(batch)

        with _finite(epoch, "validation"):
            val_report = evaluate_model(spec, weights, data.val)
        _require_finite(epoch, "validation", "the loss", val_report.loss)
        seconds = time.perf_counter() - tick if config.timing else 0.0
        emit(
            {
                "epoch": epoch,
                "loss": loss_sum / n_train,
                "params": counts,
                "seconds": seconds,
                "val": val_report.to_dict(),
            }
        )

        if val_report.macro_f1 > best_macro:
            best_macro = val_report.macro_f1
            best_epoch = epoch
            best_snapshot = {n: v.value for n, v in weights.values.items()}
        if val_report.macro_f1 >= patience_ref + 1e-4:
            patience_ref = val_report.macro_f1
            flat_epochs = 0
        else:
            flat_epochs += 1
        if config.early_stop_patience > 0 and flat_epochs >= config.early_stop_patience:
            stopped_epoch = epoch
            break
        stopped_epoch = epoch

    restored = CellWeights(spec, {n: Variable(t) for n, t in best_snapshot.items()})
    test_report = evaluate_model(spec, restored, data.test)
    emit(
        {
            "best_epoch": best_epoch,
            "best_val_macro_f1": best_macro,
            "stopped_epoch": stopped_epoch,
            "test": test_report.to_dict(),
        }
    )

    bundle = ModelBundle(
        spec=spec,
        weights=restored,
        vocab=data.vocab,
        task=task,
        labels=data.labels,
        max_len=config.max_len,
        train_config=config.to_dict(),
        metrics={"test": test_report.to_dict()},
        split={
            "fraction": config.split_fraction,
            "seed": config.seed,
            "corpus_sha256": data.corpus_sha256,
        },
    )
    return bundle, records
