"""The benchmark workloads: what each sets up, runs and checks.

A run sets a workload up several times (the median is ``setup_s``), then
performs rounds.  A round trains the dense and the tensor-train model
(training workloads only), then sends ``ttrnn predict`` requests from one
closed-loop client, with ``ttrnn evaluate`` processes spread through the
request stream.  Each request starts when the previous child has exited,
requests alternate between the two models, and every request carries a
different raw tweet.  Every operation's output is checked; a failed check
counts the operation as failed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import corpus
from ttrnn import cells, modelio, training
from ttrnn.textpipe import clean_tweet, encode, tokenize, write_clean_jsonl
from ttrnn.ttcore import ModeFactorization, tt_matvec_macs

SMALL = {"hidden": 32, "embed": 32, "modes": (4, 4, 2), "rank": 4, "max_len": 12}
PAPER = {"hidden": 256, "embed": 256, "modes": (4, 8, 8), "rank": 4, "max_len": 40}

SERVE_MODEL_SEED = 0  # the served models are part of the workload, not of the seed
CHILD_TIMEOUT_S = 150
REQUEST_ROUNDS = 4  # distinct request texts cover this many rounds, then repeat


@dataclass(frozen=True)
class Workload:
    name: str
    scale: dict
    kinds: tuple  # (dense, tensor-train)
    corpus: str  # "small" or "paper"
    train_size: int
    epochs: int
    learning_rate: float
    train_calls: int  # training.train calls per model per round (0: trained in set-up)
    heldout_size: int  # file scored with --split all (0: score the test split)
    evals_per_kind: int  # evaluate processes per model per round
    predicts_per_kind: int  # predict requests per model per round


WORKLOADS = {
    w.name: w
    for w in (
        # Test scale (criterion 6): tiny matrices, vocabulary ~120, so per-op
        # interpreter and tape overhead dominate training.
        Workload(
            "small-train", SMALL, ("lstm", "t_lstm"), corpus="small", train_size=3000,
            epochs=3, learning_rate=1e-3, train_calls=2, heldout_size=0,
            evals_per_kind=2, predicts_per_kind=20,
        ),
        # Paper scale: dense GEMMs, TT contraction, the (V, E) embedding
        # scatter and Adam over ~1M embedding weights dominate training.
        Workload(
            "paper-train", PAPER, ("gru", "t_gru"), corpus="paper", train_size=600,
            epochs=1, learning_rate=1e-2, train_calls=2, heldout_size=0,
            evals_per_kind=1, predicts_per_kind=20,
        ),
        # Paper-scale forward only: evaluate and predict child processes.
        Workload(
            "serve", PAPER, ("gru", "t_gru"), corpus="paper", train_size=100,
            epochs=1, learning_rate=1e-2, train_calls=0, heldout_size=300,
            evals_per_kind=1, predicts_per_kind=30,
        ),
    )
}


def train_config(w: Workload, kind: str, seed: int) -> training.TrainConfig:
    tensorized = kind in cells.TENSORIZED
    s = w.scale
    return training.TrainConfig(
        epochs_max=w.epochs,
        early_stop_patience=0,
        batch_size=32,
        learning_rate=w.learning_rate,
        optimizer="adam",
        seed=seed,
        hidden_dim=s["hidden"],
        embed_dim=s["embed"],
        max_len=s["max_len"],
        tt_out_modes=s["modes"] if tensorized else None,
        tt_in_modes=s["modes"] if tensorized else None,
        tt_ranks=s["rank"],
    )


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Ledger:
    """Operation counts, samples and check failures of one run."""

    ops: dict = field(default_factory=dict)  # type -> {attempted, succeeded, failed}
    train_ex_per_s: dict = field(default_factory=dict)  # kind -> [ex/s]
    train_s: dict = field(default_factory=dict)  # kind -> [s]
    f1: dict = field(default_factory=dict)  # kind -> manifest test macro-F1
    eval_examples: dict = field(default_factory=dict)  # kind -> [n]
    eval_s: dict = field(default_factory=dict)  # kind -> [s]
    predict_ms: dict = field(default_factory=dict)  # kind -> [ms]
    errors: list = field(default_factory=list)

    def record(self, op: str, ok: bool, error: str = "") -> bool:
        c = self.ops.setdefault(op, {"attempted": 0, "succeeded": 0, "failed": 0})
        c["attempted"] += 1
        c["succeeded" if ok else "failed"] += 1
        if not ok:
            self.errors.append("%s: %s" % (op, error))
        return ok

    def add(self, table: dict, kind: str, value) -> None:
        table.setdefault(kind, []).append(value)

    def merged(self, other: "Ledger") -> "Ledger":
        """Samples of both ledgers (for metrics; op counts are summed elsewhere)."""
        out = Ledger(f1={**self.f1, **other.f1})
        for name in ("train_ex_per_s", "train_s", "eval_examples", "eval_s", "predict_ms"):
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(out, name, {k: mine.get(k, []) + theirs.get(k, []) for k in {*mine, *theirs}})
        return out


@dataclass
class Model:
    path: str
    bundle: object  # the reloaded ModelBundle
    test_count: int  # size of its stored test split


@dataclass
class State:
    """Everything a round needs, produced by one set-up."""

    workdir: str
    train_path: str
    cleaned: list
    fingerprints: dict  # corpus -> order-sensitive digest
    heldout_path: str | None
    heldout_count: int
    requests: list
    trained: dict = field(default_factory=dict)  # kind -> (bundle, log header), until saved
    models: dict = field(default_factory=dict)  # kind -> saved and reloaded Model
    properties: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# set-up


def _unique_texts(raws, count: int) -> list:
    seen, out = set(), []
    for ex in raws:
        if ex.text not in seen:
            seen.add(ex.text)
            out.append(ex.text)
    if len(out) < count:
        raise RuntimeError("generator gave %d distinct request texts, need %d" % (len(out), count))
    return out[:count]


def _write_jsonl(path: str, examples) -> None:
    with open(path, "w", encoding="utf-8") as f:
        write_clean_jsonl(examples, f)


def setup(w: Workload, seed: int, workdir: str, ledger: Ledger, tracer) -> State:
    os.makedirs(workdir, exist_ok=True)
    gen = corpus.paper_corpus if w.corpus == "paper" else corpus.small_corpus
    model_seed = seed if w.train_calls else SERVE_MODEL_SEED
    raws = gen(w.train_size, model_seed)
    cleaned = corpus.clean_all(raws)
    train_path = os.path.join(workdir, "train.jsonl")
    _write_jsonl(train_path, cleaned)

    fingerprints = {"train": corpus.fingerprint(raws)}
    heldout_path, heldout_count = None, 0
    if w.heldout_size:
        heldout_raws = corpus.paper_corpus(w.heldout_size, seed, "heldout")
        heldout = corpus.clean_all(heldout_raws)
        heldout_path = os.path.join(workdir, "heldout.jsonl")
        _write_jsonl(heldout_path, heldout)
        heldout_count = len(training.drop_untokenizable(heldout)[0])
        fingerprints["heldout"] = corpus.fingerprint(heldout_raws)

    n_requests = w.predicts_per_kind * len(w.kinds) * REQUEST_ROUNDS
    request_raws = gen(n_requests + n_requests // 4, seed, "requests")
    fingerprints["requests"] = corpus.fingerprint(request_raws)
    state = State(
        workdir=workdir,
        train_path=train_path,
        cleaned=cleaned,
        fingerprints=fingerprints,
        heldout_path=heldout_path,
        heldout_count=heldout_count,
        requests=_unique_texts(request_raws, n_requests),
    )
    if not w.train_calls:
        for kind in w.kinds:
            train_and_save(w, state, kind, model_seed, ledger, tracer)
    return state


# ---------------------------------------------------------------------------
# operations


def guarded(ledger: Ledger, op: str, fn, *args) -> None:
    """Run one operation; an exception counts it as failed and the run goes on."""
    try:
        fn(*args)
    except Exception as e:  # noqa: BLE001  (the run must report, not crash)
        ledger.record(op, False, "%s: %s" % (type(e).__name__, e))


def train_model(w: Workload, state: State, kind: str, seed: int, ledger: Ledger, tracer) -> None:
    """One training.train call; every epoch loss must be finite."""
    config = train_config(w, kind, seed)
    tracer.enabled = tracer.active
    t0 = time.perf_counter()
    try:
        bundle, records = training.train(config, state.cleaned, kind)
    finally:
        tracer.enabled = False
    wall = time.perf_counter() - t0
    losses = [r["loss"] for r in records if "epoch" in r]
    if ledger.record("train", all(math.isfinite(x) for x in losses), "non-finite loss %r" % losses):
        examples = records[0]["counts"]["train"] * len(losses)
        ledger.add(ledger.train_ex_per_s, kind, examples / wall)
        ledger.add(ledger.train_s, kind, wall)
        ledger.f1[kind] = bundle.metrics["test"]["macro_f1"]
        state.trained[kind] = (bundle, records[0])


def save_model(state: State, kind: str, ledger: Ledger, tracer) -> None:
    """Save the freshly trained model; it must reload bitwise."""
    bundle, header = state.trained.pop(kind)
    path = os.path.join(state.workdir, "%s.ttrnn" % kind)
    tracer.enabled = tracer.active
    try:
        modelio.save_model(bundle, path)
    finally:
        tracer.enabled = False
    loaded = modelio.load_model(path)
    same = all(
        loaded.weights[n].value.array.tobytes() == v.value.array.tobytes()
        for n, v in bundle.weights.values.items()
    ) and loaded.metrics == bundle.metrics
    if ledger.record("save", same, "%s did not reload bitwise" % path):
        state.models[kind] = Model(path, loaded, header["counts"]["test"])
        role = "tt" if kind in cells.TENSORIZED else "dense"
        state.properties["model_bytes.%s" % role] = os.path.getsize(path)
        state.properties["vocab_size"] = header["vocab_size"]


def train_and_save(w: Workload, state: State, kind: str, seed: int, ledger: Ledger, tracer) -> None:
    guarded(ledger, "train", train_model, w, state, kind, seed, ledger, tracer)
    if kind in state.trained:
        guarded(ledger, "save", save_model, state, kind, ledger, tracer)


def _child(args, env, tracer, trace_out):
    """Run one ttrnn CLI child; traced runs go through the tracing shim."""
    if tracer.active:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "child.py")] + args
        env = dict(env, PERFBENCH_TRACE_OUT=trace_out)
    else:
        cmd = [sys.executable, "-m", "ttrnn"] + args
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if tracer.active and os.path.exists(trace_out):
        tracer.merge(trace_out)
        os.remove(trace_out)
    return proc, wall


def _printed_macro_f1(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("macro_f1 "):
            return line.split()[1]
    return None


def evaluate(state: State, kind: str, split: str, env, ledger: Ledger, tracer) -> None:
    """One `ttrnn evaluate` process; --split test must reprint the stored macro-F1."""
    model = state.models[kind]
    if split == "test":
        data, count = state.train_path, model.test_count
    else:
        data, count = state.heldout_path, state.heldout_count
    trace_out = os.path.join(state.workdir, "child-trace.npz")
    args = ["evaluate", "--model", model.path, "--data", data, "--split", split]
    try:
        proc, wall = _child(args, env, tracer, trace_out)
    except subprocess.TimeoutExpired:
        ledger.record("evaluate", False, "timed out")
        return
    printed = _printed_macro_f1(proc.stdout)
    ok, why = proc.returncode == 0 and printed is not None, "exit %d" % proc.returncode
    if ok and split == "test":
        stored = "%.6f" % model.bundle.metrics["test"]["macro_f1"]
        ok, why = printed == stored, "printed macro-F1 %s, manifest %s" % (printed, stored)
    if ledger.record("evaluate", ok, why):
        ledger.add(ledger.eval_examples, kind, count)
        ledger.add(ledger.eval_s, kind, wall)


def expected_label(bundle, text: str) -> str:
    clean, _ = clean_tweet(text)
    enc = encode(tokenize(clean), bundle.vocab, bundle.max_len, 0)
    ids = np.array([enc.token_ids], dtype=np.int64)
    pred = cells.classify(bundle.spec, bundle.weights, ids, mask=enc.mask[None, :])
    return bundle.labels[int(pred[0])]


def predict(state: State, kind: str, text: str, env, ledger: Ledger, tracer) -> None:
    model = state.models[kind]
    trace_out = os.path.join(state.workdir, "child-trace.npz")
    try:
        proc, wall = _child(["predict", "--model", model.path, "--text=" + text], env, tracer, trace_out)
    except subprocess.TimeoutExpired:
        ledger.record("predict", False, "timed out")
        return
    if proc.returncode != 0:
        ledger.record("predict", False, "exit %d: %s" % (proc.returncode, proc.stderr[-200:]))
        return
    try:
        out = json.loads(proc.stdout)
        total = sum(out["probabilities"].values())
        label = out["prediction"]
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        ledger.record("predict", False, "bad output %r (%s)" % (proc.stdout[:200], e))
        return
    want = expected_label(model.bundle, text)
    ok = abs(total - 1.0) <= 1e-9 and label == want
    if ledger.record("predict", ok, "sum %r, label %r, in-process %r" % (total, label, want)):
        ledger.add(ledger.predict_ms, kind, wall * 1e3)


def _spread(*streams) -> list:
    """Merge operation lists so that each is spread evenly over the result."""
    placed = [((j + 0.5) / len(ops), n, op) for n, ops in enumerate(streams) for j, op in enumerate(ops)]
    return [op for _, _, op in sorted(placed, key=lambda p: p[:2])]


def run_round(w: Workload, state: State, seed: int, round_index: int, env, ledger: Ledger, tracer) -> None:
    """One round: training (training workloads), evaluations and requests.

    Each model is trained first; the remaining training calls, the
    evaluations and the requests are then spread evenly over the round, so
    that every metric samples the same stretch of machine time rather than
    one slow or fast moment of a shared machine.
    """
    trains = [("train", kind) for _ in range(w.train_calls) for kind in w.kinds]
    scored = "all" if w.heldout_size else "test"
    evals = [("evaluate", kind, scored) for _ in range(w.evals_per_kind) for kind in w.kinds]
    if w.heldout_size:  # still check the stored test metrics once per model
        evals = [("evaluate", kind, "test") for kind in w.kinds] + evals
    per_round = w.predicts_per_kind * len(w.kinds)
    texts = state.requests[(round_index * per_round) % len(state.requests):][:per_round]
    predicts = [("predict", w.kinds[i % len(w.kinds)], text) for i, text in enumerate(texts)]
    lead = len(w.kinds) if trains else 0
    for op in trains[:lead] + _spread(trains[lead:], evals, predicts):
        kind = op[1]
        if op[0] == "train":
            train_and_save(w, state, kind, seed, ledger, tracer)
        elif kind not in state.models:
            ledger.record(op[0], False, "no saved %s model" % kind)
        elif op[0] == "evaluate":
            guarded(ledger, "evaluate", evaluate, state, kind, op[2], env, ledger, tracer)
        else:
            guarded(ledger, "predict", predict, state, kind, op[2], env, ledger, tracer)


# ---------------------------------------------------------------------------
# workload properties


def properties(w: Workload, state: State) -> dict:
    """Input facts that explain the numbers: vocabulary, lengths, MAC counts."""
    lengths = np.array([min(len(tokenize(ex.clean_text)), w.scale["max_len"]) for ex in state.cleaned])
    s = w.scale
    facto = ModeFactorization(s["modes"], s["modes"])
    ranks = (1,) + (s["rank"],) * (len(s["modes"]) - 1) + (1,)
    props = dict(state.properties)
    props.update(
        {
            "corpus_fingerprints": state.fingerprints,
            "corpus_examples": len(state.cleaned),
            "mean_tokens_per_example": float(lengths.mean()),
            "padding_share": float(1.0 - lengths.sum() / (len(lengths) * s["max_len"])),
            "tt_macs_per_row": tt_matvec_macs(facto, ranks),
            "dense_macs_per_row": s["hidden"] * s["embed"],
            "heldout_examples": state.heldout_count,
        }
    )
    return props
