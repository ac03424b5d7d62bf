"""Command line front end wiring the pipeline together for batch use.

Subcommands: clean, filter, build-vocab, train, evaluate, predict and
compress.  Every command exits 0 on success, 2 on usage or data errors,
and 1 on internal faults.  Diagnostics go to standard error; data and
tables go to standard output.  The TTRNN_LOG environment variable
(quiet | info | debug) sets the diagnostic level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .cells import KINDS
from .errors import TtrnnError
from .metrics import MetricsReport
from .modelio import load_matrix, load_model, save_model, save_ttmatrix
from .textpipe import (
    build_vocab,
    clean_example,
    clean_tweet,
    encode,
    filter_by_sentiment_agreement,
    load_clean_jsonl,
    load_dataset,
    load_predictions,
    looks_like_clean_jsonl,
    tokenize,
    write_clean_jsonl,
)
from .training import (
    TrainConfig,
    drop_untokenizable,
    encode_examples,
    evaluate_model,
    model_probabilities,
    recorded_test_set,
    resolve_task,
    train,
)
from .ttcore import compression_ratio, param_count, reconstruct, tt_options, tt_svd

log = logging.getLogger("ttrnn")

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

_CELL_CHOICES = tuple(k.replace("_", "-") for k in KINDS)


# ---------------------------------------------------------------------------
# small shared pieces


def _comma_ints(text: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text
        )
    return parts


def _configure_logging() -> None:
    name = os.environ.get("TTRNN_LOG", "info").strip().lower()
    level = _LOG_LEVELS.get(name)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers[:] = [handler]
    log.propagate = False
    log.setLevel(logging.INFO if level is None else level)
    if level is None and name != "info":
        log.warning("unknown TTRNN_LOG value %r, using info", name)


def _load_examples(path: str):
    """Cleaned examples from either a cleaned JSONL file or a raw dataset."""
    if looks_like_clean_jsonl(path):
        examples = load_clean_jsonl(path)
        log.info("loaded %d cleaned records from %s", len(examples), path)
        return examples
    raws = load_dataset(path)
    log.info("loaded %d raw records from %s, cleaning", len(raws), path)
    return [clean_example(r) for r in raws]


def _print_report(labels, report: MetricsReport, stream=None) -> None:
    stream = sys.stdout if stream is None else stream
    name_w = max(len("class"), max(len(x) for x in labels))
    stream.write(
        "%-*s %10s %10s %10s\n" % (name_w, "class", "precision", "recall", "f1")
    )
    for i, name in enumerate(labels):
        stream.write(
            "%-*s %10.6f %10.6f %10.6f\n"
            % (name_w, name, report.precision[i], report.recall[i], report.f1[i])
        )
    stream.write("macro_f1 %.6f\n" % report.macro_f1)
    stream.write("micro_f1 %.6f\n" % report.micro_f1)
    stream.write("accuracy %.6f\n" % report.accuracy)
    if report.loss is not None:
        stream.write("loss %.6f\n" % report.loss)


# ---------------------------------------------------------------------------
# subcommands


def cmd_clean(args) -> int:
    raws = load_dataset(args.infile, args.format)
    cleaned = [clean_example(r) for r in raws]
    with open(args.out, "w", encoding="utf-8") as f:
        write_clean_jsonl(cleaned, f)
    empty = sum(1 for ex in cleaned if not ex.clean_text)
    if empty:
        log.info("%d records cleaned to empty text", empty)
    log.info("wrote %s", args.out)
    print("records in %d, records out %d" % (len(raws), len(cleaned)))
    return 0


def cmd_filter(args) -> int:
    examples = _load_examples(args.infile)
    predictions = load_predictions(args.predictions)
    kept = filter_by_sentiment_agreement(examples, predictions)
    neutral = sum(1 for ex in examples if predictions[ex.id] == "Neutral")
    mismatch = len(examples) - len(kept) - neutral
    with open(args.out, "w", encoding="utf-8") as f:
        write_clean_jsonl(kept, f)
    log.info("wrote %s", args.out)
    print("kept %d, dropped %d mismatch, %d neutral" % (len(kept), mismatch, neutral))
    return 0


def cmd_build_vocab(args) -> int:
    examples = _load_examples(args.infile)
    vocab = build_vocab(
        (ex.clean_text for ex in examples),
        min_count=args.min_count,
        max_size=args.max_size,
    )
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(vocab.to_dict(), f, sort_keys=True)
        f.write("\n")
    log.info("wrote %s", args.out)
    print("vocabulary size %d (including pad and unk)" % vocab.size)
    return 0


def cmd_train(args) -> int:
    examples = _load_examples(args.data)
    config = TrainConfig(
        hidden_dim=args.hidden,
        embed_dim=args.embed,
        tt_out_modes=args.tt_modes,
        tt_in_modes=args.tt_in_modes,
        epochs_max=args.epochs,
        early_stop_patience=args.patience,
        batch_size=args.batch,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        seed=args.seed,
        split_fraction=args.split_fraction,
        max_len=args.max_len,
        min_count=args.min_count,
        max_vocab=args.max_vocab,
        candidate_bias=not args.no_candidate_bias,
        clip_norm=args.clip,
        timing=args.timing,
        tt_ranks=args.tt_ranks[0] if len(args.tt_ranks) == 1 else args.tt_ranks,
    )
    log_path = args.log if args.log is not None else args.out + ".log.jsonl"
    with open(log_path, "w", encoding="utf-8") as log_stream:
        bundle, records = train(
            config, examples, args.cell, task=args.task, log_stream=log_stream
        )
    save_model(bundle, args.out)
    footer = records[-1]
    log.info(
        "best epoch %s, val macro f1 %.6f, stopped after epoch %s",
        footer["best_epoch"],
        footer["best_val_macro_f1"],
        footer["stopped_epoch"],
    )
    log.info("model written to %s, log written to %s", args.out, log_path)
    print("test metrics")
    _print_report(bundle.labels, MetricsReport.from_dict(bundle.metrics["test"]))
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_model(args.model)
    examples = _load_examples(args.data)
    if args.split == "test":
        encoded = recorded_test_set(bundle, examples)
        log.info("evaluating the recorded test split: %d examples", len(encoded))
    else:
        _, label_of = resolve_task(bundle.task)
        usable, dropped = drop_untokenizable(examples)
        if dropped:
            log.info("dropped %d examples with no tokens", dropped)
        encoded = encode_examples(usable, bundle.vocab, bundle.max_len, bundle.labels, label_of)
        log.info("evaluating all %d examples", len(encoded))
    report = evaluate_model(bundle.spec, bundle.weights, encoded)
    _print_report(bundle.labels, report)
    return 0


def cmd_predict(args) -> int:
    bundle = load_model(args.model)
    text, _ = clean_tweet(args.text)
    encoded = encode(tokenize(text), bundle.vocab, bundle.max_len, 0)
    probs = model_probabilities(bundle.spec, bundle.weights, [encoded])[0]
    winner = int(np.argmax(probs))
    out = {
        "prediction": bundle.labels[winner],
        "probabilities": {
            name: float(probs[i]) for i, name in enumerate(bundle.labels)
        },
    }
    print(json.dumps(out))
    return 0


def cmd_compress(args) -> int:
    w = load_matrix(args.matrix)
    rows, cols = w.shape
    facto, max_ranks = tt_options(
        rows, cols, args.modes, args.in_modes, args.ranks, names=("--modes", "--in-modes")
    )
    if args.modes is None:  # tt_options took both mode lists or neither
        log.info(
            "auto factorization: out modes %s, in modes %s",
            list(facto.out_modes),
            list(facto.in_modes),
        )
    tt = tt_svd(w, facto, max_ranks=max_ranks, eps=args.eps)
    save_ttmatrix(tt, args.out)
    log.info("wrote %s", args.out)
    recon = reconstruct(tt)
    denom = float(np.linalg.norm(w.array))
    err = float(np.linalg.norm(w.array - recon.array)) / denom if denom > 0 else 0.0
    print("params %d, ratio %.2f" % (param_count(tt), compression_ratio(tt)))
    print("ranks %s" % ",".join(str(r) for r in tt.ranks))
    print("reconstruction error %.6e" % err)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttrnn",
        description="Tweet emotion classifiers with tensor-train compressed "
        "recurrent cells: data cleaning, training, evaluation and "
        "matrix compression tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "clean",
        help="normalize raw tweets into cleaned JSONL",
        description="Read a raw dataset (CSV or JSONL), apply the cleaning "
        "pipeline, and write cleaned records as JSONL.",
    )
    p.add_argument("--in", dest="infile", required=True, help="raw dataset path")
    p.add_argument("--out", required=True, help="cleaned JSONL output path")
    p.add_argument(
        "--format",
        choices=("csv", "jsonl"),
        default=None,
        help="input format; guessed from the file when omitted",
    )
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser(
        "filter",
        help="drop records whose external sentiment disagrees",
        description="Keep only records whose external sentiment prediction "
        "matches the label-derived sentiment; neutral predictions drop the "
        "record.",
    )
    p.add_argument("--in", dest="infile", required=True, help="dataset path (raw or cleaned)")
    p.add_argument(
        "--predictions", required=True, help="CSV of id,sentiment external calls"
    )
    p.add_argument("--out", required=True, help="cleaned JSONL output path")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser(
        "build-vocab",
        help="build a token vocabulary from a dataset",
        description="Count tokens over the cleaned texts and write the "
        "vocabulary as JSON.",
    )
    p.add_argument("--in", dest="infile", required=True, help="dataset path (raw or cleaned)")
    p.add_argument("--out", required=True, help="vocabulary JSON output path")
    p.add_argument(
        "--min-count", type=int, default=1, help="minimum token count (default: 1)"
    )
    p.add_argument(
        "--max-size",
        type=int,
        default=None,
        help="cap on total vocabulary size including pad and unk (default: none)",
    )
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser(
        "train",
        help="train a recurrent classifier",
        description="Clean (if raw), split, and train one cell kind; writes "
        "the model file, a JSONL training log, and prints test metrics.",
    )
    p.add_argument("--data", required=True, help="dataset path (raw or cleaned)")
    p.add_argument(
        "--cell", required=True, choices=_CELL_CHOICES, help="cell kind to train"
    )
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--hidden", type=int, default=64, help="hidden size (default: 64)")
    p.add_argument("--embed", type=int, default=64, help="embedding size (default: 64)")
    p.add_argument(
        "--tt-modes",
        type=_comma_ints,
        default=None,
        help="output mode sizes m1,m2,... for tensorized cells; their product "
        "must equal --hidden (default: automatic three-mode split)",
    )
    p.add_argument(
        "--tt-in-modes",
        type=_comma_ints,
        default=None,
        help="input mode sizes n1,n2,... for tensorized cells; their product "
        "must equal --embed (default: automatic three-mode split)",
    )
    p.add_argument(
        "--tt-ranks",
        type=_comma_ints,
        default=(4,),
        help="rank vector r0,r1,...,rd (boundary ranks 1), or a single number "
        "used for every interior rank (default: 4)",
    )
    p.add_argument(
        "--task",
        choices=("emotion", "sentiment"),
        default="emotion",
        help="label set to train on (default: emotion)",
    )
    p.add_argument("--epochs", type=int, default=450, help="epoch cap (default: 450)")
    p.add_argument(
        "--patience",
        type=int,
        default=10,
        help="early-stop patience in epochs, 0 disables (default: 10)",
    )
    p.add_argument("--batch", type=int, default=32, help="batch size (default: 32)")
    p.add_argument(
        "--lr", type=float, default=1e-3, help="learning rate (default: 0.001)"
    )
    p.add_argument(
        "--optimizer",
        choices=("adam", "sgd"),
        default="adam",
        help="update rule (default: adam)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    p.add_argument(
        "--split-fraction",
        type=float,
        default=0.8,
        help="train fraction of the stratified split (default: 0.8)",
    )
    p.add_argument(
        "--max-len", type=int, default=40, help="token window length (default: 40)"
    )
    p.add_argument(
        "--min-count",
        type=int,
        default=1,
        help="minimum token count for the vocabulary (default: 1)",
    )
    p.add_argument(
        "--max-vocab",
        type=int,
        default=None,
        help="cap on total vocabulary size (default: none)",
    )
    p.add_argument(
        "--no-candidate-bias",
        action="store_true",
        help="drop the bias term inside the gated-update candidate",
    )
    p.add_argument(
        "--clip",
        type=float,
        default=None,
        help="gradient-norm clip threshold (default: off)",
    )
    p.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock seconds per epoch in the log (off keeps logs "
        "byte-identical between runs)",
    )
    p.add_argument(
        "--log",
        default=None,
        help="JSONL training log path (default: <out>.log.jsonl)",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "evaluate",
        help="evaluate a saved model on a dataset",
        description="Load a model, clean the data if raw, and print the "
        "metrics report.",
    )
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--data", required=True, help="dataset path (raw or cleaned)")
    p.add_argument(
        "--split",
        choices=("test", "all"),
        default="test",
        help="'test' re-derives the train/test split recorded in the model; "
        "'all' scores every record (default: test)",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "predict",
        help="classify one text with a saved model",
        description="Clean and encode one text with the model's own "
        "vocabulary and print the predicted class with probabilities as JSON.",
    )
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--text", required=True, help="raw text to classify")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "compress",
        help="compress a dense matrix into tensor-train form",
        description="Factor a dense matrix (CSV rows, or .npy) into a "
        "tensor-train matrix file and report size and accuracy.",
    )
    p.add_argument("--matrix", required=True, help="matrix path (.csv or .npy)")
    p.add_argument(
        "--modes",
        type=_comma_ints,
        default=None,
        help="output mode sizes m1,m2,...; product must equal the row count "
        "(default: automatic three-mode split)",
    )
    p.add_argument(
        "--in-modes",
        type=_comma_ints,
        default=None,
        help="input mode sizes n1,n2,...; product must equal the column count "
        "(default: automatic three-mode split)",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--ranks",
        type=_comma_ints,
        default=None,
        help="rank cap vector r0,...,rd (boundary ranks 1), or a single "
        "number used for every interior rank (default: exact)",
    )
    group.add_argument(
        "--eps",
        type=float,
        default=None,
        help="relative reconstruction error budget (default: exact)",
    )
    p.add_argument("--out", required=True, help="tensor-train output path")
    p.set_defaults(func=cmd_compress)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level, handlers, propagate = log.level, log.handlers[:], log.propagate
    _configure_logging()
    try:
        return args.func(args)
    except TtrnnError as e:
        log.error("%s: %s", type(e).__name__, e)
        return 2
    except OSError as e:
        log.error("%s", e)
        return 2
    except MemoryError:
        log.error(
            "MemoryError: out of memory; use a smaller input or, for train, "
            "lower --hidden, --embed, --max-len, --batch or --max-vocab"
        )
        return 2
    except Exception:
        log.exception("internal error")
        return 1
    finally:  # an in-process caller gets the `ttrnn` logger back as it was
        log.setLevel(level)
        log.handlers[:], log.propagate = handlers, propagate


if __name__ == "__main__":
    sys.exit(main())
