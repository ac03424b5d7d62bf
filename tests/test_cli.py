"""End-to-end checks of the console entry point.

Almost everything here runs the installed module in a subprocess (see
run_cli in conftest), so these tests cover argument parsing, exit codes,
logging and the exact stdout contracts other tooling is expected to
scrape.  The last section calls `cli.main` in-process, where it has to
replace an internal function or run many drawn option sets.
"""

import argparse
import contextlib
import io
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, data_path, run_cli, seal_container, split_container


def _subcommands():
    from ttrnn.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


# one golden per live command: help_main.txt for the top level, then
# help_<command>.txt with "-" spelled "_"
HELP_PAGES = [("main", [])] + [(c.replace("-", "_"), [c]) for c in _subcommands()]


@pytest.mark.parametrize("name,prefix", HELP_PAGES, ids=[n for n, _ in HELP_PAGES])
def test_help_pages_match_goldens(name, prefix):
    proc = run_cli([*prefix, "--help"])
    assert proc.returncode == 0
    with open(data_path("help_%s.txt" % name), "r", encoding="utf-8") as f:
        assert proc.stdout == f.read()
    assert proc.stderr == ""


def test_every_help_golden_belongs_to_a_live_command():
    goldens = {
        f[len("help_") : -len(".txt")]
        for f in os.listdir(DATA_DIR)
        if f.startswith("help_") and f.endswith(".txt")
    }
    assert goldens == {name for name, _ in HELP_PAGES}


def test_benchmark_is_not_a_command():
    proc = run_cli(["benchmark"])
    assert proc.returncode == 2
    assert "invalid choice: 'benchmark'" in proc.stderr


# ---------------------------------------------------------------------------
# clean


def test_clean_reproduces_golden_file(tmp_path):
    raw = data_path("raw_golden.csv")
    before = open(raw, "rb").read()
    out = tmp_path / "clean.jsonl"
    proc = run_cli(["clean", "--in", raw, "--out", str(out)])
    assert proc.returncode == 0
    assert proc.stdout == "records in 7, records out 7\n"
    with open(data_path("clean_golden.jsonl"), "rb") as f:
        assert out.read_bytes() == f.read()
    # the input file must never be touched
    assert open(raw, "rb").read() == before


def test_clean_crlf_input_gives_identical_output(tmp_path):
    a = tmp_path / "lf.jsonl"
    b = tmp_path / "crlf.jsonl"
    assert run_cli(["clean", "--in", data_path("raw_golden.csv"), "--out", str(a)]).returncode == 0
    assert (
        run_cli(["clean", "--in", data_path("raw_golden_crlf.csv"), "--out", str(b)]).returncode
        == 0
    )
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_clean_reads_past_a_byte_order_mark(tmp_path, suffix):
    body = (
        open(data_path("raw_golden.csv"), "rb").read()
        if suffix == "csv"
        else _RAW_OK + b'{"id": "b", "text": "so sad", "label": "Sad"}\n'
    )
    outputs = []
    for tag, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        src = tmp_path / ("%s.%s" % (tag, suffix))
        src.write_bytes(prefix + body)
        out = tmp_path / ("%s.out.jsonl" % tag)
        proc = run_cli(["clean", "--in", str(src), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_clean_missing_input_exits_2(tmp_path):
    missing = str(tmp_path / "nope.csv")
    proc = run_cli(["clean", "--in", missing, "--out", str(tmp_path / "o.jsonl")])
    assert proc.returncode == 2
    assert missing in proc.stderr


def test_clean_wrong_format_exits_2(tmp_path):
    proc = run_cli(
        [
            "clean",
            "--in",
            data_path("raw_golden.csv"),
            "--format",
            "jsonl",
            "--out",
            str(tmp_path / "o.jsonl"),
        ]
    )
    assert proc.returncode == 2
    assert "ParseError" in proc.stderr


def test_unknown_log_level_warns_but_runs(tmp_path):
    out = tmp_path / "o.jsonl"
    proc = run_cli(
        ["clean", "--in", data_path("raw_golden.csv"), "--out", str(out)],
        env_extra={"TTRNN_LOG": "banana"},
    )
    assert proc.returncode == 0
    assert "unknown TTRNN_LOG value" in proc.stderr


def test_quiet_log_level_silences_stderr(tmp_path):
    out = tmp_path / "o.jsonl"
    proc = run_cli(
        ["clean", "--in", data_path("raw_golden.csv"), "--out", str(out)],
        env_extra={"TTRNN_LOG": "quiet"},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# filter / build-vocab


def _opposite(sentiment):
    return "Negative" if sentiment == "Positive" else "Positive"


@pytest.fixture()
def cleaned_dozen(tmp_path):
    """Twelve cleaned synthetic examples written to disk."""
    from ttrnn.synth import make_dataset
    from ttrnn.textpipe import clean_example, write_clean_jsonl

    examples = [clean_example(r) for r in make_dataset(12, seed=9)]
    path = tmp_path / "dozen.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        write_clean_jsonl(examples, f)
    return examples, path


def test_filter_reports_kept_mismatch_and_neutral(cleaned_dozen, tmp_path):
    examples, data = cleaned_dozen
    rows = ["id,sentiment"]
    for i, ex in enumerate(examples):
        if i < 2:
            rows.append("%s,Neutral" % ex.id)
        elif i < 5:
            rows.append("%s,%s" % (ex.id, _opposite(ex.sentiment_label)))
        else:
            rows.append("%s,%s" % (ex.id, ex.sentiment_label))
    preds = tmp_path / "preds.csv"
    preds.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "kept.jsonl"
    proc = run_cli(
        ["filter", "--in", str(data), "--predictions", str(preds), "--out", str(out)]
    )
    assert proc.returncode == 0
    assert proc.stdout == "kept 7, dropped 3 mismatch, 2 neutral\n"
    kept = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(kept) == 7


def test_filter_all_agree_keeps_everything(cleaned_dozen, tmp_path):
    examples, data = cleaned_dozen
    preds = tmp_path / "preds.csv"
    preds.write_text(
        "id,sentiment\n"
        + "".join("%s,%s\n" % (ex.id, ex.sentiment_label) for ex in examples),
        encoding="utf-8",
    )
    out = tmp_path / "kept.jsonl"
    proc = run_cli(
        ["filter", "--in", str(data), "--predictions", str(preds), "--out", str(out)]
    )
    assert proc.returncode == 0
    assert proc.stdout == "kept 12, dropped 0 mismatch, 0 neutral\n"


def test_filter_missing_prediction_exits_2(cleaned_dozen, tmp_path):
    examples, data = cleaned_dozen
    preds = tmp_path / "preds.csv"
    preds.write_text(
        "id,sentiment\n"
        + "".join("%s,%s\n" % (ex.id, ex.sentiment_label) for ex in examples[:-1]),
        encoding="utf-8",
    )
    proc = run_cli(
        [
            "filter",
            "--in",
            str(data),
            "--predictions",
            str(preds),
            "--out",
            str(tmp_path / "o.jsonl"),
        ]
    )
    assert proc.returncode == 2
    assert examples[-1].id in proc.stderr


def test_filter_headerless_predictions_exit_2(cleaned_dozen, tmp_path):
    _, data = cleaned_dozen
    proc = run_cli(
        [
            "filter",
            "--in",
            str(data),
            "--predictions",
            os.devnull,
            "--out",
            str(tmp_path / "o.jsonl"),
        ]
    )
    assert proc.returncode == 2
    assert "ParseError" in proc.stderr


def test_build_vocab_reports_size_and_writes_json(cleaned_dozen, tmp_path):
    _, data = cleaned_dozen
    out = tmp_path / "vocab.json"
    proc = run_cli(["build-vocab", "--in", str(data), "--out", str(out)])
    assert proc.returncode == 0
    stored = json.loads(out.read_text())
    size = int(proc.stdout.split("vocabulary size ")[1].split(" ")[0])
    assert proc.stdout == "vocabulary size %d (including pad and unk)\n" % size
    from ttrnn.textpipe import Vocabulary

    vocab = Vocabulary.from_dict(stored)
    assert vocab.size == size
    # reserved slots are part of the reported size
    assert size == len(vocab.tokens) + 2


_GOOD_CLEAN = {
    "id": "t1",
    "clean_text": "i am happy",
    "hashtags": [],
    "emotion_label": "Happy",
    "sentiment_label": "Positive",
}


@pytest.mark.parametrize(
    "bad_line,line_no",
    [
        ("5", 1),
        ("5", 2),
        (json.dumps(dict(_GOOD_CLEAN, id="t2", clean_text=7)), 2),
        (json.dumps(dict(_GOOD_CLEAN, id="t2", hashtags="fun")), 2),
        (json.dumps(dict(_GOOD_CLEAN, id="t2", sentiment_label="Nope")), 2),
    ],
    ids=["lone-number", "number", "clean-text", "hashtags", "sentiment"],
)
def test_build_vocab_bad_cleaned_jsonl_exits_2(tmp_path, bad_line, line_no):
    lines = [bad_line] if line_no == 1 else [json.dumps(_GOOD_CLEAN), bad_line]
    data = tmp_path / "bad.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = run_cli(["build-vocab", "--in", str(data), "--out", str(tmp_path / "v.json")])
    assert proc.returncode == 2
    assert "ParseError: line %d:" % line_no in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# train / evaluate / predict


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    from ttrnn.synth import make_dataset
    from ttrnn.textpipe import clean_example, write_clean_jsonl

    path = tmp_path_factory.mktemp("corpus") / "train.jsonl"
    examples = [clean_example(r) for r in make_dataset(120, seed=5)]
    with open(path, "w", encoding="utf-8") as f:
        write_clean_jsonl(examples, f)
    return str(path)


TRAIN_ARGS = [
    "--cell",
    "t-gru",
    "--hidden",
    "8",
    "--embed",
    "8",
    "--epochs",
    "2",
    "--patience",
    "0",
    "--batch",
    "32",
    "--seed",
    "7",
    "--max-len",
    "12",
]


@pytest.fixture(scope="module")
def trained(corpus_file, tmp_path_factory):
    """One CLI-trained model shared by the evaluate and predict tests."""
    outdir = tmp_path_factory.mktemp("model")
    model = str(outdir / "m.ttrnn")
    log = str(outdir / "m.log.jsonl")
    proc = run_cli(
        ["train", "--data", corpus_file, "--out", model, "--log", log, *TRAIN_ARGS]
    )
    assert proc.returncode == 0, proc.stderr
    return {"model": model, "log": log, "stdout": proc.stdout}


def test_train_writes_model_and_structured_log(trained):
    assert os.path.exists(trained["model"])
    records = [
        json.loads(line) for line in open(trained["log"], "r", encoding="utf-8")
    ]
    header, footer = records[0], records[-1]
    # automatic factorization of hidden 8 / embed 8 is recorded up front
    assert header["cell"]["kind"] == "t_gru"
    assert int(np.prod(header["cell"]["tt_out_modes"])) == 8
    assert int(np.prod(header["cell"]["tt_in_modes"])) == 8
    assert header["cell"]["tt_ranks"][0] == 1
    assert header["cell"]["tt_ranks"][-1] == 1
    assert [r["epoch"] for r in records[1:-1]] == [1, 2]
    assert all(r["seconds"] == 0.0 for r in records[1:-1])
    assert "test" in footer
    assert "test metrics" in trained["stdout"]


def test_train_mode_mismatch_exits_2(corpus_file, tmp_path):
    proc = run_cli(
        [
            "train",
            "--data",
            corpus_file,
            "--out",
            str(tmp_path / "m.ttrnn"),
            "--cell",
            "t-gru",
            "--hidden",
            "16",
            "--embed",
            "16",
            "--tt-modes",
            "4,4,2",
            "--tt-in-modes",
            "4,4",
            "--epochs",
            "1",
        ]
    )
    assert proc.returncode == 2
    assert "32" in proc.stderr and "16" in proc.stderr


@pytest.mark.parametrize("cell", ["gru", "t-lstm"])
def test_train_that_goes_non_finite_exits_2(corpus_file, tmp_path, cell):
    model = tmp_path / "m.ttrnn"
    log = tmp_path / "m.log.jsonl"
    proc = run_cli(
        ["train", "--data", corpus_file, "--out", str(model), "--log", str(log),
         "--cell", cell, "--hidden", "8", "--embed", "8", "--epochs", "2",
         "--optimizer", "sgd", "--lr", "1e305"]
    )
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1 and "Warning" not in proc.stderr
    assert errors[0].startswith("ERROR NonFiniteTraining: training went non-finite at epoch 1, batch ")
    assert not model.exists()
    for line in log.read_text(encoding="utf-8").splitlines():
        json.loads(line, parse_constant=lambda c: pytest.fail("log holds %s" % c))


@pytest.mark.parametrize(
    "option,value",
    [("--lr", "nan"), ("--lr", "inf"), ("--clip", "nan"), ("--clip", "-1"), ("--clip", "0")],
)
def test_train_bad_numeric_option_exits_2(corpus_file, tmp_path, option, value):
    model = tmp_path / "m.ttrnn"
    proc = run_cli(
        ["train", "--data", corpus_file, "--out", str(model), "--log", str(tmp_path / "m.log"),
         *TRAIN_ARGS, option, value]
    )
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1 and "Traceback" not in proc.stderr
    assert not model.exists()


def test_train_same_seed_is_byte_identical(corpus_file, tmp_path):
    outputs = []
    for tag in ("a", "b"):
        model = tmp_path / ("%s.ttrnn" % tag)
        log = tmp_path / ("%s.log.jsonl" % tag)
        proc = run_cli(
            [
                "train",
                "--data",
                corpus_file,
                "--out",
                str(model),
                "--log",
                str(log),
                *TRAIN_ARGS,
            ]
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((model.read_bytes(), log.read_bytes(), proc.stdout))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]


def test_evaluate_test_split_matches_train_report(trained, corpus_file):
    proc = run_cli(
        ["evaluate", "--model", trained["model"], "--data", corpus_file]
    )
    assert proc.returncode == 0
    # the table evaluate prints must be exactly the "test metrics" block the
    # train command printed, reproduced from the stored split
    tail = trained["stdout"].split("test metrics\n", 1)[1]
    assert proc.stdout == tail


def test_evaluate_test_split_of_another_corpus_exits_2(trained, tmp_path):
    from ttrnn.synth import make_dataset
    from ttrnn.textpipe import clean_example, write_clean_jsonl

    other = tmp_path / "other.jsonl"
    with open(other, "w", encoding="utf-8") as f:
        write_clean_jsonl([clean_example(r) for r in make_dataset(120, seed=6)], f)
    proc = run_cli(["evaluate", "--model", trained["model"], "--data", str(other)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "ERROR CorpusMismatch: " in proc.stderr
    proc = run_cli(["evaluate", "--model", trained["model"], "--data", str(other), "--split", "all"])
    assert proc.returncode == 0, proc.stderr


def test_evaluate_all_split_runs(trained, corpus_file):
    proc = run_cli(
        [
            "evaluate",
            "--model",
            trained["model"],
            "--data",
            corpus_file,
            "--split",
            "all",
        ]
    )
    assert proc.returncode == 0
    assert "macro_f1" in proc.stdout
    assert proc.stdout != ""


def test_predict_emits_one_json_line(trained):
    proc = run_cli(
        ["predict", "--model", trained["model"], "--text", "feeling happy today"]
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert set(out) == {"prediction", "probabilities"}
    probs = out["probabilities"]
    assert abs(sum(probs.values()) - 1.0) <= 1e-12
    assert out["prediction"] in probs
    assert probs[out["prediction"]] == max(probs.values())


def test_predict_text_with_no_tokens_exits_2(trained):
    proc = run_cli(["predict", "--model", trained["model"], "--text", "@only_mention"])
    assert proc.returncode == 2
    assert "EmptyAfterEncoding" in proc.stderr


def _without_weights(manifest, count, blob):
    m = json.loads(manifest)
    del m["weights"]
    return json.dumps(m).encode("utf-8"), count, blob


def test_importing_the_cli_loads_no_openssl_hashing():
    # predict never hashes; OpenSSL's _hashlib would add ~3.5 MB to every predict process
    code = "import sys, ttrnn.cli; print('_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# each maps (manifest, count, blob) of a good model to a CRC-valid bad one
MALFORMED_MODELS = {
    "manifest-not-json": lambda m, c, b: (b"{not json", c, b),
    "manifest-not-utf8": lambda m, c, b: (b"\xff\xfe{}", c, b),
    "manifest-is-a-list": lambda m, c, b: (b"[1,2,3]", c, b),
    "manifest-without-weights": _without_weights,
    "count-beyond-file": lambda m, c, b: (m, 10**6, b),
    "nan-weight": lambda m, c, b: (m, c, struct.pack("<d", float("nan")) + b[8:]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_predict_malformed_model_exits_2(trained, tmp_path, case):
    with open(trained["model"], "rb") as f:
        raw = f.read()
    bad = tmp_path / "bad.ttrnn"
    bad.write_bytes(seal_container(*MALFORMED_MODELS[case](*split_container(raw))))
    proc = run_cli(["predict", "--model", str(bad), "--text", "feeling happy today"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR "), proc.stderr


# ---------------------------------------------------------------------------
# compress


@pytest.fixture(scope="module")
def big_matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("mats") / "w.npy"
    w = np.random.default_rng(0).standard_normal((256, 256))
    np.save(path, w)
    return str(path)


def test_compress_rank_capped_pins(big_matrix, tmp_path):
    out = str(tmp_path / "w.tt")
    proc = run_cli(
        [
            "compress",
            "--matrix",
            big_matrix,
            "--modes",
            "4,8,8",
            "--in-modes",
            "4,8,8",
            "--ranks",
            "4",
            "--out",
            out,
        ]
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "params 1344, ratio 48.76"
    assert lines[1] == "ranks 1,4,4,1"
    assert lines[2].startswith("reconstruction error ")
    assert os.path.exists(out)


def test_compress_exact_is_lossless(big_matrix, tmp_path):
    out = str(tmp_path / "w.tt")
    proc = run_cli(
        [
            "compress",
            "--matrix",
            big_matrix,
            "--modes",
            "4,8,8",
            "--in-modes",
            "4,8,8",
            "--out",
            out,
        ]
    )
    assert proc.returncode == 0
    err = float(proc.stdout.splitlines()[2].split()[-1])
    assert err <= 1e-10


def test_compress_infeasible_modes_exit_2(big_matrix, tmp_path):
    proc = run_cli(
        [
            "compress",
            "--matrix",
            big_matrix,
            "--modes",
            "5,5,5",
            "--in-modes",
            "4,8,8",
            "--out",
            str(tmp_path / "w.tt"),
        ]
    )
    assert proc.returncode == 2
    assert "125" in proc.stderr and "256" in proc.stderr


def test_compress_requires_both_mode_lists(big_matrix, tmp_path):
    proc = run_cli(
        [
            "compress",
            "--matrix",
            big_matrix,
            "--modes",
            "4,8,8",
            "--out",
            str(tmp_path / "w.tt"),
        ]
    )
    assert proc.returncode == 2
    assert "--in-modes" in proc.stderr


def test_compress_rejects_ranks_with_eps(big_matrix, tmp_path):
    proc = run_cli(
        [
            "compress",
            "--matrix",
            big_matrix,
            "--ranks",
            "4",
            "--eps",
            "0.1",
            "--out",
            str(tmp_path / "w.tt"),
        ]
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
def test_compress_bad_eps_exits_2(big_matrix, tmp_path, eps):
    out = tmp_path / "w.tt"
    proc = run_cli(["compress", "--matrix", big_matrix, "--eps", eps, "--out", str(out)])
    assert proc.returncode == 2
    assert "eps must be finite and >= 0" in proc.stderr
    assert not out.exists()


def _degenerate_factorization_argv(command, corpus_file, out_dir):
    # 7 has no 3-mode factorization without size-1 modes
    if command == "train":
        return ["train", "--data", corpus_file, "--out", str(out_dir / "m.ttrnn"),
                "--cell", "t-gru", "--hidden", "7", "--embed", "8", "--epochs", "1",
                "--max-len", "12"]
    matrix = out_dir / "w.npy"
    np.save(matrix, np.random.default_rng(0).standard_normal((7, 8)))
    return ["compress", "--matrix", str(matrix), "--out", str(out_dir / "w.tt")]


@pytest.mark.parametrize("command", ["train", "compress"])
def test_degenerate_factorization_notice_is_one_log_line(corpus_file, tmp_path, command):
    (tmp_path / "info").mkdir()
    (tmp_path / "quiet").mkdir()
    info = run_cli(_degenerate_factorization_argv(command, corpus_file, tmp_path / "info"))
    assert info.returncode == 0, info.stderr
    warnings = [line for line in info.stderr.splitlines() if line.startswith("WARNING")]
    assert warnings == [
        "WARNING factorization of (7, 8) into 3 modes has degenerate size-1 modes: "
        "m=(7, 1, 1) n=(2, 2, 2)"
    ], info.stderr
    assert "UserWarning" not in info.stderr
    quiet = run_cli(
        _degenerate_factorization_argv(command, corpus_file, tmp_path / "quiet"),
        env_extra={"TTRNN_LOG": "quiet"},
    )
    assert quiet.returncode == 0 and quiet.stderr == ""


# ---------------------------------------------------------------------------
# malformed input files


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=True)
    return buf.getvalue()


def _npz_bytes():
    buf = io.BytesIO()
    np.savez(buf, w=np.eye(4))
    return buf.getvalue()


_RAW_OK = b'{"id": "a", "text": "feeling happy", "label": "Happy"}\n'
_RAW_LATIN1 = b'{"id": "b", "text": "caf\xe9", "label": "Sad"}\n'
_RAW_SURROGATE = b'{"id": "b", "text": "x \\ud800", "label": "Sad"}\n'  # UTF-8 cannot encode it
_HUGE_FIELD = b"x" * 131073  # one past the csv module's default field size limit

# name -> (file name, bytes, line the error names)
BAD_DATASETS = {
    "csv-not-utf8": ("d.csv", b"id,text,label\na,feeling happy,Happy\nb,caf\xe9,Sad\n", 3),
    "jsonl-not-utf8": ("d.jsonl", _RAW_OK + _RAW_LATIN1, 2),
    "jsonl-not-utf8-first-line": ("d.jsonl", _RAW_LATIN1 + _RAW_OK, 1),
    "jsonl-deep-nesting": ("d.jsonl", b"[" * 100000 + b"\n", 1),
    "jsonl-lone-surrogate": ("d.jsonl", _RAW_OK + _RAW_SURROGATE, 2),
    "csv-huge-field": ("d.csv", b"id,text,label\na," + _HUGE_FIELD + b",Happy\n", 2),
}
BAD_PREDICTIONS = {
    "predictions-not-utf8": (b"id,sentiment\na,Positive\nb,N\xe9gative\n", 3),
    "predictions-huge-field": (b"id,sentiment\n" + _HUGE_FIELD + b",Positive\n", 2),
}
BAD_MATRICES = {
    "csv-nan": ("m.csv", b"1,2\nnan,4\n"),
    "csv-overflow": ("m.csv", b"1,2\n1e999,4\n"),
    "npy-object": ("m.npy", _npy_bytes(np.array([[1, "a"], [2, "b"]], dtype=object))),
    "npy-string": ("m.npy", _npy_bytes(np.array([["a", "b"], ["c", "d"]]))),
    "npy-truncated": ("m.npy", _npy_bytes(np.eye(4))[:-8]),
    "npy-empty-file": ("m.npy", b""),
    "npz-named-npy": ("m.npy", _npz_bytes()),
    "npy-complex": ("m.npy", _npy_bytes(np.eye(4) * (1 + 1j))),
}


DATASET_COMMANDS = {
    "clean": ["clean", "--in", "{data}", "--out", "{d}/o"],
    "filter": ["filter", "--in", "{data}", "--predictions", "{d}/p.csv", "--out", "{d}/o"],
    "build-vocab": ["build-vocab", "--in", "{data}", "--out", "{d}/o"],
    "train": ["train", "--data", "{data}", "--cell", "gru", "--out", "{d}/o"],
    "evaluate": ["evaluate", "--model", "{model}", "--data", "{data}", "--split", "all"],
}
_PREDICTIONS_OK = b"id,sentiment\na,Positive\nb,Negative\n"

# name -> (files to write, argv template, the line the error names or None)
MALFORMED_INPUTS = {}
for _name, (_file, _content, _line) in BAD_DATASETS.items():
    for _command, _argv in DATASET_COMMANDS.items():
        MALFORMED_INPUTS["%s-%s" % (_command, _name)] = (
            {_file: _content, "p.csv": _PREDICTIONS_OK},
            [a.replace("{data}", "{d}/" + _file) for a in _argv],
            _line,
        )
for _name, (_content, _line) in BAD_PREDICTIONS.items():
    MALFORMED_INPUTS["filter-" + _name] = (
        {"d.jsonl": _RAW_OK, "p.csv": _content},
        [a.replace("{data}", "{d}/d.jsonl") for a in DATASET_COMMANDS["filter"]],
        _line,
    )
for _name, (_file, _content) in BAD_MATRICES.items():
    MALFORMED_INPUTS["compress-" + _name] = (
        {_file: _content},
        ["compress", "--matrix", "{d}/" + _file, "--out", "{d}/w.tt"],
        None,
    )


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_exits_2(trained, tmp_path, case):
    files, argv, line = MALFORMED_INPUTS[case]
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    argv = [a.format(d=tmp_path, model=trained["model"]) for a in argv]
    proc = run_cli(argv, env_extra={"TTRNN_LOG": "quiet"})
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR "), proc.stderr
    if line is not None:
        assert "line %d:" % line in lines[0], proc.stderr


# ---------------------------------------------------------------------------
# in-process: cli.main with a replaced internal or drawn options


@pytest.fixture(scope="module")
def small_corpus_file(tmp_path_factory):
    from ttrnn.synth import make_dataset
    from ttrnn.textpipe import clean_example, write_clean_jsonl

    path = tmp_path_factory.mktemp("small") / "train.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        write_clean_jsonl([clean_example(r) for r in make_dataset(60, seed=5)], f)
    return str(path)


def _main_in_process(argv):
    """(exit code, stderr) of cli.main(argv), argparse's own exits included."""
    from ttrnn.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


@pytest.mark.parametrize("target", ["init_weights", "encode"])
def test_train_out_of_memory_exits_2(small_corpus_file, tmp_path, monkeypatch, target):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr("ttrnn.training." + target, exhausted)
    model = tmp_path / "m.ttrnn"
    code, err = _main_in_process(["train", "--data", small_corpus_file, "--out", str(model), *TRAIN_ARGS])
    assert code == 2, err
    errors = [line for line in err.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1 and "Traceback" not in err, err
    assert errors[0].startswith("ERROR MemoryError: ")
    for option in ("--hidden", "--embed", "--max-len", "--batch"):
        assert option in errors[0]
    assert not model.exists()


@pytest.mark.parametrize("outcome,code", [("clean", 0), ("internal fault", 1), ("missing input", 2)])
def test_main_gives_back_the_ttrnn_logger(tmp_path, monkeypatch, caplog, outcome, code):
    """After an in-process cli.main under TTRNN_LOG=quiet, library notices log as before."""
    from ttrnn.ttcore import choose_factorization

    def broken(*args, **kwargs):
        raise RuntimeError("not a data error")

    if outcome == "internal fault":
        monkeypatch.setattr("ttrnn.cli.clean_example", broken)
    raw = str(tmp_path / "absent.csv") if outcome == "missing input" else data_path("raw_golden.csv")
    monkeypatch.setenv("TTRNN_LOG", "quiet")
    got, err = _main_in_process(["clean", "--in", raw, "--out", str(tmp_path / "o.jsonl")])
    assert got == code, err
    caplog.clear()
    choose_factorization(7, 8, 3)
    assert [(r.name, r.levelname) for r in caplog.records] == [("ttrnn", "WARNING")]


_EDGES = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0])


def _mostly(low, high):
    """A float in [low, high] three times in four, else an edge case or any float."""
    return st.integers(0, 3).flatmap(lambda k: st.floats(low, high) if k else _EDGES | st.floats())


@settings(max_examples=60, deadline=None)
@given(
    cell=st.sampled_from(["gru", "t-gru", "lstm", "t-rnn", "jordan"]),
    optimizer=st.sampled_from(["adam", "sgd"]),
    hidden=st.integers(-1, 16),
    embed=st.integers(-1, 16),
    epochs=st.integers(-1, 2),
    patience=st.integers(-1, 2),
    batch=st.integers(-1, 64),
    max_len=st.integers(-1, 16),
    lr=_mostly(1e-4, 1.0),
    clip=st.none() | _mostly(0.1, 10.0),
    split=_mostly(0.2, 0.9),
)
@example("gru", "adam", 8, 8, 1, 0, 16, 8, 1e-3, None, 0.8)  # a valid run
@example("t-gru", "sgd", 8, 8, 2, 1, 64, 16, 1e300, 1e-300, 0.5)  # goes non-finite
@example("lstm", "adam", 0, 8, 1, 0, 16, 8, 1e-3, None, 0.8)
@example("gru", "adam", 8, 8, 1, 0, 16, 8, float("-inf"), float("nan"), float("-0.0"))
def test_train_numeric_options_exit_0_or_2(
    small_corpus_file, fuzz_dir, cell, optimizer, hidden, embed, epochs, patience,
    batch, max_len, lr, clip, split,
):
    argv = [
        "train", "--data", small_corpus_file, "--out", str(fuzz_dir / "m.ttrnn"),
        "--cell", cell, "--optimizer", optimizer, "--seed", "3",
        "--hidden=%d" % hidden, "--embed=%d" % embed, "--epochs=%d" % epochs,
        "--patience=%d" % patience, "--batch=%d" % batch, "--max-len=%d" % max_len,
        "--lr=%r" % lr, "--split-fraction=%r" % split,
    ]
    if clip is not None:
        argv.append("--clip=%r" % clip)
    code, err = _main_in_process(argv)
    assert code in (0, 2), err
    assert "Traceback" not in err
