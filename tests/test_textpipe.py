import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_path
from ttrnn.errors import (
    DuplicateId,
    EmptyAfterEncoding,
    EmptySequence,
    MissingPrediction,
    ParseError,
    ShapeMismatch,
    TtrnnError,
    UnknownEmotion,
)
from ttrnn.textpipe import (
    EMOTIONS,
    PAD_ID,
    UNK_ID,
    CleanExample,
    RawExample,
    Vocabulary,
    build_vocab,
    clean_example,
    clean_tweet,
    encode,
    filter_by_sentiment_agreement,
    load_clean_jsonl,
    load_dataset,
    load_predictions,
    looks_like_clean_jsonl,
    map_emotion_to_sentiment,
    tokenize,
    write_clean_jsonl,
)


# ---------------------------------------------------------------------------
# cleaning


def test_contraction_expansion():
    assert clean_tweet("I'm happy") == ("i am happy", [])
    assert clean_tweet("Won't, can't, LET'S go")[0] == "will not, cannot, let us go"


def test_retweet_mention_hashtag_example():
    assert clean_tweet("RT @user Hello   World\n#Fun") == ("hello world fun", ["fun"])


def test_empty_input():
    assert clean_tweet("") == ("", [])


def test_emoji_become_alias_tokens():
    text, tags = clean_tweet("love this ❤️")
    assert text == "love this :red_heart:"
    assert tags == []
    assert tokenize(text)[-1] == ":red_heart:"


def test_unknown_emoji_pass_through():
    # an emoji outside the frozen table is not dropped by the cleaner
    text, _ = clean_tweet("odd \U0001fa9f glyph")
    assert "\U0001fa9f" in text


def test_stacked_retweets_and_mentions():
    text, _ = clean_tweet("RT RT @a @b I ❤ this!!")
    assert text == "i :red_heart: this!!"


def test_stray_symbols_removed():
    assert clean_tweet("100# of @ stuff")[0] == "100 of stuff"


def test_hashtag_word_stays_in_place():
    text, tags = clean_tweet("what a #Great day")
    assert text == "what a great day"
    assert tags == ["great"]


def test_clean_is_idempotent_on_goldens():
    for raw in (
        "I'm happy",
        "RT @user Hello   World\n#Fun",
        "Table for- two \U0001f602 #LOL",
        "RT RT @a @b I ❤ this!!",
    ):
        once, tags_once = clean_tweet(raw)
        twice, tags_twice = clean_tweet(once)
        assert twice == once
        assert tags_twice == []


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            list("abcXYZ012 \t\n#@'!.,:_❤\U0001f602’")
            + ["RT ", "rt", "I'm", "can't", "@user", "#Tag"]
        ),
        max_size=25,
    ).map("".join)
)
def test_clean_is_idempotent_property(raw):
    once, _ = clean_tweet(raw)
    twice, _ = clean_tweet(once)
    assert twice == once


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_clean_output_is_normalized(raw):
    text, tags = clean_tweet(raw)
    assert text == text.lower()
    assert "  " not in text
    assert text == text.strip()
    assert "#" not in text
    assert "@" not in text
    assert all(t == t.lower() for t in tags)


# ---------------------------------------------------------------------------
# label mapping


def test_emotion_to_sentiment_table():
    assert map_emotion_to_sentiment("Angry") == "Negative"
    assert map_emotion_to_sentiment("Bad") == "Negative"
    assert map_emotion_to_sentiment("Fearful") == "Negative"
    assert map_emotion_to_sentiment("Sad") == "Negative"
    assert map_emotion_to_sentiment("Happy") == "Positive"
    assert map_emotion_to_sentiment("Surprised") == "Positive"


def test_unknown_emotion_raises():
    with pytest.raises(UnknownEmotion):
        map_emotion_to_sentiment("Confused")
    with pytest.raises(UnknownEmotion):
        map_emotion_to_sentiment("happy")  # case-sensitive closed set


def test_clean_example_carries_both_labels():
    ex = clean_example(RawExample("x1", "I'm #Happy", "Happy"))
    assert ex == CleanExample("x1", "i am happy", ("happy",), "Happy", "Positive")


# ---------------------------------------------------------------------------
# agreement filtering


def test_filter_keeps_matching_drops_neutral_and_mismatch():
    examples = [
        CleanExample("a", "x", (), "Happy", "Positive"),
        CleanExample("b", "y", (), "Angry", "Negative"),
        CleanExample("c", "z", (), "Sad", "Negative"),
    ]
    preds = {"a": "Positive", "b": "Neutral", "c": "Positive"}
    kept = filter_by_sentiment_agreement(examples, preds)
    assert [ex.id for ex in kept] == ["a"]


def test_filter_requires_full_coverage():
    examples = [CleanExample("a", "x", (), "Happy", "Positive")]
    with pytest.raises(MissingPrediction) as err:
        filter_by_sentiment_agreement(examples, {})
    assert "a" in str(err.value)


# ---------------------------------------------------------------------------
# vocabulary


def test_vocab_pinned_ordering():
    vocab = build_vocab(["a a b"])
    assert vocab.id_of("a") == 2
    assert vocab.id_of("b") == 3
    assert vocab.id_of("zzz") == UNK_ID
    assert vocab.size == 4


def test_vocab_count_then_lex_order():
    vocab = build_vocab(["c b b a a"])
    # a and b tie at 2, broken lexicographically; c has count 1
    assert vocab.tokens == ("a", "b", "c")


def test_vocab_min_count_and_max_size():
    corpus = ["a a a b b c"]
    assert build_vocab(corpus, min_count=2).tokens == ("a", "b")
    assert build_vocab(corpus, max_size=3).tokens == ("a",)
    assert build_vocab(corpus, max_size=2).tokens == ()
    with pytest.raises(ShapeMismatch):
        build_vocab(corpus, max_size=1)
    with pytest.raises(ShapeMismatch):
        build_vocab(corpus, min_count=0)


def test_vocab_empty_corpus_rejected():
    with pytest.raises(EmptySequence):
        build_vocab([])
    # an empty *text* is fine, the corpus just has no tokens
    vocab = build_vocab([""])
    assert vocab.size == 2


def test_vocab_dict_round_trip():
    vocab = build_vocab(["a a b"], min_count=1, max_size=10)
    again = Vocabulary.from_dict(vocab.to_dict())
    assert again == vocab
    assert again.id_of("b") == 3


# ---------------------------------------------------------------------------
# encoding


def test_encode_pads_and_truncates():
    vocab = build_vocab(["a b c"])
    enc = encode(["a", "b"], vocab, max_len=4, class_id=1)
    assert enc.token_ids == (vocab.id_of("a"), vocab.id_of("b"), PAD_ID, PAD_ID)
    assert enc.class_id == 1
    assert enc.mask.tolist() == [1.0, 1.0, 0.0, 0.0]
    long = encode(["a", "b", "c", "a", "b"], vocab, max_len=3, class_id=0)
    assert len(long.token_ids) == 3


def test_encode_unknown_tokens_map_to_unk():
    vocab = build_vocab(["a"])
    enc = encode(["mystery"], vocab, max_len=2, class_id=0)
    assert enc.token_ids[0] == UNK_ID


def test_encode_empty_raises():
    vocab = build_vocab(["a"])
    with pytest.raises(EmptyAfterEncoding):
        encode([], vocab, max_len=4, class_id=0)


# ---------------------------------------------------------------------------
# file loading


def test_load_csv_golden():
    raws = load_dataset(data_path("raw_golden.csv"))
    assert len(raws) == 7
    assert raws[0] == RawExample("t1", "I'm happy", "Happy")
    assert raws[1].text == "RT @user Hello   World\n#Fun"


def test_crlf_and_lf_load_identically():
    lf = load_dataset(data_path("raw_golden.csv"))
    crlf = load_dataset(data_path("raw_golden_crlf.csv"))
    assert [(r.id, clean_example(r).clean_text) for r in lf] == [
        (r.id, clean_example(r).clean_text) for r in crlf
    ]


def test_load_jsonl_and_error_line_numbers(tmp_path):
    p = tmp_path / "data.jsonl"
    p.write_text(
        '{"id": "a", "text": "hi", "label": "Happy"}\n'
        "\n"
        '{"id": "b", "text": "yo", "label": "Sad"}\n',
        encoding="utf-8",
    )
    raws = load_dataset(str(p))
    assert [r.id for r in raws] == ["a", "b"]

    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id": "a", "text": "hi", "label": "Happy"}\nnot json\n', encoding="utf-8"
    )
    with pytest.raises(ParseError) as err:
        load_dataset(str(bad))
    assert "line 2" in str(err.value)


def test_load_rejects_duplicate_ids(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("id,text,label\nx,hi,Happy\nx,yo,Sad\n", encoding="utf-8")
    with pytest.raises(DuplicateId):
        load_dataset(str(p))


def test_load_rejects_unknown_label(tmp_path):
    p = tmp_path / "lbl.csv"
    p.write_text("id,text,label\nx,hi,Meh\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_dataset(str(p))
    assert "Meh" in str(err.value)


def test_load_rejects_missing_header(tmp_path):
    p = tmp_path / "hdr.csv"
    p.write_text("ident,content\n1,hello\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_dataset(str(p))
    assert "line 1" in str(err.value)


def test_load_predictions(tmp_path):
    p = tmp_path / "preds.csv"
    p.write_text("id,sentiment\na,Positive\nb,Neutral\n", encoding="utf-8")
    preds = load_predictions(str(p))
    assert preds == {"a": "Positive", "b": "Neutral"}
    bad = tmp_path / "badpreds.csv"
    bad.write_text("id,sentiment\na,Meh\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_predictions(str(bad))


# pieces that reach past the first check of each reader when joined by newlines
_FRAGMENTS = st.sampled_from(
    [
        b"id,text,label",
        b"id,sentiment",
        b"a,hi,Happy",
        b"a,Positive",
        b'{"id": "a", "text": "hi", "label": "Happy"}',
        b'{"id":"a","clean_text":"x","hashtags":["y"],"emotion_label":"Happy",'
        b'"sentiment_label":"Positive"}',
        b'{"id": [], "text": 1, "label": {}}',
        b'{"id": "a", "text": "\\udc80", "label": "Happy"}',
        b"[" * 5000,
        b"1" * 5000,
        b"x" * 140000,
        b'"',
        b"\r",
        b"\xff\xfe",
        b"\xed\xa0\x80",
        b"\x00",
    ]
)
_FILE_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(_FRAGMENTS, st.binary(max_size=12)), max_size=6).map(b"\n".join),
)


@settings(max_examples=300, deadline=None)
@given(content=_FILE_BYTES, suffix=st.sampled_from([".csv", ".jsonl"]))
def test_arbitrary_bytes_raise_only_package_errors(fuzz_dir, content, suffix):
    """Every text loader turns any file content into records or a TtrnnError."""
    p = fuzz_dir / ("input" + suffix)
    p.write_bytes(content)
    for load in (load_dataset, load_predictions, load_clean_jsonl):
        try:
            load(str(p))
        except TtrnnError:
            pass
    assert looks_like_clean_jsonl(str(p)) in (True, False)


def test_utf8_error_names_its_line_past_the_read_buffer(tmp_path):
    p = tmp_path / "late.csv"
    rows = b"".join(b"r%d,hello there,Happy\n" % i for i in range(5000))
    p.write_bytes(b"id,text,label\n" + rows + b"bad,caf\xe9,Sad\n")
    with pytest.raises(ParseError) as err:
        load_dataset(str(p))
    assert err.value.line == 5002
    assert "UTF-8" in str(err.value)


def test_readers_keep_lone_cr_line_ends(tmp_path):
    p = tmp_path / "cr.csv"
    p.write_bytes(b"id,text,label\ra,hi,Happy\rb,yo,Sad\r")
    assert [r.id for r in load_dataset(str(p))] == ["a", "b"]
    bad = tmp_path / "cr.jsonl"
    bad.write_bytes(b'{"id": "a", "text": "hi", "label": "Happy"}\rnot json\r')
    with pytest.raises(ParseError) as err:
        load_dataset(str(bad))
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# cleaned JSONL round trip


def test_clean_jsonl_round_trip(tmp_path):
    raws = load_dataset(data_path("raw_golden.csv"))
    cleaned = [clean_example(r) for r in raws]
    p = tmp_path / "c.jsonl"
    with open(p, "w", encoding="utf-8") as f:
        write_clean_jsonl(cleaned, f)
    again = load_clean_jsonl(str(p))
    assert again == cleaned
    assert looks_like_clean_jsonl(str(p))
    assert not looks_like_clean_jsonl(data_path("raw_golden.csv"))


def test_golden_clean_file_is_byte_exact():
    raws = load_dataset(data_path("raw_golden.csv"))
    buf = io.StringIO()
    write_clean_jsonl([clean_example(r) for r in raws], buf)
    with open(data_path("clean_golden.jsonl"), "rb") as f:
        assert buf.getvalue().encode("utf-8") == f.read()


def test_clean_jsonl_lines_are_compact_fixed_order():
    raws = load_dataset(data_path("raw_golden.csv"))
    line = json.loads(
        open(data_path("clean_golden.jsonl"), encoding="utf-8").readline()
    )
    assert list(line.keys()) == [
        "id",
        "clean_text",
        "hashtags",
        "emotion_label",
        "sentiment_label",
    ]
    assert len(raws) == sum(1 for _ in open(data_path("clean_golden.jsonl")))
