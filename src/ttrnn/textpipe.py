"""Tweet cleaning, label mapping, vocabulary and dataset loading.

Cleaning applies seven passes in a fixed order: emoji to :alias: words,
hashtag extraction, contraction expansion, whitespace normalization,
leading retweet-marker removal, mention removal, lowercasing.  The emoji
and contraction tables are frozen JSON files bundled with the package so
the output of the pipeline is byte-stable across installs; emoji outside
the table pass through unchanged.

The cleaner is idempotent: feeding its output back through produces the
same string, which is what makes cached cleaned corpora safe to re-clean.
Cleaned JSONL lines and vocabularies are stored by the rule of ttrnn.records.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources

import numpy as np

from . import records
from .errors import (
    DuplicateId,
    EmptyAfterEncoding,
    EmptySequence,
    MissingPrediction,
    ParseError,
    ShapeMismatch,
    UnknownEmotion,
)

EMOTIONS = ("Angry", "Bad", "Fearful", "Happy", "Sad", "Surprised")
SENTIMENTS = ("Negative", "Positive")
_EMOTION_SENTIMENT = {
    "Angry": "Negative",
    "Bad": "Negative",
    "Fearful": "Negative",
    "Sad": "Negative",
    "Happy": "Positive",
    "Surprised": "Positive",
}

PAD_ID = 0
UNK_ID = 1


def _load_table(name: str) -> dict:
    with resources.files("ttrnn.data").joinpath(name).open("r", encoding="utf-8") as f:
        return json.load(f)


_EMOJI = _load_table("emoji_aliases.json")
# longest sequences first so multi-codepoint emoji beat their prefixes
_EMOJI_RE = re.compile(
    "|".join(re.escape(k) for k in sorted(_EMOJI, key=len, reverse=True))
)
_CONTRACTIONS = _load_table("contractions.json")
_CONTRACTION_RE = re.compile(
    r"\b(" + "|".join(re.escape(k) for k in sorted(_CONTRACTIONS, key=len, reverse=True)) + r")\b",
    re.IGNORECASE,
)
_HASHTAG_RE = re.compile(r"#(\w+)")
_MENTION_RE = re.compile(r"@\w+")
_WS_RE = re.compile(r"\s+")


def clean_tweet(raw: str):
    """Normalize one tweet.  Returns (clean_text, hashtags).

    The output text is lowercase with single spaces, free of '@', '#',
    newlines and leading retweet markers; hashtag words stay in the text
    and are also returned separately, lowercased.
    """
    text = _EMOJI_RE.sub(lambda m: " :%s: " % _EMOJI[m.group(0)], raw)

    hashtags = []
    text = _HASHTAG_RE.sub(lambda m: hashtags.append(m.group(1)) or m.group(1), text)
    text = text.replace("#", "")

    text = text.replace("’", "'")
    text = _CONTRACTION_RE.sub(lambda m: _CONTRACTIONS[m.group(0).lower()], text)

    text = _WS_RE.sub(" ", text).strip()

    text = _MENTION_RE.sub("", text)
    text = text.replace("@", "")

    text = _WS_RE.sub(" ", text.lower()).strip()

    # leading retweet markers go last: stripping mentions can expose a new
    # one, and dropping them repeatedly here is what makes cleaning
    # idempotent
    while text == "rt" or text.startswith("rt "):
        text = text[2:].lstrip()

    return text, [h.lower() for h in hashtags]


def map_emotion_to_sentiment(emotion: str) -> str:
    try:
        return _EMOTION_SENTIMENT[emotion]
    except KeyError:
        raise UnknownEmotion("unknown emotion label %r" % (emotion,)) from None


# ---------------------------------------------------------------------------
# dataset records


@dataclass(frozen=True)
class RawExample:
    id: str
    text: str
    emotion_label: str


@dataclass(frozen=True)
class CleanExample:  # the field order is the key order of a cleaned JSONL line
    id: str
    clean_text: str
    hashtags: tuple
    emotion_label: str
    sentiment_label: str


def clean_example(raw: RawExample) -> CleanExample:
    text, hashtags = clean_tweet(raw.text)
    return CleanExample(
        id=raw.id,
        clean_text=text,
        hashtags=tuple(hashtags),
        emotion_label=raw.emotion_label,
        sentiment_label=map_emotion_to_sentiment(raw.emotion_label),
    )


def filter_by_sentiment_agreement(examples, external_predictions: dict):
    """Keep examples whose external sentiment call matches their own label.

    Predictions come from some outside classifier as id -> one of
    Positive / Negative / Neutral.  Neutral predictions drop the example
    (no emotion implies no emotion class), disagreements drop it as noisy.
    Every example id must be covered or MissingPrediction lists the gaps.
    """
    examples = list(examples)
    missing = [ex.id for ex in examples if ex.id not in external_predictions]
    if missing:
        raise MissingPrediction(missing)
    return [
        ex for ex in examples if external_predictions[ex.id] == ex.sentiment_label
    ]


def tokenize(clean_text: str):
    return clean_text.split()


# ---------------------------------------------------------------------------
# vocabulary


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple  # real tokens in id order, starting at id 2
    min_count: int
    # no default, so to_dict writes it even as null: stored vocabulary CRCs cover it
    max_size: int | None

    @cached_property
    def token_to_id(self) -> dict:
        return {tok: i + 2 for i, tok in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens) + 2

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def to_dict(self) -> dict:
        return records.to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        return records.from_dict(cls, d)


def build_vocab(corpus, min_count: int = 1, max_size: int | None = None) -> Vocabulary:
    """Count tokens over cleaned texts (or token lists) and fix an id order.

    Ids 0 and 1 are reserved for padding and unknowns.  Real tokens are
    ordered by descending count, ties broken lexicographically, kept only
    when seen at least min_count times, and capped so the whole table
    (reserved ids included) has at most max_size entries.
    """
    if min_count < 1:
        raise ShapeMismatch("min_count must be >= 1")
    if max_size is not None and max_size < 2:
        raise ShapeMismatch("max_size must leave room for PAD and UNK")
    counts = Counter()
    n_items = 0
    for item in corpus:
        n_items += 1
        counts.update(tokenize(item) if isinstance(item, str) else item)
    if n_items == 0:
        raise EmptySequence("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    if max_size is not None:
        kept = kept[: max_size - 2]
    return Vocabulary(tokens=tuple(kept), min_count=min_count, max_size=max_size)


@dataclass(frozen=True)
class EncodedExample:
    token_ids: tuple  # length-max_len, PAD on the right
    class_id: int

    @property
    def mask(self) -> np.ndarray:
        return (np.asarray(self.token_ids) != PAD_ID).astype(np.float64)


def encode(tokens, vocab: Vocabulary, max_len: int, class_id: int) -> EncodedExample:
    """Fixed-width id vector: truncate right, pad right, OOV becomes UNK."""
    if max_len < 1:
        raise ShapeMismatch("max_len must be >= 1")
    ids = [vocab.id_of(tok) for tok in list(tokens)[:max_len]]
    if not ids:
        raise EmptyAfterEncoding("no tokens left to encode")
    ids = ids + [PAD_ID] * (max_len - len(ids))
    return EncodedExample(token_ids=tuple(ids), class_id=int(class_id))


# ---------------------------------------------------------------------------
# file loading


def _check_label(label, line_no: int) -> str:
    if label not in EMOTIONS:
        raise ParseError(
            "unknown label %r (expected one of %s)" % (label, ", ".join(EMOTIONS)),
            line=line_no,
        )
    return label


def _register(seen: set, ex_id: str, line_no: int):
    if ex_id in seen:
        raise DuplicateId("duplicate id %r at line %d" % (ex_id, line_no))
    seen.add(ex_id)


def _lines(path: str):
    """Yield (line number, text) for each line of a UTF-8 text file.

    Lines split where text mode with newline="" splits them: at LF, CRLF
    or a lone CR.  A leading byte-order mark, as spreadsheet programs
    write, is dropped.  Undecodable bytes are read as surrogates and
    reported per line, which names the line that holds them; a strict
    text-mode read fails up to a whole buffer ahead of it.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")  # valid UTF-8 never decodes to a surrogate
                except UnicodeEncodeError:
                    raise ParseError("not valid UTF-8", line=line_no) from None
            yield line_no, line


def _jsonl_records(path: str, fields):
    """Yield (line number, object) per non-blank line; each object holds `fields`."""
    for line_no, line in _lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError("bad JSON (%s)" % e.msg, line=line_no) from None
        except (RecursionError, ValueError) as e:  # nesting too deep, integer too long
            raise ParseError("bad JSON (%s)" % e, line=line_no) from None
        if not isinstance(obj, dict):
            raise ParseError("expected an object", line=line_no)
        if "\\u" in line:  # an escape can spell a lone surrogate, which UTF-8 cannot hold
            try:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("string holds a lone surrogate escape", line=line_no) from None
        for k in fields:
            if k not in obj:
                raise ParseError("missing field %r" % k, line=line_no)
        yield line_no, obj


def _csv_records(path: str, fields):
    """Yield (line number, row dict) per CSV record; the header names `fields`.

    The line number is the record's last line, as a quoted field may span
    several.
    """
    reader = csv.DictReader(line for _, line in _lines(path))
    try:
        if reader.fieldnames is None:
            raise ParseError("empty file", line=1)
        if not set(fields).issubset(reader.fieldnames):
            raise ParseError(
                "header must include %s; got %r" % (", ".join(fields), reader.fieldnames),
                line=1,
            )
        for row in reader:
            if any(row.get(k) is None for k in fields):
                raise ParseError("row is missing fields", line=reader.line_num)
            yield reader.line_num, row
    except csv.Error as e:
        # DictReader.line_num only advances once a row parses
        raise ParseError("bad CSV (%s)" % e, line=reader.reader.line_num) from None


def load_dataset(path: str, fmt: str | None = None) -> list:
    """Read raw examples from CSV (header id,text,label) or JSONL."""
    if fmt is None:
        lowered = str(path).lower()
        if lowered.endswith(".csv"):
            fmt = "csv"
        elif lowered.endswith(".jsonl") or lowered.endswith(".json"):
            fmt = "jsonl"
        else:
            raise ParseError("cannot infer format of %r; pass csv or jsonl" % (path,))
    if fmt not in ("csv", "jsonl"):
        raise ParseError("unknown format %r" % (fmt,))
    read = _csv_records if fmt == "csv" else _jsonl_records
    out = []
    seen = set()
    for line_no, rec in read(path, ("id", "text", "label")):
        ex_id = str(rec["id"]).strip()
        if not ex_id:
            raise ParseError("empty id", line=line_no)
        if not isinstance(rec["text"], str):
            raise ParseError("text must be a string", line=line_no)
        _register(seen, ex_id, line_no)
        out.append(RawExample(ex_id, rec["text"], _check_label(rec["label"], line_no)))
    return out


def load_predictions(path: str) -> dict:
    """External sentiment calls: CSV with header id,sentiment."""
    allowed = {"Positive", "Negative", "Neutral"}
    out = {}
    seen = set()
    for line_no, row in _csv_records(path, ("id", "sentiment")):
        ex_id = row["id"].strip()
        sentiment = row["sentiment"]
        if not ex_id:
            raise ParseError("empty id", line=line_no)
        if sentiment not in allowed:
            raise ParseError(
                "sentiment must be Positive, Negative or Neutral, got %r" % (sentiment,),
                line=line_no,
            )
        _register(seen, ex_id, line_no)
        out[ex_id] = sentiment
    return out


def clean_jsonl_line(ex: CleanExample) -> str:
    return json.dumps(records.to_dict(ex), ensure_ascii=False, separators=(",", ":"))


def write_clean_jsonl(examples, f):
    for ex in examples:
        f.write(clean_jsonl_line(ex) + "\n")


def load_clean_jsonl(path: str) -> list:
    out = []
    seen = set()
    for line_no, obj in _jsonl_records(path, [f.name for f in fields(CleanExample)]):
        if not isinstance(obj["clean_text"], str):
            raise ParseError("clean_text must be a string", line=line_no)
        tags = obj["hashtags"]
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise ParseError("hashtags must be a list of strings", line=line_no)
        if obj["sentiment_label"] not in SENTIMENTS:
            raise ParseError(
                "unknown sentiment %r (expected one of %s)"
                % (obj["sentiment_label"], ", ".join(SENTIMENTS)),
                line=line_no,
            )
        ex_id = str(obj["id"]).strip()
        _register(seen, ex_id, line_no)
        out.append(
            CleanExample(
                id=ex_id,
                clean_text=obj["clean_text"],
                hashtags=tuple(tags),
                emotion_label=_check_label(obj["emotion_label"], line_no),
                sentiment_label=obj["sentiment_label"],
            )
        )
    return out


def looks_like_clean_jsonl(path: str) -> bool:
    """Peek at the first record to tell cleaned corpora from raw JSONL."""
    if not str(path).lower().endswith((".jsonl", ".json")):
        return False
    try:
        for _, obj in _jsonl_records(path, ()):
            return "clean_text" in obj
    except (OSError, ParseError):
        return False
    return False
