"""Deterministic synthetic tweet corpus for the six emotion classes.

Each class gets a bank of telltale keywords; examples mix a couple of
those with shared filler words and the usual tweet noise (retweet
markers, mentions, hashtags, emoji, contractions, random casing).  The
signal is therefore keyword-based and learnable at desk scale, while the
noise exercises every branch of the cleaning pipeline.

Everything derives from the counter-based generator seeded per example,
so make_dataset(size, seed) is reproducible across platforms and runs.
The bundled corpus is make_dataset() with the defaults below.
"""

from __future__ import annotations

from . import rng
from .textpipe import EMOTIONS, RawExample

DEFAULT_SEED = 77
DEFAULT_SIZE = 3000

_KEYWORDS = {
    "Angry": (
        "furious", "rage", "annoyed", "outraged", "fuming",
        "irritated", "livid", "seething", "angry", "resentful",
    ),
    "Bad": (
        "awful", "terrible", "horrible", "lousy", "miserable",
        "gross", "nasty", "dreadful", "rotten", "worst",
    ),
    "Fearful": (
        "scared", "terrified", "afraid", "panicking", "nervous",
        "anxious", "frightened", "dreading", "spooked", "uneasy",
    ),
    "Happy": (
        "joyful", "delighted", "thrilled", "cheerful", "glad",
        "grateful", "smiling", "upbeat", "happy", "content",
    ),
    "Sad": (
        "heartbroken", "crying", "gloomy", "lonely", "depressed",
        "tearful", "mourning", "hopeless", "sad", "sorrowful",
    ),
    "Surprised": (
        "astonished", "shocked", "stunned", "speechless", "startled",
        "unbelievable", "amazed", "surprised", "baffled", "floored",
    ),
}

_FILLERS = (
    "today", "really", "about", "the", "this", "that", "just", "still",
    "again", "tonight", "morning", "work", "home", "friend", "weather",
    "news", "game", "coffee", "traffic", "weekend", "everyone", "feeling",
    "always", "never", "little", "very", "whole", "day",
)

_EMOJI = {
    "Angry": ("\U0001F620", "\U0001F621", "\U0001F92C"),
    "Bad": ("\U0001F44E", "\U0001F4A9", "\U0001F922"),
    "Fearful": ("\U0001F631", "\U0001F628", "\U0001F630"),
    "Happy": ("\U0001F602", "\U0001F60D", "❤️"),
    "Sad": ("\U0001F622", "\U0001F62D", "\U0001F494"),
    "Surprised": ("\U0001F62E", "\U0001F632", "\U0001F92F"),
}

_CONTRACTIONS = ("i'm", "don't", "can't", "it's", "won't", "we're", "that's")

_HANDLES = ("newsbot", "mate42", "someone", "dailyfeed", "oldpal")


def _pick(seed: int, options, count: int = 1):
    idx = rng.randint_below(seed, len(options), count)
    return [options[int(i)] for i in idx]


def make_example(class_name: str, index: int, seed: int) -> RawExample:
    s = rng.split(seed, "example", index)
    n_kw = 2 + int(rng.randint_below(rng.split(s, "nkw"), 2, 1)[0])  # 2 or 3
    n_fill = 3 + int(rng.randint_below(rng.split(s, "nfill"), 4, 1)[0])  # 3..6
    words = _pick(rng.split(s, "kw"), _KEYWORDS[class_name], n_kw)
    words += _pick(rng.split(s, "fill"), _FILLERS, n_fill)
    coins = rng.uniform(rng.split(s, "coins"), 8)

    if coins[0] < 0.30:  # contraction filler
        words.append(_pick(rng.split(s, "contr"), _CONTRACTIONS)[0])
    order = rng.permutation(rng.split(s, "order"), len(words))
    words = [words[int(i)] for i in order]

    if coins[1] < 0.30:  # hashtag one keyword occurrence
        for i, w in enumerate(words):
            if w in _KEYWORDS[class_name]:
                words[i] = "#" + w
                break
    if coins[2] < 0.20:  # random mid-text mention
        pos = int(rng.randint_below(rng.split(s, "mpos"), len(words) + 1, 1)[0])
        words.insert(pos, "@" + _pick(rng.split(s, "handle"), _HANDLES)[0])
    if coins[3] < 0.35:  # class-flavored emoji at the end
        words.append(_pick(rng.split(s, "emoji"), _EMOJI[class_name])[0])
    if coins[4] < 0.25:  # retweet prefix
        words = ["RT", "@" + _pick(rng.split(s, "rth"), _HANDLES)[0]] + words
    if coins[5] < 0.30:  # shout a word
        pos = int(rng.randint_below(rng.split(s, "up"), len(words), 1)[0])
        words[pos] = words[pos].upper()
    if coins[6] < 0.40:  # capitalize the first word
        words[0] = words[0].capitalize()
    joiner = "   " if coins[7] < 0.10 else " "

    return RawExample(
        id="syn-%05d" % index,
        text=joiner.join(words),
        emotion_label=class_name,
    )


def make_dataset(size: int = DEFAULT_SIZE, seed: int = DEFAULT_SEED):
    """Balanced labeled corpus, classes interleaved, ids syn-00000 upward."""
    out = []
    for i in range(size):
        cls = EMOTIONS[i % len(EMOTIONS)]
        out.append(make_example(cls, i, seed))
    return out
