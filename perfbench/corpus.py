"""Seeded inputs for the benchmark workloads.

Every corpus is a pure function of the workload seed.  The paper-scale
corpus keeps the synthetic class keywords and tweet noise of
``ttrnn.synth`` and pads each example with filler words drawn from a
seeded lexicon with Zipf-like frequencies, so that the vocabulary,
sequence lengths and padding resemble a real tweet corpus rather than the
~120-word synthetic one.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ttrnn import rng, synth
from ttrnn.textpipe import RawExample, clean_example

LEXICON_SIZE = 5000
LEXICON_SEED = 0  # one fixed language; the workload seed samples from it
# A flatter law than classic Zipf (exponent 1): a few hundred training
# tweets still reach a vocabulary of a few thousand words.
ZIPF_EXPONENT = 0.5
MIN_TOKENS, MAX_TOKENS = 5, 40

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"

# Reference corpora regenerated on every run.  A change to ttrnn.rng,
# ttrnn.synth or this module changes these fingerprints, which fails the
# run instead of silently measuring different inputs.
REFERENCE_SEED = 0
REFERENCE_SIZE = 60
REFERENCE_FINGERPRINTS = {
    "small": "4578cebbaefc9efc",
    "paper": "058725146309f4d4",
}


def _generator(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little")])


def lexicon(seed: int, size: int = LEXICON_SIZE) -> list:
    """`size` distinct pronounceable filler words in a seeded frequency order."""
    gen = _generator(seed, "lexicon")
    words: set = set()
    keywords = {w for kws in synth._KEYWORDS.values() for w in kws}
    while len(words) < size:
        syllables = int(gen.integers(2, 5))
        word = "".join(
            _CONSONANTS[int(gen.integers(len(_CONSONANTS)))] + _VOWELS[int(gen.integers(len(_VOWELS)))]
            for _ in range(syllables)
        )
        if word not in keywords:
            words.add(word)
    ordered = sorted(words)
    gen.shuffle(ordered)
    return ordered


def small_corpus(size: int, seed: int, tag: str = "train") -> list:
    """Raw examples of the bundled synthetic generator (vocabulary ~120).

    The training corpus is exactly ``make_dataset(size, seed)``, as in the
    acceptance tests; other tags draw from derived seeds.
    """
    return synth.make_dataset(size, seed if tag == "train" else rng.split(seed, "small", tag))


def paper_corpus(size: int, seed: int, tag: str = "train") -> list:
    """Raw synthetic tweets lengthened to 5..40 words with Zipf filler.

    The filler goes before the synthetic tweet.  Compute cost depends on
    lengths, not on where the keywords sit, and with the keywords near the
    end of the sequence one paper-scale epoch learns the task, so the test
    macro-F1 is a stable check rather than noise.
    """
    gen = _generator(seed, "paper-" + tag)
    words_by_rank = lexicon(LEXICON_SEED)
    weights = 1.0 / np.arange(1, len(words_by_rank) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    out = []
    for ex in synth.make_dataset(size, rng.split(seed, "paper", tag)):
        words = ex.text.split()
        extra = max(0, int(gen.integers(MIN_TOKENS, MAX_TOKENS + 1)) - len(words))
        filler = [words_by_rank[int(r)] for r in gen.choice(len(words_by_rank), size=extra, p=weights)]
        out.append(RawExample("%s-%s" % (tag, ex.id), " ".join(filler + words), ex.emotion_label))
    return out


def clean_all(raws) -> list:
    return [clean_example(r) for r in raws]


def fingerprint(raws) -> str:
    """Order-sensitive digest of (id, text, label) for every example."""
    h = hashlib.sha256()
    for ex in raws:
        for field in (ex.id, ex.text, ex.emotion_label):
            h.update(field.encode("utf-8"))
            h.update(b"\x1f")
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def reference_fingerprints() -> dict:
    return {
        "small": fingerprint(small_corpus(REFERENCE_SIZE, REFERENCE_SEED)),
        "paper": fingerprint(paper_corpus(REFERENCE_SIZE, REFERENCE_SEED)),
    }
