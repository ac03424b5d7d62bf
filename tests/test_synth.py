from collections import Counter

from ttrnn.synth import DEFAULT_SEED, DEFAULT_SIZE, make_dataset
from ttrnn.textpipe import EMOTIONS, clean_example, tokenize


def test_default_sizes():
    assert DEFAULT_SIZE == 3000
    examples = make_dataset(60)
    assert len(examples) == 60


def test_deterministic_and_seed_sensitive():
    a = make_dataset(40, seed=DEFAULT_SEED)
    b = make_dataset(40, seed=DEFAULT_SEED)
    c = make_dataset(40, seed=DEFAULT_SEED + 1)
    assert a == b
    assert a != c


def test_classes_are_balanced_and_valid():
    examples = make_dataset(120)
    counts = Counter(ex.emotion_label for ex in examples)
    assert set(counts) == set(EMOTIONS)
    assert all(v == 20 for v in counts.values())
    assert len({ex.id for ex in examples}) == 120


def test_texts_survive_cleaning_with_tokens():
    for ex in make_dataset(200):
        cleaned = clean_example(ex)
        toks = tokenize(cleaned.clean_text)
        assert toks, ex.text
        assert len(toks) <= 12


def test_texts_exercise_the_cleaning_pipeline():
    examples = make_dataset(400)
    raw = " ".join(ex.text for ex in examples)
    assert "RT " in raw
    assert "@" in raw
    assert "#" in raw
    assert "'" in raw or "’" in raw
    # at least one emoji present
    assert any(ord(ch) > 0x2600 for ch in raw)
