import json
import logging
import os
import struct
import subprocess
import sys
import zlib

import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def split_container(raw: bytes):
    """(manifest bytes, float count, weight blob) of a model container."""
    (mlen,) = struct.unpack_from("<I", raw, 4)
    (count,) = struct.unpack_from("<Q", raw, 8 + mlen)
    return raw[8 : 8 + mlen], count, raw[16 + mlen : -4]


def seal_container(manifest: bytes, count: int, blob: bytes) -> bytes:
    """A model container around the given parts, with a valid CRC."""
    from ttrnn.modelio import MAGIC

    body = MAGIC + struct.pack("<I", len(manifest)) + manifest + struct.pack("<Q", count) + blob
    return body + struct.pack("<I", zlib.crc32(body))


def edit_manifest(raw: bytes, edit) -> bytes:
    """A model container with `edit` applied to its manifest dict and both CRCs made valid."""
    manifest, count, blob = split_container(raw)
    m = json.loads(manifest)
    edit(m)
    compact = dict(sort_keys=True, separators=(",", ":"))
    m["vocab_crc32"] = zlib.crc32(json.dumps(m["vocab"], **compact).encode("utf-8"))
    return seal_container(json.dumps(m, **compact).encode("utf-8"), count, blob)


def run_cli(args, cwd=None, env_extra=None):
    """Run the console entry point in a subprocess with a pinned terminal width."""
    env = dict(os.environ)
    env["COLUMNS"] = "80"
    env.pop("TTRNN_LOG", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ttrnn", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(autouse=True)
def ttrnn_logger_left_as_found():
    """Fail a test that leaves the `ttrnn` logger's level, handlers or propagate changed."""
    log = logging.getLogger("ttrnn")
    before = log.level, log.handlers[:], log.propagate
    yield
    after = log.level, log.handlers[:], log.propagate
    assert after == before, "the ttrnn logger was left changed: %r -> %r" % (before, after)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One directory per module for hypothesis tests to write input files into."""
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="session")
def tiny_corpus():
    """A small cleaned synthetic corpus shared by training-level tests."""
    from ttrnn.synth import make_dataset
    from ttrnn.textpipe import clean_example

    return [clean_example(r) for r in make_dataset(120, seed=5)]


@pytest.fixture(scope="session")
def tiny_bundle(tiny_corpus):
    """One quickly trained model reused by serialization and CLI-level tests."""
    from ttrnn.training import TrainConfig, train

    config = TrainConfig(
        epochs_max=2,
        early_stop_patience=0,
        batch_size=32,
        seed=7,
        hidden_dim=8,
        embed_dim=8,
        max_len=12,
    )
    bundle, records = train(config, tiny_corpus, "gru")
    return bundle, records, config
