"""Versioned binary container for trained models and TT matrices.

Layout: 4-byte magic, u32 little-endian manifest length, UTF-8 JSON
manifest (canonical: sorted keys, compact separators), u64 little-endian
float64 count, the raw little-endian float64 blob of every weight in the
order the manifest declares, and a trailing CRC-32 over all preceding
bytes.  The manifest embeds the vocabulary (with its own CRC-32) so a
model file is self-contained for prediction; floats round-trip bitwise.
Loading raises ChecksumMismatch when the bytes do not fit together and
ParseError when a CRC-valid manifest or weight is malformed.
"""

from __future__ import annotations

import json
import math
import struct
import tokenize
import warnings
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autodiff import Variable
from .cells import CellSpec, CellWeights, weight_templates
from .errors import ChecksumMismatch, FormatVersionMismatch, ParseError, ShapeMismatch
from .tensor import DenseTensor, _wrap
from .textpipe import Vocabulary
from .ttcore import ModeFactorization, TTMatrix

MAGIC = b"TTRN"
FORMAT_VERSION = 1


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode(
        "utf-8"
    )


def vocab_crc32(vocab: Vocabulary) -> int:
    return zlib.crc32(_canonical_json(vocab.to_dict()))


def _write_container(path: str, manifest: dict, arrays) -> None:
    payload = _canonical_json(manifest)
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    count = sum(a.size for a in arrays)
    body = (
        MAGIC
        + struct.pack("<I", len(payload))
        + payload
        + struct.pack("<Q", count)
        + blob
    )
    with open(path, "wb") as f:
        f.write(body + struct.pack("<I", zlib.crc32(body)))


# what interpreting a CRC-valid but malformed manifest raises: wrong types,
# missing keys, out-of-range numbers
_MALFORMED = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)


@contextmanager
def _manifest_fields(path: str):
    """Re-raise a malformed manifest field as ParseError."""
    try:
        yield
    except _MALFORMED as e:
        raise ParseError(
            "%s has a malformed manifest: %s: %s" % (path, type(e).__name__, e)
        ) from None


def _read_container(path: str):
    with open(path, "rb") as f:
        data = f.read()
    # magic, manifest length, float count and CRC take 20 bytes
    if len(data) < 20 or data[:4] != MAGIC:
        raise ChecksumMismatch("%s is not a model container (bad header)" % path)
    if zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise ChecksumMismatch("%s failed its integrity check" % path)
    (manifest_len,) = struct.unpack_from("<I", data, 4)
    offset = 8 + manifest_len
    if offset + 8 > len(data) - 4:
        raise ChecksumMismatch("%s: manifest length overruns the file" % path)
    try:
        manifest = json.loads(data[8:offset].decode("utf-8"))
    except (RecursionError, ValueError) as e:  # JSON and UTF-8 errors are ValueErrors
        raise ParseError("%s: manifest is not UTF-8 JSON: %s" % (path, e)) from None
    if not isinstance(manifest, dict):
        raise ParseError(
            "%s: manifest is a JSON %s, not an object" % (path, type(manifest).__name__)
        )
    # the version fixes the layout of everything after the manifest
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(found=version, supported=FORMAT_VERSION)
    (count,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    if count * 8 != len(data) - 4 - offset:
        raise ChecksumMismatch("%s: float count %d does not match the weight bytes" % (path, count))
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
    if not np.isfinite(flat).all():
        raise ParseError("%s holds non-finite weights" % path)
    arrays = []
    pos = 0
    with _manifest_fields(path):
        for entry in manifest["weights"]:
            shape = tuple(int(d) for d in entry["shape"])
            n = math.prod(shape)
            if pos + n > flat.size:
                raise ChecksumMismatch("weight blob shorter than the manifest declares")
            arrays.append(flat[pos : pos + n].reshape(shape).copy())
            pos += n
    if pos != flat.size:
        raise ChecksumMismatch("weight blob longer than the manifest declares")
    return manifest, arrays


@dataclass
class ModelBundle:
    """A trained model plus everything needed to run it on raw text."""

    spec: CellSpec
    weights: CellWeights
    vocab: Vocabulary
    task: str
    labels: tuple
    max_len: int
    train_config: dict | None = None
    metrics: dict | None = None
    split: dict | None = None

    def manifest(self) -> dict:
        m = {
            "format_version": FORMAT_VERSION,
            "kind": "model",
            "cell": self.spec.to_dict(),
            "task": self.task,
            "labels": list(self.labels),
            "max_len": self.max_len,
            "vocab": self.vocab.to_dict(),
            "vocab_crc32": vocab_crc32(self.vocab),
            "weights": [
                {"name": name, "shape": list(shape)}
                for name, shape in weight_templates(self.spec)
            ],
        }
        if self.train_config is not None:
            m["train_config"] = self.train_config
        if self.metrics is not None:
            m["metrics"] = self.metrics
        if self.split is not None:
            m["split"] = self.split
        return m


def save_model(bundle: ModelBundle, path: str) -> None:
    arrays = [v.value.array for v in bundle.weights.params()]
    _write_container(path, bundle.manifest(), arrays)


def load_model(path: str) -> ModelBundle:
    manifest, arrays = _read_container(path)
    if manifest.get("kind") != "model":
        raise ChecksumMismatch("%s holds a %r, not a model" % (path, manifest.get("kind")))
    with _manifest_fields(path):
        spec = CellSpec.from_dict(manifest["cell"])
        expected = weight_templates(spec)
        declared = [(e["name"], tuple(e["shape"])) for e in manifest["weights"]]
        if declared != expected:
            raise ChecksumMismatch("weight list does not match the declared cell")
        vocab = Vocabulary.from_dict(manifest["vocab"])
        if vocab_crc32(vocab) != manifest["vocab_crc32"]:
            raise ChecksumMismatch("vocabulary failed its integrity check")
        labels = tuple(manifest["labels"])
        if len(labels) != spec.num_classes:
            raise ChecksumMismatch("label list does not match the declared cell")
        task, max_len = manifest["task"], int(manifest["max_len"])
    # _read_container already copied each array and checked it is finite
    values = {name: Variable(_wrap(arr)) for (name, _), arr in zip(expected, arrays)}
    return ModelBundle(
        spec=spec,
        weights=CellWeights(spec, values),
        vocab=vocab,
        task=task,
        labels=labels,
        max_len=max_len,
        train_config=manifest.get("train_config"),
        metrics=manifest.get("metrics"),
        split=manifest.get("split"),
    )


def save_ttmatrix(tt: TTMatrix, path: str) -> None:
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "ttmatrix",
        "tt": {
            "out_modes": list(tt.facto.out_modes),
            "in_modes": list(tt.facto.in_modes),
            "ranks": list(tt.ranks),
        },
        "weights": [
            {"name": "core%d" % k, "shape": list(core.shape)}
            for k, core in enumerate(tt.cores)
        ],
    }
    _write_container(path, manifest, [c.array for c in tt.cores])


def load_ttmatrix(path: str):
    manifest, arrays = _read_container(path)
    if manifest.get("kind") != "ttmatrix":
        raise ChecksumMismatch(
            "%s holds a %r, not a ttmatrix" % (path, manifest.get("kind"))
        )
    with _manifest_fields(path):
        info = manifest["tt"]
        facto = ModeFactorization(tuple(info["out_modes"]), tuple(info["in_modes"]))
        tt = TTMatrix(
            facto,
            tuple(info["ranks"]),
            tuple(_wrap(a) for a in arrays),
        )
    return tt, manifest


# what numpy's readers raise on malformed bytes: a bad header or body, a
# file cut short, a declared shape too large to allocate, an unparsable
# header, a file without data, a zip signature with no archive behind it
_BAD_MATRIX_FILE = (EOFError, MemoryError, OverflowError, ValueError, tokenize.TokenError,
                    UserWarning, zipfile.BadZipFile)


def load_matrix(path: str) -> DenseTensor:
    """A real, finite, non-empty 2-d matrix from .npy, else from numeric CSV rows."""
    try:
        if str(path).endswith(".npy"):
            with open(path, "rb") as f:  # closing it also closes an .npz archive
                arr = np.load(f, allow_pickle=False)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt only warns on a file without data
                arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except _BAD_MATRIX_FILE as e:
        raise ParseError(
            "could not read %s as a matrix: %s: %s" % (path, type(e).__name__, e)
        ) from None
    if not isinstance(arr, np.ndarray):
        raise ParseError("%s is an .npz archive, not an .npy array" % path)
    if arr.dtype.kind not in "biuf":
        raise ParseError("%s holds %s values, not real numbers" % (path, arr.dtype))
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeMismatch("expected a non-empty 2-d matrix, got shape %r" % (arr.shape,))
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ParseError("%s holds non-finite entries" % path)
    return DenseTensor(arr)
