import copy
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_path, edit_manifest, seal_container, split_container
from ttrnn.errors import (
    ChecksumMismatch,
    FormatVersionMismatch,
    ParseError,
    ShapeMismatch,
    TtrnnError,
)
from ttrnn.modelio import (
    load_matrix,
    load_model,
    load_ttmatrix,
    save_model,
    save_ttmatrix,
)
from ttrnn.textpipe import clean_tweet, encode, tokenize
from ttrnn.training import model_probabilities
from ttrnn.ttcore import ModeFactorization, random_tt, reconstruct


def _model_path(tmp_path, bundle):
    p = tmp_path / "model.ttrn"
    save_model(bundle, str(p))
    return p


def test_model_round_trip_is_bitwise(tmp_path, tiny_bundle):
    bundle, _, _ = tiny_bundle
    p = _model_path(tmp_path, bundle)
    again = load_model(str(p))
    assert again.spec == bundle.spec
    assert again.vocab == bundle.vocab
    assert again.labels == bundle.labels
    assert again.task == bundle.task
    assert again.max_len == bundle.max_len
    assert again.metrics == bundle.metrics
    assert again.split == bundle.split
    for a, b in zip(again.weights.params(), bundle.weights.params()):
        assert a.value.array.tobytes() == b.value.array.tobytes()


def test_save_is_deterministic(tmp_path, tiny_bundle):
    bundle, _, _ = tiny_bundle
    p1 = tmp_path / "a.ttrn"
    p2 = tmp_path / "b.ttrn"
    save_model(bundle, str(p1))
    save_model(bundle, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupted_byte_detected(tmp_path, tiny_bundle):
    bundle, _, _ = tiny_bundle
    p = _model_path(tmp_path, bundle)
    data = bytearray(p.read_bytes())
    data[len(data) // 2] ^= 0xFF
    p.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatch):
        load_model(str(p))


def test_truncated_file_detected(tmp_path, tiny_bundle):
    bundle, _, _ = tiny_bundle
    p = _model_path(tmp_path, bundle)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 20])
    with pytest.raises(ChecksumMismatch):
        load_model(str(p))


def test_wrong_magic_detected(tmp_path):
    p = tmp_path / "junk.ttrn"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ChecksumMismatch):
        load_model(str(p))


def test_future_format_version_rejected_with_details(tmp_path, tiny_bundle):
    bundle, _, _ = tiny_bundle
    p = _model_path(tmp_path, bundle)
    # splice a bumped format_version into the manifest and re-seal the file
    manifest, count, blob = split_container(p.read_bytes())
    manifest = json.loads(manifest.decode("utf-8"))
    manifest["format_version"] = 99
    p.write_bytes(seal_container(json.dumps(manifest).encode("utf-8"), count, blob))
    with pytest.raises(FormatVersionMismatch) as err:
        load_model(str(p))
    assert err.value.found == 99
    assert err.value.supported == 1


# Model files written by an earlier release, by
# train(TrainConfig(epochs_max=2, early_stop_patience=0, seed=5, hidden_dim=8,
# embed_dim=8, max_len=12), corpus, kind) on the cleaned make_dataset(100, seed=3),
# t_gru with modes (2, 2, 2) x (2, 2, 2) and rank 2; with the probabilities they
# gave for "so happy today".
PINNED_MODELS = {
    "gru.ttrn": (
        0.14987883794444734, 0.151304846886222, 0.15977188892355323,
        0.18345705005144974, 0.14399459227421899, 0.21159278392010866,
    ),
    "t-gru.ttrn": (
        0.16006448616613014, 0.16855888018930576, 0.14419138397822515,
        0.15306678954364233, 0.19846709202130614, 0.17565136810139045,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_committed_model_files_load_predict_and_resave_unchanged(tmp_path, name):
    raw = Path(data_path(name)).read_bytes()
    bundle = load_model(data_path(name))
    save_model(bundle, str(tmp_path / "again.ttrn"))
    assert (tmp_path / "again.ttrn").read_bytes() == raw
    text, _ = clean_tweet("so happy today")
    encoded = encode(tokenize(text), bundle.vocab, bundle.max_len, 0)
    probs = model_probabilities(bundle.spec, bundle.weights, [encoded])[0]
    # not bitwise: another BLAS may round differently
    assert np.allclose(probs, PINNED_MODELS[name], rtol=0, atol=1e-12)
    # a file from before candidate_bias was recorded, and one from a later release
    p = tmp_path / "edited.ttrn"
    p.write_bytes(edit_manifest(raw, lambda m: m["cell"].pop("candidate_bias")))
    assert load_model(str(p)).spec.candidate_bias is True
    p.write_bytes(edit_manifest(raw, lambda m: m["cell"].update(added_later=[1, 2])))
    assert load_model(str(p)).spec == bundle.spec


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda v: v.update(tokens=v["tokens"][:5]), ChecksumMismatch),
        (lambda v: v["tokens"].append("brandnew"), ChecksumMismatch),
        (lambda v: v["tokens"].__setitem__(0, v["tokens"][1]), ChecksumMismatch),
        (lambda v: v["tokens"].__setitem__(0, ["unhashable"]), ParseError),
    ],
    ids=["cut", "grown", "repeated-token", "unhashable-token"],
)
def test_vocabulary_that_disagrees_with_the_cell_is_rejected(tmp_path, edit, error):
    p = tmp_path / "m.ttrn"
    p.write_bytes(edit_manifest(Path(data_path("gru.ttrn")).read_bytes(), lambda m: edit(m["vocab"])))
    with pytest.raises(error):
        load_model(str(p))


def test_model_kind_guard(tmp_path, tiny_bundle):
    tt = random_tt(ModeFactorization((4, 4), (4, 4)), (1, 2, 1), seed=3)
    p = tmp_path / "m.tt"
    save_ttmatrix(tt, str(p))
    with pytest.raises(ChecksumMismatch):
        load_model(str(p))
    bundle, _, _ = tiny_bundle
    q = _model_path(tmp_path, bundle)
    with pytest.raises(ChecksumMismatch):
        load_ttmatrix(str(q))


def test_ttmatrix_round_trip(tmp_path):
    tt = random_tt(ModeFactorization((4, 2, 2), (2, 2, 4)), (1, 3, 2, 1), seed=5)
    p = tmp_path / "w.tt"
    save_ttmatrix(tt, str(p))
    again, manifest = load_ttmatrix(str(p))
    assert again.facto == tt.facto
    assert again.ranks == tt.ranks
    assert np.array_equal(reconstruct(again).array, reconstruct(tt).array)
    assert manifest["tt"]["ranks"] == [1, 3, 2, 1]


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 2**70)
    | st.floats()
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)


@st.composite
def _mutated(draw, base: dict) -> dict:
    """`base` with one to three nested values replaced or deleted."""
    m = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        node = m
        while node:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
            elif isinstance(node, dict) and draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = draw(_JSON)
                break
    return m


@pytest.fixture(scope="module")
def valid_containers(tiny_bundle, tmp_path_factory):
    """(manifest dict, float count, blob) of a saved model and a saved TT matrix."""
    d = tmp_path_factory.mktemp("containers")
    save_model(tiny_bundle[0], str(d / "m.ttrn"))
    tt = random_tt(ModeFactorization((4, 2), (2, 4)), (1, 3, 1), seed=1)
    save_ttmatrix(tt, str(d / "w.tt"))
    bases = []
    for name in ("m.ttrn", "w.tt"):
        manifest, count, blob = split_container((d / name).read_bytes())
        bases.append((json.loads(manifest), count, blob))
    return bases, d


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_crc_valid_garbage_raises_only_package_errors(valid_containers, data):
    """A CRC-valid container with any manifest and count raises only TtrnnError."""
    bases, d = valid_containers
    manifest, count, blob = data.draw(st.sampled_from(bases))
    manifest_bytes = data.draw(
        st.one_of(
            st.binary(max_size=64),
            _JSON.map(lambda v: json.dumps(v).encode("utf-8")),
            _mutated(manifest).map(lambda m: json.dumps(m).encode("utf-8")),
        )
    )
    count, blob = data.draw(
        st.one_of(
            st.just((count, blob)),
            st.tuples(st.integers(0, 2**64 - 1), st.just(blob)),
            st.lists(st.floats(width=64), max_size=8).map(
                lambda xs: (len(xs), struct.pack("<%dd" % len(xs), *xs))
            ),
        )
    )
    p = d / "garbage.ttrn"
    p.write_bytes(seal_container(manifest_bytes, count, blob))
    for load in (load_model, load_ttmatrix):
        try:
            load(str(p))
        except TtrnnError:
            pass


def test_load_matrix_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")
    m = load_matrix(str(p))
    assert m.shape == (2, 2)
    assert m.array.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    single = tmp_path / "row.csv"
    single.write_text("5.0,6.0,7.0\n", encoding="utf-8")
    assert load_matrix(str(single)).shape == (1, 3)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,x\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_matrix(str(bad))


def test_load_matrix_npy_takes_real_dtypes_only(tmp_path):
    p = tmp_path / "m.npy"
    for arr in (np.arange(6).reshape(2, 3), np.eye(2, dtype=np.float32), np.eye(2, dtype=bool)):
        np.save(p, arr)
        assert load_matrix(str(p)).array.tolist() == arr.astype(np.float64).tolist()
    for arr in (np.eye(2) * 1j, np.array([["a", "b"]]), np.zeros((2, 2), dtype="<M8[D]")):
        np.save(p, arr)
        with pytest.raises(ParseError):
            load_matrix(str(p))
    for arr in (np.arange(3.0), np.zeros((0, 3)), np.ones((2, 2, 2))):
        np.save(p, arr)
        with pytest.raises(ShapeMismatch):
            load_matrix(str(p))
    np.save(p, np.array([[1.0, np.inf]]))
    with pytest.raises(ParseError):
        load_matrix(str(p))


def _npy_header(descr, shape, fortran_order):
    return (
        b"\x93NUMPY\x01\x00"
        + struct.pack("<H", 118)
        + repr({"descr": descr, "fortran_order": fortran_order, "shape": shape})
        .encode()
        .ljust(117)
        + b"\n"
    )


def _saved(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


# headers declare at most 10**6 elements, so no load allocates much
_NPY_BYTES = st.one_of(
    st.binary(max_size=120),
    st.builds(
        lambda head, tail: head + tail,
        st.builds(
            _npy_header,
            st.sampled_from(["<f8", "<i4", "|b1", "<c16", "|O", "<U2", "|V8", "<M8[D]", "xyz", 7]),
            st.lists(st.integers(-1, 100), max_size=3).map(tuple),
            st.sampled_from([False, True, 3]),
        ),
        st.binary(max_size=64),
    ),
    st.builds(
        lambda b, cut: b[:cut],
        st.sampled_from([_saved(np.eye(3)), _saved(np.eye(2) * 1j)]),
        st.integers(0, 400),
    ),
    st.just(b"PK\x03\x04" + bytes(30)),  # a zip signature, as .npz files start
)


@settings(max_examples=300, deadline=None)
@given(content=_NPY_BYTES, suffix=st.sampled_from([".npy", ".csv"]))
def test_load_matrix_arbitrary_bytes_raise_only_package_errors(fuzz_dir, content, suffix):
    """Any .npy or .csv content gives a real finite 2-d matrix or a TtrnnError."""
    p = fuzz_dir / ("m" + suffix)
    p.write_bytes(content)
    try:
        m = load_matrix(str(p))
    except TtrnnError:
        return
    assert len(m.shape) == 2 and np.isfinite(m.array).all()
