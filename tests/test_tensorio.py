import struct
import tracemalloc

import numpy as np
import pytest

from reidkit import (
    DataError,
    FormatError,
    IoError,
    MetaTable,
    SampleMeta,
    ensemble_distances,
    load_distances,
    load_features,
    load_meta,
    open_distances,
    save_distances,
    save_features,
    save_meta,
)


def test_feature_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    for n, d in [(1, 1), (3, 7), (64, 16), (5, 128)]:
        m = rng.normal(size=(n, d)).astype(np.float32)
        path = tmp_path / f"f_{n}x{d}.fvec"
        save_features(m, path)
        back = load_features(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, m)


def test_distance_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    m = np.abs(rng.normal(size=(9, 17))).astype(np.float32)
    path = tmp_path / "d.dmat"
    save_distances(m, path)
    assert np.array_equal(load_distances(path), m)


def test_fvec_header_layout(tmp_path):
    m = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "f.fvec"
    save_features(m, path)
    blob = path.read_bytes()
    magic, n, d = struct.unpack_from("<4sII", blob)
    assert magic == b"RDF1"
    assert (n, d) == (2, 3)
    assert len(blob) == 12 + 2 * 3 * 4
    assert np.frombuffer(blob[12:], dtype="<f4").tolist() == m.reshape(-1).tolist()


def test_save_distances_keeps_one_copy_of_the_payload(tmp_path):
    m = np.random.default_rng(13).random((1000, 5000), dtype=np.float32)
    tracemalloc.start()
    try:
        save_distances(m, tmp_path / "big.dmat")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the payload is written from the array itself, and validation reads bounds only
    size = (tmp_path / "big.dmat").stat().st_size
    assert peak <= 0.05 * size, f"peak {peak / size:.2f} x the file"
    assert np.array_equal(load_distances(tmp_path / "big.dmat"), m)


@pytest.mark.parametrize("save,load", [(save_distances, load_distances), (save_features, load_features)])
def test_loads_keep_one_copy_of_the_file(tmp_path, save, load):
    m = np.random.default_rng(14).random((1000, 5000), dtype=np.float32)
    save(m, tmp_path / "big")
    size = (tmp_path / "big").stat().st_size
    tracemalloc.start()
    try:
        back = load(tmp_path / "big")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes, viewed as the matrix; validation reads bounds only
    assert peak <= 1.05 * size, f"peak {peak / size:.2f} x the file"
    assert np.array_equal(back, m)


def test_open_distances_holds_one_chunk_and_reads_rows_on_demand(tmp_path):
    m = np.random.default_rng(15).random((1000, 5000), dtype=np.float32)
    save_distances(m, tmp_path / "big.dmat")
    size = (tmp_path / "big.dmat").stat().st_size
    tracemalloc.start()
    try:
        f = open_distances(tmp_path / "big.dmat")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the min and max are taken one chunk_rows block at a time
    assert peak <= 0.05 * size, f"peak {peak / size:.2f} x the file"
    assert f.shape == m.shape and f.bounds == (m.min(), m.max())
    for rows in (slice(0, 1), slice(3, 9), slice(994, None), slice(None), slice(7, 7)):
        assert np.array_equal(f[rows], m[rows])


@pytest.mark.parametrize("change", ["truncate", "nan", "larger"])
def test_a_distance_file_changed_after_opening_raises_when_read(tmp_path, change):
    m = np.random.default_rng(16).random((40, 30), dtype=np.float32)
    path = tmp_path / "d.dmat"
    save_distances(m, path)
    f = open_distances(path)
    blob = bytearray(path.read_bytes())
    if change == "truncate":
        path.write_bytes(bytes(blob[:-4]))
        error = FormatError
    elif change == "nan":
        at = 12 + 4 * 35 * 30  # row 35, column 0
        blob[at:at + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(blob))
        error = DataError
    else:
        save_distances(m * 1.5, path)
        error = DataError
    for normalize in (False, True):
        with pytest.raises(error, match="d.dmat"):
            ensemble_distances([f], normalize)


def test_open_distances_fails_as_load_distances_on_io_errors(tmp_path):
    for path in (tmp_path / "missing.dmat", tmp_path):
        with pytest.raises(IoError) as loaded:
            load_distances(path)
        with pytest.raises(IoError) as opened:
            open_distances(path)
        assert str(opened.value) == str(loaded.value)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.fvec"
    path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError):
        load_features(path)


def test_wrong_magic_kind_rejected(tmp_path):
    path = tmp_path / "cross.fvec"
    save_features(np.ones((2, 2), dtype=np.float32), path)
    with pytest.raises(FormatError):
        load_distances(path)  # .fvec magic fed to the .dmat loader


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.fvec"
    save_features(np.ones((4, 4), dtype=np.float32), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        load_features(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "h.fvec"
    path.write_bytes(b"RDF1\x01")
    with pytest.raises(FormatError):
        load_features(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_features(tmp_path / "missing.fvec")


def test_non_finite_payload_rejected(tmp_path):
    m = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(DataError):
        save_features(m * np.nan, tmp_path / "nan.fvec")
    # sneak a NaN past the writer by patching bytes directly
    path = tmp_path / "inf.fvec"
    save_features(m, path)
    blob = bytearray(path.read_bytes())
    blob[12:16] = struct.pack("<f", np.inf)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="inf.fvec"):
        load_features(path)


def test_values_that_overflow_float32_are_rejected_before_writing(tmp_path):
    m = np.array([[1e39, 1.0]])  # finite as float64, inf once rounded to float32
    for save, name in ((save_features, "big.fvec"), (save_distances, "big.dmat")):
        with pytest.raises(DataError, match="NaN or Inf"):
            save(m, tmp_path / name)
        assert not (tmp_path / name).exists()


def test_negative_distances_rejected(tmp_path):
    with pytest.raises(DataError):
        save_distances(np.array([[0.5, -0.1]], dtype=np.float32), tmp_path / "n.dmat")
    path = tmp_path / "n2.dmat"
    save_distances(np.array([[0.5, 0.1]], dtype=np.float32), path)
    blob = bytearray(path.read_bytes())
    blob[12:16] = struct.pack("<f", -1.0)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="n2.dmat"):
        load_distances(path)


def test_empty_shapes_rejected(tmp_path):
    with pytest.raises(DataError):
        save_features(np.zeros((0, 4), dtype=np.float32), tmp_path / "e.fvec")
    path = tmp_path / "e2.fvec"
    path.write_bytes(struct.pack("<4sII", b"RDF1", 0, 4))
    with pytest.raises(DataError, match="e2.fvec"):
        load_features(path)


def test_meta_roundtrip(tmp_path):
    meta = MetaTable([
        SampleMeta("a", 3, 0),
        SampleMeta("b", 3, 1),
        SampleMeta("c", 7, 0),
    ])
    path = tmp_path / "m.csv"
    save_meta(meta, path)
    back = load_meta(path)
    assert back == meta
    assert back.image_ids == ["a", "b", "c"]
    assert back.person_ids.tolist() == [3, 3, 7]
    assert back.camera_ids.tolist() == [0, 1, 0]


def test_meta_header_is_exact(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("image,person,camera\na,1,0\n")
    with pytest.raises(FormatError):
        load_meta(path)
    path.write_text("image_id,person_id,camera_id,extra\na,1,0,9\n")
    with pytest.raises(FormatError):
        load_meta(path)


def test_meta_field_validation(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("image_id,person_id,camera_id\na,one,0\n")
    with pytest.raises(FormatError):
        load_meta(path)
    path.write_text("image_id,person_id,camera_id\na,1,0\na,2,0\n")
    with pytest.raises(DataError):
        load_meta(path)
    path.write_text("image_id,person_id,camera_id\na,-1,0\n")
    with pytest.raises(DataError):
        load_meta(path)
    path.write_text("image_id,person_id,camera_id\na,99999999999999999999999,0\n")
    with pytest.raises(DataError):  # past int64, where .person_ids would overflow
        load_meta(path)
    with pytest.raises(DataError):
        MetaTable([SampleMeta("a", 1, 2**63)])
    assert MetaTable([SampleMeta("a", 2**63 - 1, 0)]).person_ids.tolist() == [2**63 - 1]
    with pytest.raises(DataError):
        MetaTable([SampleMeta("", 1, 0)])


def test_meta_subset_preserves_order():
    meta = MetaTable([SampleMeta(f"img{i}", i % 2, 0) for i in range(6)])
    sub = meta.subset([4, 1, 5])
    assert sub.image_ids == ["img4", "img1", "img5"]
    assert sub.person_ids.tolist() == [0, 1, 1]
    with pytest.raises(DataError, match="duplicate image_id 'img1'"):
        meta.subset([1, 2, 1])


def test_meta_rows_are_built_from_read_only_columns():
    meta = MetaTable([SampleMeta("a", 3, 0), SampleMeta("b", 3, 1), SampleMeta("c", 7, 0)])
    assert meta[0] == SampleMeta("a", 3, 0) and meta[-1] == SampleMeta("c", 7, 0)
    assert meta[1:3] == [SampleMeta("b", 3, 1), SampleMeta("c", 7, 0)]
    assert list(meta) == [meta[i] for i in range(3)]
    for row in meta:
        assert type(row) is SampleMeta and type(row.person_id) is int and type(row.camera_id) is int
    for ids in (meta.person_ids, meta.camera_ids):
        assert ids.dtype == np.int64 and not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[0] = 1
    assert meta.person_ids is meta.person_ids and meta.camera_ids is meta.camera_ids
