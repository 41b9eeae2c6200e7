"""Hostile readers: damaged or odd files end in a ReidkitError, never a traceback.

Each loader gets valid files that have been truncated, bit-flipped and
spliced; a load must either return or raise a ``ReidkitError``, and
``open_distances`` must fail on a damaged ``.dmat`` exactly as
``load_distances`` does.  The CLI cases check the exit codes (3 for data
files, 2 for ``--config``), and the writer cases pin the exact bytes of the
CSV artifacts, CRLF line ends included.
"""

import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from reidkit import (
    EvalReport,
    MetaTable,
    MiningReport,
    ReidkitError,
    SampleClass,
    SampleMeta,
    cli,
    config_from_mapping,
    load_config,
    load_distances,
    load_features,
    load_meta,
    load_ppm,
    open_distances,
    save_cmc_csv,
    save_distances,
    save_features,
    save_meta,
    save_mining_report,
    save_ppm,
)

_CONFIG = (
    "# retrieval run\n"
    "query_features = q.fvec\n"
    "gallery_features = g.fvec\n"
    "query_meta = q.csv\r\n"
    "gallery_meta = g.csv\n"
    "rerank = yes\n"
    "k1 = 12\n"
    "lam = 0.25\n"
    "ensemble = a.dmat, b.dmat\n"
    "metric = cosine\n"
)


def _load_config(path):
    return config_from_mapping(load_config(path))


LOADERS = {
    "fvec": load_features,
    "dmat": load_distances,
    "dmat-open": open_distances,
    "ppm": load_ppm,
    "csv": load_meta,
    "cfg": _load_config,
}


def _file(d, kind):
    """The file a loader reads: ``dmat-open`` reads the ``.dmat`` file."""
    return d / f"x.{kind.split('-')[0]}"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of each kind, as bytes."""
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(5)
    save_features(rng.normal(size=(3, 4)).astype(np.float32), d / "x.fvec")
    save_distances(rng.random((2, 5)).astype(np.float32), d / "x.dmat")
    save_ppm(rng.integers(0, 256, size=(3, 2, 3), dtype=np.uint8), d / "x.ppm")
    save_meta(MetaTable([
        SampleMeta("a.jpg", 0, 1),
        SampleMeta("café, \"quoted\"", 12, 0),
        SampleMeta("c\nd", 7, 3),
    ]), d / "x.csv")
    (d / "x.cfg").write_bytes(_CONFIG.encode("utf-8"))
    for kind, load in LOADERS.items():  # the undamaged files load
        load(_file(d, kind))
    return {kind: _file(d, kind).read_bytes() for kind in LOADERS}


@st.composite
def damage(draw, blob):
    """Up to four truncations, byte flips and splices applied to ``blob``."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["truncate", "flip", "splice"]))
        i = draw(st.integers(0, len(blob)))
        if op == "truncate":
            del blob[i:]
        elif op == "flip" and i < len(blob):
            blob[i] ^= draw(st.integers(1, 255))
        else:
            j = draw(st.integers(i, min(len(blob), i + 16)))
            blob[i:j] = draw(st.binary(max_size=16) | st.sampled_from(
                [b"\x00", b"\xff\xfe", b"\r", b"\"", b",", b"-", b"#", b"\n", b"=", b"9" * 20]
            ))
    return bytes(blob)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_damaged_files_raise_only_reidkit_errors(kind, valid, tmp_path_factory):
    path = _file(tmp_path_factory.mktemp("hostile"), kind)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(blob=damage(valid[kind]))
    def check(blob):
        path.write_bytes(blob)
        try:
            LOADERS[kind](path)
        except ReidkitError:
            pass

    check()


def _outcome(load, path):
    """What a load gives: the shape and bounds, or the error's class and message."""
    try:
        m = load(path)
    except ReidkitError as exc:
        return type(exc), str(exc)
    return m.shape, m.bounds if hasattr(m, "bounds") else (m.min(), m.max())


def test_damaged_distance_files_fail_alike_when_opened(valid, tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile") / "x.dmat"

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(blob=damage(valid["dmat"]))
    def check(blob):
        path.write_bytes(blob)
        assert _outcome(open_distances, path) == _outcome(load_distances, path)

    check()


def _eval_inputs(tmp_path):
    save_distances(np.array([[0.1, 0.9]], np.float32), tmp_path / "d.dmat")
    save_meta(MetaTable([SampleMeta("q", 1, 0)]), tmp_path / "q.csv")
    save_meta(MetaTable([SampleMeta("g0", 1, 1), SampleMeta("g1", 2, 1)]), tmp_path / "g.csv")
    return ["eval", "--distances", str(tmp_path / "d.dmat"),
            "--query-meta", str(tmp_path / "q.csv"), "--gallery-meta", str(tmp_path / "g.csv")]


def test_cli_eval_inputs_are_valid(tmp_path):
    assert cli.main(_eval_inputs(tmp_path)) == 0


def test_cli_non_utf8_metadata_exits_3(tmp_path, capsys):
    argv = _eval_inputs(tmp_path)
    (tmp_path / "q.csv").write_bytes(b"image_id,person_id,camera_id\nq\xe9,1,0\n")
    assert cli.main(argv) == 3
    assert "not UTF-8 at byte 30" in capsys.readouterr().err


def test_cli_oversized_csv_field_exits_3(tmp_path, capsys):
    argv = _eval_inputs(tmp_path)
    (tmp_path / "g.csv").write_text(
        "image_id,person_id,camera_id\ng0,1,1\n" + "g" * 200_000 + ",2,1\n", encoding="utf-8"
    )
    assert cli.main(argv) == 3
    assert "field limit" in capsys.readouterr().err


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    (tmp_path / "run.cfg").write_bytes(b"# r\xfcn\nrerank = yes\n")
    assert cli.main(["pipeline", "--config", str(tmp_path / "run.cfg")]) == 2
    assert "not UTF-8 at byte 3" in capsys.readouterr().err
    assert cli.main(["pipeline", "--config", str(tmp_path)]) == 2  # a directory


def test_cli_header_disagreeing_with_payload_exits_3(tmp_path, capsys):
    f = tmp_path / "f.fvec"
    save_features(np.ones((2, 3), np.float32), f)
    f.write_bytes(struct.pack("<4sII", b"RDF1", 3, 3) + f.read_bytes()[12:])
    assert cli.main(["distances", "--query", str(f), "--gallery", str(f),
                     "--out", str(tmp_path / "d.dmat")]) == 3
    assert "header declares 36" in capsys.readouterr().err
    img = tmp_path / "i.ppm"
    img.write_bytes(b"P6\n2 2\n255\n" + bytes(13))
    assert cli.main(["augment", "--op", "flip", "--input", str(img),
                     "--out", str(tmp_path / "o.ppm")]) == 3


def test_cli_comment_laden_ppm_header(tmp_path):
    img = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
    src = tmp_path / "c.ppm"
    src.write_bytes(
        b"P6 #magic\n# size follows\n#\n3\t# width\r\n2 # height\n#\xff not text\n255\n"
        + img.tobytes()
    )
    assert cli.main(["augment", "--op", "flip", "--input", str(src),
                     "--out", str(tmp_path / "f.ppm")]) == 0
    assert np.array_equal(load_ppm(tmp_path / "f.ppm"), img[:, ::-1])


def test_csv_writer_bytes_are_pinned(tmp_path):
    meta = MetaTable([SampleMeta("a", 3, 0), SampleMeta("é,x", 7, 1)])
    save_meta(meta, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == (
        b'image_id,person_id,camera_id\r\na,3,0\r\n"\xc3\xa9,x",7,1\r\n'
    )
    report = EvalReport(map=0.5, cmc=np.array([0.25, 1.0]), n_valid_queries=4)
    save_cmc_csv(report, tmp_path / "cmc.csv")
    assert (tmp_path / "cmc.csv").read_bytes() == b"rank,cmc\r\n1,0.25\r\n2,1.0\r\n"
    mining = MiningReport(
        losses=np.array([0.1, 2.5]), partition=[SampleClass.CLEAN, SampleClass.NOISE]
    )
    save_mining_report(mining, meta, tmp_path / "mine.csv")
    assert (tmp_path / "mine.csv").read_bytes() == (
        b'image_id,loss,class\r\na,0.1,clean\r\n"\xc3\xa9,x",2.5,noise\r\n'
    )
