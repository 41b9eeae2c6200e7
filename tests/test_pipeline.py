import dataclasses
import tracemalloc

import numpy as np
import pytest

from reidkit import (
    ConfigError,
    FormatError,
    IoError,
    PipelineConfig,
    SynthParams,
    config_from_mapping,
    cosine_distances,
    euclidean_distances,
    evaluate,
    generate_synthetic,
    k_reciprocal_rerank,
    l2_normalize,
    load_config,
    load_distances,
    rank_gallery,
    run_pipeline,
    save_distances,
    save_features,
    save_meta,
    split_query_gallery,
)
from reidkit.cli import build_parser, main
from reidkit.rerank import RerankParams


@pytest.fixture()
def dataset(tmp_path):
    features, meta = generate_synthetic(
        SynthParams(n_ids=8, per_id=6, dims=12, cluster_spread=0.35, seed=23))
    qf, qm, gf, gm = split_query_gallery(features, meta, 2)
    paths = {
        "query_features": tmp_path / "q.fvec",
        "gallery_features": tmp_path / "g.fvec",
        "query_meta": tmp_path / "q.csv",
        "gallery_meta": tmp_path / "g.csv",
    }
    save_features(qf, paths["query_features"])
    save_features(gf, paths["gallery_features"])
    save_meta(qm, paths["query_meta"])
    save_meta(gm, paths["gallery_meta"])
    return tmp_path, paths, (qf, qm, gf, gm)


def _base_config(paths, tmp_path, **overrides):
    cfg = PipelineConfig(
        query_features=str(paths["query_features"]),
        gallery_features=str(paths["gallery_features"]),
        query_meta=str(paths["query_meta"]),
        gallery_meta=str(paths["gallery_meta"]),
        out_dir=str(tmp_path / "out"),
    )
    return dataclasses.replace(cfg, **overrides)


def test_load_config_parses_comments_and_whitespace(tmp_path):
    path = tmp_path / "p.cfg"
    path.write_text(
        "# a comment\n"
        "\n"
        "metric = cosine\n"
        "  k1=12  \n"
        "ensemble = a.dmat, b.dmat\n"
    )
    values = load_config(path)
    assert values == {"metric": "cosine", "k1": "12", "ensemble": "a.dmat, b.dmat"}


def test_load_config_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("k1 = 10\nmetric = cosine\n# k1 again\nk1 = 30\n")
    with pytest.raises(ConfigError, match=r"dup.cfg:4: key 'k1' already set on line 1"):
        load_config(path)


def test_load_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("metric cosine\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_from_mapping_coercions():
    cfg = config_from_mapping({
        "tta": "Yes", "rerank": "1", "aqe": "off",
        "k1": "15", "lam": "0.25", "topk": "5",
        "ensemble": "x.dmat , y.dmat,",
        "metric": "cosine", "aqe_stage": "pre",
    })
    assert cfg.tta is True
    assert cfg.rerank is True
    assert cfg.aqe is False
    assert cfg.k1 == 15
    assert cfg.lam == 0.25
    assert cfg.topk == 5
    assert cfg.ensemble == ["x.dmat", "y.dmat"]
    assert cfg.metric == "cosine"
    assert cfg.aqe_stage == "pre"


def test_config_from_mapping_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_mapping({"nonsense_key": "1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"tta": "maybe"})
    with pytest.raises(ConfigError):
        config_from_mapping({"k1": "twelve"})
    with pytest.raises(ConfigError):
        config_from_mapping({"metric": "manhattan"})
    with pytest.raises(ConfigError):
        config_from_mapping({"aqe_stage": "during"})
    # the choices come from field metadata; argparse reads the same lists
    choices = {f.name: f.metadata["choices"]
               for f in dataclasses.fields(PipelineConfig) if "choices" in f.metadata}
    assert choices == {"metric": ("euclidean", "cosine"), "aqe_stage": ("pre", "post")}
    for key, allowed in choices.items():
        for value in allowed:
            assert getattr(config_from_mapping({key: value}), key) == value
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: "bogus"})


def test_pipeline_config_is_frozen():
    cfg = PipelineConfig()
    for key, value in [("metric", "bogus"), ("aqe_stage", "during"), ("k1", 5)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, key, value)
    # a changed copy is built, and checked, anew
    assert dataclasses.replace(cfg, metric="cosine").metric == "cosine"
    with pytest.raises(ConfigError, match="metric"):
        dataclasses.replace(cfg, metric="bogus")


def test_every_config_key_is_a_pipeline_flag():
    flags = vars(build_parser().parse_args(["pipeline"]))
    keys = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert [k for k in keys if k not in flags] == []
    with pytest.raises(ConfigError, match="seed"):
        config_from_mapping({"seed": "1"})


def test_pipeline_baseline_equals_plain_retrieval(dataset):
    tmp_path, paths, (qf, qm, gf, gm) = dataset
    report, rows = run_pipeline(_base_config(paths, tmp_path))
    assert [name for name, _ in rows] == ["baseline"]
    direct = evaluate(rank_gallery(euclidean_distances(l2_normalize(qf), l2_normalize(gf))), qm, gm)
    assert report.map == direct.map
    assert np.array_equal(report.cmc, direct.cmc)
    out = tmp_path / "out"
    for name in ("distances.dmat", "report.txt", "cmc.csv", "ablation.txt"):
        assert (out / name).exists()
    saved = load_distances(out / "distances.dmat")
    assert np.array_equal(
        saved, euclidean_distances(l2_normalize(qf), l2_normalize(gf)))


def test_pipeline_rerank_row_and_artifact(dataset):
    tmp_path, paths, (qf, qm, gf, gm) = dataset
    cfg = _base_config(paths, tmp_path, rerank=True, k1=10, k2=3)
    report, rows = run_pipeline(cfg)
    assert [name for name, _ in rows] == ["baseline", "+rerank"]
    expected = k_reciprocal_rerank(
        l2_normalize(qf), l2_normalize(gf), RerankParams(k1=10, k2=3, lam=0.1))
    saved = load_distances(tmp_path / "out" / "distances.dmat")
    assert np.array_equal(saved, expected)
    assert report.map == evaluate(rank_gallery(expected), qm, gm).map


def test_pipeline_lambda_one_rerank_matches_baseline(dataset):
    tmp_path, paths, _ = dataset
    plain, _ = run_pipeline(_base_config(paths, tmp_path))
    degenerate, rows = run_pipeline(
        _base_config(paths, tmp_path, rerank=True, lam=1.0, k1=10, k2=3))
    assert degenerate.map == pytest.approx(plain.map, abs=1e-12)
    assert np.allclose(degenerate.cmc, plain.cmc, atol=1e-12)


def test_pipeline_aqe_stages(dataset):
    tmp_path, paths, (qf, qm, gf, gm) = dataset
    pre, rows_pre = run_pipeline(
        _base_config(paths, tmp_path, aqe=True, aqe_stage="pre", aqe_k=3))
    assert [name for name, _ in rows_pre] == ["baseline", "+aqe"]
    post, rows_post = run_pipeline(
        _base_config(paths, tmp_path, aqe=True, aqe_stage="post", aqe_k=3,
                     rerank=True, k1=10, k2=3))
    assert [name for name, _ in rows_post] == ["baseline", "+rerank", "+aqe"]


def test_pipeline_tta_fuses_before_normalizing(dataset, tmp_path):
    _, paths, (qf, qm, gf, gm) = dataset
    # flipped copies equal the originals, so fusion must not change anything
    flips = {
        "query_flipped": tmp_path / "qf.fvec",
        "gallery_flipped": tmp_path / "gf.fvec",
    }
    save_features(qf, flips["query_flipped"])
    save_features(gf, flips["gallery_flipped"])
    cfg = _base_config(paths, tmp_path, tta=True,
                       query_flipped=str(flips["query_flipped"]),
                       gallery_flipped=str(flips["gallery_flipped"]))
    report, rows = run_pipeline(cfg)
    assert [name for name, _ in rows] == ["baseline", "+tta"]
    assert rows[0][1].map == pytest.approx(rows[1][1].map, abs=1e-12)


def test_pipeline_tta_requires_flipped_paths(dataset):
    tmp_path, paths, _ = dataset
    with pytest.raises(ConfigError, match="flipped"):
        run_pipeline(_base_config(paths, tmp_path, tta=True))


def test_pipeline_ensemble_with_external_matrix(dataset):
    tmp_path, paths, (qf, qm, gf, gm) = dataset
    external = euclidean_distances(l2_normalize(qf), l2_normalize(gf))
    ext_path = tmp_path / "ext.dmat"
    save_distances(external, ext_path)
    cfg = _base_config(paths, tmp_path, ensemble=[str(ext_path)])
    report, rows = run_pipeline(cfg)
    assert [name for name, _ in rows] == ["baseline", "+ensemble"]
    saved = load_distances(tmp_path / "out" / "distances.dmat")
    assert np.allclose(saved, 2.0 * external, atol=1e-6)
    # doubling a matrix never changes its rankings
    assert report.map == rows[0][1].map


@pytest.mark.parametrize("dims,k", [(64, 1), (64, 3), (256, 1), (256, 3)])
def test_pipeline_peak_does_not_grow_with_the_ensemble(tmp_path, dims, k):
    features, meta = generate_synthetic(
        SynthParams(n_ids=500, per_id=12, dims=dims, cluster_spread=0.11, seed=29))
    qf, qm, gf, gm = split_query_gallery(features, meta, 2)
    rng = np.random.default_rng(29)
    paths = {"query_features": tmp_path / "q.fvec", "gallery_features": tmp_path / "g.fvec",
             "query_meta": tmp_path / "q.csv", "gallery_meta": tmp_path / "g.csv"}
    save_features(qf, paths["query_features"])
    save_features(gf, paths["gallery_features"])
    save_meta(qm, paths["query_meta"])
    save_meta(gm, paths["gallery_meta"])
    for name, f in (("query_flipped", qf), ("gallery_flipped", gf)):
        save_features(f + rng.normal(scale=0.03, size=f.shape).astype(np.float32), tmp_path / name)
    ensemble = [str(tmp_path / f"ext{i}.dmat") for i in range(k)]
    for path in ensemble:
        save_distances(rng.random((len(qf), len(gf)), dtype=np.float32), path)
    cfg = _base_config(paths, tmp_path, tta=True, aqe=True, aqe_stage="pre",
                       query_flipped=str(tmp_path / "query_flipped"),
                       gallery_flipped=str(tmp_path / "gallery_flipped"),
                       ensemble=ensemble, normalize_ensemble=True)
    tracemalloc.start()
    try:
        _, rows = run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [name for name, _ in rows] == ["baseline", "+tta", "+aqe", "+ensemble"]
    # the ensemble reads each file a few rows at a time into the pipeline's
    # own matrix, and no stage holds a float64 copy of the gallery; at d=256
    # query expansion sets the peak (2.11x and 4.05x at d=64, k=1 and k=3,
    # with the files loaded whole)
    matrix = len(qf) * len(gf) * 4
    bound = 1.5 if dims == 64 else 2.1
    assert peak <= bound * matrix, f"peak {peak / matrix:.2f} x nq*ng*4"


def test_pipeline_cosine_metric(dataset):
    tmp_path, paths, (qf, qm, gf, gm) = dataset
    report, _ = run_pipeline(_base_config(paths, tmp_path, metric="cosine"))
    direct = evaluate(
        rank_gallery(cosine_distances(l2_normalize(qf), l2_normalize(gf))), qm, gm)
    assert report.map == direct.map


def test_pipeline_missing_inputs_and_stage_labels(dataset):
    tmp_path, paths, _ = dataset
    cfg = _base_config(paths, tmp_path, query_features="")
    with pytest.raises(ConfigError, match="query_features"):
        run_pipeline(cfg)
    broken = tmp_path / "broken.fvec"
    broken.write_bytes(b"JUNKJUNKJUNK")
    cfg2 = _base_config(paths, tmp_path, query_features=str(broken))
    with pytest.raises(FormatError, match=r"\[stage load\]"):
        run_pipeline(cfg2)


def test_pipeline_ablation_write_failure_is_io_error(dataset, capsys):
    tmp_path, paths, _ = dataset
    cfg = _base_config(paths, tmp_path)
    (tmp_path / "out" / "ablation.txt").mkdir(parents=True)
    with pytest.raises(IoError, match="ablation"):
        run_pipeline(cfg)
    args = ["pipeline", "--out-dir", cfg.out_dir]
    for key, path in paths.items():
        args += ["--" + key.replace("_", "-"), str(path)]
    assert main(args) == 3
    capsys.readouterr()


def test_pipeline_is_deterministic(dataset):
    tmp_path, paths, _ = dataset
    cfg_a = _base_config(paths, tmp_path, rerank=True, k1=10, k2=3, out_dir=str(tmp_path / "out_a"))
    cfg_b = _base_config(paths, tmp_path, rerank=True, k1=10, k2=3, out_dir=str(tmp_path / "out_b"))
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    a = (tmp_path / "out_a" / "distances.dmat").read_bytes()
    b = (tmp_path / "out_b" / "distances.dmat").read_bytes()
    assert a == b
    assert (tmp_path / "out_a" / "report.txt").read_text() == \
        (tmp_path / "out_b" / "report.txt").read_text()


def test_cli_pipeline_flags_override_config(dataset, capsys):
    tmp_path, paths, _ = dataset
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        f"query_features = {paths['query_features']}\n"
        f"gallery_features = {paths['gallery_features']}\n"
        f"query_meta = {paths['query_meta']}\n"
        f"gallery_meta = {paths['gallery_meta']}\n"
        f"out_dir = {tmp_path / 'cli_out'}\n"
        "rerank = false\n"
    )
    code = main(["pipeline", "--config", str(cfg_file), "--rerank",
                 "--k1", "10", "--k2", "3"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("baseline")
    assert lines[1].startswith("+rerank")
    assert (tmp_path / "cli_out" / "ablation.txt").exists()


def test_cli_exit_codes(dataset, tmp_path, capsys):
    _, paths, _ = dataset
    # config error -> 2
    assert main(["rerank", "--query", str(paths["query_features"]),
                 "--gallery", str(paths["gallery_features"]),
                 "--k1", "0", "--out", str(tmp_path / "o.dmat")]) == 2
    # a malformed number is rejected by argparse -> 2
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--k1", "ten"])
    assert exc.value.code == 2
    # missing file -> 3
    assert main(["distances", "--query", str(tmp_path / "no.fvec"),
                 "--gallery", str(paths["gallery_features"]),
                 "--out", str(tmp_path / "o.dmat")]) == 3
    # format error -> 3
    bad = tmp_path / "bad.fvec"
    bad.write_bytes(b"XXXX" + bytes(8))
    assert main(["distances", "--query", str(bad),
                 "--gallery", str(paths["gallery_features"]),
                 "--out", str(tmp_path / "o.dmat")]) == 3
    # evaluation error -> 4: gallery shares no identity with the queries
    d = tmp_path / "d.dmat"
    save_distances(np.array([[0.5]], dtype=np.float32), d)
    qm, gm = tmp_path / "qm.csv", tmp_path / "gm.csv"
    qm.write_text("image_id,person_id,camera_id\nq0,1,0\n")
    gm.write_text("image_id,person_id,camera_id\ng0,2,0\n")
    assert main(["eval", "--distances", str(d),
                 "--query-meta", str(qm), "--gallery-meta", str(gm)]) == 4
    capsys.readouterr()


def test_cli_synth_distances_eval_chain(tmp_path, capsys):
    prefix = tmp_path / "data"
    assert main(["synth", "--n-ids", "6", "--per-id", "4", "--dims", "8",
                 "--seed", "42", "--out-prefix", str(prefix),
                 "--query-per-id", "1"]) == 0
    assert main(["distances", "--query", f"{prefix}_query.fvec",
                 "--gallery", f"{prefix}_gallery.fvec",
                 "--l2-normalize", "--out", str(tmp_path / "d.dmat")]) == 0
    assert main(["eval", "--distances", str(tmp_path / "d.dmat"),
                 "--query-meta", f"{prefix}_query.csv",
                 "--gallery-meta", f"{prefix}_gallery.csv"]) == 0
    out = capsys.readouterr().out
    assert "mAP" in out


def test_cli_loss_check_and_mine(tmp_path, capsys):
    prefix = tmp_path / "data"
    main(["synth", "--n-ids", "4", "--per-id", "4", "--dims", "6",
          "--seed", "7", "--out-prefix", str(prefix)])
    assert main(["loss-check", "--features", f"{prefix}.fvec",
                 "--meta", f"{prefix}.csv", "--grad-check"]) == 0
    out = capsys.readouterr().out
    assert "triplet" in out and "gradient check" in out
    assert main(["mine", "--features", f"{prefix}.fvec",
                 "--meta", f"{prefix}.csv",
                 "--out", str(tmp_path / "mine.csv")]) == 0
    lines = (tmp_path / "mine.csv").read_text().strip().splitlines()
    assert lines[0] == "image_id,loss,class"
    assert len(lines) == 17
