"""The `reidkit` command line: its option inventory, and that each
subcommand gives what the library calls behind it give."""

import argparse

import numpy as np
import pytest

from reidkit import (
    AqeParams,
    CombinedParams,
    EraseParams,
    FillMode,
    LgtParams,
    RerankParams,
    SynthParams,
    aqe_expand,
    combined_loss,
    generate_synthetic,
    k_reciprocal_rerank,
    load_meta,
    load_ppm,
    local_grayscale,
    make_rng,
    partition_samples,
    per_sample_losses,
    random_erase,
    save_distances,
    save_features,
    save_meta,
    save_mining_report,
    save_ppm,
    split_query_gallery,
    thresholds_from_quantiles,
    triplet_loss_batch_hard,
)
from reidkit.cli import build_parser, main

# Every option string of every subcommand, in order, with its choice values.
FLAG_INVENTORY = {
    "synth": ["--n-ids", "--per-id", "--dims", "--spread", "--noise-frac", "--seed",
              "--out-prefix", "--query-per-id"],
    "distances": ["--query", "--gallery", ("--metric", ["euclidean", "cosine"]),
                  "--l2-normalize", "--out"],
    "rerank": ["--query", "--gallery", "--k1", "--k2", "--lambda", "--l2-normalize", "--out"],
    "aqe": ["--query", "--gallery", "--k", "--alpha", "--out"],
    "ensemble": ["--normalize", "--out"],
    "eval": ["--distances", "--query-meta", "--gallery-meta", "--exclude-same-camera",
             "--topk", "--out-report", "--out-cmc"],
    "mine": ["--features", "--meta", "--margin", "--q-hard", "--q-noise", "--t-hard",
             "--t-noise", "--losses", "--out"],
    "augment": [("--op", ["flip", "erase", "lgt"]), "--input", "--out", "--seed",
                "--probability", "--area-low", "--area-high", "--aspect-low",
                "--aspect-high", ("--fill", ["random-per-pixel", "channel-mean"])],
    "loss-check": ["--features", "--meta", "--margin", "--m", "--gamma", "--w-triplet",
                   "--w-circle", "--grad-check"],
    "pipeline": ["--config", "--query-features", "--gallery-features", "--query-meta",
                 "--gallery-meta", "--query-flipped", "--gallery-flipped", "--tta", "--aqe",
                 "--rerank", "--ensemble", "--normalize-ensemble",
                 ("--metric", ["euclidean", "cosine"]), "--k1", "--k2", "--lambda",
                 "--aqe-k", "--aqe-alpha", ("--aqe-stage", ["pre", "post"]),
                 "--exclude-same-camera", "--topk", "--out-dir"],
}


def test_flag_inventory_is_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {}
    for name, parser in sub.choices.items():
        found[name] = []
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction) or not action.option_strings:
                continue
            (flag,) = action.option_strings
            if action.choices is None:
                found[name].append(flag)
            else:
                found[name].append((flag, [getattr(c, "value", c) for c in action.choices]))
    assert found == FLAG_INVENTORY
    assert list(sub.choices) == list(FLAG_INVENTORY)  # the order `reidkit --help` lists them in


@pytest.fixture()
def split(tmp_path):
    features, meta = generate_synthetic(
        SynthParams(n_ids=6, per_id=5, dims=8, cluster_spread=0.3, seed=5))
    qf, qm, gf, gm = split_query_gallery(features, meta, 1)
    save_features(qf, tmp_path / "q.fvec")
    save_features(gf, tmp_path / "g.fvec")
    return tmp_path, qf, gf


def test_synth_spread_matches_library(tmp_path, capsys):
    prefix = tmp_path / "cli"
    assert main(["synth", "--n-ids", "5", "--per-id", "4", "--dims", "6", "--spread", "0.2",
                 "--noise-frac", "0.1", "--seed", "3", "--out-prefix", str(prefix)]) == 0
    features, meta = generate_synthetic(SynthParams(
        n_ids=5, per_id=4, dims=6, cluster_spread=0.2, noise_frac=0.1, seed=3))
    save_features(features, tmp_path / "lib.fvec")
    save_meta(meta, tmp_path / "lib.csv")
    assert (tmp_path / "cli.fvec").read_bytes() == (tmp_path / "lib.fvec").read_bytes()
    assert load_meta(tmp_path / "cli.csv") == meta
    capsys.readouterr()


def test_rerank_lambda_matches_library(split, capsys):
    tmp_path, qf, gf = split
    for flags, params in (
        ([], RerankParams()),
        (["--k1", "4", "--k2", "2", "--lambda", "0.3"], RerankParams(k1=4, k2=2, lam=0.3)),
    ):
        out = tmp_path / "cli.dmat"
        assert main(["rerank", "--query", str(tmp_path / "q.fvec"),
                     "--gallery", str(tmp_path / "g.fvec"), *flags, "--out", str(out)]) == 0
        save_distances(k_reciprocal_rerank(qf, gf, params), tmp_path / "lib.dmat")
        assert out.read_bytes() == (tmp_path / "lib.dmat").read_bytes()
    capsys.readouterr()


def test_aqe_k_alpha_match_library(split, capsys):
    tmp_path, qf, gf = split
    for flags, params in (
        ([], AqeParams()),
        (["--k", "2", "--alpha", "1.5"], AqeParams(k=2, alpha=1.5)),
    ):
        out = tmp_path / "cli.fvec"
        assert main(["aqe", "--query", str(tmp_path / "q.fvec"),
                     "--gallery", str(tmp_path / "g.fvec"), *flags, "--out", str(out)]) == 0
        save_features(aqe_expand(qf, gf, params), tmp_path / "lib.fvec")
        assert out.read_bytes() == (tmp_path / "lib.fvec").read_bytes()
    capsys.readouterr()


def test_augment_erase_and_lgt_match_library(tmp_path, capsys):
    img = np.random.default_rng(3).integers(0, 256, size=(30, 20, 3)).astype(np.uint8)
    save_ppm(img, tmp_path / "in.ppm")
    erased, _ = random_erase(
        img, EraseParams(probability=1.0, fill=FillMode.CHANNEL_MEAN), make_rng(9))
    gray, _ = local_grayscale(img, LgtParams(probability=1.0, area_low=0.1), make_rng(9))
    for flags, expected in (
        (["--op", "erase", "--fill", "channel-mean"], erased),
        (["--op", "lgt", "--area-low", "0.1"], gray),
    ):
        out = tmp_path / "out.ppm"
        assert main(["augment", *flags, "--probability", "1.0", "--seed", "9",
                     "--input", str(tmp_path / "in.ppm"), "--out", str(out)]) == 0
        assert np.array_equal(load_ppm(out), expected)
    capsys.readouterr()


def test_loss_check_weights_match_library(tmp_path, capsys):
    features, meta = generate_synthetic(SynthParams(n_ids=4, per_id=4, dims=6, seed=7))
    save_features(features, tmp_path / "f.fvec")
    save_meta(meta, tmp_path / "f.csv")
    capsys.readouterr()
    assert main(["loss-check", "--features", str(tmp_path / "f.fvec"),
                 "--meta", str(tmp_path / "f.csv"), "--w-circle", "0"]) == 0
    words = capsys.readouterr().out.split()
    labels = meta.person_ids
    triplet, _ = triplet_loss_batch_hard(features, labels)
    total = combined_loss(features, labels, CombinedParams(w_circle=0.0))
    assert words[1] == f"{triplet:.6f}"
    assert words[5] == f"{total:.6f}"
    assert total == pytest.approx(triplet, abs=1e-12)


def test_mine_losses_file_matches_library(tmp_path, capsys):
    features, meta = generate_synthetic(SynthParams(n_ids=4, per_id=4, dims=6, seed=7))
    losses = per_sample_losses(features, meta).astype(np.float32)
    save_meta(meta, tmp_path / "m.csv")
    save_features(losses[None, :], tmp_path / "l.fvec")
    for flags, thresholds in (
        ([], thresholds_from_quantiles(losses)),
        (["--q-hard", "0.5"], thresholds_from_quantiles(losses, q_hard=0.5)),
    ):
        out = tmp_path / "cli.csv"
        # --features is not needed when the losses are given
        assert main(["mine", "--meta", str(tmp_path / "m.csv"),
                     "--losses", str(tmp_path / "l.fvec"), *flags, "--out", str(out)]) == 0
        save_mining_report(partition_samples(losses, thresholds), meta, tmp_path / "lib.csv")
        assert out.read_text() == (tmp_path / "lib.csv").read_text()
    capsys.readouterr()


def test_mine_rejects_bad_loss_sources(tmp_path, capsys):
    _, meta = generate_synthetic(SynthParams(n_ids=4, per_id=4, dims=6, seed=7))
    save_meta(meta, tmp_path / "m.csv")
    save_features(np.ones((2, 8), dtype=np.float32), tmp_path / "two_rows.fvec")
    base = ["mine", "--meta", str(tmp_path / "m.csv"), "--out", str(tmp_path / "out.csv")]
    assert main(base + ["--losses", str(tmp_path / "two_rows.fvec")]) == 3
    assert main(base) == 2
    assert not (tmp_path / "out.csv").exists()
    capsys.readouterr()


def test_mine_rejects_a_negative_margin_by_name(tmp_path, capsys):
    features, meta = generate_synthetic(SynthParams(n_ids=4, per_id=4, dims=6, seed=7))
    save_features(features, tmp_path / "f.fvec")
    save_meta(meta, tmp_path / "m.csv")
    capsys.readouterr()
    assert main(["mine", "--features", str(tmp_path / "f.fvec"), "--meta", str(tmp_path / "m.csv"),
                 "--margin", "-1", "--out", str(tmp_path / "out.csv")]) == 2
    assert "margin must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--rerank", "--k1", "0"],
    ["--aqe", "--aqe-alpha", "-1"],
    ["--k2", "30"],  # re-ranking disabled: its keys are still checked
    ["--aqe-k", "-1"],
    ["--topk", "0"],
])
def test_pipeline_checks_params_before_reading_any_input(tmp_path, capsys, flags):
    missing = [str(tmp_path / name) for name in ("q.fvec", "g.fvec", "q.csv", "g.csv")]
    code = main(["pipeline", "--query-features", missing[0], "--gallery-features", missing[1],
                 "--query-meta", missing[2], "--gallery-meta", missing[3], *flags,
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "cannot read" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rerank", "--query", "q.fvec", "--gallery", "g.fvec", "--k1", "0", "--out", "o.dmat"],
    ["aqe", "--query", "q.fvec", "--gallery", "g.fvec", "--k", "-1", "--out", "o.fvec"],
    ["eval", "--distances", "d.dmat", "--query-meta", "q.csv", "--gallery-meta", "g.csv",
     "--topk", "0"],
    ["mine", "--features", "f.fvec", "--meta", "m.csv", "--margin", "-1", "--out", "o.csv"],
    ["mine", "--features", "f.fvec", "--meta", "m.csv", "--t-hard", "2", "--t-noise", "1",
     "--out", "o.csv"],
    ["mine", "--losses", "l.fvec", "--meta", "m.csv", "--q-hard", "0.99", "--out", "o.csv"],
    ["loss-check", "--features", "f.fvec", "--meta", "m.csv", "--gamma", "-1"],
    ["augment", "--op", "erase", "--probability", "2", "--input", "in.ppm", "--out", "o.ppm"],
    ["augment", "--op", "lgt", "--probability", "2", "--input", "in.ppm", "--out", "o.ppm"],
    ["augment", "--op", "flip", "--seed", "-1", "--input", "in.ppm", "--out", "o.ppm"],
], ids=["rerank-k1", "aqe-k", "eval-topk", "mine-margin", "mine-thresholds", "mine-quantiles",
        "loss-check-gamma", "augment-erase", "augment-lgt", "augment-seed"])
def test_subcommands_check_params_before_reading_any_input(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # every input named is missing
    assert main(argv) == 2
    assert "cannot read" not in capsys.readouterr().err


def test_ignored_params_are_not_checked(tmp_path, capsys):
    save_ppm(np.zeros((4, 4, 3), dtype=np.uint8), tmp_path / "in.ppm")
    assert main(["augment", "--op", "flip", "--probability", "2",
                 "--input", str(tmp_path / "in.ppm"), "--out", str(tmp_path / "out.ppm")]) == 0
    save_features(np.linspace(0.0, 1.0, 16, dtype=np.float32)[None], tmp_path / "l.fvec")
    _, meta = generate_synthetic(SynthParams(n_ids=4, per_id=4, dims=6, seed=7))
    save_meta(meta, tmp_path / "m.csv")
    assert main(["mine", "--losses", str(tmp_path / "l.fvec"), "--meta", str(tmp_path / "m.csv"),
                 "--margin", "-1", "--t-hard", "0.2", "--t-noise", "0.9", "--q-hard", "2",
                 "--out", str(tmp_path / "out.csv")]) == 0
    capsys.readouterr()


def test_pipeline_out_dir_below_a_file_exits_3(tmp_path, capsys):
    features, meta = generate_synthetic(SynthParams(n_ids=4, per_id=4, dims=6, seed=7))
    qf, qm, gf, gm = split_query_gallery(features, meta, 1)
    for name, f, m in (("q", qf, qm), ("g", gf, gm)):
        save_features(f, tmp_path / f"{name}.fvec")
        save_meta(m, tmp_path / f"{name}.csv")
    (tmp_path / "afile").write_bytes(b"")
    code = main(["pipeline", "--query-features", str(tmp_path / "q.fvec"),
                 "--gallery-features", str(tmp_path / "g.fvec"),
                 "--query-meta", str(tmp_path / "q.csv"), "--gallery-meta", str(tmp_path / "g.csv"),
                 "--out-dir", str(tmp_path / "afile" / "sub")])
    assert code == 3
    assert "[stage write] cannot create" in capsys.readouterr().err


def test_negative_seeds_exit_2(tmp_path, capsys):
    save_ppm(np.zeros((4, 4, 3), dtype=np.uint8), tmp_path / "in.ppm")
    assert main(["synth", "--seed", "-1", "--out-prefix", str(tmp_path / "s")]) == 2
    assert main(["augment", "--op", "erase", "--seed", "-3", "--input", str(tmp_path / "in.ppm"),
                 "--out", str(tmp_path / "out.ppm")]) == 2
    assert capsys.readouterr().err.count("seed must be >= 0") == 2
    assert not (tmp_path / "s.fvec").exists()
    assert not (tmp_path / "out.ppm").exists()
