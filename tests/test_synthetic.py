import tracemalloc

import numpy as np
import pytest

from reidkit import (
    ConfigError,
    SynthParams,
    euclidean_distances,
    evaluate,
    generate_synthetic,
    rank_gallery,
    save_features,
    split_query_gallery,
)


def test_shapes_labels_and_camera_pattern():
    params = SynthParams(n_ids=6, per_id=4, dims=10, seed=3)
    features, meta = generate_synthetic(params)
    assert features.shape == (24, 10)
    assert features.dtype == np.float32
    assert len(meta) == 24
    assert meta.person_ids.tolist() == [i // 4 for i in range(24)]
    assert meta.camera_ids.tolist() == [i % 4 % 2 for i in range(24)]
    assert meta.image_ids[0] == "id0000_img000"
    assert meta.image_ids[5] == "id0001_img001"


def test_same_seed_reproduces_bytes(tmp_path):
    params = SynthParams(n_ids=5, per_id=3, dims=8, seed=99)
    f1, m1 = generate_synthetic(params)
    f2, m2 = generate_synthetic(params)
    assert np.array_equal(f1, f2)
    assert m1 == m2
    a, b = tmp_path / "a.fvec", tmp_path / "b.fvec"
    save_features(f1, a)
    save_features(f2, b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ():
    f1, _ = generate_synthetic(SynthParams(n_ids=4, per_id=3, dims=6, seed=1))
    f2, _ = generate_synthetic(SynthParams(n_ids=4, per_id=3, dims=6, seed=2))
    assert not np.array_equal(f1, f2)


def test_tiny_spread_gives_perfect_retrieval():
    params = SynthParams(n_ids=8, per_id=4, dims=16, cluster_spread=1e-4, seed=5)
    features, meta = generate_synthetic(params)
    qf, qm, gf, gm = split_query_gallery(features, meta, 1)
    report = evaluate(rank_gallery(euclidean_distances(qf, gf)), qm, gm)
    assert report.map == 1.0
    assert report.cmc[0] == 1.0


def test_wider_spread_lowers_map():
    def run(spread):
        features, meta = generate_synthetic(
            SynthParams(n_ids=10, per_id=6, dims=12, cluster_spread=spread, seed=7))
        qf, qm, gf, gm = split_query_gallery(features, meta, 2)
        return evaluate(rank_gallery(euclidean_distances(qf, gf)), qm, gm).map

    assert run(0.05) > run(1.0)


def test_noise_relabels_exact_count():
    params = SynthParams(n_ids=10, per_id=10, dims=4, noise_frac=0.13, seed=11)
    _, meta = generate_synthetic(params)
    original = np.repeat(np.arange(10), 10)
    changed = int(np.sum(meta.person_ids != original))
    assert changed == round(0.13 * 100)
    # relabeled entries must point at a *different* existing identity
    assert np.all(meta.person_ids >= 0)
    assert np.all(meta.person_ids < 10)


def test_noise_frac_zero_keeps_labels():
    _, meta = generate_synthetic(SynthParams(n_ids=4, per_id=5, dims=4, seed=13))
    assert meta.person_ids.tolist() == [i // 5 for i in range(20)]


def test_param_validation():
    for kwargs in [
        dict(n_ids=1),
        dict(per_id=1),
        dict(dims=0),
        dict(cluster_spread=0.0),
        dict(noise_frac=1.5),
    ]:
        with pytest.raises(ConfigError):
            generate_synthetic(SynthParams(**kwargs))


def test_split_routes_first_k_per_identity():
    params = SynthParams(n_ids=3, per_id=5, dims=4, seed=17)
    features, meta = generate_synthetic(params)
    qf, qm, gf, gm = split_query_gallery(features, meta, 2)
    assert len(qm) == 6
    assert len(gm) == 9
    assert qm.person_ids.tolist() == [0, 0, 1, 1, 2, 2]
    assert gm.person_ids.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    # feature rows stay aligned with their metadata rows
    assert np.array_equal(qf[0], features[0])
    assert np.array_equal(gf[0], features[2])
    # disjoint and exhaustive
    assert set(qm.image_ids).isdisjoint(gm.image_ids)
    assert len(set(qm.image_ids) | set(gm.image_ids)) == 15

    # identities interleaved and shuffled, with label noise: the first k rows
    # of each person id in table order, as a per-row loop routes them
    features, meta = generate_synthetic(SynthParams(n_ids=6, per_id=5, dims=4, noise_frac=0.3, seed=5))
    order = np.random.default_rng(5).permutation(len(meta))
    features, meta = features[order], meta.subset(order)
    seen, want_q, want_g = {}, [], []
    for i, row in enumerate(meta):
        seen[row.person_id] = seen.get(row.person_id, 0) + 1
        (want_q if seen[row.person_id] <= 2 else want_g).append(i)
    qf, qm, gf, gm = split_query_gallery(features, meta, 2)
    assert qm == meta.subset(want_q) and gm == meta.subset(want_g)
    assert np.array_equal(qf, features[want_q]) and np.array_equal(gf, features[want_g])


def test_split_validation():
    features, meta = generate_synthetic(SynthParams(n_ids=2, per_id=3, dims=4, seed=19))
    with pytest.raises(ConfigError):
        split_query_gallery(features, meta, 0)
    with pytest.raises(ConfigError):
        split_query_gallery(features, meta, 3)  # leaves the gallery empty


def test_split_rejects_metadata_of_another_length():
    features, meta = generate_synthetic(SynthParams(n_ids=5, per_id=4, dims=4, seed=23))
    for rows in (np.vstack([features, features]), features[:10]):
        with pytest.raises(ConfigError, match="metadata length") as err:
            split_query_gallery(rows, meta, 1)
        assert err.value.exit_code == 2


def test_features_are_filled_without_a_float64_copy():
    params = SynthParams(n_ids=100, per_id=20, dims=512, seed=4)
    tracemalloc.start()
    try:
        features, _ = generate_synthetic(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * features.nbytes, f"peak {peak / features.nbytes:.2f} x the features"
