import math
import tracemalloc

import numpy as np
import pytest

from naive_reference import naive_aqe, naive_rerank
from reidkit import (
    AqeParams,
    ConfigError,
    DataError,
    RerankParams,
    ShapeError,
    SynthParams,
    aqe_expand,
    ensemble_distances,
    euclidean_distances,
    generate_synthetic,
    k_reciprocal_rerank,
    l2_normalize,
    load_distances,
    open_distances,
    save_distances,
)
from reidkit.geometry import BLOCK_ROWS, chunk_rows, row_blocks
from reidkit.rerank import _expanded_sets, _jaccard_blend, _local_query_expansion, _neighbours, _reciprocal_pairs


def _clustered(rng, n_ids, per_id, dims, spread=0.35):
    centers = rng.normal(size=(n_ids, dims))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = np.concatenate(
        [c + rng.normal(scale=spread, size=(per_id, dims)) for c in centers]
    )
    return rows.astype(np.float32)


def test_rerank_matches_naive_reference():
    rng = np.random.default_rng(51)
    for trial in range(5):
        data = _clustered(rng, n_ids=5, per_id=8, dims=8)
        q, g = data[:10], data[10:]
        params = RerankParams(k1=8, k2=3, lam=0.1)
        got = k_reciprocal_rerank(q, g, params)
        ref = naive_rerank(q, g, 8, 3, 0.1)
        assert got.shape == ref.shape
        assert np.abs(got.astype(np.float64) - ref).max() < 1e-5, f"trial {trial}"


def test_rerank_other_parameter_corners_match_naive():
    rng = np.random.default_rng(52)
    data = _clustered(rng, n_ids=4, per_id=6, dims=5)
    q, g = data[:8], data[8:]
    for k1, k2, lam in [(3, 1, 0.0), (5, 5, 0.5), (12, 4, 0.9), (4, 2, 1.0)]:
        got = k_reciprocal_rerank(q, g, RerankParams(k1=k1, k2=k2, lam=lam))
        ref = naive_rerank(q, g, k1, k2, lam)
        assert np.abs(got.astype(np.float64) - ref).max() < 1e-5, (k1, k2, lam)


def test_rerank_lambda_one_is_identity():
    rng = np.random.default_rng(53)
    q = rng.normal(size=(6, 7)).astype(np.float32)
    g = rng.normal(size=(14, 7)).astype(np.float32)
    out = k_reciprocal_rerank(q, g, RerankParams(k1=5, k2=2, lam=1.0))
    base = euclidean_distances(q, g)
    assert np.abs(out - base).max() < 1e-7


def test_rerank_self_match_dominates():
    rng = np.random.default_rng(54)
    g = rng.normal(size=(6, 4)).astype(np.float32)
    q = g[2:3].copy()
    out = k_reciprocal_rerank(q, g, RerankParams(k1=2, k2=1, lam=0.1))
    assert int(np.argmin(out[0])) == 2


def test_rerank_output_bounds():
    rng = np.random.default_rng(55)
    data = _clustered(rng, n_ids=3, per_id=7, dims=6)
    q, g = data[:6], data[6:]
    lam = 0.3
    out = k_reciprocal_rerank(q, g, RerankParams(k1=6, k2=2, lam=lam))
    orig = euclidean_distances(q, g)
    assert np.all(out >= 0.0)
    assert np.all(out <= (1.0 - lam) + lam * orig.max() + 1e-6)


def test_rerank_gallery_permutation_equivariance():
    rng = np.random.default_rng(56)
    data = _clustered(rng, n_ids=3, per_id=6, dims=5)
    q, g = data[:5], data[5:]
    params = RerankParams(k1=6, k2=2, lam=0.1)
    base = k_reciprocal_rerank(q, g, params)
    perm = rng.permutation(g.shape[0])
    permuted = k_reciprocal_rerank(q, g[perm], params)
    assert np.allclose(permuted, base[:, perm], atol=1e-6)


def test_rerank_parameter_validation():
    q = np.zeros((2, 3), dtype=np.float32)
    g = np.ones((4, 3), dtype=np.float32)
    for kwargs in [
        dict(k1=0),
        dict(k1=2, k2=3),
        dict(k1=6, k2=1),         # k1 must stay below q+g count
        dict(lam=-0.1),
        dict(k1=3, k2=1, lam=1.2),
    ]:
        with pytest.raises(ConfigError):
            k_reciprocal_rerank(q, g, RerankParams(**kwargs))


def _hostile_sets(rng):
    """Valid inputs that stress ties and set sizes: (name, features)."""
    n = int(rng.integers(10, 26))
    d = int(rng.integers(2, 6))
    base = rng.normal(size=(max(2, n // 3), d)).astype(np.float32)
    centre = rng.normal(size=(1, d))
    return [
        ("duplicate rows", base[rng.integers(0, len(base), size=n)]),
        ("integer grid", rng.integers(0, 3, size=(n, d)).astype(np.float32)),
        ("single cluster", (centre + 0.01 * rng.normal(size=(n, d))).astype(np.float32)),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_rerank_matches_naive_on_hostile_inputs(seed):
    rng = np.random.default_rng(300 + seed)
    for name, data in _hostile_sets(rng):
        n = len(data)
        nq = int(rng.integers(1, n - 1))
        q, g = data[:nq], data[nq:]
        for k1, k2, lam in [(n - 1, 2, 0.1), (n - 1, n - 1, 0.0), (6, 6, 1.0), (4, 1, 0.0), (7, 3, 0.3)]:
            got = k_reciprocal_rerank(q, g, RerankParams(k1=k1, k2=k2, lam=lam))
            ref = naive_rerank(q, g, k1, k2, lam)
            assert np.abs(got.astype(np.float64) - ref).max() < 1e-5, (name, k1, k2, lam)


def test_neighbour_lists_equal_a_stable_full_sort():
    rng = np.random.default_rng(310)
    # non-square blocks too, so indices split by the wrong dimension fail
    for rows, cols in [(300, 300), (300, 1000), (700, 40)]:
        for dist in [
            rng.integers(0, 4, size=(rows, cols)).astype(np.float64),  # heavy ties
            rng.integers(0, 3, size=(rows, cols)).astype(np.float32),
            rng.random((rows, cols)),
            np.zeros((rows, cols)),
        ]:
            for k in (1, 7, cols - 1):
                expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
                assert np.array_equal(_neighbours(dist, k), expected), (rows, cols, k)


def _reciprocal_lists(order, k):
    """R(p, k) of every p in neighbour order, from the stable full sort ``order``."""
    near = [set(row[:k].tolist()) for row in order]
    return [[x for x in order[p, :k].tolist() if p in near[x]] for p in range(len(order))]


@pytest.mark.parametrize("kind", ["integer grid", "duplicate rows"])
def test_reciprocal_and_expanded_sets_equal_python_sets(kind):
    rng = np.random.default_rng(314)
    n = 2 * BLOCK_ROWS + 88  # three blocks of rows of p
    if kind == "integer grid":
        feats = rng.integers(0, 3, size=(n, 4)).astype(np.float32)
    else:
        feats = rng.normal(size=(n // 4, 6)).astype(np.float32)[rng.integers(0, n // 4, size=n)]
    dist = euclidean_distances(feats, feats)
    order = np.argsort(dist, axis=1, kind="stable")
    for k1 in (20, 7):
        top = order[:, :k1]
        r_k1 = _reciprocal_lists(order, k1)
        r_half = _reciprocal_lists(order, math.ceil(k1 / 2))
        for k, lists in [(k1, r_k1), (math.ceil(k1 / 2), r_half)]:
            rp, rx = _reciprocal_pairs(top[:, :k], dist)
            assert list(zip(rp.tolist(), rx.tolist())) == [(p, x) for p in range(n) for x in lists[p]], k
        expanded = []
        for p in range(n):
            grown = set(r_k1[p])
            for c in r_k1[p]:
                if len(set(r_half[c]) & set(r_k1[p])) >= (2.0 / 3.0) * len(r_half[c]):
                    grown |= set(r_half[c])
            expanded.extend((p, x) for x in sorted(grown))
        vp, vx = _expanded_sets(top, dist)
        assert list(zip(vp.tolist(), vx.tolist())) == expanded, k1


def test_local_query_expansion_and_jaccard_blend_across_blocks():
    rng = np.random.default_rng(316)
    # more rows than one block, and more query rows than chunk_rows(ng)
    n, nq, k2 = 400, 200, 3
    assert n > BLOCK_ROWS and nq > chunk_rows(n - nq)
    dense = np.where(rng.random((n, n)) < 0.05, rng.random((n, n)), 0.0)
    vp, vx = np.nonzero(dense)
    nb = np.argsort(rng.random((n, n)), axis=1)[:, :k2]
    vp, vx, vv = _local_query_expansion(vp, vx, dense[vp, vx], nb)
    # each row the mean of its neighbours' rows, added in neighbour order
    mean = sum(dense[nb[:, j]] for j in range(k2)) / k2
    assert np.array_equal(vp * n + vx, np.flatnonzero(mean))
    assert np.array_equal(vv, mean[vp, vx])
    orig = rng.random((nq, n - nq)).astype(np.float32)
    mins = np.array([np.minimum(row, mean[nq:]).sum(axis=1) for row in mean[:nq]])
    maxs = np.array([np.maximum(row, mean[nq:]).sum(axis=1) for row in mean[:nq]])
    jaccard = np.where(maxs > 0.0, 1.0 - mins / np.where(maxs > 0.0, maxs, 1.0), 1.0)
    expected = np.maximum(0.7 * jaccard + 0.3 * orig, 0.0)
    assert np.allclose(_jaccard_blend(vp, vx, vv, orig, 0.3), expected, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("source", ["synthetic", "random", "n1920"])
def test_rerank_peak_memory_stays_near_the_distance_matrix(source):
    if source == "synthetic":
        features, _ = generate_synthetic(SynthParams(n_ids=84, per_id=12, dims=64, seed=3))
        data = l2_normalize(features)
    elif source == "random":
        data = l2_normalize(np.random.default_rng(311).normal(size=(1000, 32)))
    else:  # the rerank-n2k shape
        features, _ = generate_synthetic(SynthParams(n_ids=160, per_id=12, dims=128, cluster_spread=0.14, seed=1))
        data = l2_normalize(features)
    nq = 320 if source == "n1920" else 200
    q, g = data[:nq], data[nq:]
    n = len(data)
    tracemalloc.start()
    try:
        k_reciprocal_rerank(q, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 n x n distances plus block-sized and V-sized temporaries:
    # local query expansion merges one block of rows at a time, and the
    # Jaccard term and blend are a few query rows in size (2.48, 2.43 and
    # 1.84 x n^2 float32 with whole-V merges and 256-row Jaccard blocks)
    bound = 1.6 if source == "n1920" else 2.0
    assert peak < bound * n * n * 4, f"peak {peak / (n * n * 4):.2f} x n^2 float32"


def test_rerank_peak_memory_with_few_queries_stays_below_n_squared_float64():
    data = l2_normalize(np.random.default_rng(313).normal(size=(4000, 64)))
    q, g = data[:100], data[100:]
    n = len(data)
    tracemalloc.start()
    try:
        k_reciprocal_rerank(q, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8, f"peak {peak / (n * n * 8):.2f} x n^2 float64"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rerank_and_aqe_reject_non_finite_features(bad):
    rng = np.random.default_rng(312)
    q = rng.normal(size=(3, 4)).astype(np.float32)
    g = rng.normal(size=(9, 4)).astype(np.float32)
    tall = rng.normal(size=(BLOCK_ROWS + 3, 4)).astype(np.float32)
    # row 1 of a small side, or a row in the second block of a tall side
    for side, pair, row in ((0, (q, g), 1), (1, (q, g), 1),
                            (0, (tall, g), BLOCK_ROWS + 1), (1, (q, tall), BLOCK_ROWS + 1)):
        qb, gb = (m.copy() for m in pair)
        (qb, gb)[side][row, 2] = bad
        with pytest.raises(DataError):
            k_reciprocal_rerank(qb, gb, RerankParams(k1=4, k2=2))
        for k in (2, 0):  # k=0 returns the queries, but only after checking g
            with pytest.raises(DataError):
                aqe_expand(qb, gb, AqeParams(k=k))


def test_rerank_rejects_features_that_overflow_float32():
    q = np.array([[1e39, 0.0]])
    g = np.zeros((4, 2))
    with pytest.raises(DataError):
        k_reciprocal_rerank(q, g, RerankParams(k1=2, k2=1))


def test_rerank_rejects_incompatible_shapes():
    params = RerankParams(k1=2, k2=1)
    with pytest.raises(ShapeError):
        k_reciprocal_rerank(np.zeros((2, 3)), np.zeros((5, 4)), params)
    with pytest.raises(ShapeError):
        k_reciprocal_rerank(np.zeros(3), np.zeros((5, 3)), params)


def test_aqe_matches_naive_loop():
    rng = np.random.default_rng(57)
    for _ in range(10):
        q = rng.normal(size=(4, 6)).astype(np.float32)
        g = rng.normal(size=(10, 6)).astype(np.float32)
        got = aqe_expand(q, g, AqeParams(k=2, alpha=3.0))
        ref = naive_aqe(q, g, 2, 3.0)
        assert np.abs(got.astype(np.float64) - ref).max() < 1e-6


def test_aqe_matches_naive_loop_on_duplicate_gallery_rows():
    rng = np.random.default_rng(61)
    for _ in range(10):
        q = rng.normal(size=(4, 6)).astype(np.float32)
        g = rng.normal(size=(4, 6)).astype(np.float32)
        g = g[rng.integers(0, 4, size=12)]  # exact similarity ties
        for k in (1, 3, 7):
            got = aqe_expand(q, g, AqeParams(k=k, alpha=3.0))
            ref = naive_aqe(q, g, k, 3.0)
            assert np.abs(got.astype(np.float64) - ref).max() < 1e-6


def _per_query_aqe(q, g, params):
    """AQE one query at a time: the reference the row-blocked form must match bit for bit."""
    qn = l2_normalize(q).astype(np.float64)
    if params.k == 0:
        return qn.astype(np.float32)
    gn = l2_normalize(g).astype(np.float64)
    expanded = np.empty_like(qn)
    for rows in row_blocks(qn.shape[0]):
        sim = qn[rows] @ gn.T
        order = _neighbours(-sim, params.k)
        for i in range(sim.shape[0]):
            idx = order[i]
            s = sim[i, idx]
            w = np.where(s > 0.0, np.power(np.maximum(s, 0.0), params.alpha), 0.0)
            acc = qn[rows.start + i] + w @ gn[idx]
            expanded[rows.start + i] = acc / (1.0 + w.sum())
    return l2_normalize(expanded)


def _aqe_inputs():
    rng = np.random.default_rng(65)
    for nq in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1):
        yield rng.normal(size=(nq, 24)).astype(np.float32), rng.normal(size=(300, 24)).astype(np.float32)
    yield rng.normal(size=(BLOCK_ROWS + 1, 2048)).astype(np.float32), rng.normal(size=(400, 2048)).astype(np.float32)
    # duplicated gallery rows tie exactly; one-column rows have similarities of +-1 only
    g = rng.normal(size=(40, 16)).astype(np.float32)
    yield rng.normal(size=(30, 16)).astype(np.float32), g[rng.integers(0, 40, size=200)]
    yield rng.normal(size=(9, 1)).astype(np.float32), rng.normal(size=(12, 1)).astype(np.float32)
    # queries that point away from most of the gallery: negative similarities
    g = np.abs(rng.normal(size=(100, 8))).astype(np.float32)
    yield -np.abs(rng.normal(size=(20, 8))).astype(np.float32), g


@pytest.mark.parametrize("params", [AqeParams(), AqeParams(k=1, alpha=0.0), AqeParams(k=8, alpha=0.5),
                                    AqeParams(k=20, alpha=3.0), AqeParams(k=0)])
def test_aqe_blocks_equal_the_per_query_loop(params):
    for q, g in _aqe_inputs():
        fitted = AqeParams(k=min(params.k, g.shape[0]), alpha=params.alpha)
        want = _per_query_aqe(q, g, fitted)
        got = aqe_expand(q, g, fitted)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (q.shape, g.shape)


def test_aqe_k_zero_only_normalizes():
    rng = np.random.default_rng(58)
    q = rng.normal(size=(5, 4)).astype(np.float32)
    g = rng.normal(size=(7, 4)).astype(np.float32)
    assert np.array_equal(aqe_expand(q, g, AqeParams(k=0)), l2_normalize(q))


def test_aqe_identical_copies_keep_direction():
    q = np.array([[3.0, 4.0]], dtype=np.float32)
    g = np.vstack([q] * 5)
    out = aqe_expand(q, g, AqeParams(k=3, alpha=2.0))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-6)


def test_aqe_rows_are_unit_norm():
    rng = np.random.default_rng(59)
    q = rng.normal(size=(6, 5)).astype(np.float32)
    g = rng.normal(size=(20, 5)).astype(np.float32)
    out = aqe_expand(q, g, AqeParams(k=4, alpha=1.5))
    assert np.allclose(np.linalg.norm(out.astype(np.float64), axis=1), 1.0, atol=1e-6)


def test_aqe_negative_similarity_neighbors_carry_no_weight():
    q = np.array([[1.0, 0.0]], dtype=np.float32)
    g = np.array([[-1.0, 0.0], [-0.9, -0.1]], dtype=np.float32)
    # both neighbors point away from the query; expansion must not move it
    for alpha in (3.0, 1.0, 0.0):
        out = aqe_expand(q, g, AqeParams(k=2, alpha=alpha))
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-7), alpha


def test_aqe_validation():
    q = np.zeros((2, 3), dtype=np.float32)
    g = np.zeros((4, 3), dtype=np.float32)
    with pytest.raises(ConfigError):
        aqe_expand(q, g, AqeParams(k=5))  # k exceeds gallery
    with pytest.raises(ConfigError):
        aqe_expand(q, g, AqeParams(k=-1))
    with pytest.raises(ConfigError):
        aqe_expand(q, g, AqeParams(alpha=-2.0))
    with pytest.raises(ShapeError):
        aqe_expand(q, np.zeros((4, 2), dtype=np.float32), AqeParams(k=1))


def test_ensemble_plain_sum():
    rng = np.random.default_rng(60)
    a = np.abs(rng.normal(size=(4, 6))).astype(np.float32)
    b = np.abs(rng.normal(size=(4, 6))).astype(np.float32)
    out = ensemble_distances([a, b])
    assert np.allclose(out, a.astype(np.float64) + b, atol=1e-6)
    assert np.allclose(ensemble_distances([a, a]), 2.0 * a, atol=1e-6)
    assert np.array_equal(ensemble_distances([a]), a)


def test_ensemble_commutative_and_associative():
    rng = np.random.default_rng(61)
    mats = [np.abs(rng.normal(size=(3, 5))).astype(np.float32) for _ in range(3)]
    a, b, c = mats
    out1 = ensemble_distances([a, b, c])
    out2 = ensemble_distances([c, a, b])
    assert np.allclose(out1, out2, atol=1e-6)
    nested = ensemble_distances([ensemble_distances([a, b]), c])
    assert np.allclose(out1, nested, atol=1e-6)


@pytest.mark.parametrize("normalize", [False, True])
def test_ensemble_out_gets_the_same_result(normalize):
    rng = np.random.default_rng(65)
    # 1000 rows of 70 are three chunks of chunk_rows(70) = 468 rows
    a, b, c = (rng.random((1000, 70), dtype=np.float32) * s for s in (1.0, 3.0, 0.5))
    expected = ensemble_distances([a, b, c], normalize)
    fresh = np.empty_like(a)
    assert ensemble_distances([a, b, c], normalize, out=fresh) is fresh
    assert np.array_equal(fresh, expected)
    # into its own first input: bounds come first, and each chunk reads
    # every input before it writes those rows
    own = a.copy()
    assert ensemble_distances([own, b, c], normalize, out=own) is own
    assert np.array_equal(own, expected)
    # a later input as out works the same way
    own = c.copy()
    assert np.array_equal(ensemble_distances([a, b, own], normalize, out=own), expected)


@pytest.mark.parametrize("normalize", [False, True])
def test_ensemble_of_opened_files_equals_the_loaded_arrays(tmp_path, normalize):
    rng = np.random.default_rng(66)
    ng = 70
    chunk = chunk_rows(ng)
    for nq in (1, chunk - 1, chunk, chunk + 1):
        paths = [tmp_path / f"{nq}_{i}.dmat" for i in range(3)]
        for path, scale in zip(paths, (1.0, 3.0, 0.5)):
            save_distances(rng.random((nq, ng), dtype=np.float32) * scale, path)
        loaded = [load_distances(p) for p in paths]
        opened = [open_distances(p) for p in paths]
        expected = ensemble_distances(loaded, normalize)
        assert np.array_equal(ensemble_distances(opened, normalize), expected), nq
        # as the pipeline calls it: its own matrix first and as out
        own = loaded[0].copy()
        assert ensemble_distances([own, *opened[1:]], normalize, out=own) is own
        assert np.array_equal(own, expected), nq
        # one file listed twice
        twice = ensemble_distances([loaded[1], loaded[1]], normalize)
        assert np.array_equal(ensemble_distances([opened[1], opened[1]], normalize), twice), nq


def test_ensemble_out_must_be_a_writable_float32_array_of_the_shape(tmp_path):
    a = np.ones((4, 6), dtype=np.float32)
    save_distances(a, tmp_path / "a.dmat")
    loaded = load_distances(tmp_path / "a.dmat")
    frozen = a.copy()
    frozen.flags.writeable = False
    for bad in (np.empty((4, 6)), np.empty((4, 5), np.float32), np.empty((6, 4), np.float32),
                loaded, frozen, [[0.0] * 6] * 4):
        with pytest.raises(ShapeError):
            ensemble_distances([a, a], out=bad)
    # out may not overlap an input that it is not, row for row
    wide = np.ones((4, 7), dtype=np.float32)
    with pytest.raises(ShapeError, match="overlaps"):
        ensemble_distances([wide[:, 1:], a], out=wide[:, :6])
    # the loaded matrix stays read-only and unchanged as an input
    assert np.array_equal(ensemble_distances([loaded, a], out=np.empty_like(a)), 2.0 * a)
    assert not loaded.flags.writeable and np.array_equal(loaded, a)


def test_ensemble_normalization():
    a = np.array([[0.0, 5.0], [10.0, 5.0]], dtype=np.float32)
    b = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.float32)  # constant -> zeros
    out = ensemble_distances([a, b], normalize=True)
    assert np.allclose(out, [[0.0, 0.5], [1.0, 0.5]], atol=1e-7)


def test_ensemble_agreeing_argmins_survive():
    rng = np.random.default_rng(62)
    a = np.abs(rng.normal(size=(8, 10))).astype(np.float64)
    b = a * 2.0 + 0.25  # same per-row argmin by construction
    fused = ensemble_distances([a.astype(np.float32), b.astype(np.float32)])
    for i in range(8):
        assert int(np.argmin(fused[i])) == int(np.argmin(a[i]))


def test_ensemble_validation():
    with pytest.raises(ConfigError):
        ensemble_distances([])
    with pytest.raises(ShapeError):
        ensemble_distances([np.ones((2, 2)), np.ones((2, 3))])
    with pytest.raises(ShapeError):
        ensemble_distances([np.ones(4)])
    for normalize in (False, True):
        with pytest.raises(ShapeError):
            ensemble_distances([np.zeros((0, 3), np.float32)], normalize)
    ones = np.ones((BLOCK_ROWS + 3, 4), np.float32)
    for normalize in (False, True):
        for bad in (np.nan, np.inf, -np.inf):
            broken = ones.copy()
            broken[BLOCK_ROWS + 1, 2] = bad
            # with normalize, a NaN bound fails the hi > lo test that skips constant inputs
            with pytest.raises(DataError, match="input 1"):
                ensemble_distances([ones, broken], normalize)
        if not normalize:
            # the first input with a bad entry in the first bad block of
            # BLOCK_ROWS rows is named, wherever in that block the entries lie
            early, late = ones.copy(), ones.copy()
            early[3, 0], late[BLOCK_ROWS - 1, 0] = np.nan, np.nan
            with pytest.raises(DataError, match="input 0"):
                ensemble_distances([late, early])
        # bounds are taken in list order, so the first bad input is named
        # wherever its entries lie, in both modes
        first, second = ones.copy(), ones.copy()
        first[BLOCK_ROWS + 1, 0], second[0, 0] = np.nan, np.inf
        with pytest.raises(DataError, match="ensemble input 0 holds NaN or Inf"):
            ensemble_distances([first, second], normalize)
        # +Inf in one input and -Inf in the other sum to NaN
        plus, minus = ones.copy(), ones.copy()
        plus[0, 0], minus[0, 0] = np.inf, -np.inf
        with pytest.raises(DataError):
            ensemble_distances([plus, minus], normalize)
    huge = np.full((2, 2), 3e38, np.float32)
    with pytest.raises(DataError, match="overflows float32"):
        ensemble_distances([huge, huge])
    assert np.array_equal(ensemble_distances([huge, huge], normalize=True), np.zeros((2, 2)))
    with pytest.raises(DataError):
        ensemble_distances([np.array([[-1e308, 1e308]])], normalize=True)
    # a float64 span beyond float64 names its input in plain mode too
    with pytest.raises(DataError, match="ensemble input 0 holds NaN or Inf, or spans more"):
        ensemble_distances([np.array([[-1e308, 1e308]])])


def test_aqe_peak_memory_stays_below_the_similarity_matrix():
    rng = np.random.default_rng(64)
    q = rng.normal(size=(1000, 64)).astype(np.float32)
    g = rng.normal(size=(5000, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        aqe_expand(q, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # similarities and top-k selection for one block of queries at a time,
    # against one block of float64 gallery rows (1.78x with a whole copy)
    assert peak < 1.35 * 1000 * 5000 * 4, f"peak {peak / (1000 * 5000 * 4):.2f} x nq*ng*4"


@pytest.mark.parametrize("normalize", [False, True])
def test_ensemble_keeps_one_float64_temporary(normalize):
    rng = np.random.default_rng(63)
    mats = [rng.random((1000, 5000), dtype=np.float32) for _ in range(2)]
    tracemalloc.start()
    try:
        ensemble_distances(mats, normalize)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 result plus a float64 total and, with normalize, one scaled
    # input, each a few rows and allocated once per call
    out = 1000 * 5000 * 4
    assert peak <= 1.25 * out, f"peak {peak / out:.2f} x the result"
