import time
import tracemalloc

import numpy as np
import pytest

from naive_reference import naive_ap, naive_evaluate
from reidkit import (
    ConfigError,
    DataError,
    EvalError,
    MetaTable,
    SampleMeta,
    ablation_table,
    evaluate,
    evaluate_distances,
    rank_gallery,
    save_cmc_csv,
    save_report,
)


def _meta(pids, cams=None):
    cams = cams if cams is not None else [0] * len(pids)
    return MetaTable([
        SampleMeta(f"s{i:04d}", int(p), int(c)) for i, (p, c) in enumerate(zip(pids, cams))
    ])


def test_rank_gallery_sorts_rows_with_index_tiebreak():
    d = np.array([
        [0.3, 0.1, 0.2],
        [0.5, 0.5, 0.5],
    ])
    r = rank_gallery(d)
    assert r[0].tolist() == [1, 2, 0]
    assert r[1].tolist() == [0, 1, 2]


def test_rank_gallery_rows_are_monotone():
    rng = np.random.default_rng(71)
    d = rng.uniform(size=(20, 30))
    r = rank_gallery(d)
    for i in range(20):
        row = d[i, r[i]]
        assert np.all(np.diff(row) >= 0)
        assert sorted(r[i].tolist()) == list(range(30))


def _assert_stable_order(d):
    r = rank_gallery(d)
    ref = np.argsort(d, axis=1, kind="stable")
    assert r.dtype == ref.dtype
    assert np.array_equal(r, ref)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_rank_gallery_equals_a_stable_sort_on_floats(dtype):
    rng = np.random.default_rng(73)
    for d in (
        rng.normal(size=(30, 400)),
        np.round(rng.normal(size=(30, 400)), 1),  # heavy ties
        np.full((5, 60), 0.25),  # constant rows
        rng.choice([-0.0, 0.0, 1.0], size=(20, 90)),
        rng.choice([-np.inf, np.inf, -7.5, -1.0, 0.0, 2.0], size=(20, 90)),
    ):
        _assert_stable_order(d.astype(dtype))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_rank_gallery_equals_a_stable_sort_on_integers(dtype):
    rng = np.random.default_rng(74)
    info = np.iinfo(dtype)
    for d in (
        rng.integers(-4, 5, size=(30, 400)),
        np.full((5, 60), 7),
        rng.choice([info.min, -1, 0, info.max], size=(20, 90)),
    ):
        _assert_stable_order(d.astype(dtype))


@pytest.mark.parametrize("shape", [(0, 7), (6, 0), (6, 1), (0, 0)])
def test_rank_gallery_degenerate_shapes(shape):
    _assert_stable_order(np.zeros(shape))


def test_rank_gallery_rejects_nan():
    d = np.zeros((3, 4), dtype=np.float32)
    d[2, 1] = np.nan
    with pytest.raises(DataError):
        rank_gallery(d)


def test_rank_gallery_peak_memory_is_a_small_multiple_of_the_output():
    d = np.random.default_rng(75).random((1000, 5000), dtype=np.float32)
    tracemalloc.start()
    try:
        r = rank_gallery(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * r.nbytes, f"peak {peak / r.nbytes:.2f} x output"


def test_known_average_precision():
    # matches at ranks 1 and 3: AP = (1/1 + 2/3) / 2 = 5/6
    d = np.array([[0.1, 0.2, 0.3]])
    qmeta = _meta([7])
    gmeta = _meta([7, 3, 7])
    report = evaluate(rank_gallery(d), qmeta, gmeta)
    assert report.map == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert report.cmc[0] == 1.0


def test_matches_naive_evaluator_on_random_instances():
    rng = np.random.default_rng(72)
    for _ in range(50):
        nq = int(rng.integers(1, 6))
        ng = int(rng.integers(2, 15))
        d = rng.uniform(size=(nq, ng))
        q_pids = rng.integers(0, 4, nq)
        g_pids = rng.integers(0, 4, ng)
        q_cams = rng.integers(0, 2, nq)
        g_cams = rng.integers(0, 2, ng)
        exclude = bool(rng.integers(0, 2))
        ref = naive_evaluate(d.tolist(), q_pids.tolist(), q_cams.tolist(),
                             g_pids.tolist(), g_cams.tolist(), exclude, topk=10)
        if ref is None:
            with pytest.raises(EvalError):
                evaluate(rank_gallery(d), _meta(q_pids, q_cams),
                         _meta(g_pids, g_cams), exclude_same_camera=exclude, topk=10)
            continue
        got = evaluate(rank_gallery(d), _meta(q_pids, q_cams),
                       _meta(g_pids, g_cams), exclude_same_camera=exclude, topk=10)
        ref_map, ref_cmc, ref_valid, ref_skipped = ref
        assert got.map == pytest.approx(ref_map, abs=1e-12)
        assert np.allclose(got.cmc, ref_cmc, atol=1e-12)
        assert got.n_valid_queries == ref_valid
        assert got.n_skipped == ref_skipped


def test_same_camera_junk_removed_not_missed():
    # gallery: the query's own same-camera shot ranks first but must be
    # dropped from the list entirely, promoting the cross-camera match
    d = np.array([[0.01, 0.5, 0.9]])
    qmeta = _meta([1], cams=[0])
    gmeta = _meta([1, 1, 2], cams=[0, 1, 0])
    strict = evaluate(rank_gallery(d), qmeta, gmeta, exclude_same_camera=True)
    assert strict.map == 1.0  # match now sits at rank 1 of the filtered list
    loose = evaluate(rank_gallery(d), qmeta, gmeta, exclude_same_camera=False)
    assert loose.map == 1.0  # both copies count as matches: AP = (1 + 1)/2
    assert loose.cmc[0] == 1.0


def test_skipped_queries_are_counted_not_averaged():
    d = np.array([[0.1, 0.2], [0.3, 0.1]])
    qmeta = _meta([1, 9])  # person 9 never appears in the gallery
    gmeta = _meta([1, 2])
    report = evaluate(rank_gallery(d), qmeta, gmeta)
    assert report.n_valid_queries == 1
    assert report.n_skipped == 1
    assert report.map == 1.0


def test_all_queries_skipped_raises():
    d = np.array([[0.1]])
    with pytest.raises(EvalError):
        evaluate(rank_gallery(d), _meta([5]), _meta([6]))


def test_cmc_is_nondecreasing_and_clamped():
    rng = np.random.default_rng(73)
    d = rng.uniform(size=(10, 8))
    qmeta = _meta(rng.integers(0, 3, 10))
    gmeta = _meta(rng.integers(0, 3, 8))
    report = evaluate(rank_gallery(d), qmeta, gmeta, topk=20)
    assert report.cmc.size == 20
    assert np.all(np.diff(report.cmc) >= 0)
    assert report.cmc[-1] <= 1.0
    # every query with a match finds it within 8 ranks, so the tail is flat
    assert report.cmc[7] == report.cmc[-1]


def test_evaluate_validation():
    d = np.array([[0.1, 0.2]])
    with pytest.raises(ConfigError):
        evaluate(rank_gallery(d), _meta([1, 2]), _meta([1, 2]))
    with pytest.raises(ConfigError):
        evaluate(rank_gallery(d), _meta([1]), _meta([1, 2]), topk=0)


@pytest.mark.parametrize("shape", [(3,), (1, 2, 3)])
def test_rankings_and_distances_must_be_2d(shape):
    matrix = np.zeros(shape, dtype=np.int64)
    for fn in (evaluate, evaluate_distances):
        with pytest.raises(ConfigError):
            fn(matrix, _meta([1]), _meta([1, 2, 3]))


def test_evaluate_rejects_rankings_that_are_not_permutations():
    qmeta, gmeta = _meta([1, 2]), _meta([1, 2, 3])
    good = np.array([[0, 1, 2], [2, 1, 0]])
    assert evaluate(good, qmeta, gmeta).n_valid_queries == 2
    bad = {
        "all zeros": np.zeros((2, 3), dtype=np.int64),
        "duplicate": np.array([[0, 1, 2], [1, 1, 0]]),
        "too large": np.array([[0, 1, 3], [2, 1, 0]]),
        "negative": np.array([[0, 1, 2], [-1, 1, 0]]),
        "not integer": good.astype(np.float64),
    }
    for ranking in bad.values():
        with pytest.raises(DataError):
            evaluate(ranking, qmeta, gmeta)
    # rows 1 and 2 both repeat an index: the error names the first of them
    with pytest.raises(DataError, match="ranking row 1 "):
        evaluate(np.array([[0, 1, 2], [1, 1, 0], [2, 2, 0]]), _meta([1, 2, 3]), gmeta)


def test_naive_ap_agrees_with_hand_case():
    assert naive_ap(["A", "B", "A"], "A") == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert naive_ap(["B", "C"], "A") is None


def test_ablation_table_layout():
    d = np.array([[0.1, 0.9]])
    report = evaluate(rank_gallery(d), _meta([1]), _meta([1, 2]))
    text = ablation_table([("baseline", report), ("", report)])
    lines = text.splitlines()
    assert lines[0].startswith("method")
    assert lines[0].endswith("mAP(%)")
    assert lines[1].startswith("baseline  ")
    assert lines[1].endswith("100.0000")
    assert lines[2].startswith("(unnamed)")
    with pytest.raises(ConfigError):
        ablation_table([])


def test_report_serialization(tmp_path):
    d = np.array([[0.1, 0.5, 0.9]])
    report = evaluate(rank_gallery(d), _meta([1]), _meta([2, 1, 1]), topk=10)
    path = tmp_path / "report.txt"
    save_report(report, path)
    text = path.read_text()
    values = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert float(values["map"]) == pytest.approx(report.map, abs=1e-15)
    assert int(values["n_valid_queries"]) == 1
    assert int(values["n_skipped"]) == 0
    assert float(values["cmc_top1"]) == report.cmc[0]
    assert float(values["cmc_top5"]) == report.cmc[4]

    cmc_path = tmp_path / "cmc.csv"
    save_cmc_csv(report, cmc_path)
    lines = cmc_path.read_text().strip().splitlines()
    assert lines[0] == "rank,cmc"
    assert len(lines) == 11
    rank1 = lines[1].split(",")
    assert int(rank1[0]) == 1
    assert float(rank1[1]) == report.cmc[0]


def _ranked(d, qmeta, gmeta, **kwargs):
    return evaluate(rank_gallery(d), qmeta, gmeta, **kwargs)


def _loop_map(d, q_pids, q_cams, g_pids, g_cams, exclude):
    """mAP by a per-query loop: each AP one 1-D numpy sum over its matches,
    then the mean over the valid queries in query order."""
    g_pids, g_cams = np.asarray(g_pids), np.asarray(g_cams)
    aps = []
    for i, order in enumerate(np.argsort(d, axis=1, kind="stable")):
        match = g_pids[order] == q_pids[i]
        junk = match & (g_cams[order] == q_cams[i]) & exclude
        hits = np.flatnonzero(match[~junk])
        if hits.size:
            aps.append((np.arange(1, hits.size + 1) / (hits + 1.0)).sum() / hits.size)
    return np.mean(aps)


def _assert_scores_agree(d, q_pids, q_cams, g_pids, g_cams, topk=10):
    """evaluate_distances equals the ranking path and the naive oracle, camera filter
    on and off, and its mAP equals a per-query loop's bit for bit."""
    qmeta, gmeta = _meta(q_pids, q_cams), _meta(g_pids, g_cams)
    for exclude in (False, True):
        kwargs = dict(exclude_same_camera=exclude, topk=topk)
        ref = naive_evaluate(d.tolist(), list(q_pids), list(q_cams), list(g_pids),
                             list(g_cams), exclude, topk)
        if ref is None:
            for fn in (evaluate_distances, _ranked):
                with pytest.raises(EvalError):
                    fn(d, qmeta, gmeta, **kwargs)
            continue
        got = evaluate_distances(d, qmeta, gmeta, **kwargs)
        ranked = _ranked(d, qmeta, gmeta, **kwargs)
        assert got.map == ranked.map == _loop_map(d, q_pids, q_cams, g_pids, g_cams, exclude)
        assert np.array_equal(got.cmc, ranked.cmc)
        assert (got.n_valid_queries, got.n_skipped) == (ranked.n_valid_queries, ranked.n_skipped)
        ref_map, ref_cmc, ref_valid, ref_skipped = ref
        # the oracle averages AP with a sequential sum, numpy with a pairwise one
        assert got.map == pytest.approx(ref_map, abs=1e-12)
        assert np.array_equal(got.cmc, ref_cmc)
        assert (got.n_valid_queries, got.n_skipped) == (ref_valid, ref_skipped)


def _random_meta(rng, nq, ng, n_ids=4, n_cams=2):
    return (rng.integers(0, n_ids, nq).tolist(), rng.integers(0, n_cams, nq).tolist(),
            rng.integers(0, n_ids, ng).tolist(), rng.integers(0, n_cams, ng).tolist())


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_evaluate_distances_equals_the_ranking_path_on_floats(dtype):
    rng = np.random.default_rng(76)
    for d in (
        rng.normal(size=(12, 40)),
        np.round(rng.normal(size=(12, 40)), 1),  # heavy ties
        np.full((6, 30), 0.25),  # constant rows
        rng.choice([-0.0, 0.0, 1.0], size=(10, 30)),
        rng.choice([-np.inf, np.inf, -7.5, -1.0, 0.0, 2.0], size=(10, 30)),
        # about 15 and 300 matches per query (half with the camera filter), so the
        # AP sums take numpy's 8-way unrolled and its recursive pairwise branches
        rng.normal(size=(8, 60)),
        rng.normal(size=(5, 1200)),
        np.round(rng.normal(size=(5, 1200)), 1),
    ):
        _assert_scores_agree(d.astype(dtype), *_random_meta(rng, *d.shape))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_evaluate_distances_equals_the_ranking_path_on_integers(dtype):
    rng = np.random.default_rng(77)
    info = np.iinfo(dtype)
    for d in (
        rng.integers(-4, 5, size=(12, 40)),
        np.full((6, 30), 7),
        rng.choice([info.min, -1, 0, info.max], size=(10, 30)),
    ):
        _assert_scores_agree(d.astype(dtype), *_random_meta(rng, *d.shape))


def test_evaluate_distances_single_camera_gallery_skips_same_camera_queries():
    rng = np.random.default_rng(78)
    d = np.round(rng.random((8, 20)), 1)
    g_pids = rng.integers(0, 3, 20).tolist()
    # every match of a camera-0 query is junk once the filter is on
    _assert_scores_agree(d, rng.integers(0, 3, 8).tolist(), [0, 1] * 4, g_pids, [0] * 20)
    # all queries on the gallery's camera: the filtered run skips them all
    _assert_scores_agree(d, rng.integers(0, 3, 8).tolist(), [0] * 8, g_pids, [0] * 20)


def test_evaluate_distances_all_skipped_and_topk_beyond_the_gallery():
    rng = np.random.default_rng(79)
    d = np.round(rng.random((4, 5)), 1)
    _assert_scores_agree(d, [7, 8, 9, 7], [0, 1, 0, 1], [1, 2, 1, 2, 3], [0, 1, 1, 0, 0])
    _assert_scores_agree(d, [1, 2, 3, 1], [0, 1, 0, 1], [1, 2, 1, 2, 3], [0, 1, 1, 0, 0], topk=12)


def test_evaluate_distances_validation():
    qmeta, gmeta = _meta([1, 2]), _meta([1, 2, 3])
    d = np.zeros((2, 3), dtype=np.float32)
    d[1, 2] = np.nan
    with pytest.raises(DataError, match=r"\(row 1\)"):
        evaluate_distances(d, qmeta, gmeta)
    # query 1 has no match, so it is skipped, but its row is still checked
    with pytest.raises(DataError, match=r"\(row 1\)"):
        evaluate_distances(d, _meta([1, 9]), gmeta)
    with pytest.raises(ConfigError):
        evaluate_distances(np.zeros((2, 4)), qmeta, gmeta)
    with pytest.raises(ConfigError):
        evaluate_distances(np.zeros((3, 3)), qmeta, gmeta)
    with pytest.raises(ConfigError):
        evaluate_distances(np.zeros((2, 3)), qmeta, gmeta, topk=0)


def test_evaluate_distances_makes_no_query_by_gallery_array():
    rng = np.random.default_rng(80)
    d = rng.random((1000, 5000), dtype=np.float32)
    qmeta = _meta(rng.integers(0, 500, 1000), rng.integers(0, 6, 1000))
    gmeta = _meta(rng.integers(0, 500, 5000), rng.integers(0, 6, 5000))
    tracemalloc.start()
    try:
        evaluate_distances(d, qmeta, gmeta, exclude_same_camera=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an nq x ng bool mask alone would be 0.25 x the float32 input
    assert peak <= 0.1 * d.nbytes, f"peak {peak / d.nbytes:.3f} x input"


def test_evaluate_distances_cost_stays_bounded_on_one_tied_identity():
    d = np.full((20, 20000), 0.5, dtype=np.float32)
    qmeta = _meta([1] * 20, [0] * 20)
    gmeta = _meta([1] * 20000, np.arange(20000) % 3)
    for exclude in (False, True):
        start = time.perf_counter()
        got = evaluate_distances(d, qmeta, gmeta, exclude_same_camera=exclude)
        elapsed = time.perf_counter() - start
        ranked = _ranked(d, qmeta, gmeta, exclude_same_camera=exclude)
        assert elapsed < 2.0, f"{elapsed:.2f} s"
        assert got.map == ranked.map
        assert np.array_equal(got.cmc, ranked.cmc)
