import math
import tracemalloc

import numpy as np
import pytest

from naive_reference import naive_gem
from reidkit import (
    ConfigError,
    DataError,
    GemParams,
    ShapeError,
    cosine_distances,
    euclidean_distances,
    fuse_flip_features,
    gem_pool,
    l2_normalize,
)
from reidkit.geometry import BLOCK_ROWS, euclidean_distances64


def test_l2_normalize_unit_rows():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.normal(size=(rng.integers(1, 30), rng.integers(1, 20))) * 10
        out = l2_normalize(m)
        assert out.dtype == np.float32
        norms = np.linalg.norm(out.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)


def test_l2_normalize_zero_row_passthrough():
    m = np.array([[0.0, 0.0], [3.0, 4.0]])
    out = l2_normalize(m)
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [0.6, 0.8], atol=1e-7)


def _whole_matrix_l2_normalize(m):
    """The unblocked formula: one float64 copy of the whole matrix."""
    x = np.asarray(m).astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return (x / np.where(norms == 0.0, 1.0, norms)).astype(np.float32)


def _l2_inputs():
    rng = np.random.default_rng(23)
    for n in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 1000):
        yield rng.normal(size=(n, 48)).astype(np.float32)
    yield rng.normal(size=(300, 2048)).astype(np.float32)
    yield rng.normal(size=(600, 77)) * 1e3
    yield rng.normal(size=(300, 40)).astype(np.float16)
    yield rng.integers(-1000, 1000, size=(513, 19))
    zeros = rng.normal(size=(600, 8)).astype(np.float32)
    zeros[::7] = 0.0
    zeros[BLOCK_ROWS - 1:BLOCK_ROWS + 1] = 0.0
    yield zeros
    yield np.zeros((0, 5), dtype=np.float32)
    yield np.asfortranarray(rng.normal(size=(700, 64)).astype(np.float32))
    yield np.asfortranarray(rng.normal(size=(300, 300)))


def test_l2_normalize_blocks_equal_the_whole_matrix_formula():
    for m in _l2_inputs():
        want = _whole_matrix_l2_normalize(m)
        got = l2_normalize(m)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (m.shape, m.dtype)


def test_l2_normalize_peak_stays_near_its_output():
    m = np.random.default_rng(24).normal(size=(5000, 256)).astype(np.float32)
    tracemalloc.start()
    try:
        l2_normalize(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 output plus float64 temporaries of one block of rows
    assert peak <= 1.5 * m.nbytes, f"peak {peak / m.nbytes:.2f} x the output"


@pytest.mark.parametrize("bad", [[[np.nan, 1.0]], [[np.inf, 1.0]], [[-np.inf, 1.0]], [[1e200, 1.0]]])
def test_l2_normalize_rejects_rows_without_a_finite_norm(bad):
    m = np.ones((BLOCK_ROWS + 3, 2))
    m[BLOCK_ROWS + 1] = bad[0]
    for rows in (np.array(bad), m):
        with pytest.raises(DataError):
            l2_normalize(rows)


def test_euclidean_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        q = rng.normal(size=(rng.integers(1, 12), 9)).astype(np.float32)
        g = rng.normal(size=(rng.integers(1, 15), 9)).astype(np.float32)
        d = euclidean_distances(q, g)
        assert d.shape == (q.shape[0], g.shape[0])
        for i in range(q.shape[0]):
            for j in range(g.shape[0]):
                ref = math.dist(q[i].astype(np.float64), g[j].astype(np.float64))
                assert d[i, j] == pytest.approx(ref, abs=1e-5)


def test_euclidean_self_distance_zero():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(8, 5)).astype(np.float32) * 100
    d = euclidean_distances(m, m)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)


def test_distances_with_an_empty_side_are_empty():
    for nq, ng in [(2, 0), (0, 2), (0, 0)]:
        for distances in (euclidean_distances, cosine_distances):
            assert distances(np.ones((nq, 3)), np.ones((ng, 3))).shape == (nq, ng)


def test_euclidean_shape_mismatch():
    with pytest.raises(ShapeError):
        euclidean_distances(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ShapeError):
        euclidean_distances(np.ones(3), np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("distances", [euclidean_distances, cosine_distances])
def test_distances_reject_non_finite_features(distances, bad):
    rng = np.random.default_rng(8)
    q = rng.normal(size=(3, 4))
    g = rng.normal(size=(5, 4))
    for m in (q, g):
        m[1, 2] = bad
        with pytest.raises(DataError):
            distances(q, g)
        m[1, 2] = 0.0


def test_cosine_matches_brute_force():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(6, 7))
    g = rng.normal(size=(9, 7))
    d = cosine_distances(q, g)
    for i in range(6):
        for j in range(9):
            ref = 1.0 - float(np.dot(q[i], g[j]) / (np.linalg.norm(q[i]) * np.linalg.norm(g[j])))
            assert d[i, j] == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("nq", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 1000])
def test_row_blocked_distances_equal_one_unblocked_kernel_call(nq):
    # BLAS does not promise that a block of rows multiplies to the same bits
    # as the whole matrix; a BLAS that breaks this must fail here, loudly.
    rng = np.random.default_rng(nq)
    q = rng.normal(size=(nq, 48)).astype(np.float32)
    g = rng.normal(size=(300, 48)).astype(np.float32)
    whole = euclidean_distances64(q.astype(np.float64), g.astype(np.float64))
    assert np.array_equal(euclidean_distances(q, g), whole.astype(np.float32))
    qn, gn = l2_normalize(q).astype(np.float64), l2_normalize(g).astype(np.float64)
    whole = np.clip(1.0 - qn @ gn.T, 0.0, 2.0)
    assert np.array_equal(cosine_distances(q, g), whole.astype(np.float32))


@pytest.mark.parametrize("distances", [euclidean_distances, cosine_distances])
def test_distances_peak_near_their_float32_output(distances):
    rng = np.random.default_rng(13)
    q = rng.normal(size=(1000, 64)).astype(np.float32)
    g = rng.normal(size=(5000, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        distances(q, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 output plus float64 temporaries of one block of rows
    assert peak < 2.75 * 1000 * 5000 * 4, f"peak {peak / (1000 * 5000 * 4):.2f} x nq*ng*4"


def test_cosine_zero_vector_gets_distance_one():
    q = np.array([[0.0, 0.0]])
    g = np.array([[1.0, 0.0], [0.0, 0.0]])
    d = cosine_distances(q, g)
    assert np.allclose(d, 1.0)


def test_fuse_flip_is_mean():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 6)).astype(np.float32)
    b = rng.normal(size=(5, 6)).astype(np.float32)
    f = fuse_flip_features(a, b)
    assert np.allclose(f, (a.astype(np.float64) + b) * 0.5, atol=1e-7)
    assert np.array_equal(fuse_flip_features(a, a), a)
    with pytest.raises(ShapeError):
        fuse_flip_features(a, b[:-1])


def test_gem_p1_is_channel_mean():
    rng = np.random.default_rng(5)
    fmap = rng.uniform(0.0, 4.0, size=(7, 5, 3))
    out = gem_pool(fmap, GemParams(p=1.0))
    assert np.allclose(out, fmap.mean(axis=(0, 1)), atol=1e-7)


def test_gem_matches_direct_formula():
    rng = np.random.default_rng(6)
    for p in (1.0, 2.0, 3.0, 6.5):
        fmap = rng.uniform(0.0, 3.0, size=(6, 4, 5))
        assert np.allclose(gem_pool(fmap, GemParams(p=p)), naive_gem(fmap, p), atol=1e-6)


def test_gem_monotone_in_p_and_approaches_max():
    rng = np.random.default_rng(7)
    fmap = rng.uniform(0.0, 2.0, size=(8, 8, 4))
    prev = gem_pool(fmap, GemParams(p=1.0))
    for p in (2.0, 4.0, 8.0, 16.0):
        cur = gem_pool(fmap, GemParams(p=p))
        assert np.all(cur >= prev - 1e-6)
        prev = cur
    big = gem_pool(fmap, GemParams(p=100.0))
    peak = fmap.max(axis=(0, 1))
    assert np.all(big <= peak + 1e-6)
    assert np.all(big >= 0.95 * peak)


def test_gem_huge_values_do_not_overflow():
    # values near the float32 ceiling: (2e38)**16 would overflow float64
    # without peak rescaling, yet the true power mean fits the output type
    fmap = np.full((4, 4, 2), 1e38)
    fmap[0, 0, 0] = 2e38
    out = gem_pool(fmap, GemParams(p=16.0))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(naive_gem(fmap / 1e38, 16.0)[0] * 1e38, rel=1e-6)
    assert np.all(out <= fmap.max(axis=(0, 1)) * (1 + 1e-6))


def test_gem_default_exponent_is_three():
    assert GemParams().p == 3.0


def test_gem_rejects_bad_inputs():
    fmap = np.ones((2, 2, 2))
    with pytest.raises(ConfigError):
        gem_pool(fmap, GemParams(p=0.5))
    with pytest.raises(DataError):
        gem_pool(fmap - 2.0, GemParams(p=2.0))
    for shape in [(2, 2), (0, 3, 4), (3, 0, 4)]:
        with pytest.raises(ShapeError):
            gem_pool(np.ones(shape), GemParams())
    for bad in (np.nan, np.inf):
        broken = fmap.copy()
        broken[1, 0, 1] = bad
        with pytest.raises(DataError):
            gem_pool(broken, GemParams())


def test_gem_all_zero_map():
    assert np.array_equal(gem_pool(np.zeros((3, 3, 2)), GemParams(p=3.0)), np.zeros(2))


def _whole_map_gem(fmap, p):
    """GeM over the whole map in one float64 pass: the exact reference."""
    x = np.asarray(fmap).astype(np.float64)
    peak = x.max(axis=(0, 1))
    safe = np.where(peak == 0.0, 1.0, peak)
    return (peak * np.mean((x / safe) ** p, axis=(0, 1)) ** (1.0 / p)).astype(np.float32)


def _gem_maps():
    rng = np.random.default_rng(21)
    # h*w of 1, 255, 256, 257 and 600 pixel rows: one block, one block
    # exactly full, one row over, and three blocks
    for shape in [(1, 1, 5), (15, 17, 4), (16, 16, 3), (257, 1, 6), (20, 30, 2), (2, 300, 3)]:
        yield rng.uniform(0.0, 2.0, shape).astype(np.float32)
    yield rng.integers(0, 1000, (16, 16, 5))
    yield rng.uniform(0.0, 2.0, (20, 13, 4)).astype(np.float16)
    yield rng.uniform(0.0, 2.0, (30, 20, 4))
    yield np.zeros((17, 17, 3), dtype=np.float32)
    signed = rng.uniform(0.0, 2.0, (30, 20, 4)).astype(np.float32)
    signed[:, :, 0] = -0.0
    signed[:, :, 1] = 0.0
    signed[::2, :, 2] = -0.0
    signed[1::2, :, 2] = 0.0
    yield signed


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 16.0, 100.0])
def test_gem_blocks_equal_the_whole_map_formula(p):
    for fmap in _gem_maps():
        want = _whole_map_gem(fmap, p)
        got = gem_pool(fmap, GemParams(p=p))
        assert got.dtype == np.float32 and got.shape == want.shape
        # bit patterns, so the sign of zero counts too
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (fmap.shape, fmap.dtype)


def test_gem_float64_peak_stays_within_a_few_blocks():
    fmap = np.random.default_rng(22).uniform(0.0, 1.0, (64, 64, 256)).astype(np.float32)
    gem_pool(fmap)
    tracemalloc.start()
    try:
        gem_pool(fmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 buffer; the negative check takes channel minima, not a map-sized mask
    unit = (BLOCK_ROWS + 1) * fmap.shape[2] * 8
    assert peak <= 1.5 * unit, f"peak {peak / unit:.2f} x (BLOCK_ROWS + 1) * C * 8"
