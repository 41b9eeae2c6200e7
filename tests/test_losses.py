import tracemalloc

import numpy as np
import pytest

from naive_reference import (
    finite_difference_gradient,
    naive_circle,
    naive_triplet,
)
from reidkit import (
    BatchError,
    CircleParams,
    CombinedParams,
    ConfigError,
    DataError,
    TripletParams,
    circle_loss,
    combined_loss,
    loss_gradient,
    triplet_loss_batch_hard,
)
from reidkit.geometry import BLOCK_ROWS, euclidean_distances64


def _random_batch(rng, n_ids=3, per_id=3, d=5, scale=1.0):
    labels = np.repeat(np.arange(n_ids), per_id)
    x = rng.normal(size=(labels.size, d)) * scale
    return x, labels


def test_triplet_matches_naive_loops():
    rng = np.random.default_rng(21)
    for _ in range(25):
        x, labels = _random_batch(rng, n_ids=int(rng.integers(2, 5)),
                                  per_id=int(rng.integers(2, 5)))
        loss, per_anchor = triplet_loss_batch_hard(x, labels)
        ref_loss, ref_per = naive_triplet(x, labels, 0.4)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        assert np.allclose(per_anchor, ref_per, atol=1e-10)


def test_triplet_duplicate_rows_are_exactly_zero_apart():
    # the ||a||^2 + ||b||^2 - 2 a.b expansion alone leaves x0 and x3 about 4e-8 apart
    x = np.random.default_rng(4).normal(size=(4, 8))
    x[3] = x[0]
    labels = [0, 0, 1, 1]
    assert euclidean_distances64(x, x)[0, 3] == 0.0
    _, per_anchor = triplet_loss_batch_hard(x, labels)
    _, ref = naive_triplet(x, labels, 0.4)
    assert np.abs(per_anchor - ref).max() <= 1e-9


def test_triplet_default_margin():
    assert TripletParams().margin == 0.4


def test_triplet_zero_on_separated_clusters():
    x = np.array([
        [0.0, 0.0], [0.1, 0.0],     # id 0
        [100.0, 0.0], [100.1, 0.0], # id 1
    ])
    loss, per = triplet_loss_batch_hard(x, np.array([0, 0, 1, 1]))
    assert loss == 0.0
    assert np.all(per == 0.0)


def test_triplet_equal_pos_neg_distance_gives_margin_exactly():
    # unit square: every anchor's hardest positive and nearest negative
    # sit at distance exactly 1
    x = np.array([
        [0.0, 0.0], [1.0, 0.0],  # id 0 along the x edge
        [0.0, 1.0], [1.0, 1.0],  # id 1 along the opposite edge
    ])
    labels = np.array([0, 0, 1, 1])
    loss, per = triplet_loss_batch_hard(x, labels, TripletParams(margin=0.4))
    assert loss == 0.4
    assert np.all(per == 0.4)


def test_triplet_batch_errors_name_the_label():
    x = np.zeros((3, 2))
    with pytest.raises(BatchError, match="7"):
        triplet_loss_batch_hard(x, np.array([7, 1, 1]))  # 7 has no positive
    with pytest.raises(BatchError, match="negative"):
        triplet_loss_batch_hard(x, np.array([4, 4, 4]))  # nobody has a negative
    with pytest.raises(BatchError):
        triplet_loss_batch_hard(np.zeros((1, 2)), np.array([0]))
    with pytest.raises(BatchError):
        triplet_loss_batch_hard(x, np.array([0, 0]))  # label length mismatch
    with pytest.raises(ConfigError):
        triplet_loss_batch_hard(x[:2], np.array([0, 0]), TripletParams(margin=-0.1))


@pytest.mark.parametrize("fn", [triplet_loss_batch_hard, circle_loss, combined_loss, loss_gradient])
def test_losses_reject_non_finite_embeddings(fn):
    x = np.arange(8, dtype=np.float64).reshape(4, 2)
    # 1e200 squares past float64; 1e154 leaves the distances' sums no room,
    # while the circle loss's cosines stay well defined
    for bad in (np.nan, np.inf, -np.inf, 1e200) + ((1e154,) if fn is not circle_loss else ()):
        y = x.copy()
        y[1, 0] = bad
        with pytest.raises(DataError) as err:
            fn(y, np.array([0, 0, 1, 1]))
        assert err.value.exit_code == 3


def test_circle_matches_naive_direct_formula():
    rng = np.random.default_rng(22)
    for _ in range(25):
        x, labels = _random_batch(rng, n_ids=int(rng.integers(2, 4)),
                                  per_id=int(rng.integers(2, 4)), d=6)
        got = circle_loss(x, labels)
        ref = naive_circle(x, labels, 0.4, 64.0)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)
    # second hyper-parameter point from the same sweep
    x, labels = _random_batch(rng)
    p = CircleParams(m=0.3, gamma=32.0)
    assert circle_loss(x, labels, p) == pytest.approx(
        naive_circle(x, labels, 0.3, 32.0), rel=1e-9)


def test_circle_defaults():
    p = CircleParams()
    assert p.m == 0.4
    assert p.gamma == 64.0


def test_circle_empty_pair_sets_give_zero():
    x = np.random.default_rng(23).normal(size=(4, 3))
    assert circle_loss(x, np.array([5, 5, 5, 5])) == 0.0  # no negatives
    assert circle_loss(x, np.array([0, 1, 2, 3])) == 0.0  # no positives


def test_circle_scale_invariance():
    rng = np.random.default_rng(24)
    x, labels = _random_batch(rng)
    base = circle_loss(x, labels)
    assert circle_loss(x * 7.5, labels) == pytest.approx(base, abs=1e-9)
    per_row = x * rng.uniform(0.5, 4.0, size=(x.shape[0], 1))
    assert circle_loss(per_row, labels) == pytest.approx(base, abs=1e-9)


def test_circle_parameter_validation():
    x = np.ones((2, 2))
    labels = np.array([0, 0])
    for m in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            circle_loss(x, labels, CircleParams(m=m))
    with pytest.raises(ConfigError):
        circle_loss(x, labels, CircleParams(gamma=0.0))


def test_combined_is_weighted_sum():
    rng = np.random.default_rng(25)
    x, labels = _random_batch(rng)
    params = CombinedParams(w_triplet=0.7, w_circle=2.0)
    t, _ = triplet_loss_batch_hard(x, labels)
    c = circle_loss(x, labels)
    assert combined_loss(x, labels, params) == pytest.approx(0.7 * t + 2.0 * c, rel=1e-12)
    with pytest.raises(ConfigError):
        combined_loss(x, labels, CombinedParams(w_triplet=0.0, w_circle=0.0))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(26)
    params = CombinedParams()
    for _ in range(10):
        x, labels = _random_batch(rng, n_ids=2, per_id=3, d=4)
        grad = loss_gradient(x, labels, params)
        fd = finite_difference_gradient(lambda z: combined_loss(z, labels, params), x)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(grad - fd).max() / scale < 1e-6


def test_gradient_single_terms():
    rng = np.random.default_rng(27)
    x, labels = _random_batch(rng, n_ids=3, per_id=2, d=4)
    t_only = CombinedParams(w_triplet=1.0, w_circle=0.0)
    c_only = CombinedParams(w_triplet=0.0, w_circle=1.0)
    for params in (t_only, c_only):
        grad = loss_gradient(x, labels, params)
        fd = finite_difference_gradient(lambda z: combined_loss(z, labels, params), x)
        assert np.abs(grad - fd).max() < 1e-6


def test_gradient_zero_when_triplet_inactive():
    x = np.array([
        [0.0, 0.0], [0.1, 0.0],
        [50.0, 0.0], [50.1, 0.0],
    ])
    labels = np.array([0, 0, 1, 1])
    grad = loss_gradient(x, labels, CombinedParams(w_triplet=1.0, w_circle=0.0))
    assert np.array_equal(grad, np.zeros_like(x))


def test_triplet_translation_invariance():
    rng = np.random.default_rng(28)
    x, labels = _random_batch(rng)
    shift = rng.normal(size=(1, x.shape[1])) * 10
    a, _ = triplet_loss_batch_hard(x, labels)
    b, _ = triplet_loss_batch_hard(x + shift, labels)
    assert a == pytest.approx(b, abs=1e-9)


def test_circle_gradient_zero_norm_row_is_zero():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=float)
    labels = np.array([0, 0, 1, 1])
    grad = loss_gradient(x, labels, CombinedParams(w_triplet=0.0, w_circle=1.0))
    assert np.array_equal(grad[0], [0.0, 0.0])
    assert np.all(np.isfinite(grad))


def test_triplet_loss_and_gradient_peak_memory_is_quadratic_not_cubic():
    # 256 x 512: an n x n x d difference tensor would need 512 MiB, the
    # n x n distance matrix needs 0.5 MiB
    x, labels = _random_batch(np.random.default_rng(29), n_ids=64, per_id=4, d=512)
    for fn in (triplet_loss_batch_hard, loss_gradient):
        tracemalloc.start()
        try:
            fn(x, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{fn.__name__} peaked at {peak / 2**20:.1f} MiB"


def _blocked_batch(rng, n):
    """n random 4-d rows whose largest exponent of each kind lies in the last
    anchor block that holds pairs j > i: a near-duplicate negative pair and
    an anti-aligned positive pair among rows n-5 .. n-2."""
    labels = rng.integers(0, n // 8, size=n)
    x = rng.normal(size=(n, 4))
    labels[n - 4] = labels[n - 5]
    x[n - 4] = -x[n - 5]
    labels[n - 2] = labels[n - 3] + 1
    x[n - 2] = x[n - 3] + 0.01 * rng.normal(size=4)
    return x, labels


@pytest.mark.parametrize("n", [BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_circle_over_several_anchor_blocks_matches_naive(n):
    x, labels = _blocked_batch(np.random.default_rng(30), n)
    assert circle_loss(x, labels) == pytest.approx(naive_circle(x, labels, 0.4, 64.0), rel=1e-9, abs=1e-9)


def test_circle_gradient_over_two_anchor_blocks_matches_finite_differences():
    rng = np.random.default_rng(31)
    x, labels = _blocked_batch(rng, BLOCK_ROWS + 1)
    # the second block's one row and row 0 are the batch's closest negatives
    labels[BLOCK_ROWS] = labels[0] + 1
    x[BLOCK_ROWS] = x[0] + 0.01 * rng.normal(size=4)
    params = CombinedParams(w_triplet=0.0, w_circle=1.0)
    picked = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS]

    def loss_of(rows):
        z = x.copy()
        z[picked] = rows
        return combined_loss(z, labels, params)

    grad = loss_gradient(x, labels, params)[picked]
    fd = finite_difference_gradient(loss_of, x[picked])
    assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-6


@pytest.mark.parametrize("gamma, rows, labels", [
    # the anti-aligned positive pair's exponent is about 3.84 gamma and each
    # negative's about -0.16 gamma: exp of one less the negatives' log-sum overflows
    (256.0, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 1, 0.1], [0, 0, 1]], [0, 0, 1, 1, 1]),
    # a zero row's self-pair exponent is 0.84 gamma and the positives' log-sum
    # about -0.16 gamma: exp of their difference overflows past gamma ~ 709
    (1024.0, [[1, 0, 0], [1, 0.1, 0], [0, 1, 0], [0, 1, 0.1], [0, 0, 0]], [0, 0, 1, 1, 2]),
], ids=["anti-aligned-positive", "zero-row-self-pair"])
def test_circle_at_large_gamma_weighs_each_pair_by_its_own_kind(gamma, rows, labels):
    x = np.array(rows, dtype=np.float64)
    x[:4] += 0.05 * np.random.default_rng(32).normal(size=(4, 3))
    params = CombinedParams(w_triplet=0.0, circle=CircleParams(gamma=gamma))
    assert 0.0 < combined_loss(x, labels, params) < np.inf
    grad = loss_gradient(x, labels, params)
    assert np.all(np.isfinite(grad))

    def loss_of(first):
        z = x.copy()
        z[:4] = first
        return combined_loss(z, labels, params)

    fd = finite_difference_gradient(loss_of, x[:4])
    assert np.abs(grad[:4] - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-6


def test_circle_loss_at_the_largest_gamma_forms_only_each_pairs_own_exponent():
    # the positive formula of these anti-aligned negatives, 3.84 gamma, is past float64
    x = np.array([[1.0, 0.0], [1.0, 0.1], [-1.0, 0.0], [-1.0, -0.1]])
    assert circle_loss(x, np.array([0, 0, 1, 1]), CircleParams(gamma=1e308)) == 0.0


@pytest.mark.parametrize("fn", [circle_loss, loss_gradient])
def test_circle_loss_and_gradient_peak_memory_grows_linearly_in_n(fn):
    # a block of float64 cosine rows is BLOCK_ROWS * n * 8 bytes; the walk holds
    # about 7 (loss) or 11 (gradient) of them, where n x n arrays would grow 4x
    peaks = {}
    for n in (1024, 2048):
        x, labels = _random_batch(np.random.default_rng(33), n_ids=n // 4, per_id=4, d=128)
        tracemalloc.start()
        try:
            fn(x, labels)
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = BLOCK_ROWS * n * 8
        assert peaks[n] < 12 * block, f"{fn.__name__} peaked at {peaks[n] / block:.1f} blocks, n={n}"
    assert peaks[2048] <= 2.3 * peaks[1024]
