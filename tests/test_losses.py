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
from reidkit.geometry import euclidean_distances64


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
