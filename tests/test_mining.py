import tracemalloc

import numpy as np
import pytest

from naive_reference import naive_triplet
from reidkit import (
    ConfigError,
    DataError,
    MetaTable,
    MiningThresholds,
    SampleClass,
    SampleMeta,
    ShapeError,
    TripletParams,
    balanced_resample_plan,
    partition_samples,
    per_sample_losses,
    save_mining_report,
    thresholds_from_quantiles,
    triplet_loss_batch_hard,
)
from reidkit.geometry import BLOCK_ROWS


def _meta(labels):
    return MetaTable([SampleMeta(f"img{i:03d}", int(p), 0) for i, p in enumerate(labels)])


def test_per_sample_losses_match_naive():
    rng = np.random.default_rng(31)
    for _ in range(10):
        labels = np.repeat(np.arange(rng.integers(2, 5)), rng.integers(2, 5))
        x = rng.normal(size=(labels.size, 6))
        losses = per_sample_losses(x, _meta(labels))
        _, ref = naive_triplet(x, labels, 0.4)
        assert np.allclose(losses, ref, atol=1e-9)
    # integer grid: many exactly tied distances; mining and the triplet
    # loss share one batch-hard selector, so their hinges agree exactly
    x = np.array([[i % 4, i // 4] for i in range(12)], dtype=np.float64)
    labels = np.arange(12) % 3
    losses = per_sample_losses(x, _meta(labels))
    _, per_anchor = triplet_loss_batch_hard(x, labels)
    assert np.array_equal(losses, per_anchor)
    assert np.allclose(losses, naive_triplet(x, labels, 0.4)[1], atol=1e-9)


def test_per_sample_losses_known_values():
    # anchor 0: hardest positive at distance 4, nearest negative at 0.5
    x = np.array([[0.0, 0.0], [3.0, 0.0], [4.0, 0.0], [0.5, 0.0], [5.0, 0.0]])
    meta = _meta([0, 0, 0, 1, 1])
    losses = per_sample_losses(x, meta, TripletParams(margin=0.4))
    assert losses[0] == pytest.approx(4.0 - 0.5 + 0.4, abs=1e-12)


def test_per_sample_losses_over_several_row_blocks():
    # 600 anchors span three row blocks; an integer grid gives exactly tied
    # distances, and every grid point appears twice.  A far singleton in the
    # last block must get no positive, not even itself.
    grid = np.array([[i % 10, i // 10 % 6, i // 60] for i in range(300)], dtype=np.float64)
    x = np.concatenate([grid, grid[::-1], [[50.0, 50.0, 50.0]]])
    labels = np.append(np.arange(600) % 7, 7)
    assert 600 > 2 * BLOCK_ROWS
    with pytest.warns(RuntimeWarning, match="^1 sample"):
        losses = per_sample_losses(x, _meta(labels))
    assert losses[600] == 0.0
    x, labels, losses = x[:600], labels[:600], losses[:600]
    assert np.array_equal(losses, triplet_loss_batch_hard(x, labels)[1])
    assert np.allclose(losses, naive_triplet(x.tolist(), labels.tolist(), 0.4)[1], atol=1e-9)


def test_per_sample_losses_peak_memory_is_a_few_row_blocks():
    # float32 features, as the mining pass gets them: the float64 copy plus
    # a few BLOCK_ROWS x n float64 blocks, and no n x d float64 temporary
    n, d = 3000, 256
    x = np.random.default_rng(33).normal(size=(n, d)).astype(np.float32)
    meta = _meta(np.arange(n) % 50)
    tracemalloc.start()
    try:
        per_sample_losses(x, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * d * 8 + 4 * BLOCK_ROWS * n * 8, f"peak {peak / 2**20:.1f} MiB"


def test_per_sample_losses_rejects_bad_features():
    meta = _meta([0, 0, 1, 1])
    x = np.arange(8, dtype=np.float64).reshape(4, 2)
    # 1e200 squares past float64; 1e154 overflows the distances' sums
    for bad in (np.nan, np.inf, -np.inf, 1e200, 1e154):
        y = x.copy()
        y[2, 1] = bad
        with pytest.raises(DataError) as err:
            per_sample_losses(y, meta)
        assert err.value.exit_code == 3
    for shape in ((4,), (4, 2, 1)):
        with pytest.raises(ShapeError) as err:
            per_sample_losses(np.zeros(shape), meta)
        assert err.value.exit_code == 3


def test_degenerate_samples_warn_and_get_zero():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    meta = _meta([0, 0, 0])  # nobody has a negative
    with pytest.warns(RuntimeWarning):
        losses = per_sample_losses(x, meta)
    assert np.array_equal(losses, np.zeros(3))
    # singleton identity 9 lacks a positive; the others have a far positive
    # (d=3) and a near negative (d=1), so their hinge is strictly active
    x2 = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0]])
    meta2 = _meta([0, 0, 9])
    with pytest.warns(RuntimeWarning):
        losses2 = per_sample_losses(x2, meta2)
    assert losses2[2] == 0.0
    assert losses2[0] > 0.0


def test_partition_boundaries():
    thresholds = MiningThresholds(t_hard=1.0, t_noise=2.0)
    report = partition_samples([0.99, 1.0, 1.99, 2.0, 5.0], thresholds)
    assert report.partition == [
        SampleClass.CLEAN,
        SampleClass.HARD,
        SampleClass.HARD,
        SampleClass.NOISE,
        SampleClass.NOISE,
    ]
    counts = report.counts()
    assert counts[SampleClass.CLEAN] == 1
    assert counts[SampleClass.HARD] == 2
    assert counts[SampleClass.NOISE] == 2


def test_partition_and_counts_equal_the_per_sample_loop():
    rng = np.random.default_rng(41)
    losses = np.concatenate([rng.random(997) * 3.0, [1.0, 2.0, np.inf, -np.inf, 0.0]])
    thresholds = MiningThresholds(t_hard=1.0, t_noise=2.0)
    expected = [SampleClass.NOISE if v >= 2.0 else SampleClass.HARD if v >= 1.0
                else SampleClass.CLEAN for v in losses]
    report = partition_samples(losses, thresholds)
    assert all(got is want for got, want in zip(report.partition, expected, strict=True))
    assert report.counts() == {cls: expected.count(cls) for cls in SampleClass}
    assert list(report.counts()) == list(SampleClass)


def test_partition_rejects_inverted_thresholds():
    with pytest.raises(ConfigError):
        partition_samples([1.0], MiningThresholds(t_hard=2.0, t_noise=2.0))


def test_partition_rejects_nan_losses():
    # a NaN loss fails every threshold comparison, so it would land in CLEAN
    for losses in ([np.nan], [0.5, np.nan, 3.0]):
        with pytest.raises(DataError):
            partition_samples(losses, MiningThresholds(t_hard=0.1, t_noise=0.2))


def test_threshold_quantiles_linear_interpolation():
    losses = np.arange(100, dtype=np.float64)  # 0..99
    t = thresholds_from_quantiles(losses, q_hard=0.7, q_noise=0.95)
    assert t.t_hard == pytest.approx(69.3, abs=1e-12)
    assert t.t_noise == pytest.approx(94.05, abs=1e-12)


def test_threshold_quantile_validation():
    with pytest.raises(ConfigError):
        thresholds_from_quantiles([1.0, 2.0], q_hard=0.9, q_noise=0.5)
    with pytest.raises(ConfigError):
        thresholds_from_quantiles([], 0.5, 0.9)
    # NaN quantiles would reach MiningThresholds and be blamed on the thresholds
    with pytest.raises(DataError):
        thresholds_from_quantiles([1.0, np.nan, 2.0])


def test_resample_plan_four_images_gets_sixteen_copies():
    meta = _meta([0, 0, 0, 0])
    plan = balanced_resample_plan(meta, target=20, max_copies=5)
    assert sum(c for _, c in plan.copies) == 16
    assert [c for _, c in plan.copies] == [4, 4, 4, 4]


def test_resample_plan_respects_max_copies_cap():
    meta = _meta([0, 0])
    plan = balanced_resample_plan(meta, target=20, max_copies=5)
    # two originals can only reach 2 * (1 + 5) = 12, i.e. 10 copies
    assert [c for _, c in plan.copies] == [5, 5]
    # counts past int64: 2 * (1 + 2**62) must not wrap
    plan = balanced_resample_plan(meta, target=2**62, max_copies=2**62)
    assert plan.copies == [(0, 2**61 - 1), (1, 2**61 - 1)]


def test_resample_plan_round_robin_remainder():
    meta = _meta([0, 0, 0])
    plan = balanced_resample_plan(meta, target=5, max_copies=5)
    # need 2 extras over 3 samples: first two samples get one copy each
    assert plan.copies == [(0, 1), (1, 1)]


def test_resample_plan_skips_full_identities():
    meta = _meta([0] * 20 + [1] * 3)
    plan = balanced_resample_plan(meta, target=20, max_copies=5)
    touched = {i for i, _ in plan.copies}
    assert touched == {20, 21, 22}
    # identity 1 can only reach 3 * (1 + 5) = 18 of the 20 asked for
    assert sum(c for _, c in plan.copies) == 15

    # identities of 1 to 11 rows, interleaved and shuffled: the plan a per-row
    # loop deals, round-robin over each identity's rows in table order
    labels = np.random.default_rng(8).permutation(np.repeat([9, 2, 40, 7, 5], [1, 2, 4, 6, 11]))
    for target, max_copies in ((6, 2), (10, 5), (20, 1)):
        by_id, copies = {}, {}
        for i, p in enumerate(labels):
            by_id.setdefault(p, []).append(i)
        for rows in by_id.values():
            k = len(rows)
            if k < target:
                need = min(target, k * (1 + max_copies)) - k
                copies.update((i, need // k + (j < need % k)) for j, i in enumerate(rows))
        plan = balanced_resample_plan(_meta(labels), target, max_copies)
        assert plan.copies == sorted((i, c) for i, c in copies.items() if c > 0)


def test_resample_plan_validation():
    with pytest.raises(ConfigError):
        balanced_resample_plan(MetaTable([]))
    with pytest.raises(ConfigError):
        balanced_resample_plan(_meta([0, 0]), target=0)


def test_save_mining_report(tmp_path):
    meta = _meta([0, 0, 1, 1])
    report = partition_samples([0.1, 5.0, 1.5, 0.2],
                               MiningThresholds(t_hard=1.0, t_noise=4.0))
    path = tmp_path / "mine.csv"
    save_mining_report(report, meta, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "image_id,loss,class"
    assert lines[1].startswith("img000,") and lines[1].endswith(",clean")
    assert lines[2].endswith(",noise")
    assert lines[3].endswith(",hard")
    with pytest.raises(ConfigError):
        save_mining_report(report, _meta([0, 0]), path)
