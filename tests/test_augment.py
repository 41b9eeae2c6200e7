import numpy as np
import pytest

from reidkit import (
    ConfigError,
    DataError,
    EraseParams,
    FillMode,
    FormatError,
    LgtParams,
    Rect,
    ShapeError,
    grayscale_region,
    horizontal_flip,
    load_ppm,
    local_grayscale,
    make_rng,
    random_erase,
    save_ppm,
)


def _random_image(rng, h=40, w=24):
    return rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)


def test_flip_reverses_columns_and_is_involution():
    rng = np.random.default_rng(41)
    for _ in range(100):
        img = _random_image(rng, int(rng.integers(2, 20)), int(rng.integers(2, 20)))
        flipped = horizontal_flip(img)
        assert np.array_equal(flipped[:, 0], img[:, -1])
        assert np.array_equal(horizontal_flip(flipped), img)


def test_flip_is_c_ordered_whatever_the_input_layout():
    img = _random_image(np.random.default_rng(43), 9, 14)
    for view in (img, np.asfortranarray(img), img[::2, 1::3]):
        flipped = horizontal_flip(view)
        assert flipped.flags.c_contiguous and flipped.dtype == np.uint8
        assert np.array_equal(flipped, view[:, ::-1])


def test_flip_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        horizontal_flip(np.zeros((4, 4), dtype=np.uint8))


def test_luma_known_values():
    # BT.601 with round-half-up: floor(0.299 R + 0.587 G + 0.114 B + 0.5)
    cases = {
        (255, 0, 0): 76,
        (0, 255, 0): 150,
        (0, 0, 255): 29,
        (255, 255, 255): 255,
        (0, 0, 0): 0,
        (100, 150, 200): 141,
    }
    for (r, g, b), want in cases.items():
        img = np.full((2, 2, 3), (r, g, b), dtype=np.uint8)
        out = grayscale_region(img, Rect(0, 0, 2, 2))
        assert out[0, 0].tolist() == [want, want, want], (r, g, b)


def test_grayscale_region_only_touches_rect():
    rng = np.random.default_rng(42)
    img = _random_image(rng)
    rect = Rect(top=5, left=3, height=7, width=9)
    out = grayscale_region(img, rect)
    inside = out[5:12, 3:12]
    assert np.array_equal(inside[:, :, 0], inside[:, :, 1])
    assert np.array_equal(inside[:, :, 1], inside[:, :, 2])
    mask = np.ones(img.shape[:2], dtype=bool)
    mask[5:12, 3:12] = False
    assert np.array_equal(out[mask], img[mask])
    # idempotent: a gray patch stays put
    assert np.array_equal(grayscale_region(out, rect), out)


def test_random_erase_probability_zero_is_identity():
    rng = np.random.default_rng(43)
    img = _random_image(rng)
    out, rect = random_erase(img, EraseParams(probability=0.0), make_rng(1))
    assert rect is None
    assert np.array_equal(out, img)
    assert out is not img  # callers own the copy


def test_random_erase_geometry_and_untouched_outside():
    rng = np.random.default_rng(44)
    params = EraseParams(probability=1.0)
    for seed in range(30):
        img = _random_image(rng)
        out, rect = random_erase(img, params, make_rng(seed))
        assert rect is not None
        h, w = img.shape[:2]
        assert 1 <= rect.height <= h and 1 <= rect.width <= w
        assert 0 <= rect.top <= h - rect.height
        assert 0 <= rect.left <= w - rect.width
        mask = np.ones((h, w), dtype=bool)
        mask[rect.top:rect.top + rect.height, rect.left:rect.left + rect.width] = False
        assert np.array_equal(out[mask], img[mask])


def test_random_erase_is_deterministic_per_seed():
    rng = np.random.default_rng(45)
    img = _random_image(rng)
    params = EraseParams(probability=1.0)
    a, rect_a = random_erase(img, params, make_rng(7))
    b, rect_b = random_erase(img, params, make_rng(7))
    assert rect_a == rect_b
    assert np.array_equal(a, b)
    c, _ = random_erase(img, params, make_rng(8))
    assert not np.array_equal(a, c)


def test_random_erase_channel_mean_fill():
    rng = np.random.default_rng(46)
    img = _random_image(rng)
    params = EraseParams(probability=1.0, fill=FillMode.CHANNEL_MEAN)
    out, rect = random_erase(img, params, make_rng(3))
    expected = np.floor(img.reshape(-1, 3).mean(axis=0) + 0.5).astype(np.uint8)
    patch = out[rect.top:rect.top + rect.height, rect.left:rect.left + rect.width]
    assert np.array_equal(patch, np.broadcast_to(expected, patch.shape))


def test_local_grayscale_region_matches_direct_call():
    rng = np.random.default_rng(47)
    img = _random_image(rng)
    params = LgtParams(probability=1.0)
    out, rect = local_grayscale(img, params, make_rng(11))
    assert rect is not None
    assert np.array_equal(out, grayscale_region(img, rect))
    patch = out[rect.top:rect.top + rect.height, rect.left:rect.left + rect.width]
    assert np.array_equal(patch[:, :, 0], patch[:, :, 1])
    assert np.array_equal(patch[:, :, 1], patch[:, :, 2])


def test_erase_and_lgt_share_the_region_sampler():
    rng = np.random.default_rng(48)
    img = _random_image(rng)
    _, rect_erase = random_erase(img, EraseParams(probability=1.0), make_rng(5))
    _, rect_lgt = local_grayscale(img, LgtParams(probability=1.0), make_rng(5))
    assert rect_erase == rect_lgt


def test_gate_draw_consumed_even_when_skipped():
    # the gate draw must advance the stream so that downstream draws stay
    # aligned no matter whether the op fired
    img = np.zeros((8, 8, 3), dtype=np.uint8)
    rng_a = make_rng(9)
    random_erase(img, EraseParams(probability=0.0), rng_a)
    rng_b = make_rng(9)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_region_param_validation():
    img = np.zeros((8, 8, 3), dtype=np.uint8)
    bad = [
        dict(probability=1.5),
        dict(area_low=0.0),
        dict(area_low=0.5, area_high=0.2),
        dict(area_high=1.0),
        dict(aspect_low=0.0),
        dict(aspect_low=2.0, aspect_high=1.0),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            random_erase(img, EraseParams(**kwargs), make_rng(0))
    with pytest.raises(DataError):
        random_erase(img.astype(np.int32), EraseParams(), make_rng(0))


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(49)
    img = _random_image(rng, 13, 7)
    path = tmp_path / "img.ppm"
    save_ppm(img, path)
    assert np.array_equal(load_ppm(path), img)


def test_ppm_header_with_comments(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    path = tmp_path / "c.ppm"
    payload = img.tobytes()
    path.write_bytes(b"P6 # comment\n# another comment\n2 2\n255\n" + payload)
    assert np.array_equal(load_ppm(path), img)


def test_ppm_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        load_ppm(path)
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(FormatError):
        load_ppm(path)
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(11))  # one byte short
    with pytest.raises(FormatError):
        load_ppm(path)
    path.write_bytes(b"P6\n2 two\n255\n" + bytes(12))
    with pytest.raises(FormatError):
        load_ppm(path)
    path.write_bytes(b"P6\n-1 -2\n255\n" + bytes(6))  # product matches the payload
    with pytest.raises(FormatError):
        load_ppm(path)
