"""Pixel-level augmentations on raw RGB buffers.

Images are (H, W, 3) uint8 arrays, row-major interleaved RGB.  All
randomized ops take an explicit generator from
:func:`reidkit.synthetic.make_rng`, which is Philox-based (counter RNG) so
the same seed reproduces the same bytes on any platform.  The draw order
inside each op is fixed and documented in its docstring; golden-image tests
depend on it.

Images travel through the CLI as binary PPM (P6, maxval 255).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError
from .tensorio import read_bytes, write_bytes

_MAX_REGION_ATTEMPTS = 100

# ITU-R BT.601 luma weights, rounded half-up when quantizing
_LUMA = (0.299, 0.587, 0.114)


class FillMode(Enum):
    RANDOM_PER_PIXEL = "random-per-pixel"
    CHANNEL_MEAN = "channel-mean"


@dataclass(frozen=True)
class LgtParams:
    """Gate probability and rectangle bounds; :class:`EraseParams` adds a fill."""

    probability: float = 0.5
    area_low: float = 0.02
    area_high: float = 0.4
    aspect_low: float = 0.3
    aspect_high: float = 3.33

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")
        if not (0.0 < self.area_low <= self.area_high < 1.0):
            raise ConfigError(
                f"area fractions must satisfy 0 < low <= high < 1, got [{self.area_low}, {self.area_high}]"
            )
        if not (0.0 < self.aspect_low <= self.aspect_high):
            raise ConfigError(
                f"aspect bounds must satisfy 0 < low <= high, got [{self.aspect_low}, {self.aspect_high}]"
            )


@dataclass(frozen=True)
class EraseParams(LgtParams):
    fill: FillMode = FillMode.RANDOM_PER_PIXEL


@dataclass(frozen=True)
class Rect:
    top: int
    left: int
    height: int
    width: int


def _check_image(img) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"image must be (H, W, 3), got shape {img.shape}")
    if img.dtype != np.uint8:
        raise DataError(f"image must be uint8, got {img.dtype}")
    return img


def horizontal_flip(img: np.ndarray) -> np.ndarray:
    """Mirror columns: output column j is input column W-1-j.

    Returns a new C-ordered image whatever the input's layout.  Each channel
    is copied on its own, so the reversed copy moves single bytes along a
    row instead of 3-byte pixels.
    """
    img = _check_image(img)
    out = np.empty(img.shape, np.uint8)
    for ch in range(3):
        out[:, :, ch] = img[:, ::-1, ch]
    return out


def _sample_region(rng, height, width, p):
    """Rectangle with area fraction in [area_low, area_high] and aspect
    (h/w) in [aspect_low, aspect_high]; None after 100 failed attempts.

    Per attempt draws: area fraction, then aspect; on fit, top then left.
    """
    for _ in range(_MAX_REGION_ATTEMPTS):
        area = rng.uniform(p.area_low, p.area_high) * height * width
        aspect = rng.uniform(p.aspect_low, p.aspect_high)
        h = int(round(np.sqrt(area * aspect)))
        w = int(round(np.sqrt(area / aspect)))
        if 1 <= h <= height and 1 <= w <= width:
            top = int(rng.integers(0, height - h + 1))
            left = int(rng.integers(0, width - w + 1))
            return Rect(top=top, left=left, height=h, width=w)
    return None


def random_erase(img: np.ndarray, params: EraseParams, rng: np.random.Generator):
    """Overwrite a random rectangle with noise or the channel means.

    Draw order: one uniform gate draw (skip when >= probability), then the
    region draws of :func:`_sample_region`, then -- for the random fill --
    h*w*3 byte draws.  Returns (image, rect) with rect None when nothing
    was erased; pixels outside rect are bit-identical to the input.
    """
    img = _check_image(img)
    out = img.copy()
    if rng.random() >= params.probability:
        return out, None
    rect = _sample_region(rng, img.shape[0], img.shape[1], params)
    if rect is None:
        return out, None
    rows = slice(rect.top, rect.top + rect.height)
    cols = slice(rect.left, rect.left + rect.width)
    if params.fill is FillMode.RANDOM_PER_PIXEL:
        out[rows, cols] = rng.integers(0, 256, size=(rect.height, rect.width, 3), dtype=np.uint8)
    else:
        mean = np.floor(img.reshape(-1, 3).mean(axis=0) + 0.5).astype(np.uint8)
        out[rows, cols] = mean
    return out, rect


def grayscale_region(img: np.ndarray, rect: Rect) -> np.ndarray:
    """Replace one rectangle by its BT.601 grayscale (round half up)."""
    img = _check_image(img)
    out = img.copy()
    rows = slice(rect.top, rect.top + rect.height)
    cols = slice(rect.left, rect.left + rect.width)
    patch = out[rows, cols].astype(np.float64)
    gray = np.floor(
        _LUMA[0] * patch[:, :, 0] + _LUMA[1] * patch[:, :, 1] + _LUMA[2] * patch[:, :, 2] + 0.5
    )
    out[rows, cols] = np.clip(gray, 0, 255).astype(np.uint8)[:, :, None]
    return out


def local_grayscale(img: np.ndarray, params: LgtParams, rng: np.random.Generator):
    """Grayscale a random rectangle in place, leaving the rest untouched.

    Same gate/region draw order as :func:`random_erase`; the grayscale
    itself consumes no randomness.  Returns (image, rect).
    """
    img = _check_image(img)
    if rng.random() >= params.probability:
        return img.copy(), None
    rect = _sample_region(rng, img.shape[0], img.shape[1], params)
    if rect is None:
        return img.copy(), None
    return grayscale_region(img, rect), rect


def load_ppm(path) -> np.ndarray:
    """Read a binary PPM (P6, maxval 255) into an (H, W, 3) uint8 array."""
    blob = read_bytes(path)
    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            c = blob[pos:pos + 1]
            if c == b"#":  # comment runs to end of line
                while pos < len(blob) and blob[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PPM header")
        return blob[start:pos]

    if token() != b"P6":
        raise FormatError(f"{path}: not a binary PPM (P6) file")
    try:
        width = int(token())
        height = int(token())
        maxval = int(token())
    except ValueError:
        raise FormatError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}, expected 255")
    if width < 0 or height < 0:
        raise FormatError(f"{path}: negative PPM size {width}x{height}")
    pos += 1  # single whitespace byte after maxval
    payload = blob[pos:]
    expected = height * width * 3
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def save_ppm(img: np.ndarray, path) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM (P6)."""
    img = _check_image(img)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    write_bytes(path, header + np.ascontiguousarray(img).tobytes())
