"""Distance computation, normalization, flip-feature fusion and GeM pooling.

All functions are pure and accumulate in float64 before rounding the result
to float32, so outputs are reproducible regardless of how callers
parallelize over rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError


@dataclass(frozen=True)
class GemParams:
    """Exponent of the generalized power mean; p=1 is average pooling."""

    p: float = 3.0

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ConfigError(f"GeM exponent must be >= 1, got {self.p}")


def _as_2d(m, name):
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def feature_pair(q, g):
    """``q`` and ``g`` as 2-D arrays of one width; DataError on NaN or Inf."""
    q = np.asarray(q)
    g = np.asarray(g)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ShapeError(f"incompatible shapes {q.shape} vs {g.shape}")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(g))):
        raise DataError("features contain NaN or Inf")
    return q, g


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; all-zero rows pass through unchanged."""
    m = _as_2d(m, "features")
    x = m.astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return (x / safe).astype(np.float32)


def euclidean_distances64(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Float64 distance kernel, entry (i, j) = ||q_i - g_j||; no input checks.

    Takes float64 (n, d) and (m, d) arrays.  Uses the
    ||q||^2 + ||g||^2 - 2 q.g expansion with a clamp at zero to absorb
    negative rounding residue before the square root.  Retrieval, the
    triplet loss and mining all take their Euclidean distances from here.
    """
    d = np.sum(q * q, axis=1)[:, None] + np.sum(g * g, axis=1)[None, :]
    d -= 2.0 * (q @ g.T)
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


def euclidean_distances(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances ||q_i - g_j||, rounded to float32; DataError on NaN/Inf."""
    q, g = feature_pair(q, g)
    return euclidean_distances64(q.astype(np.float64), g.astype(np.float64)).astype(np.float32)


def cosine_distances(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances 1 - cos(q_i, g_j).

    Zero vectors have undefined direction and are assigned distance 1 to
    everything (similarity 0).  Raises DataError on NaN or Inf features.
    """
    q, g = feature_pair(q, g)
    qn = l2_normalize(q).astype(np.float64)
    gn = l2_normalize(g).astype(np.float64)
    sim = qn @ gn.T
    d = 1.0 - sim
    np.clip(d, 0.0, 2.0, out=d)
    return d.astype(np.float32)


# Query x gallery distance functions by the name the `metric` option takes.
DISTANCES = {"euclidean": euclidean_distances, "cosine": cosine_distances}


def fuse_flip_features(orig: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """Elementwise mean of the original-image and flipped-image features."""
    orig = _as_2d(orig, "original features")
    flipped = _as_2d(flipped, "flipped features")
    if orig.shape != flipped.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {flipped.shape}")
    fused = (orig.astype(np.float64) + flipped.astype(np.float64)) * 0.5
    return fused.astype(np.float32)


def gem_pool(fmap: np.ndarray, params: GemParams = GemParams()) -> np.ndarray:
    """Generalized-mean pooling of an (H, W, C) activation map to C values.

    Per channel: ((1/(H*W)) sum x^p)^(1/p).  The map is rescaled by its
    channel maximum internally, so large exponents do not overflow.
    """
    fmap = np.asarray(fmap)
    if fmap.ndim != 3:
        raise ShapeError(f"feature map must be (H, W, C), got shape {fmap.shape}")
    if np.any(fmap < 0):
        raise DataError("feature map contains negative activations")
    x = fmap.astype(np.float64)
    peak = x.max(axis=(0, 1))
    safe = np.where(peak == 0.0, 1.0, peak)
    pooled = peak * np.mean((x / safe) ** params.p, axis=(0, 1)) ** (1.0 / params.p)
    return pooled.astype(np.float32)
