"""Distance computation, normalization, flip-feature fusion and GeM pooling.

All functions are pure and accumulate in float64 before rounding the result
to float32, so outputs are reproducible regardless of how callers
parallelize over rows.  Query x gallery passes here and in ``rerank`` fill
their float32 output ``BLOCK_ROWS`` query rows at a time, the batch-hard
pass in ``losses`` walks the same blocks of anchors and GeM pooling the
same blocks of pixel rows, so their float64 temporaries stay a block in
size whatever the number of queries or pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError

BLOCK_ROWS = 256  # query rows per block of a query x gallery pass


def row_blocks(n):
    """Slices of at most ``BLOCK_ROWS`` rows that cover ``range(n)`` in order."""
    return [slice(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]


def squared_norms(x):
    """``np.sum(x * x, axis=1)`` taken one row block at a time, so the squared
    copy of ``x`` is a block in size; each row sums as it would in one pass."""
    out = np.empty(x.shape[0], dtype=x.dtype)
    for rows in row_blocks(x.shape[0]):
        out[rows] = np.sum(x[rows] * x[rows], axis=1)
    return out


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
    """Scale each row to unit L2 norm; all-zero rows pass through unchanged.

    Runs one row block at a time into the float32 output.  Raises DataError
    when a row's float64 norm is not finite (NaN or Inf, or an overflow).
    """
    m = _as_2d(m, "features")
    out = np.empty(m.shape, dtype=np.float32)
    for rows in row_blocks(m.shape[0]):
        x = m[rows].astype(np.float64)
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(x, axis=1, keepdims=True)
        if not np.isfinite(norms).all():
            raise DataError("features hold a row whose L2 norm is not finite")
        out[rows] = x / np.where(norms == 0.0, 1.0, norms)
    return out


def euclidean_distances64(q: np.ndarray, g: np.ndarray, gg: np.ndarray | None = None) -> np.ndarray:
    """Float64 distance kernel, entry (i, j) = ||q_i - g_j||; no input checks.

    Takes float64 (n, d) and (m, d) arrays; ``gg``, when given, is
    ``squared_norms(g)``, so callers that pass one g with many blocks of q
    take it once.  Uses the
    ||q||^2 + ||g||^2 - 2 q.g expansion, which cancels for (near-)duplicate
    rows: every entry with d^2 <= 1e-10 * (||q_i||^2 + ||g_j||^2), negative
    rounding residue included, is taken again as sum((q_i - g_j)^2), so
    identical rows are exactly 0 apart.  Retrieval, the triplet loss and
    mining all take their Euclidean distances from here.
    """
    qq = squared_norms(q)
    if gg is None:
        gg = squared_norms(g)
    d = qq[:, None] + gg[None, :]
    d -= 2.0 * (q @ g.T)
    # candidates against the largest ||g_j||^2 first, so the exact test
    # runs on a few entries; then at most len(g) pairs of rows at a time
    cand = np.flatnonzero(d <= 1e-10 * (qq + gg.max(initial=0.0))[:, None])
    i, j = np.divmod(cand, d.shape[1])
    near = d[i, j] <= 1e-10 * (qq[i] + gg[j])
    i, j = i[near], j[near]
    step = max(len(g), 1)
    for at in range(0, len(i), step):
        ii, jj = i[at:at + step], j[at:at + step]
        diff = q[ii] - g[jj]
        d[ii, jj] = np.sum(diff * diff, axis=1)
    return np.sqrt(d, out=d)


def euclidean_distances(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances ||q_i - g_j||, rounded to float32; DataError on NaN/Inf."""
    q, g = feature_pair(q, g)
    g = g.astype(np.float64)
    gg = squared_norms(g)
    out = np.empty((q.shape[0], g.shape[0]), dtype=np.float32)
    for rows in row_blocks(q.shape[0]):
        out[rows] = euclidean_distances64(q[rows].astype(np.float64), g, gg)
    return out


def cosine_distances(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances 1 - cos(q_i, g_j).

    Zero vectors have undefined direction and are assigned distance 1 to
    everything (similarity 0).  Raises DataError on NaN or Inf features.
    """
    q, g = feature_pair(q, g)
    qn = l2_normalize(q)
    gn = l2_normalize(g).astype(np.float64)
    out = np.empty((q.shape[0], g.shape[0]), dtype=np.float32)
    for rows in row_blocks(q.shape[0]):
        d = qn[rows].astype(np.float64) @ gn.T
        np.subtract(1.0, d, out=d)
        out[rows] = np.clip(d, 0.0, 2.0, out=d)
    return out


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
    Raises ShapeError on a map with no pixels and DataError on negative,
    NaN or Inf activations, checked on the channel minima and peaks.

    The H*W pixel rows are scaled and raised to p ``BLOCK_ROWS`` at a time
    in one float64 buffer of (block + 1) x C whose row 0 carries the running
    sum, so for C >= 2 the rows add in the order of a whole-map ``np.mean``
    over (H, W) (for C = 1 numpy adds pairwise, here within each block).
    The channel peaks are taken in the map's own dtype; a map that is not
    C-ordered is copied once, also in its own dtype.
    """
    fmap = np.asarray(fmap)
    if fmap.ndim != 3:
        raise ShapeError(f"feature map must be (H, W, C), got shape {fmap.shape}")
    n = fmap.shape[0] * fmap.shape[1]
    if n == 0:
        raise ShapeError(f"feature map has no pixels, got shape {fmap.shape}")
    flat = fmap.reshape(n, fmap.shape[2])
    # a NaN minimum is not below 0, so NaN falls through to the peak check
    if (flat.min(axis=0) < 0).any():
        raise DataError("feature map contains negative activations")
    peak = flat.max(axis=0)
    if not np.isfinite(peak).all():
        raise DataError("feature map contains NaN or Inf")
    peak = peak.astype(np.float64)
    safe = np.where(peak == 0.0, 1.0, peak)
    buf = np.empty((min(n, BLOCK_ROWS) + 1, flat.shape[1]))
    for rows in row_blocks(n):
        top = 1 + rows.stop - rows.start
        block = np.divide(flat[rows], safe, out=buf[1:top])
        block **= params.p
        # row 0 holds the sum of the blocks before; the first block has none
        buf[0] = np.add.reduce(buf[0 if rows.start else 1:top], axis=0)
    pooled = peak * (buf[0] / n) ** (1.0 / params.p)
    return pooled.astype(np.float32)
