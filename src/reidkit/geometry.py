"""Distance computation, normalization, flip-feature fusion and GeM pooling.

All functions are pure and accumulate in float64 before rounding the result
to float32, so outputs are reproducible regardless of how callers
parallelize over rows.  Query x gallery passes here and in ``rerank`` fill
their float32 output ``BLOCK_ROWS`` query rows at a time, the batch-hard
pass in ``losses`` walks the same blocks of anchors and GeM pooling the
same blocks of pixel rows, so their float64 temporaries stay a block in
size whatever the number of queries or pixels.  The gallery side is
blocked too: distances and query expansion upcast the float32 gallery
``4 * BLOCK_ROWS`` rows at a time (``_gallery_blocks``), so no pass holds a
float64 copy of the whole gallery, and each entry's product is the one a
whole-gallery product gives.  Within a block, in-place passes such as the
distance kernel's sum of squared norms and flip fusion's mean work through
one buffer of ``chunk_rows`` rows, so a block holds one float64 array of
its own size, not several.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError

BLOCK_ROWS = 256  # query rows per block of a query x gallery pass
CHUNK_ELEMENTS = 2**15  # float64 entries (256 KiB) per chunk of an in-place pass over a block


def row_blocks(n, size=BLOCK_ROWS):
    """Slices of at most ``size`` rows that cover ``range(n)`` in order."""
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def chunk_rows(ncols):
    """Rows of ``ncols`` float64 entries that fit one ``CHUNK_ELEMENTS`` chunk (at least 1)."""
    return max(1, CHUNK_ELEMENTS // max(ncols, 1))


def _gallery_blocks(g):
    """``(cols, g[cols] as float64)`` over blocks of ``4 * BLOCK_ROWS`` gallery rows.

    A last block of one row joins the block before it: numpy multiplies a
    one-row operand through BLAS gemv, which sums in another order than
    gemm, so its products could differ from a whole-gallery ``q @ g.T``.
    """
    blocks = row_blocks(len(g), 4 * BLOCK_ROWS)
    if len(blocks) > 1 and blocks[-1].stop - blocks[-1].start == 1:
        blocks[-2:] = [slice(blocks[-2].start, len(g))]
    for cols in blocks:
        yield cols, g[cols].astype(np.float64)


def squared_norms(x):
    """``np.sum(x * x, axis=1)`` taken one row block at a time, so the squared
    copy of ``x`` is a block in size; each row sums as it would in one pass.
    Every feature path reaches this one check first: DataError when a row's
    sum is not finite (NaN or Inf, or an overflow such as a 1e200 float64 row)."""
    out = np.empty(x.shape[0], dtype=x.dtype)
    with np.errstate(over="ignore"):
        for rows in row_blocks(x.shape[0]):
            out[rows] = np.sum(x[rows] * x[rows], axis=1)
    if not np.isfinite(out).all():
        raise DataError("features hold NaN or Inf, or a row whose squared norm overflows")
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
    """``q`` and ``g`` as 2-D arrays of one width; ``squared_norms`` checks the values."""
    q = np.asarray(q)
    g = np.asarray(g)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ShapeError(f"incompatible shapes {q.shape} vs {g.shape}")
    return q, g


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; all-zero rows pass through unchanged.

    Runs one row block at a time into the float32 output.  The norms come
    from ``squared_norms``, so NaN, Inf and overflowing rows raise DataError.
    """
    m = _as_2d(m, "features")
    out = np.empty(m.shape, dtype=np.float32)
    for rows in row_blocks(m.shape[0]):
        x = m[rows].astype(np.float64)
        norms = np.sqrt(squared_norms(x))[:, None]
        out[rows] = x / np.where(norms == 0.0, 1.0, norms)
    return out


def euclidean_distances64(
    q: np.ndarray, g: np.ndarray, gg: np.ndarray | None = None, qq: np.ndarray | None = None
) -> np.ndarray:
    """Float64 distance kernel, entry (i, j) = ||q_i - g_j||; no shape checks.

    Takes float64 (n, d) and (m, d) arrays; ``gg`` and ``qq``, when given,
    are ``squared_norms(g)`` and ``squared_norms(q)``, so callers that pass
    one g with many blocks of q, or blocks of g itself, take them once.
    Uses the ||q||^2 + ||g||^2 - 2 q.g expansion: the product q @ g.T is
    doubled in place and, ``chunk_rows`` rows at a time, replaced by
    (||q||^2 + ||g||^2) - 2 q.g through one small buffer, so the block of
    distances is the only (n, m) float64 array; each entry rounds as
    fl(fl(qq + gg) - fl(2 q.g)).  The expansion cancels for (near-)duplicate
    rows: every entry with d^2 <= 1e-10 * (||q_i||^2 + ||g_j||^2), negative
    rounding residue included, is taken again as sum((q_i - g_j)^2), so
    identical rows are exactly 0 apart.  Retrieval, the triplet loss and
    mining all take their Euclidean distances from here.  Raises DataError
    when a squared norm exceeds a quarter of the float64 maximum: below
    that, ||q||^2 + ||g||^2, |2 q.g| and the exact re-take cannot overflow.
    """
    if qq is None:
        qq = squared_norms(q)
    if gg is None:
        gg = squared_norms(g)
    gg_max = gg.max(initial=0.0)
    if max(qq.max(initial=0.0), gg_max) > np.finfo(np.float64).max / 4:
        raise DataError("features hold a row too large for float64 distances")
    d = q @ g.T
    d *= 2.0
    chunk = chunk_rows(len(g))
    buf = np.empty((min(chunk, len(q)), len(g)))  # once per call, not per chunk
    for rows in row_blocks(len(q), chunk):
        sums = np.add(qq[rows, None], gg, out=buf[:rows.stop - rows.start])
        np.subtract(sums, d[rows], out=d[rows])
    # candidates against the largest ||g_j||^2 first, so the exact test
    # runs on a few entries; then at most len(g) pairs of rows at a time
    cand = np.flatnonzero(d <= 1e-10 * (qq + gg_max)[:, None])
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
    """Pairwise Euclidean distances ||q_i - g_j||, rounded to float32; DataError on NaN/Inf.

    Fills the output one tile at a time: each block of gallery rows is
    upcast once and its squared norms taken, then each ``BLOCK_ROWS`` block
    of queries goes through ``euclidean_distances64`` against it, with the
    query norms taken once per call.  Every entry equals the one a single
    kernel call on the whole float64 gallery gives.
    """
    q, g = feature_pair(q, g)
    query_blocks = row_blocks(q.shape[0])
    qq = np.empty(q.shape[0])
    for rows in query_blocks:
        qq[rows] = squared_norms(q[rows].astype(np.float64))
    out = np.empty((q.shape[0], g.shape[0]), dtype=np.float32)
    for cols, gb in _gallery_blocks(g):
        gg = squared_norms(gb)
        for rows in query_blocks:
            out[rows, cols] = euclidean_distances64(q[rows].astype(np.float64), gb, gg, qq[rows])
    return out


def cosine_distances(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances 1 - cos(q_i, g_j).

    Zero vectors have undefined direction and are assigned distance 1 to
    everything (similarity 0).  Raises DataError on NaN or Inf features.
    The rows are normalized in float32, then each tile of ``BLOCK_ROWS``
    queries by one block of gallery rows is multiplied in float64 and
    finished in place in its own product before it is rounded to float32.
    """
    q, g = feature_pair(q, g)
    qn = l2_normalize(q)
    gn = l2_normalize(g)
    out = np.empty((q.shape[0], g.shape[0]), dtype=np.float32)
    for cols, gb in _gallery_blocks(gn):
        for rows in row_blocks(q.shape[0]):
            d = qn[rows].astype(np.float64) @ gb.T
            np.subtract(1.0, d, out=d)
            out[rows, cols] = np.clip(d, 0.0, 2.0, out=d)
            del d  # before the next tile's product is allocated
    return out


# Query x gallery distance functions by the name the `metric` option takes.
DISTANCES = {"euclidean": euclidean_distances, "cosine": cosine_distances}


def fuse_flip_features(orig: np.ndarray, flipped: np.ndarray) -> np.ndarray:
    """Elementwise mean of the original-image and flipped-image features.

    The mean is taken in float64, ``chunk_rows`` rows at a time through one
    buffer, and written into the float32 result, so the only float64 array
    is one chunk.  Raises DataError when the float32 mean holds NaN or Inf:
    NaN and Inf inputs carry into it, and so does a mean beyond float32's
    range.
    """
    orig = _as_2d(orig, "original features")
    flipped = _as_2d(flipped, "flipped features")
    if orig.shape != flipped.shape:
        raise ShapeError(f"shape mismatch: {orig.shape} vs {flipped.shape}")
    fused = np.empty(orig.shape, dtype=np.float32)
    chunk = chunk_rows(orig.shape[1])
    buf = np.empty((min(chunk, orig.shape[0]), orig.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the output
        for rows in row_blocks(orig.shape[0], chunk):
            mean = np.add(orig[rows], flipped[rows], dtype=np.float64, out=buf[:rows.stop - rows.start])
            mean *= 0.5
            fused[rows] = mean
    if not np.isfinite([fused.min(initial=0.0), fused.max(initial=0.0)]).all():
        raise DataError("fused flip features hold NaN or Inf")
    return fused


def _power_in_place(block, p, base):
    """``block **= p`` for a whole number p >= 2 by left-to-right binary
    exponentiation (p = 3 is ``x *= x; x *= base``), ``len(base)`` rows at a
    time so that a chunk and its copy in ``base`` stay in cache."""
    bits = bin(p)[3:]  # the bits after the leading 1
    for at in range(0, len(block), len(base)):
        x = block[at:at + len(base)]
        b = base[:len(x)]
        if "1" in bits:  # p = 2, 4 and 8 only square
            np.copyto(b, x)
        for bit in bits:
            x *= x
            if bit == "1":
                x *= b


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
    A whole-number p from 2 to 8 is raised by in-place squaring and
    multiplying, ``BLOCK_ROWS // 8`` rows at a time against a copy of those
    rows, which rounds within a few float64 ulp of ``pow``; any other p
    (fractional, above 8 or infinite) goes through ``pow``.
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
    # int(p) only after this test, as int(inf) raises; the cap bounds the
    # rounding error and the loop (p = 1e300 is a whole number too)
    whole = float(params.p).is_integer() and 2 <= params.p <= 8
    base = np.empty((min(n, BLOCK_ROWS // 8), flat.shape[1])) if whole else None
    for rows in row_blocks(n):
        top = 1 + rows.stop - rows.start
        block = np.divide(flat[rows], safe, out=buf[1:top])
        if whole:
            _power_in_place(block, int(params.p), base)
        else:
            block **= params.p
        # row 0 holds the sum of the blocks before; the first block has none
        buf[0] = np.add.reduce(buf[0 if rows.start else 1:top], axis=0)
    pooled = peak * (buf[0] / n) ** (1.0 / params.p)
    return pooled.astype(np.float32)
