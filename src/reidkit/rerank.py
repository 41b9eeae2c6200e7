"""Inference-side retrieval gains: k-reciprocal re-ranking with Jaccard
distance, alpha-weighted query expansion, and distance-matrix ensembling.

The re-ranking runs over the concatenated query+gallery set:

1. Euclidean distances between all points.
2. k-reciprocal sets R(p, k1) = {g in N(p, k1) : p in N(g, k1)}, where
   N(p, k) is the first k entries of p's distance-ranked list (the point
   itself included; ties broken by lower index).
3. Expansion: for each q' in R(p, k1), merge R(q', ceil(k1/2)) when at
   least 2/3 of it already lies in R(p, k1).
4. Row encoding V_p[g] = exp(-d(p, g)) inside the expanded set, else 0,
   L1-normalized.
5. Local query expansion: V_p becomes the mean of V over N(p, k2).
6. Jaccard distance 1 - sum(min(V_p, V_g)) / sum(max(V_p, V_g)).
7. Blend (1 - lambda) * jaccard + lambda * euclidean, query x gallery block.

Memory: one (q+g) x (q+g) float32 distance matrix, which exact neighbour
order, the reciprocal test and the row encoding read, freed once the
q x g block the blend needs is copied out; for the expansion, a bool
bitmap of ``BLOCK_ROWS`` x (q+g) bytes; V in sparse row form with about
(q+g) * |expanded set| entries (local query expansion merges one block of
``BLOCK_ROWS`` rows at a time, so its k2-fold merge keys exist for one
block only); and, for the Jaccard term and the blend, float64 arrays of
``geometry.chunk_rows`` query rows by g.  Neighbour lists come from a
partition to k1 over blocks of rows; the reciprocal sets from a rank test
on those distances, p in N(x, k) exactly when (d(x, p), p) comes no later
than x's k-th neighbour; the expanded sets from the bitmap, one block of
rows at a time; and the Jaccard term from an inverted index over gallery
columns.

Query expansion holds, besides its float32 normalized inputs, one block
of query rows' float64 similarities (filled one block of gallery rows at
a time, the gallery upcast only a block at a time) and its partition
copy.  The ensemble sums a few rows at a time into a fresh float32 result
or, with ``out=``, into one of its own inputs, so a caller that owns a
matrix holds no second one for the sum; an input opened with
``tensorio.open_distances`` is read from its file a chunk at a time, so
fusing k files holds no more than fusing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .geometry import (
    BLOCK_ROWS,
    _gallery_blocks,
    chunk_rows,
    euclidean_distances64,
    feature_pair,
    l2_normalize,
    row_blocks,
    squared_norms,
)
from .tensorio import DistanceFile


@dataclass(frozen=True)
class RerankParams:
    k1: int = 20
    k2: int = 6
    lam: float = 0.1

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1 or self.k2 > self.k1:
            raise ConfigError(f"need 1 <= k2 <= k1, got k1={self.k1}, k2={self.k2}")
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class AqeParams:
    k: int = 5
    alpha: float = 3.0

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError(f"neighbor count must be >= 0, got {self.k}")
        if not (self.alpha >= 0.0):
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")


def _row_ptr(rows, n):
    """CSR row pointers of the sorted row indices ``rows`` over n rows."""
    return np.searchsorted(rows, np.arange(n + 1))


def _ranges(starts, lens):
    """Concatenation of ``arange(s, s + l)`` over the pairs of ``starts`` and ``lens``."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(int(ends[-1]) if len(ends) else 0)


def _neighbours(dist, k):
    """The first k entries of each row's (distance, index) order, shape (n, k).

    Equals ``np.argsort(dist, axis=1, kind="stable")[:, :k]``: a partition
    finds each row's k-th smallest distance, and only the entries at or
    below it are sorted.  Re-ranking takes its k1-neighbour lists from here
    and query expansion its top-k gallery items (``dist`` = -similarity).
    """
    out = np.empty((dist.shape[0], k), dtype=np.intp)
    for block_rows in row_blocks(dist.shape[0]):
        block = dist[block_rows]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1]
        at = np.flatnonzero(block <= kth[:, None])
        rows, cols = np.divmod(at, block.shape[1])
        # ``at`` runs in (row, column) order and lexsort is stable, so equal
        # distances keep the lower column first
        order = np.lexsort((np.take(block, at), rows))
        rows, cols = rows[order], cols[order]
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        out[block_rows] = cols[rank < k].reshape(-1, k)
    return out


def _reciprocal_pairs(top, dist):
    """Pairs (p, x) with x in R(p, k) for the (n, k) neighbour lists ``top``.

    ``top`` holds the first k entries of each row's (distance, index) order
    in ``dist``, so p lies in N(x, k) exactly when (d[x, p], p) comes no
    later than (d[x, l], l) in (distance, index) order, l being x's k-th
    neighbour.  ``p`` is sorted and each R(p, k) keeps its neighbour order.
    """
    n, k = top.shape
    p = np.repeat(np.arange(n), k)
    x = top.ravel()
    last = top[x, k - 1]
    d_p, d_last = dist[x, p], dist[x, last]
    mutual = (d_p < d_last) | ((d_p == d_last) & (p <= last))
    return p[mutual], x[mutual]


def _expanded_sets(top, dist):
    """Pairs (p, x) of the expanded sets, sorted by p and then x.

    ``top`` holds the (n, k1) neighbour lists of ``dist``.  The expanded set
    of p is R(p, k1) merged with every R(c, ceil(k1/2)), c in R(p, k1), of
    which at least 2/3 already lies in R(p, k1).  One block of rows of p at
    a time, R(p, k1) is marked in a bitmap of the block's rows by n, which
    answers "x in R(p, k1)" for the (p, c, x) triples with x in
    R(c, ceil(k1/2)); the accepted triples are marked too, and the set
    entries, read back in order, are the block's pairs.
    """
    n, k1 = top.shape
    rp, rx = _reciprocal_pairs(top, dist)
    hp, hx = _reciprocal_pairs(top[:, :math.ceil(k1 / 2)], dist)
    r_ptr, h_ptr = _row_ptr(rp, n), _row_ptr(hp, n)
    h_len = np.diff(h_ptr)
    bitmap = np.zeros(min(BLOCK_ROWS, n) * n, dtype=bool)
    keys = []
    for rows in row_blocks(n):
        block = slice(r_ptr[rows.start], r_ptr[rows.stop])
        p, c = rp[block] - rows.start, rx[block]
        lens = h_len[c]
        pair = np.repeat(np.arange(len(p)), lens)
        at = p[pair] * n + hx[_ranges(h_ptr[c], lens)]
        bitmap[p * n + c] = True
        hits = np.bincount(pair, weights=bitmap[at], minlength=len(p))
        bitmap[at[(hits >= (2.0 / 3.0) * lens)[pair]]] = True
        found = np.flatnonzero(bitmap)
        bitmap[found] = False
        keys.append(found + rows.start * n)
    return np.divmod(np.concatenate(keys), n)


def _local_query_expansion(vp, vx, vv, nb):
    """V with row p replaced by the mean of the rows ``nb[p]``, in neighbour order.

    V comes and goes in sparse row form: row indices ``vp`` (sorted),
    column indices ``vx`` and values ``vv``.  The new rows are merged one
    block of rows at a time, so the merge keys exist for one block only;
    each key's weights still add in neighbour order.
    """
    n, k2 = nb.shape
    v_ptr = _row_ptr(vp, n)
    v_len = np.diff(v_ptr)
    keys, sums = [], []
    for rows in row_blocks(n):
        block = nb[rows].ravel()
        lens = v_len[block]
        at = _ranges(v_ptr[block], lens)
        owner = np.repeat(np.repeat(np.arange(rows.start, rows.stop), k2), lens)
        block_keys, inverse = np.unique(owner * n + vx[at], return_inverse=True)
        keys.append(block_keys)
        sums.append(np.bincount(inverse, weights=vv[at]))
    vp, vx = np.divmod(np.concatenate(keys), n)
    return vp, vx, np.concatenate(sums) / k2


def _jaccard_blend(vp, vx, vv, orig, lam):
    """(1 - lam) * Jaccard(V_q, V_g) + lam * ``orig`` over the q x g block, as float32.

    sum(min) runs over the shared support through an inverted index of the
    gallery rows by column, and sum(max) = |V_p| + |V_g| - sum(min); both,
    and the blend, exist for ``geometry.chunk_rows`` query rows at a time.
    """
    nq, ng = orig.shape
    n = nq + ng
    row_sums = np.bincount(vp, weights=vv, minlength=n)
    q_ptr = _row_ptr(vp, nq)
    gal = np.flatnonzero(vp >= nq)
    gal = gal[np.argsort(vx[gal], kind="stable")]
    col_ptr = _row_ptr(vx[gal], n)
    col_len = np.diff(col_ptr)
    g_row, g_val = vp[gal] - nq, vv[gal]
    out = np.empty((nq, ng), dtype=np.float32)
    for rows in row_blocks(nq, chunk_rows(ng)):
        mins = np.empty((rows.stop - rows.start, ng), dtype=np.float64)
        for i in range(rows.start, rows.stop):
            cols, vals = vx[q_ptr[i]:q_ptr[i + 1]], vv[q_ptr[i]:q_ptr[i + 1]]
            lens = col_len[cols]
            at = _ranges(col_ptr[cols], lens)
            shared = np.minimum(np.repeat(vals, lens), g_val[at])
            mins[i - rows.start] = np.bincount(g_row[at], weights=shared, minlength=ng)
        maxs = row_sums[rows, None] + row_sums[None, nq:] - mins
        # in place of mins: 1 - mins / maxs where maxs > 0, else 1, then the blend
        with np.errstate(invalid="ignore", divide="ignore"):
            blended = np.subtract(1.0, np.divide(mins, maxs, out=mins), out=mins)
        blended[~(maxs > 0.0)] = 1.0
        blended *= 1.0 - lam
        blended += lam * orig[rows].astype(np.float64)
        out[rows] = np.maximum(blended, 0.0, out=blended)
    return out


def k_reciprocal_rerank(q: np.ndarray, g: np.ndarray, params: RerankParams = RerankParams()) -> np.ndarray:
    """Re-rank query x gallery distances with k-reciprocal Jaccard encoding.

    With lam=1 the output equals the plain Euclidean query x gallery
    distances.  Neighbor ties are broken by lower index, so the result is
    deterministic.  Works on the float32 features and raises DataError
    when one is NaN or Inf (a float64 value beyond the float32 range is).
    """
    with np.errstate(over="ignore"):
        q, g = feature_pair(np.asarray(q, dtype=np.float32), np.asarray(g, dtype=np.float32))
    nq = q.shape[0]
    n = nq + g.shape[0]
    if params.k1 >= n:
        raise ConfigError(f"k1={params.k1} must be below the total sample count {n}")

    feats = np.vstack([q, g], dtype=np.float64)
    norms = squared_norms(feats)
    dist = np.empty((n, n), dtype=np.float32)
    # squared_norms walks these same blocks, so norms[rows] are the block's own
    for rows in row_blocks(n):
        dist[rows] = euclidean_distances64(feats[rows], feats, norms, norms[rows])
    top = _neighbours(dist, params.k1)
    vp, vx = _expanded_sets(top, dist)

    # V: exp(-d) on the expanded sets, L1-normalized per row
    w = np.exp(-dist[vp, vx].astype(np.float64))
    orig = dist[:nq, nq:].copy()
    del dist  # only the q x g block is read from here on
    total = np.bincount(vp, weights=w, minlength=n)[vp]
    vv = np.divide(w, total, out=np.zeros_like(w), where=total > 0.0)

    vp, vx, vv = _local_query_expansion(vp, vx, vv, top[:, :params.k2])
    return _jaccard_blend(vp, vx, vv, orig, params.lam)


def aqe_expand(q: np.ndarray, g: np.ndarray, params: AqeParams = AqeParams()) -> np.ndarray:
    """Alpha-weighted query expansion.

    Each query is replaced by the weighted mean of itself (weight 1) and
    its top-k gallery neighbors by cosine similarity, neighbor weight
    similarity**alpha; vectors are L2-normalized before averaging and the
    result is re-normalized.  Negative similarities contribute weight 0
    (fractional alpha is undefined for them).  k=0 returns the normalized
    queries unchanged.  Raises DataError on NaN or Inf features.  Runs one
    block of query rows at a time, with no per-query loop: the block's
    float64 similarities to the float32 normalized gallery are multiplied
    one block of gallery rows at a time (``geometry._gallery_blocks``) into
    one array, negated in place for the neighbour search, and only the
    gathered neighbour rows of the gallery are upcast.  Negation and the
    float32 to float64 cast are exact, so the result is the one a float64
    copy of the whole gallery gives.
    """
    q, g = feature_pair(q, g)
    if params.k > g.shape[0]:
        raise ConfigError(f"k={params.k} exceeds gallery size {g.shape[0]}")

    qn = l2_normalize(q)
    gn = l2_normalize(g)  # before k=0 returns: it checks g
    if params.k == 0:
        return qn
    expanded = np.empty(qn.shape)
    sims = np.empty((min(BLOCK_ROWS, len(qn)), len(gn)))  # reused by every block
    for rows in row_blocks(qn.shape[0]):
        qb = qn[rows].astype(np.float64)
        neg = sims[:len(qb)]
        for cols, gb in _gallery_blocks(gn):
            np.matmul(qb, gb.T, out=neg[:, cols])
        order = _neighbours(np.negative(neg, out=neg), params.k)
        s = -np.take_along_axis(neg, order, axis=1)
        # sim**alpha, except non-positive similarities drop out entirely
        # (fractional alpha is undefined there, and 0**0 would weight them 1)
        w = np.where(s > 0.0, np.power(np.maximum(s, 0.0), params.alpha), 0.0)
        acc = qb + np.matmul(w[:, None, :], gn[order].astype(np.float64))[:, 0]
        expanded[rows] = acc / (1.0 + w.sum(axis=1))[:, None]
    return l2_normalize(expanded)


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise DataError below
def ensemble_distances(matrices, normalize: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise sum of identically shaped distance matrices.

    Each input is an array or a :class:`tensorio.DistanceFile` from
    ``tensorio.open_distances``, which is read a few rows at a time and
    never held whole.  Each input's float64 bounds are taken once, in list
    order (a file's are those found when it was opened); the first input
    whose span ``max - min`` is not finite (NaN or Inf, or a span beyond
    float64) raises DataError naming it.  With ``normalize`` each input is
    min-max scaled to [0, 1] by those bounds (a constant matrix maps to all
    zeros and is not read).  The sum runs in float64, a few rows at a time
    (``geometry.chunk_rows``), straight into the float32 result, through a
    total and a scaled buffer of one chunk each, allocated once per call.
    Without ``normalize`` a sum beyond float32 raises DataError.  A file
    that is shorter than when opened, or holds a value outside its bounds,
    raises FormatError or DataError when its rows are read.

    ``out``, as in numpy, is a writable float32 array of the inputs' shape
    that receives the result and is returned; ShapeError otherwise.  It may
    be one of the inputs themselves (the pipeline sums into its own
    matrix): the bounds are taken before the first row is written, and each
    chunk reads all its inputs before it writes those rows of ``out``.  It
    must not overlap any other input array.  On an error raised while
    summing it may hold part of the sum.
    """
    mats = [m if isinstance(m, DistanceFile) else np.asarray(m) for m in matrices]
    if not mats:
        raise ConfigError("ensemble needs at least one distance matrix")
    shape = mats[0].shape
    for m in mats:
        if len(m.shape) != 2 or 0 in m.shape:
            raise ShapeError(f"distance matrices must be 2-D and non-empty, got shape {m.shape}")
        if m.shape != shape:
            raise ShapeError(f"shape mismatch in ensemble: {m.shape} vs {shape}")
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float32 and out.shape == shape
              and out.flags.writeable):
        raise ShapeError(f"ensemble out must be a writable float32 array of shape {shape}")
    elif any(np.may_share_memory(m, out) and (m.ctypes.data, m.strides) != (out.ctypes.data, out.strides)
             for m in mats if isinstance(m, np.ndarray)):
        raise ShapeError("ensemble out overlaps an input it is not")
    # float64 bounds: hi - lo taken in float32 would round differently
    bounds = [m.bounds if isinstance(m, DistanceFile) else (m.min(), m.max()) for m in mats]
    bounds = [(np.float64(lo), np.float64(hi)) for lo, hi in bounds]
    for i, (lo, hi) in enumerate(bounds):
        if not np.isfinite(hi - lo):
            raise DataError(f"ensemble input {i} holds NaN or Inf, or spans more than float64")
    # reused by every chunk, so two chunks' temporaries are never alive at once
    chunk = chunk_rows(shape[1])
    total_buf = np.empty((min(shape[0], chunk), shape[1]))
    scaled_buf = np.empty_like(total_buf) if normalize else None
    for rows in row_blocks(shape[0], chunk):
        total = total_buf[:rows.stop - rows.start]
        total.fill(0.0)
        for m, (lo, hi) in zip(mats, bounds):
            if not normalize:
                total += m[rows]
            elif hi > lo:
                scaled = np.subtract(m[rows], lo, dtype=np.float64, out=scaled_buf[:len(total)])
                scaled /= hi - lo
                total += scaled
        out[rows] = total
    if not normalize and not np.isfinite([out.min(), out.max()]).all():
        raise DataError("the ensemble sum overflows float32")
    return out
