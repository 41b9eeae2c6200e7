"""Retrieval evaluation: gallery ranking, mAP and CMC.

Matching follows the standard ReID protocol: a gallery item matches a
query when the person ids agree; with the same-camera exclusion flag,
gallery items sharing both person and camera with the query are removed
from the ranked list entirely (neither hit nor miss).  Queries left
without a single potential match are skipped and only counted.

AP per query is the mean of i / r_i over its matches, where r_i is the
1-based rank of the i-th match in the (possibly camera-filtered) list;
CMC[k] is the fraction of valid queries with a match in the top k.  Lists
are ranked in ascending (distance, index) order.  AP and CMC only need the
places of a query's matches and junk items in that list, so
``evaluate_distances`` reads them straight from the distances without
ranking the gallery; ``evaluate`` reads them from a given ranking.  Both
feed one AP/CMC loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, EvalError
from .tensorio import MetaTable, write_bytes, write_csv


@dataclass
class EvalReport:
    map: float
    cmc: np.ndarray
    n_valid_queries: int
    n_skipped: int = 0


def rank_gallery(distances: np.ndarray) -> np.ndarray:
    """Gallery indices of each query row in ascending (distance, index) order.

    Equals ``np.argsort(distances, axis=1, kind="stable")``: equal distances
    (``-0.0`` and ``0.0`` included) keep index order, so rankings are
    deterministic.  The order comes from numpy's default unstable argsort;
    each position then gets the start of its run of equal sorted values,
    and one sort of the integer keys ``run_start * m + index`` puts every
    run of ties in index order.  NaN has no place in this order, so a NaN
    distance raises DataError.
    """
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise ConfigError(f"distance matrix must be 2-D, got shape {distances.shape}")
    if np.isnan(distances).any():
        raise DataError("distance matrix contains NaN")
    n, m = distances.shape
    order = np.argsort(distances, axis=1)
    values = np.take_along_axis(distances, order, axis=1)
    starts_run = np.ones((n, m), dtype=bool)
    np.not_equal(values[:, 1:], values[:, :-1], out=starts_run[:, 1:])
    del values  # freed before the key array is made: the peak stays near twice the output
    key = starts_run * np.arange(m)
    np.maximum.accumulate(key, axis=1, out=key)
    key *= m
    key += order
    key.sort(axis=1)
    return np.remainder(key, m, out=key)


def _check_layout(matrix, what, query_meta, gallery_meta, topk):
    if matrix.ndim != 2:
        raise ConfigError(f"{what} must be 2-D, got shape {matrix.shape}")
    if len(query_meta) != matrix.shape[0] or len(gallery_meta) != matrix.shape[1]:
        raise ConfigError(
            f"metadata sizes ({len(query_meta)}, {len(gallery_meta)}) do not match "
            f"{what} shape {matrix.shape}"
        )
    if topk < 1:
        raise ConfigError(f"topk must be >= 1, got {topk}")


def _score(places, query_meta, gallery_meta, exclude_same_camera, topk) -> EvalReport:
    """The AP/CMC loop over all queries.

    ``places(i, items)`` returns the 0-based places of the gallery indices
    ``items`` in query i's full ranked list.  It runs for every query,
    skipped ones included, so it can also validate each row.
    """
    g_pids = gallery_meta.person_ids
    g_cams = gallery_meta.camera_ids
    by_person = np.argsort(g_pids, kind="stable")
    ids, starts = np.unique(g_pids[by_person], return_index=True)
    galleries = dict(zip(ids.tolist(), np.split(by_person, starts[1:])))
    nobody = by_person[:0]

    aps = []
    first_match_ranks = []
    skipped = 0
    for i, q in enumerate(query_meta):
        items = galleries.get(q.person_id, nobody)
        at = places(i, items)
        junk = (g_cams[items] == q.camera_id) & exclude_same_camera
        hits = at[~junk]
        if hits.size == 0:
            skipped += 1
            continue
        hits.sort()
        junk_at = at[junk]
        junk_at.sort()
        # junk ranked ahead of a match leaves the list and moves the match up
        hits -= junk_at.searchsorted(hits)
        # the same pairwise sum and division as np.mean, without its per-call overhead
        aps.append((np.arange(1, hits.size + 1) / (hits + 1.0)).sum() / hits.size)
        first_match_ranks.append(hits[0] + 1)

    if not aps:
        raise EvalError("every query was skipped (no potential matches)")

    first = np.asarray(first_match_ranks)
    cmc = np.array([(first <= k).mean() for k in range(1, topk + 1)])
    return EvalReport(
        map=float(np.mean(aps)),
        cmc=cmc,
        n_valid_queries=len(aps),
        n_skipped=skipped,
    )


def evaluate(
    ranking: np.ndarray,
    query_meta: MetaTable,
    gallery_meta: MetaTable,
    exclude_same_camera: bool = False,
    topk: int = 50,
) -> EvalReport:
    """mAP and CMC of a ranking against query/gallery metadata.

    Each ranking row lists gallery indices best first.  Raises ConfigError
    unless the ranking is 2-D and matches the metadata, and DataError
    unless each row is a permutation of range(ng).  Places come from each
    row's inverse permutation.
    """
    ranking = np.asarray(ranking)
    _check_layout(ranking, "ranking", query_meta, gallery_meta, topk)
    ng = ranking.shape[1]
    if not np.issubdtype(ranking.dtype, np.integer) or (
        ranking.size and (ranking.min() < 0 or ranking.max() >= ng)
    ):
        raise DataError(f"ranking must hold integer gallery indices in [0, {ng})")

    inverse = np.empty(ng, dtype=np.intp)
    slots = np.arange(ng)

    def places(i, items):
        # one O(ng) scatter: an in-range row that fills every slot is a permutation
        inverse.fill(-1)
        inverse[ranking[i]] = slots
        if (inverse < 0).any():
            raise DataError(f"ranking row {i} repeats a gallery index, so it is not a permutation")
        return inverse[items]

    return _score(places, query_meta, gallery_meta, exclude_same_camera, topk)


def evaluate_distances(
    distances: np.ndarray,
    query_meta: MetaTable,
    gallery_meta: MetaTable,
    exclude_same_camera: bool = False,
    topk: int = 50,
) -> EvalReport:
    """mAP and CMC of a distance matrix, equal to ``evaluate(rank_gallery(distances), ...)``.

    No ranking is built.  Per query row, one value-only sort gives the
    place of each match or junk item j: the number of strictly smaller
    distances (a ``searchsorted``) plus the number of equal distances at
    lower indices.  That count orders only the members of the tied runs,
    so a row costs O(ng log ng) however many items share one value.
    Raises ConfigError on a shape mismatch and DataError on a NaN distance.
    """
    distances = np.asarray(distances)
    _check_layout(distances, "distance matrix", query_meta, gallery_meta, topk)

    def places(i, items):
        row = distances[i]
        ordered = np.sort(row)  # NaN sorts last
        if ordered.size and np.isnan(ordered[-1]):
            raise DataError(f"distance matrix contains NaN (row {i})")
        values = row[items]
        at = np.searchsorted(ordered, values, "left")
        tied = np.searchsorted(ordered, values, "right") - at > 1
        if tied.any():
            at[tied] += _equal_before(row, items[tied])
        return at

    return _score(places, query_meta, gallery_meta, exclude_same_camera, topk)


def _equal_before(row, items):
    """For each index j in ``items``, the number of k < j with row[k] == row[j]."""
    members = np.flatnonzero(np.isin(row, row[items]))
    values = row[members]
    order = np.argsort(values, kind="stable")  # (value, index) order of the tied runs
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    return slot[np.searchsorted(members, items)] - np.searchsorted(values[order], row[items], "left")


def ablation_table(reports) -> str:
    """Render (name, EvalReport) pairs as a method-vs-mAP(%) table."""
    rows = list(reports)
    if not rows:
        raise ConfigError("ablation table needs at least one report")
    names = [name if name else "(unnamed)" for name, _ in rows]
    width = max(len("method"), *(len(n) for n in names))
    lines = [f"{'method':<{width}}  mAP(%)"]
    for name, report in zip(names, (r for _, r in rows)):
        lines.append(f"{name:<{width}}  {report.map * 100.0:.4f}")
    return "\n".join(lines)


def save_report(report: EvalReport, path) -> None:
    """Flat key=value serialization of an evaluation report."""
    lines = [
        f"map={float(report.map)!r}",
        f"n_valid_queries={int(report.n_valid_queries)}",
        f"n_skipped={int(report.n_skipped)}",
    ]
    for k in (1, 5, 10, 20):
        if k <= report.cmc.size:
            lines.append(f"cmc_top{k}={float(report.cmc[k - 1])!r}")
    write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def save_cmc_csv(report: EvalReport, path) -> None:
    """CMC curve as a two-column CSV (rank, cmc)."""
    rows = ([k, repr(float(v))] for k, v in enumerate(report.cmc, start=1))
    write_csv(path, ["rank", "cmc"], rows)
