"""Retrieval evaluation: gallery ranking, mAP and CMC.

Matching follows the standard ReID protocol: a gallery item matches a
query when the person ids agree; with the same-camera exclusion flag,
gallery items sharing both person and camera with the query are removed
from the ranked list entirely (neither hit nor miss).  Queries left
without a single potential match are skipped and only counted.

AP per query is the mean of i / r_i over its matches, where r_i is the
1-based rank of the i-th match in the (possibly camera-filtered) list;
CMC[k] is the fraction of valid queries with a match in the top k.  Lists
are ranked in ascending (distance, index) order, the order of a stable
argsort, which ``rank_gallery`` returns.  AP and CMC only need the places
of a query's matches and junk items in that list: one row at a time,
``evaluate_distances`` reads them straight from the distances, with no
ranking built, and ``evaluate`` from a given ranking, for (query, gallery)
pairs built once per call.  One pass over all pairs then scores every
query, with no loop.
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

    ``np.argsort(distances, axis=1, kind="stable")``: equal distances
    (``-0.0`` and ``0.0`` included) keep index order, so rankings are
    deterministic.  NaN has no place in this order, so a NaN distance
    raises DataError.
    """
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise ConfigError(f"distance matrix must be 2-D, got shape {distances.shape}")
    if np.isnan(distances.max(initial=0)):
        raise DataError("distance matrix contains NaN")
    return np.argsort(distances, axis=1, kind="stable")


def check_topk(topk):
    """ConfigError unless the CMC curve has at least one rank."""
    if topk < 1:
        raise ConfigError(f"topk must be >= 1, got {topk}")


def _check_layout(matrix, what, query_meta, gallery_meta, topk):
    if matrix.ndim != 2:
        raise ConfigError(f"{what} must be 2-D, got shape {matrix.shape}")
    if len(query_meta) != matrix.shape[0] or len(gallery_meta) != matrix.shape[1]:
        raise ConfigError(
            f"metadata sizes ({len(query_meta)}, {len(gallery_meta)}) do not match "
            f"{what} shape {matrix.shape}"
        )
    check_topk(topk)


def _pairs(query_meta, gallery_meta):
    """Flat (query, gallery) index pairs of each query's same-person gallery
    items, in query then gallery order; query i holds pairs bounds[i]:bounds[i + 1]."""
    g_pids = gallery_meta.person_ids
    by_person = np.argsort(g_pids, kind="stable")
    g_pids = g_pids[by_person]
    first = g_pids.searchsorted(query_meta.person_ids, "left")
    count = g_pids.searchsorted(query_meta.person_ids, "right") - first
    bounds = np.concatenate(([0], np.cumsum(count)))
    qi = np.repeat(np.arange(count.size), count)
    gj = by_person[np.arange(qi.size) + np.repeat(first - bounds[:-1], count)]
    return qi, gj, bounds.tolist()


def _score(qi, gj, at, query_meta, gallery_meta, exclude_same_camera, topk) -> EvalReport:
    """AP and CMC of all queries; at[k] is the 0-based place of gj[k] in query qi[k]'s list.

    Sorting the keys ``query * ng + place`` orders each query's matches and
    junk by rank.  The AP sums run over (queries, h) blocks of the queries
    with h matches; numpy sums each block row as it sums those h ratios in
    1-D, so every AP equals that of a per-query loop bit for bit.
    """
    ng = len(gallery_meta)
    key = qi * ng + at
    junk = (gallery_meta.camera_ids[gj] == query_meta.camera_ids[qi]) & exclude_same_camera
    hits = np.sort(key[~junk])
    junk_keys = np.sort(key[junk])
    # junk of the same query ranked ahead of a match leaves the list and moves the match up
    place = hits % ng
    place -= junk_keys.searchsorted(hits) - junk_keys.searchsorted(hits - place)
    counts = np.unique(hits // ng, return_counts=True)[1]
    if counts.size == 0:
        raise EvalError("every query was skipped (no potential matches)")

    starts = np.cumsum(counts) - counts
    # match n of a query (1-based) over its rank
    ratio = (np.arange(1, hits.size + 1) - np.repeat(starts, counts)) / (place + 1.0)
    aps = np.empty(counts.size)
    for h in np.unique(counts).tolist():
        of_h = np.flatnonzero(counts == h)
        aps[of_h] = ratio[starts[of_h, None] + np.arange(h)].sum(axis=1) / h

    first = place[starts] + 1
    cmc = np.array([(first <= k).mean() for k in range(1, topk + 1)])
    return EvalReport(
        map=float(np.mean(aps)),
        cmc=cmc,
        n_valid_queries=aps.size,
        n_skipped=len(query_meta) - aps.size,
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

    qi, gj, bounds = _pairs(query_meta, gallery_meta)
    at = np.empty_like(gj)
    inverse = np.empty(ng, dtype=np.intp)
    slots = np.arange(ng)
    for i, row in enumerate(ranking):
        # one O(ng) scatter: an in-range row that fills every slot is a permutation
        inverse.fill(-1)
        inverse[row] = slots
        if (inverse < 0).any():
            raise DataError(f"ranking row {i} repeats a gallery index, so it is not a permutation")
        at[bounds[i]:bounds[i + 1]] = inverse[gj[bounds[i]:bounds[i + 1]]]
    return _score(qi, gj, at, query_meta, gallery_meta, exclude_same_camera, topk)


def evaluate_distances(
    distances: np.ndarray,
    query_meta: MetaTable,
    gallery_meta: MetaTable,
    exclude_same_camera: bool = False,
    topk: int = 50,
) -> EvalReport:
    """mAP and CMC of a distance matrix, equal to ``evaluate(rank_gallery(distances), ...)``.

    No ranking is built.  Per row, one value-only sort gives the place of
    the gallery item j of each of the row's ``_pairs``: the number of strictly
    smaller distances (a ``searchsorted``) plus the number of equal distances
    at lower indices, which orders only the members of tied runs, so a row
    costs O(ng log ng) however many items share one value.  Raises
    ConfigError on a shape mismatch and DataError on a NaN in any row.
    """
    distances = np.asarray(distances)
    _check_layout(distances, "distance matrix", query_meta, gallery_meta, topk)

    qi, gj, bounds = _pairs(query_meta, gallery_meta)
    at = np.empty_like(gj)
    for i, row in enumerate(distances):
        ordered = np.sort(row)  # NaN sorts last
        if ordered.size and np.isnan(ordered[-1]):
            raise DataError(f"distance matrix contains NaN (row {i})")
        pairs = slice(bounds[i], bounds[i + 1])
        values = row[gj[pairs]]
        at[pairs] = ordered.searchsorted(values, "left")
        tied = ordered.searchsorted(values, "right") - at[pairs] > 1
        if tied.any():
            at[pairs][tied] += _equal_before(row, gj[pairs][tied])
    return _score(qi, gj, at, query_meta, gallery_meta, exclude_same_camera, topk)


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
