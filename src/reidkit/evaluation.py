"""Retrieval evaluation: gallery ranking, mAP and CMC.

Matching follows the standard ReID protocol: a gallery item matches a
query when the person ids agree; with the same-camera exclusion flag,
gallery items sharing both person and camera with the query are removed
from the ranked list entirely (neither hit nor miss).  Queries left
without a single potential match are skipped and only counted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, EvalError, IoError
from .tensorio import MetaTable


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


def evaluate(
    ranking: np.ndarray,
    query_meta: MetaTable,
    gallery_meta: MetaTable,
    exclude_same_camera: bool = False,
    topk: int = 50,
) -> EvalReport:
    """mAP and CMC of a ranking against query/gallery metadata.

    AP per query is the mean of i / r_i over its matches, where r_i is the
    1-based rank of the i-th match in the (possibly camera-filtered) list.
    CMC[k] is the fraction of valid queries with a match in the top k.
    Raises DataError unless each ranking row is a permutation of range(ng).
    """
    ranking = np.asarray(ranking)
    nq, ng = ranking.shape
    if len(query_meta) != nq or len(gallery_meta) != ng:
        raise ConfigError(
            f"metadata sizes ({len(query_meta)}, {len(gallery_meta)}) do not match "
            f"ranking shape {ranking.shape}"
        )
    if topk < 1:
        raise ConfigError(f"topk must be >= 1, got {topk}")
    if not np.issubdtype(ranking.dtype, np.integer) or (
        ranking.size and (ranking.min() < 0 or ranking.max() >= ng)
    ):
        raise DataError(f"ranking must hold integer gallery indices in [0, {ng})")

    g_pids = gallery_meta.person_ids
    g_cams = gallery_meta.camera_ids

    aps = []
    first_match_ranks = []
    skipped = 0
    seen = np.empty(ng, dtype=bool)
    for i in range(nq):
        q = query_meta[i]
        order = ranking[i]
        # one O(ng) scatter: an in-range row that marks every slot is a permutation
        seen[:] = False
        seen[order] = True
        if not seen.all():
            raise DataError(f"ranking row {i} repeats a gallery index, so it is not a permutation")
        match = g_pids[order] == q.person_id
        if exclude_same_camera:
            junk = match & (g_cams[order] == q.camera_id)
            keep = ~junk
            match = match[keep]
        hits = np.flatnonzero(match)
        if hits.size == 0:
            skipped += 1
            continue
        ranks = hits + 1.0
        aps.append(np.mean(np.arange(1, hits.size + 1) / ranks))
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
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_cmc_csv(report: EvalReport, path) -> None:
    """CMC curve as a two-column CSV (rank, cmc)."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "cmc"])
            for k, v in enumerate(report.cmc, start=1):
                writer.writerow([k, repr(float(v))])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
