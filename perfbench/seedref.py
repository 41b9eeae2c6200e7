"""Frozen reference numerics for the benchmark's correctness gate.

These are the computations of reidkit 0.1.0, the release the benchmark was
written against, copied here with the same float64 operations, except that
re-ranking's Jaccard sums skip the zero entries of V: the terms dropped are
exact zeros, so only the order of summation changes, and the reference takes
a fraction of the op's time.  Later changes under
``src/`` are checked against these results, never against themselves, so
do not edit this file to follow the library: a change that moves an output
beyond the gate's tolerance has changed what reidkit computes.

The module imports numpy only.  It runs as a child process of the
benchmark, so its memory does not count towards the measured process's
peak RSS:

    python3 perfbench/seedref.py <retrieval|train> <workdir>

It reads the inputs the benchmark wrote to ``workdir`` and writes
``workdir/reference.npz``; a retrieval reference also writes its final
distances to ``workdir/reference.dmat``, and first writes the external
model's distance matrix when the config asks for one, because that matrix
is as large as the op's own distances.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

_HEADER = struct.Struct("<4sII")
_BLOCK_ROWS = 1024


# ---- file readers (independent of reidkit.tensorio) -------------------------

def read_matrix(path) -> np.ndarray:
    """Payload of an ``.fvec`` or ``.dmat`` file as an (n, d) float32 array."""
    blob = Path(path).read_bytes()
    _, n, d = _HEADER.unpack_from(blob)
    return np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(n, d)


def write_dmat(m, path) -> None:
    """Write an (n_query, n_gallery) array as an ``.dmat`` file."""
    m = np.ascontiguousarray(m, dtype="<f4")
    Path(path).write_bytes(_HEADER.pack(b"RDM1", *m.shape) + m.tobytes())


def matrix_shape(path) -> tuple:
    with open(path, "rb") as fh:
        _, n, d = _HEADER.unpack(fh.read(_HEADER.size))
    return n, d


def read_rows(path, start, stop) -> np.ndarray:
    """Rows ``start:stop`` of an ``.fvec`` or ``.dmat`` file, read without the rest."""
    n, d = matrix_shape(path)
    stop = min(stop, n)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size + 4 * start * d)
        return np.fromfile(fh, dtype="<f4", count=(stop - start) * d).reshape(stop - start, d)


def read_meta(path):
    """(person_ids, camera_ids) of a metadata CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    pids = np.array([int(r[1]) for r in rows], dtype=np.int64)
    cams = np.array([int(r[2]) for r in rows], dtype=np.int64)
    return pids, cams


# ---- retrieval ---------------------------------------------------------------

def l2_normalize(m):
    x = np.asarray(m).astype(np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return (x / np.where(norms == 0.0, 1.0, norms)).astype(np.float32)


def euclidean(q, g):
    q64 = q.astype(np.float64)
    g64 = g.astype(np.float64)
    d2 = np.sum(q64 * q64, axis=1)[:, None] + np.sum(g64 * g64, axis=1)[None, :] - 2.0 * (q64 @ g64.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2).astype(np.float32)


def fuse(orig, flipped):
    return ((orig.astype(np.float64) + flipped.astype(np.float64)) * 0.5).astype(np.float32)


def aqe(q, g, k, alpha):
    qn = l2_normalize(q).astype(np.float64)
    gn = l2_normalize(g).astype(np.float64)
    sim = qn @ gn.T
    order = np.argsort(-sim, axis=1, kind="stable")[:, :k]
    expanded = np.empty_like(qn)
    for i in range(qn.shape[0]):
        idx = order[i]
        s = sim[i, idx]
        w = np.where(s > 0.0, np.power(np.maximum(s, 0.0), alpha), 0.0)
        expanded[i] = (qn[i] + w @ gn[idx]) / (1.0 + w.sum())
    return l2_normalize(expanded)


def rerank(q, g, k1, k2, lam):
    nq, ng = q.shape[0], g.shape[0]
    n = nq + ng
    feats = np.vstack([q.astype(np.float32), g.astype(np.float32)])
    dist = euclidean(feats, feats).astype(np.float64)
    rank = np.argsort(dist, axis=1, kind="stable")
    half = math.ceil(k1 / 2)
    top_k1, top_half = rank[:, :k1], rank[:, :half]
    in_top_k1 = np.zeros((n, n), dtype=bool)
    in_top_k1[np.arange(n)[:, None], top_k1] = True
    in_top_half = np.zeros((n, n), dtype=bool)
    in_top_half[np.arange(n)[:, None], top_half] = True
    recip = [top_k1[p][in_top_k1[top_k1[p], p]] for p in range(n)]
    recip_half = [top_half[p][in_top_half[top_half[p], p]] for p in range(n)]

    V = np.zeros((n, n), dtype=np.float64)
    for p in range(n):
        member = np.zeros(n, dtype=bool)
        member[recip[p]] = True
        expanded = member.copy()
        for cand in recip[p]:
            cset = recip_half[cand]
            if member[cset].sum() >= (2.0 / 3.0) * len(cset):
                expanded[cset] = True
        idx = np.flatnonzero(expanded)
        weights = np.exp(-dist[p, idx])
        total = weights.sum()
        if total > 0.0:
            V[p, idx] = weights / total
    V = V[rank[:, :k2]].mean(axis=1)

    row_sums = V.sum(axis=1)
    vq, vg = V[:nq], V[nq:]
    jaccard = np.empty((nq, ng), dtype=np.float64)
    for i in range(nq):
        support = np.flatnonzero(vq[i])  # V >= 0, so min(0, x) adds nothing
        mins = np.minimum(vq[i, support][None, :], vg[:, support]).sum(axis=1)
        maxs = row_sums[i] + row_sums[nq:] - mins
        with np.errstate(invalid="ignore", divide="ignore"):
            row = 1.0 - mins / maxs
        jaccard[i] = np.where(maxs > 0.0, row, 1.0)
    blended = (1.0 - lam) * jaccard + lam * dist[:nq, nq:]
    return np.maximum(blended, 0.0).astype(np.float32)


def ensemble(mats, normalize):
    total = np.zeros(mats[0].shape, dtype=np.float64)
    for m in mats:
        m64 = m.astype(np.float64)
        if normalize:
            lo, hi = m64.min(), m64.max()
            m64 = (m64 - lo) / (hi - lo) if hi > lo else np.zeros(m64.shape)
        total += m64
    return total.astype(np.float32)


def evaluate(dist, q_pids, q_cams, g_pids, g_cams, exclude_same_camera):
    """(mAP, CMC top-1) of a distance matrix under the cross-camera protocol."""
    ranking = np.argsort(dist, axis=1, kind="stable")
    aps, first = [], []
    for i in range(ranking.shape[0]):
        order = ranking[i]
        match = g_pids[order] == q_pids[i]
        if exclude_same_camera:
            match = match[~(match & (g_cams[order] == q_cams[i]))]
        hits = np.flatnonzero(match)
        if hits.size == 0:
            continue
        aps.append(np.mean(np.arange(1, hits.size + 1) / (hits + 1.0)))
        first.append(hits[0] + 1)
    return float(np.mean(aps)), float((np.asarray(first) <= 1).mean())


def retrieval(cfg: dict):
    """Rows [(name, mAP, top-1)] and final distances of a pipeline config.

    Follows the stage order of ``reidkit.pipeline.run_pipeline`` with the
    euclidean metric.
    """
    q = read_matrix(cfg["query_features"])
    g = read_matrix(cfg["gallery_features"])
    q_pids, q_cams = read_meta(cfg["query_meta"])
    g_pids, g_cams = read_meta(cfg["gallery_meta"])
    exclude = bool(cfg.get("exclude_same_camera", False))
    k1, k2, lam = cfg.get("k1", 20), cfg.get("k2", 6), cfg.get("lam", 0.1)
    aqe_k, aqe_alpha = cfg.get("aqe_k", 5), cfg.get("aqe_alpha", 3.0)
    aqe_on, stage = cfg.get("aqe", False), cfg.get("aqe_stage", "post")
    rows = []

    def score(name, dist):
        rows.append((name, *evaluate(dist, q_pids, q_cams, g_pids, g_cams, exclude)))

    qn, gn = l2_normalize(q), l2_normalize(g)
    dist = euclidean(qn, gn)
    score("baseline", dist)
    if cfg.get("tta", False):
        qn = l2_normalize(fuse(q, read_matrix(cfg["query_flipped"])))
        gn = l2_normalize(fuse(g, read_matrix(cfg["gallery_flipped"])))
        dist = euclidean(qn, gn)
        score("+tta", dist)
    if aqe_on and stage == "pre":
        qn = aqe(qn, gn, aqe_k, aqe_alpha)
        dist = euclidean(qn, gn)
        score("+aqe", dist)
    if cfg.get("rerank", False):
        dist = rerank(qn, gn, k1, k2, lam)
        score("+rerank", dist)
    if aqe_on and stage == "post":
        qn = aqe(qn, gn, aqe_k, aqe_alpha)
        dist = rerank(qn, gn, k1, k2, lam) if cfg.get("rerank", False) else euclidean(qn, gn)
        score("+aqe", dist)
    if cfg.get("ensemble"):
        mats = [dist] + [read_matrix(p) for p in cfg["ensemble"]]
        dist = ensemble(mats, bool(cfg.get("normalize_ensemble", False)))
        score("+ensemble", dist)
    return rows, dist


def external_model(q, g, seed, spread):
    """A second model's distances: the same embeddings seen with more noise."""
    rng = np.random.default_rng([seed, 4])
    views = [l2_normalize(x + rng.normal(0.0, spread, x.shape)) for x in (q, g)]
    return euclidean(*views)


# ---- training side -----------------------------------------------------------

def gem(fmap, p=3.0):
    x = fmap.astype(np.float64)
    peak = x.max(axis=(0, 1))
    safe = np.where(peak == 0.0, 1.0, peak)
    return (peak * np.mean((x / safe) ** p, axis=(0, 1)) ** (1.0 / p)).astype(np.float32)


def _pairwise(x):
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _batch_hard(dist, labels):
    n = dist.shape[0]
    same = labels[:, None] == labels[None, :]
    pos_idx = np.argmax(np.where(same & ~np.eye(n, dtype=bool), dist, -np.inf), axis=1)
    neg_idx = np.argmin(np.where(~same, dist, np.inf), axis=1)
    rows = np.arange(n)
    return dist[rows, pos_idx], dist[rows, neg_idx], pos_idx, neg_idx


def _cosine(x):
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    y = x / safe[:, None]
    return y @ y.T, y, safe


def _circle_terms(sim, labels, m=0.4, gamma=64.0):
    n = labels.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = labels[:, None] == labels[None, :]
    pos_mask, neg_mask = upper & same, upper & ~same
    s_p, s_n = sim[pos_mask], sim[neg_mask]
    a = gamma * np.maximum(s_n + m, 0.0) * (s_n - m)
    b = -gamma * np.maximum(1.0 + m - s_p, 0.0) * (s_p - (1.0 - m))
    log_a = a.max() + np.log(np.sum(np.exp(a - a.max())))
    log_b = b.max() + np.log(np.sum(np.exp(b - b.max())))
    return pos_mask, neg_mask, a, b, log_a, log_b


def combined_loss(x, labels, margin=0.4):
    """Batch-hard triplet plus circle loss, both with weight 1 (the defaults)."""
    x = np.asarray(x, dtype=np.float64)
    d_pos, d_neg, _, _ = _batch_hard(_pairwise(x), labels)
    triplet = float(np.maximum(d_pos - d_neg + margin, 0.0).mean())
    sim, _, _ = _cosine(x)
    _, _, _, _, log_a, log_b = _circle_terms(sim, labels)
    return triplet + float(np.logaddexp(0.0, log_a + log_b))


def loss_gradient(x, labels, margin=0.4, m=0.4, gamma=64.0):
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    d_pos, d_neg, pos_idx, neg_idx = _batch_hard(_pairwise(x), labels)
    grad_t = np.zeros_like(x)
    scale = 1.0 / n
    for a in np.flatnonzero((d_pos - d_neg + margin) > 0.0):
        p, ng = pos_idx[a], neg_idx[a]
        if d_pos[a] > 0.0:
            u = (x[a] - x[p]) / d_pos[a]
            grad_t[a] += scale * u
            grad_t[p] -= scale * u
        if d_neg[a] > 0.0:
            v = (x[a] - x[ng]) / d_neg[a]
            grad_t[a] -= scale * v
            grad_t[ng] += scale * v

    sim, y, norms = _cosine(x)
    pos_mask, neg_mask, a_t, b_t, log_a, log_b = _circle_terms(sim, labels, m, gamma)
    z = log_a + log_b
    sigma = 1.0 / (1.0 + np.exp(-z)) if z >= 0.0 else np.exp(max(z, -700.0)) / (1.0 + np.exp(max(z, -700.0)))
    s_n, s_p = sim[neg_mask], sim[pos_mask]
    w = np.zeros_like(sim)
    w[neg_mask] = sigma * np.exp(a_t - log_a) * np.where(s_n + m > 0.0, 2.0 * gamma * s_n, 0.0)
    w[pos_mask] += sigma * np.exp(b_t - log_b) * np.where(1.0 + m - s_p > 0.0, -2.0 * gamma * (1.0 - s_p), 0.0)
    w = w + w.T
    grad_c = (w @ y - np.sum(w * sim, axis=1)[:, None] * y) / norms[:, None]
    grad_c[np.linalg.norm(x, axis=1) == 0.0] = 0.0
    return grad_t + grad_c


def per_sample_losses(features, labels, margin=0.4):
    """Batch-hard triplet loss of every sample as an anchor over the whole set."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    losses = np.zeros(n, dtype=np.float64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (x[start:stop] @ x.T)
        np.maximum(d2, 0.0, out=d2)
        dist = np.sqrt(d2)
        same = labels[start:stop, None] == labels[None, :]
        diff = ~same
        same[np.arange(stop - start), np.arange(start, stop)] = False
        d_pos = np.where(same, dist, -np.inf).max(axis=1)
        d_neg = np.where(diff, dist, np.inf).min(axis=1)
        ok = same.any(axis=1) & diff.any(axis=1)
        losses[start:stop] = np.where(ok, np.maximum(d_pos - d_neg + margin, 0.0), 0.0)
    return losses


def partition_counts(losses, q_hard=0.7, q_noise=0.97):
    """(clean, hard, noise) counts under quantile thresholds."""
    t_hard, t_noise = np.quantile(losses, [q_hard, q_noise], method="linear")
    noise = int(np.sum(losses >= t_noise))
    hard = int(np.sum((losses >= t_hard) & (losses < t_noise)))
    return len(losses) - hard - noise, hard, noise


def train(workdir: Path):
    fmaps = np.load(workdir / "step0_fmaps.npy")
    labels = np.load(workdir / "step0_labels.npy")
    pooled = np.stack([gem(f) for f in fmaps])
    pool_losses = per_sample_losses(np.load(workdir / "pool.npy"), np.load(workdir / "pool_labels.npy"))
    return {
        "pooled": pooled,
        "loss": combined_loss(pooled, labels),
        "grad_norm": float(np.linalg.norm(loss_gradient(pooled, labels))),
        "losses": pool_losses,
        "counts": np.array(partition_counts(pool_losses)),
    }


def main(argv) -> int:
    kind, workdir = argv[0], Path(argv[1])
    if kind == "retrieval":
        spec = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
        cfg, external = spec["pipeline"], spec["external"]
        if external:
            q, g = read_matrix(cfg["query_features"]), read_matrix(cfg["gallery_features"])
            write_dmat(external_model(q, g, external["seed"], external["spread"]), cfg["ensemble"][0])
        rows, dist = retrieval(cfg)
        write_dmat(dist, workdir / "reference.dmat")
        out = {
            "names": np.array([r[0] for r in rows]),
            "maps": np.array([r[1] for r in rows]),
            "top1": np.array([r[2] for r in rows]),
        }
    else:
        out = train(workdir)
    np.savez(workdir / "reference.npz", **out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
