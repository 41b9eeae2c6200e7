"""Metric-learning loss kernels with analytic gradients.

Implements the batch-hard triplet loss, the pairwise circle loss, and their
weighted combination, plus the exact gradient of the combination with
respect to the embeddings.  Everything is computed in float64 with a fixed
summation order, so values are reproducible and finite-difference checks
are meaningful.

Tie-breaking is deterministic throughout: when several positives (or
negatives) attain the batch-hard extremum, the lowest index wins, and the
same subgradient convention applies to the hinge at zero (inactive).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BatchError, ConfigError
from .geometry import euclidean_distances64, row_blocks, squared_norms

_EXP_CLIP = 700.0  # exp overflow guard for the log-domain path


@dataclass(frozen=True)
class TripletParams:
    margin: float = 0.4

    def __post_init__(self):
        if not (self.margin >= 0.0):
            raise ConfigError(f"margin must be >= 0, got {self.margin}")


@dataclass(frozen=True)
class CircleParams:
    m: float = 0.4
    gamma: float = 64.0

    def __post_init__(self):
        if not (0.0 < self.m < 1.0):
            raise ConfigError(f"relaxation factor m must be in (0, 1), got {self.m}")
        if not (self.gamma > 0.0):
            raise ConfigError(f"scale gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class CombinedParams:
    """Weights and per-term parameters of the total loss."""

    w_triplet: float = 1.0
    w_circle: float = 1.0
    triplet: TripletParams = field(default_factory=TripletParams)
    circle: CircleParams = field(default_factory=CircleParams)

    def __post_init__(self):
        if not (self.w_triplet + self.w_circle > 0.0):
            raise ConfigError("at least one loss weight must be positive")


def _validate_batch(embeddings, labels):
    x = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2:
        raise BatchError(f"embeddings must be 2-D, got shape {x.shape}")
    if labels.shape != (x.shape[0],):
        raise BatchError(
            f"labels shape {labels.shape} does not match {x.shape[0]} embeddings"
        )
    if x.shape[0] < 2:
        raise BatchError("batch needs at least 2 samples")
    return x, labels


def batch_hard(x, labels):
    """Hardest positive and nearest negative of every row of ``x`` as anchor.

    ``x`` is float64 (n, d) with one label per row; an anchor is not its own
    positive, and the lowest index wins ties.  Anchors go one
    ``geometry.row_blocks`` block at a time through ``euclidean_distances64``
    with the squared norms taken once, for anchors and set alike, so one
    block of distances is alive at a time and no n x n matrix is made.
    Returns ``(d_pos, d_neg, pos_idx, neg_idx, has_pos, has_neg)``,
    n-vectors each; where ``has_pos``
    (``has_neg``) is False the anchor has no positive (negative) and the
    matching value and index are meaningless.
    """
    n = x.shape[0]
    d_pos, d_neg = np.empty(n), np.empty(n)
    pos_idx, neg_idx = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    has_pos, has_neg = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    xx = squared_norms(x)
    for rows in row_blocks(n):
        dist = euclidean_distances64(x[rows], x, xx, xx[rows])
        at = np.arange(dist.shape[0])
        pos_mask = labels[rows, None] == labels[None, :]
        neg_mask = ~pos_mask
        pos_mask[at, rows.start + at] = False
        pos_idx[rows] = np.argmax(np.where(pos_mask, dist, -np.inf), axis=1)
        neg_idx[rows] = np.argmin(np.where(neg_mask, dist, np.inf), axis=1)
        d_pos[rows] = dist[at, pos_idx[rows]]
        d_neg[rows] = dist[at, neg_idx[rows]]
        has_pos[rows] = pos_mask.any(axis=1)
        has_neg[rows] = neg_mask.any(axis=1)
    return d_pos, d_neg, pos_idx, neg_idx, has_pos, has_neg


def _batch_hard_or_raise(x, labels):
    """:func:`batch_hard` over a whole batch; BatchError names a lacking label."""
    d_pos, d_neg, pos_idx, neg_idx, has_pos, has_neg = batch_hard(x, labels)
    for found, what in ((has_pos, "positive pair"), (has_neg, "negative")):
        if not found.all():
            bad = labels[np.argmin(found)]
            raise BatchError(f"label {bad} has no {what} in the batch")
    return d_pos, d_neg, pos_idx, neg_idx


def triplet_loss_batch_hard(embeddings, labels, params: TripletParams = TripletParams()):
    """Batch-hard triplet loss.

    Per anchor a: [max_pos d(a,p) - min_neg d(a,n) + margin]_+ with
    Euclidean d; the scalar loss is the mean over anchors.

    Returns (loss, per_anchor) where per_anchor is the n-vector of hinge
    values.  Raises :class:`BatchError` if any anchor lacks a positive or a
    negative, naming the offending label.
    """
    x, labels = _validate_batch(embeddings, labels)
    d_pos, d_neg, _, _ = _batch_hard_or_raise(x, labels)
    per_anchor = np.maximum(d_pos - d_neg + params.margin, 0.0)
    return float(per_anchor.mean()), per_anchor


def _circle_pair_masks(labels):
    n = labels.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    same = labels[:, None] == labels[None, :]
    return upper & same, upper & ~same


def _cosine_matrix(x):
    """Cosine similarities plus the normalized rows and row norms.

    The norms are ``np.linalg.norm(x, axis=1)`` bit for bit, taken through
    ``squared_norms`` so that a row whose squares overflow raises DataError.
    A zero row keeps its zero norm and normalizes to itself.
    """
    norms = np.sqrt(squared_norms(x))
    y = x / np.where(norms == 0.0, 1.0, norms)[:, None]
    return y @ y.T, y, norms


def _circle_terms(sim, pos_mask, neg_mask, params):
    """Log-domain pieces of the circle loss; None when a pair set is empty."""
    m, gamma = params.m, params.gamma
    s_p = sim[pos_mask]
    s_n = sim[neg_mask]
    if s_p.size == 0 or s_n.size == 0:
        return None
    # negative pairs: gamma * [s + m]_+ * (s - m); positives mirrored
    a = gamma * np.maximum(s_n + m, 0.0) * (s_n - m)
    b = -gamma * np.maximum(1.0 + m - s_p, 0.0) * (s_p - (1.0 - m))
    a_max = a.max()
    b_max = b.max()
    log_sum_a = a_max + np.log(np.sum(np.exp(a - a_max)))
    log_sum_b = b_max + np.log(np.sum(np.exp(b - b_max)))
    return a, b, log_sum_a, log_sum_b


def circle_loss(embeddings, labels, params: CircleParams = CircleParams()):
    """Pairwise circle loss over all positive/negative pairs in the batch.

    L = log(1 + sum_n exp(gamma*a_n*(s_n - m)) * sum_p exp(-gamma*a_p*(s_p - (1-m))))
    with a_p = [1 + m - s_p]_+, a_n = [s_n + m]_+ and s the cosine
    similarity.  Evaluated via log-sum-exp, so it stays finite at large
    gamma.  Batches without a positive or without a negative pair yield 0.
    """
    x, labels = _validate_batch(embeddings, labels)
    sim, _, _ = _cosine_matrix(x)
    pos_mask, neg_mask = _circle_pair_masks(labels)
    terms = _circle_terms(sim, pos_mask, neg_mask, params)
    if terms is None:
        return 0.0
    _, _, log_sum_a, log_sum_b = terms
    return float(np.logaddexp(0.0, log_sum_a + log_sum_b))


def combined_loss(embeddings, labels, params: CombinedParams = CombinedParams()):
    """w_triplet * triplet + w_circle * circle for one batch."""
    total = 0.0
    if params.w_triplet != 0.0:
        loss_t, _ = triplet_loss_batch_hard(embeddings, labels, params.triplet)
        total += params.w_triplet * loss_t
    if params.w_circle != 0.0:
        total += params.w_circle * circle_loss(embeddings, labels, params.circle)
    return total


def _triplet_gradient(x, labels, params):
    n = x.shape[0]
    d_pos, d_neg, pos_idx, neg_idx = _batch_hard_or_raise(x, labels)
    active = (d_pos - d_neg + params.margin) > 0.0
    grad = np.zeros_like(x)
    scale = 1.0 / n
    for a in np.flatnonzero(active):
        p, ng = pos_idx[a], neg_idx[a]
        if d_pos[a] > 0.0:
            u = (x[a] - x[p]) / d_pos[a]
            grad[a] += scale * u
            grad[p] -= scale * u
        if d_neg[a] > 0.0:
            v = (x[a] - x[ng]) / d_neg[a]
            grad[a] -= scale * v
            grad[ng] += scale * v
    return grad


def _circle_gradient(x, labels, params):
    sim, y, norms = _cosine_matrix(x)
    pos_mask, neg_mask = _circle_pair_masks(labels)
    terms = _circle_terms(sim, pos_mask, neg_mask, params)
    if terms is None:
        return np.zeros_like(x)
    a, b, log_sum_a, log_sum_b = terms
    z = log_sum_a + log_sum_b
    if z >= 0.0:
        sigma = 1.0 / (1.0 + np.exp(-z))
    else:
        ez = np.exp(max(z, -_EXP_CLIP))
        sigma = ez / (1.0 + ez)
    softmax_a = np.exp(a - log_sum_a)
    softmax_b = np.exp(b - log_sum_b)

    m, gamma = params.m, params.gamma
    s_n = sim[neg_mask]
    s_p = sim[pos_mask]
    # d/ds of the log-domain exponents, zero past the relu kinks
    da_ds = np.where(s_n + m > 0.0, 2.0 * gamma * s_n, 0.0)
    db_ds = np.where(1.0 + m - s_p > 0.0, -2.0 * gamma * (1.0 - s_p), 0.0)

    w = np.zeros_like(sim)
    w[neg_mask] = sigma * softmax_a * da_ds
    w[pos_mask] += sigma * softmax_b * db_ds
    w = w + w.T  # symmetrize: each unordered pair pulls on both endpoints

    row_ws = np.sum(w * sim, axis=1)
    grad = (w @ y - row_ws[:, None] * y) / np.where(norms == 0.0, 1.0, norms)[:, None]
    grad[norms == 0.0] = 0.0  # a zero row has no direction to move along
    return grad


def loss_gradient(embeddings, labels, params: CombinedParams = CombinedParams()):
    """Analytic gradient of :func:`combined_loss` w.r.t. the embeddings.

    Returns an (n, d) float64 array.  At batch-hard ties the subgradient
    follows the loss's lowest-index selection.
    """
    x, labels = _validate_batch(embeddings, labels)
    grad = np.zeros_like(x)
    if params.w_triplet != 0.0:
        grad += params.w_triplet * _triplet_gradient(x, labels, params.triplet)
    if params.w_circle != 0.0:
        grad += params.w_circle * _circle_gradient(x, labels, params.circle)
    return grad
