"""Deterministic synthetic embedding benchmark.

Stands in for retrieval datasets that cannot be redistributed: each
identity gets a random unit-norm center, samples scatter around it with
Gaussian spread, and a fraction of samples is relabeled to a wrong
identity to simulate occlusion-style label noise.  Everything is drawn
from one Philox stream, so a seed pins the dataset byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensorio import MetaTable


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox generator; identical seeds give identical streams.

    The seed must be a non-negative integer (ConfigError otherwise).
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class SynthParams:
    n_ids: int = 50
    per_id: int = 20
    dims: int = 32
    cluster_spread: float = 0.3
    noise_frac: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_ids < 2 or self.per_id < 2:
            raise ConfigError(f"need n_ids >= 2 and per_id >= 2, got {self.n_ids}, {self.per_id}")
        if self.dims < 1:
            raise ConfigError(f"dims must be >= 1, got {self.dims}")
        if not (self.cluster_spread > 0.0):
            raise ConfigError(f"cluster_spread must be positive, got {self.cluster_spread}")
        if not (0.0 <= self.noise_frac <= 1.0):
            raise ConfigError(f"noise_frac must be in [0, 1], got {self.noise_frac}")


def generate_synthetic(params: SynthParams):
    """Build (features, meta) for a clustered synthetic identity dataset.

    Draw order: per identity one center then its sample block, finally the
    relabeling choices.  Camera tags alternate 0/1 within each identity so
    the same-camera exclusion path stays exercisable.  The relabel count is
    round(noise_frac * n).  Each sample block is drawn in float64 and
    rounded straight into the float32 features.
    """
    rng = make_rng(params.seed)
    n = params.n_ids * params.per_id
    features = np.empty((n, params.dims), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    for pid in range(params.n_ids):
        center = rng.normal(0.0, 1.0, params.dims)
        center /= np.linalg.norm(center)
        block = slice(pid * params.per_id, (pid + 1) * params.per_id)
        features[block] = center + rng.normal(
            0.0, params.cluster_spread, (params.per_id, params.dims)
        )
        labels[block] = pid

    n_noise = int(round(params.noise_frac * n))
    if n_noise > 0:
        victims = rng.choice(n, size=n_noise, replace=False)
        for idx in victims:
            wrong = int(rng.integers(0, params.n_ids - 1))
            if wrong >= labels[idx]:
                wrong += 1
            labels[idx] = wrong

    image_ids = [f"id{b:04d}_img{j:03d}" for b in range(params.n_ids) for j in range(params.per_id)]
    cameras = [j % 2 for j in range(params.per_id)] * params.n_ids
    return features, MetaTable.from_columns(image_ids, labels.tolist(), cameras)


def split_query_gallery(features, meta: MetaTable, query_per_id: int):
    """Per labeled identity, route the first ``query_per_id`` samples to the
    query side and the rest to the gallery.

    Returns (q_features, q_meta, g_features, g_meta); order inside each
    side follows the original table.
    """
    if query_per_id < 1:
        raise ConfigError(f"query_per_id must be >= 1, got {query_per_id}")
    features = np.asarray(features)
    if len(meta) != len(features):
        raise ConfigError(f"metadata length {len(meta)} does not match {len(features)} features")
    is_query = meta.identity_places()[0] < query_per_id
    q_idx, g_idx = np.flatnonzero(is_query), np.flatnonzero(~is_query)
    if q_idx.size == 0 or g_idx.size == 0:
        raise ConfigError("split produced an empty query or gallery side")
    return (
        features[q_idx],
        meta.subset(q_idx),
        features[g_idx],
        meta.subset(g_idx),
    )
