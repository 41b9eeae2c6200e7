"""Loss-based hard-sample/noise partitioning and balanced-identity resampling.

The loss signal is the batch-hard triplet loss of each sample treated as an
anchor over the full set.  Samples whose loss clears the noise threshold
are marked for deletion, the band between the two thresholds is kept as
hard samples for extra augmentation, and the rest is clean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .losses import TripletParams, batch_hard
from .tensorio import MetaTable, write_csv


class SampleClass(Enum):
    CLEAN = "clean"
    HARD = "hard"
    NOISE = "noise"


@dataclass(frozen=True)
class MiningThresholds:
    t_hard: float
    t_noise: float

    def __post_init__(self):
        if not (self.t_hard < self.t_noise):
            raise ConfigError(f"t_hard ({self.t_hard}) must be strictly below t_noise ({self.t_noise})")


@dataclass
class MiningReport:
    losses: np.ndarray
    partition: list

    def counts(self) -> dict:
        out = {cls: 0 for cls in SampleClass}
        for c in self.partition:
            out[c] += 1
        return out


@dataclass(frozen=True)
class ResamplePlan:
    """Extra copies per sample index; samples without copies are omitted."""

    copies: list


def per_sample_losses(features, meta: MetaTable, params: TripletParams = TripletParams()):
    """Batch-hard triplet loss of every sample as an anchor over the full set.

    Samples that lack a positive (singleton identity) or a negative (single
    identity in the whole table) get loss 0 and trigger a RuntimeWarning.
    The hardest pairs come from ``losses.batch_hard``, the selector the
    triplet loss uses, so the full n x n matrix never materializes.  Raises
    ShapeError unless ``features`` is 2-D and DataError on NaN or Inf.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("features contain NaN or Inf")
    n = x.shape[0]
    if len(meta) != n:
        raise ConfigError(f"metadata length {len(meta)} does not match {n} features")

    d_pos, d_neg, _, _, has_pos, has_neg = batch_hard(x, meta.person_ids)
    ok = has_pos & has_neg
    losses = np.where(ok, np.maximum(d_pos - d_neg + params.margin, 0.0), 0.0)
    degenerate = int(np.count_nonzero(~ok))
    if degenerate:
        warnings.warn(
            f"{degenerate} sample(s) lack a positive or negative pair; assigned loss 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return losses


def partition_samples(losses, thresholds: MiningThresholds) -> MiningReport:
    """Split samples into clean/hard/noise by the loss thresholds.

    Noise iff loss >= t_noise, hard iff t_hard <= loss < t_noise, clean
    otherwise.  Raises DataError on a NaN loss.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if np.isnan(losses).any():
        raise DataError("losses contain NaN")
    partition = []
    for v in losses:
        if v >= thresholds.t_noise:
            partition.append(SampleClass.NOISE)
        elif v >= thresholds.t_hard:
            partition.append(SampleClass.HARD)
        else:
            partition.append(SampleClass.CLEAN)
    return MiningReport(losses=losses, partition=partition)


def thresholds_from_quantiles(losses, q_hard: float = 0.7, q_noise: float = 0.97) -> MiningThresholds:
    """Derive thresholds as empirical quantiles (linear interpolation).

    Degenerate distributions may produce t_hard == t_noise, which
    :class:`MiningThresholds` rejects.  Raises DataError on a NaN loss.
    """
    if not (0.0 < q_hard < q_noise < 1.0):
        raise ConfigError(
            f"quantile fractions must satisfy 0 < q_hard < q_noise < 1, got {q_hard}, {q_noise}"
        )
    losses = np.asarray(losses, dtype=np.float64)
    if np.isnan(losses).any():
        raise DataError("losses contain NaN")
    if losses.size == 0:
        raise ConfigError("cannot take quantiles of an empty loss vector")
    t_hard, t_noise = np.quantile(losses, [q_hard, q_noise], method="linear")
    return MiningThresholds(t_hard=float(t_hard), t_noise=float(t_noise))


def balanced_resample_plan(meta: MetaTable, target: int = 20, max_copies: int = 5) -> ResamplePlan:
    """Copy plan that tops identities up to ``target`` samples.

    Copies are dealt round-robin over an identity's samples in table order,
    each sample receiving at most ``max_copies`` extras, stopping once the
    post-resample count reaches min(target, k * (1 + max_copies)).
    Identities already at or above ``target`` get nothing.
    """
    if len(meta) == 0:
        raise ConfigError("metadata table is empty")
    if target < 1 or max_copies < 1:
        raise ConfigError("target and max_copies must be >= 1")

    by_id: dict = {}
    for idx, entry in enumerate(meta):
        by_id.setdefault(entry.person_id, []).append(idx)

    copies: dict = {}
    for indices in by_id.values():
        k = len(indices)
        if k >= target:
            continue
        need = min(target, k * (1 + max_copies)) - k
        for i, idx in enumerate(indices):
            c = need // k + (i < need % k)
            if c > 0:
                copies[idx] = c
    return ResamplePlan(copies=sorted(copies.items()))


def save_mining_report(report: MiningReport, meta: MetaTable, path) -> None:
    """Serialize a mining report to CSV with columns image_id,loss,class."""
    if len(meta) != len(report.partition):
        raise ConfigError("metadata length does not match report length")
    write_csv(
        path,
        ["image_id", "loss", "class"],
        ([e.image_id, repr(float(loss)), cls.value]
         for e, loss, cls in zip(meta, report.losses, report.partition)),
    )
