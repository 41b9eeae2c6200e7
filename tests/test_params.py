"""Every params object checks its own fields when it is built, so each
function that takes one sees only valid values."""

import dataclasses
import math

import numpy as np
import pytest

from reidkit import (
    AqeParams,
    CircleParams,
    CombinedParams,
    ConfigError,
    EraseParams,
    GemParams,
    LgtParams,
    MetaTable,
    MiningThresholds,
    PipelineConfig,
    RerankParams,
    SampleMeta,
    SynthParams,
    TripletParams,
    WarmupSchedule,
    loss_gradient,
    per_sample_losses,
)

NAN = math.nan

# One invalid value per check of every params class.
INVALID = [
    (TripletParams, dict(margin=-1.0)),
    (TripletParams, dict(margin=NAN)),
    (CircleParams, dict(m=0.0)),
    (CircleParams, dict(m=1.5)),
    (CircleParams, dict(gamma=-1.0)),
    (CircleParams, dict(gamma=NAN)),
    (CombinedParams, dict(w_triplet=0.0, w_circle=0.0)),
    (CombinedParams, dict(w_triplet=-1.0, w_circle=0.5)),
    (GemParams, dict(p=0.5)),
    (GemParams, dict(p=NAN)),
    (SynthParams, dict(n_ids=1)),
    (SynthParams, dict(per_id=1)),
    (SynthParams, dict(dims=0)),
    (SynthParams, dict(cluster_spread=0.0)),
    (SynthParams, dict(noise_frac=1.5)),
    (MiningThresholds, dict(t_hard=0.5, t_noise=0.5)),
    (MiningThresholds, dict(t_hard=NAN, t_noise=1.0)),
    (RerankParams, dict(k1=0)),
    (RerankParams, dict(k1=2, k2=3)),
    (RerankParams, dict(k2=0)),
    (RerankParams, dict(lam=-0.1)),
    (RerankParams, dict(lam=1.2)),
    (AqeParams, dict(k=-1)),
    (AqeParams, dict(alpha=-1.0)),
    (AqeParams, dict(alpha=NAN)),
    (PipelineConfig, dict(metric="bogus")),
    (PipelineConfig, dict(aqe_stage="during")),
    (WarmupSchedule, dict(base_lr=0.0)),
    (WarmupSchedule, dict(warmup_epochs=200)),
    (WarmupSchedule, dict(decay="linear")),
]
for region_cls in (EraseParams, LgtParams):
    INVALID += [
        (region_cls, dict(probability=1.5)),
        (region_cls, dict(area_low=0.0)),
        (region_cls, dict(area_low=0.5, area_high=0.2)),
        (region_cls, dict(area_high=1.0)),
        (region_cls, dict(aspect_low=0.0)),
        (region_cls, dict(aspect_low=2.0, aspect_high=1.0)),
    ]

# Values at the edge of each valid range.
BOUNDARY = [
    (TripletParams, dict(margin=0.0)),
    (CombinedParams, dict(w_triplet=0.0, w_circle=1.0)),
    (GemParams, dict(p=1.0)),
    (SynthParams, dict(n_ids=2, per_id=2, dims=1, noise_frac=1.0)),
    (RerankParams, dict(k1=1, k2=1, lam=0.0)),
    (RerankParams, dict(k1=3, k2=3, lam=1.0)),
    (AqeParams, dict(k=0, alpha=0.0)),
    (LgtParams, dict(probability=0.0, area_low=0.5, area_high=0.5)),
    (EraseParams, dict(probability=1.0, aspect_low=2.0, aspect_high=2.0)),
    (PipelineConfig, dict(metric="cosine", aqe_stage="pre")),
]


@pytest.mark.parametrize(
    "cls, kwargs", INVALID, ids=[f"{c.__name__}-{k}" for c, k in INVALID])
def test_invalid_params_are_rejected_when_built(cls, kwargs):
    with pytest.raises(ConfigError):
        cls(**kwargs)


@pytest.mark.parametrize(
    "cls, kwargs", BOUNDARY, ids=[f"{c.__name__}-{k}" for c, k in BOUNDARY])
def test_boundary_params_are_accepted(cls, kwargs):
    params = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(params, name) == value


def _batch():
    x = np.random.default_rng(4).normal(size=(6, 5))
    return x, np.array([0, 0, 1, 1, 2, 2])


@pytest.mark.parametrize("build", [
    lambda: CombinedParams(circle=CircleParams(m=1.5)),
    lambda: CombinedParams(circle=CircleParams(gamma=-1.0)),
    lambda: CombinedParams(triplet=TripletParams(margin=-1.0)),
], ids=["m", "gamma", "margin"])
def test_loss_gradient_never_sees_params_combined_loss_rejects(build):
    x, labels = _batch()
    with pytest.raises(ConfigError):
        loss_gradient(x, labels, build())


def test_per_sample_losses_never_sees_a_negative_margin():
    x, labels = _batch()
    meta = MetaTable([SampleMeta(f"s{i}", int(p)) for i, p in enumerate(labels)])
    with pytest.raises(ConfigError, match="margin"):
        per_sample_losses(x, meta, TripletParams(margin=-1.0))


def test_region_params_keep_their_fields():
    names = ["probability", "area_low", "area_high", "aspect_low", "aspect_high"]
    assert [f.name for f in dataclasses.fields(LgtParams)] == names
    assert [f.name for f in dataclasses.fields(EraseParams)] == names + ["fill"]
    assert EraseParams() != LgtParams()
