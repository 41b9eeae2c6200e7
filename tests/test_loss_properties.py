"""Seeded property suite for the batch-hard triplet loss and the mining
losses against the naive triplet loop."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from naive_reference import naive_triplet
from reidkit import MetaTable, SampleMeta, TripletParams, per_sample_losses, triplet_loss_batch_hard


@st.composite
def _batches(draw):
    """Identities of 2-4 samples drawn from a few base rows, so rows repeat
    within and across identities; integer-grid rows give tied distances;
    magnitudes go up to 1e3."""
    n_ids = draw(st.integers(2, 4))
    labels = np.repeat(np.arange(n_ids), draw(st.integers(2, 4)))
    d = draw(st.integers(1, 8))
    n_base = draw(st.integers(1, len(labels)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = rng.integers(-2, 3, size=(n_base, d)).astype(np.float64)
    else:
        base = rng.normal(size=(n_base, d))
    rows = draw(st.lists(st.integers(0, n_base - 1), min_size=len(labels), max_size=len(labels)))
    x = base[rows] * draw(st.sampled_from([1.0, 10.0, 1e2, 1e3]))
    return x, labels, draw(st.sampled_from([0.0, 0.4, 1.5]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_batches())
def test_batch_hard_losses_match_the_naive_triplet_loop(batch):
    x, labels, margin = batch
    _, ref = naive_triplet(x.tolist(), labels.tolist(), margin)
    _, per_anchor = triplet_loss_batch_hard(x, labels, TripletParams(margin))
    assert np.abs(per_anchor - ref).max() <= 1e-9
    meta = MetaTable([SampleMeta(f"s{i:03d}", int(p)) for i, p in enumerate(labels)])
    assert np.abs(per_sample_losses(x, meta, TripletParams(margin)) - ref).max() <= 1e-9
