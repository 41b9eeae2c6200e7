"""Seeded property suites for query expansion and distance ensembling
against their float64 references."""

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from naive_reference import naive_aqe
from reidkit import AqeParams, aqe_expand, ensemble_distances

MAGNITUDES = st.sampled_from([1.0, 1e2, 1e3, 1e4])


@st.composite
def _aqe_instances(draw):
    """Queries and a gallery of duplicated rows (exact similarity ties),
    with k anywhere from 1 to the gallery size."""
    nq = draw(st.integers(1, 4))
    n_base = draw(st.integers(1, 6))
    ng = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(MAGNITUDES)
    base = rng.normal(size=(n_base, d)) * scale
    rows = draw(st.lists(st.integers(0, n_base - 1), min_size=ng, max_size=ng))
    g = base[rows].astype(np.float32)
    q = (rng.normal(size=(nq, d)) * scale).astype(np.float32)
    if draw(st.booleans()):
        q[0] = g[0]  # a query equal to gallery rows
    return q, g, draw(st.integers(1, ng)), draw(st.sampled_from([0.5, 1.0, 3.0]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_aqe_instances())
def test_aqe_expand_matches_the_naive_loop(instance):
    q, g, k, alpha = instance
    got = aqe_expand(q, g, AqeParams(k=k, alpha=alpha))
    ref = naive_aqe(q, g, k, alpha)
    assert np.abs(got.astype(np.float64) - ref).max() < 1e-6


@st.composite
def _ensemble_instances(draw):
    """Non-negative matrices of one shape, with heavy ties and a magnitude
    up to 1e4."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    n = draw(st.integers(1, 4))
    scale = draw(MAGNITUDES)
    mats = []
    for _ in range(n):
        m = draw(hnp.arrays(np.float32, shape, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
        if draw(st.booleans()):
            m = m + draw(hnp.arrays(
                np.float32, shape, elements=st.floats(0, 1, width=32)))
        mats.append((m * np.float32(scale)).astype(np.float32))
    return mats


def _float64_sum(mats, normalize):
    total = np.zeros(mats[0].shape, dtype=np.float64)
    for m in mats:
        m = m.astype(np.float64)
        if normalize:
            lo, hi = m.min(), m.max()
            m = (m - lo) / (hi - lo) if hi > lo else np.zeros_like(m)
        total += m
    return total


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_ensemble_instances(), st.booleans())
def test_ensemble_distances_matches_a_float64_sum(mats, normalize):
    got = ensemble_distances(mats, normalize=normalize).astype(np.float64)
    ref = _float64_sum(mats, normalize)
    # the float32 result carries a relative rounding error, so entries past 1 scale the bound
    assert np.all(np.abs(got - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))
