import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from naive_reference import naive_evaluate
from reidkit import EvalError, MetaTable, SampleMeta, evaluate_distances


def _meta(pids, cams):
    return MetaTable([
        SampleMeta(f"s{i:04d}", int(p), int(c)) for i, (p, c) in enumerate(zip(pids, cams))
    ])


@st.composite
def _instances(draw):
    nq = draw(st.integers(1, 6))
    ng = draw(st.integers(1, 12))
    ids = st.integers(0, 3)
    cams = st.integers(0, 2)
    return (
        draw(hnp.arrays(np.int64, (nq, ng), elements=st.integers(0, 3))),  # dense ties
        draw(st.lists(ids, min_size=nq, max_size=nq)),
        draw(st.lists(cams, min_size=nq, max_size=nq)),
        draw(st.lists(ids, min_size=ng, max_size=ng)),
        draw(st.lists(cams, min_size=ng, max_size=ng)),
        draw(st.booleans()),
        draw(st.integers(1, 15)),
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_instances())
def test_evaluate_distances_matches_the_naive_oracle(instance):
    d, q_pids, q_cams, g_pids, g_cams, exclude, topk = instance
    ref = naive_evaluate(d.tolist(), q_pids, q_cams, g_pids, g_cams, exclude, topk)
    args = (d, _meta(q_pids, q_cams), _meta(g_pids, g_cams))
    if ref is None:
        with pytest.raises(EvalError):
            evaluate_distances(*args, exclude_same_camera=exclude, topk=topk)
        return
    got = evaluate_distances(*args, exclude_same_camera=exclude, topk=topk)
    ref_map, ref_cmc, ref_valid, ref_skipped = ref
    assert got.map == pytest.approx(ref_map, abs=1e-12)
    assert np.array_equal(got.cmc, ref_cmc)
    assert (got.n_valid_queries, got.n_skipped) == (ref_valid, ref_skipped)
