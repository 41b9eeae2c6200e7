"""Tests of the benchmark itself: span arithmetic, the traced replay, and
the correctness gate.  Run with ``python -m pytest perfbench/tests``."""

import numpy as np
import pytest

import seedref
import workloads
from spans import NullTracer, Span, Tracer, median_over, per_op, self_times


def _span(span_id, start, end, parent=None, name="x", op="op-0"):
    return Span(span_id, name, start, end, parent, op)


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, 0.0, 10.0, name="cli.main"),
        _span(1, 1.0, 4.0, 0, name="a"),
        _span(2, 3.0, 6.0, 0, name="b"),      # overlaps a: union 1..6 is subtracted once
        _span(3, 2.0, 3.0, 1, name="c"),
        _span(4, 9.0, 12.0, 0, name="d"),     # overhangs its parent: only 9..10 counts
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_per_op_sums_and_medians():
    spans = [
        _span(0, 0.0, 2.0, op="traced-0"),
        _span(1, 2.0, 3.0, op="traced-0"),
        _span(2, 0.0, 4.0, op="traced-1"),
    ]
    spans[0].counts["flop"] = 10
    assert per_op(spans, "x") == {"traced-0": 3.0, "traced-1": 4.0}
    assert per_op(spans, "x", "calls") == {"traced-0": 2, "traced-1": 1}
    assert per_op(spans, "x", "flop") == {"traced-0": 10, "traced-1": 0}
    assert median_over(["traced-0", "traced-1", "traced-2"], per_op(spans, "x")) == 3.0


def test_tracer_links_parents_and_ops():
    tracer = Tracer()
    tracer.op = "traced-0"
    with tracer.span("outer"):
        with tracer.span("inner", bytes=5):
            pass
    outer, inner = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.op == outer.op == "traced-0"
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.counts == {"bytes": 5}
    with NullTracer().span("ignored") as nothing:
        assert nothing is None


SMALL_RETRIEVAL = {
    "rerank": dict(options=dict(rerank=True, aqe=True), via_cli=False),
    "cli": dict(
        options=dict(tta=True, aqe=True, aqe_stage="pre", normalize_ensemble=True,
                     exclude_same_camera=True),
        via_cli=True, external_model=True,
    ),
}


@pytest.fixture(params=sorted(SMALL_RETRIEVAL))
def retrieval(request, tmp_path):
    wl = workloads.Retrieval(
        synth=dict(n_ids=12, per_id=6, dims=16, cluster_spread=0.2), **SMALL_RETRIEVAL[request.param])
    wl.setup(3, tmp_path / "setup", NullTracer())
    return wl, wl.reference()


def test_traced_replay_matches_the_real_run(retrieval):
    wl, ref = retrieval
    tracer = Tracer()
    real = wl.op(None, tracer, traced=False)
    traced = wl.op(None, tracer, traced=True)
    assert wl.check(real, None, ref) == []
    assert wl.check(traced, None, ref) == []
    assert wl.same_result(real, traced) == []
    names = {s.name for s in tracer.spans}
    assert "pipeline.run_pipeline" in names and "pipeline.replay" in names
    assert ("rerank.k_reciprocal_rerank" in names) == bool(wl.cfg.get("rerank"))
    assert ("cli.main" in names) == wl.via_cli


def _swap_columns(dist):
    dist[:, [0, 5]] = dist[:, [5, 0]]


def _nan_entry(dist):
    dist[-1, -1] = np.nan


@pytest.mark.parametrize("perturb", [_swap_columns, _nan_entry])
def test_gate_trips_on_perturbed_distances(retrieval, perturb):
    wl, ref = retrieval
    out = wl.op(None, NullTracer())
    path = out["out_dir"] / "distances.dmat"
    blob = bytearray(path.read_bytes())
    dist = seedref.read_matrix(path).copy()
    perturb(dist)
    blob[12:] = dist.astype("<f4").tobytes()
    path.write_bytes(bytes(blob))
    assert any("final distances" in p for p in wl.check(out, None, ref))


def test_gate_trips_on_a_wrong_score(retrieval):
    wl, ref = retrieval
    out = wl.op(None, NullTracer())
    name, m, t = out["rows"][0]
    out["rows"][0] = (name, m + 1e-5, t)
    assert any(name in p for p in wl.check(out, None, ref))


def test_replay_comparison_trips_on_a_changed_artifact(retrieval):
    wl, _ = retrieval
    real = wl.op(None, NullTracer(), traced=False)
    traced = wl.op(None, Tracer(), traced=True)
    (traced["out_dir"] / "report.txt").write_text("map=0.0\n", encoding="utf-8")
    assert wl.same_result(real, traced) == ["replay report.txt differs"]


@pytest.fixture()
def train(tmp_path):
    wl = workloads.TrainEpoch(
        synth=dict(n_ids=20, per_id=8, dims=32, cluster_spread=0.04, noise_frac=0.05),
        ids_per_batch=4, per_id=4, image_hw=(16, 8), fmap_hw=(2, 2), image_pool=8)
    wl.setup(5, tmp_path / "setup", NullTracer())
    return wl, wl.reference()


def test_train_step_and_mining_pass_the_gate(train):
    wl, ref = train
    inp = wl.inputs(0)
    tracer = Tracer()
    plain = wl.op(inp, tracer, traced=False)
    traced = wl.op(inp, tracer, traced=True)
    assert wl.check(plain, inp, ref) == []
    assert wl.same_result(plain, traced) == []
    assert {s.name for s in tracer.spans} == {
        "augment", "geometry.gem_pool", "losses.combined_loss", "losses.loss_gradient"}
    assert wl.check_finish(wl.finish(NullTracer()), ref) == []


def test_train_gate_trips_on_a_perturbed_step(train):
    wl, ref = train
    inp = wl.inputs(0)
    out = wl.op(inp, NullTracer())
    out["grad"] = out["grad"] * (1.0 + 1e-6)
    assert any("grad_norm" in p for p in wl.check(out, inp, ref))


def test_mining_gate_trips_on_moved_counts(train):
    wl, ref = train
    from reidkit import SampleClass

    out = wl.finish(NullTracer())
    out["partition"] = list(out["partition"])
    out["partition"][out["partition"].index(SampleClass.CLEAN)] = SampleClass.NOISE
    problems = wl.check_finish(out, ref)
    assert len(problems) == 1 and problems[0].startswith("mining counts")


def test_noise_scores_count_relabelled_samples(train):
    wl, _ = train
    from reidkit import SampleClass

    relabelled = [
        int(e.image_id[2:6]) != e.person_id for e in wl.meta
    ]
    perfect = [SampleClass.NOISE if r else SampleClass.CLEAN for r in relabelled]
    assert wl.noise_scores(perfect) == (1.0, 1.0)
    assert np.sum(relabelled) == round(0.05 * len(wl.meta))
